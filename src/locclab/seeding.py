"""Labeled, splittable random streams.

All randomness in the package flows from one root seed through named
substreams. A substream is identified by a tuple of labels (strings or
ints); the labels are hashed with SHA-256 into a SeedSequence spawn key,
so streams are stable across runs, platforms and process counts. The
bit generator is Philox, a counter-based generator, so independently
labeled streams never overlap.

The root follows the package's count rule (``qmat._check_count``): an
integer >= 0, numpy integers included, bool refused, else SpecError; it
is never truncated. A numpy-integer label names the stream of the equal
Python int.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .qmat import _check_count

Label = str | int


def seed_sequence(root: int, *labels: Label) -> np.random.SeedSequence:
    """Derive the SeedSequence for the substream named by ``labels``."""
    _check_count(root, "seed", low=0)
    labels = tuple(int(lab) if isinstance(lab, np.integer) else lab
                   for lab in labels)
    digest = hashlib.sha256(repr(labels).encode("utf-8")).digest()
    key = tuple(int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4))
    return np.random.SeedSequence(entropy=int(root), spawn_key=key)


def rng_from(root: int, *labels: Label) -> np.random.Generator:
    """Generator over the Philox stream named by ``labels``."""
    return np.random.Generator(np.random.Philox(seed_sequence(root, *labels)))

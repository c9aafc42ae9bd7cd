"""Labeled, splittable random streams.

All randomness in the package flows from one root seed through named
substreams. A substream is identified by a tuple of labels (strings or
ints); the labels are hashed with SHA-256 into a SeedSequence spawn key,
so streams are stable across runs, platforms, numpy versions and process
counts. The bit generator is Philox, a counter-based generator, so
independently labeled streams never overlap.

The root follows the package's count rule (``qmat._check_count``): an
integer >= 0, numpy integers included, bool refused, else SpecError; it
is never truncated. A label follows the same rule or is a str: a
numpy-integer label names the stream of the equal Python int, a str
subclass (numpy's ``str_``) that of the equal str, and any other label
(bool, float, None, ...) is a SpecError, since its repr, and with it the
stream, could change with numpy's version.

Two paths give a stream's Philox key. ``seed_sequence`` and ``rng_from``
build numpy's ``SeedSequence`` for a one-off stream, and they are the
reference. ``philox_keys`` derives the keys of many streams at once: the
same SeedSequence mixing (O'Neill's seed_seq hash, as numpy implements
it), done in uint32 array arithmetic over the batch, so a stream costs
its SHA-256 and a few array operations. ``keyed_rng`` and ``rekey`` turn
a key into a generator, and re-point a generator at another key, with
the state that ``Philox(SeedSequence)`` starts from, so a caller that
plays many short streams reuses its generators.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Sequence

import numpy as np

from .errors import SpecError
from .qmat import _check_count, _is_integer

Label = str | int

# numpy's SeedSequence: a pool of 4 uint32 words, the hash constants and
# multipliers of its entropy mixing (A) and of its output (B), and those
# of ``mix``
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _spawn_key(labels: tuple) -> bytes:
    """The 16 bytes naming ``labels``: the start of the SHA-256 of the
    repr of their normalised tuple. SpecError for a label that is not an
    integer (``qmat._is_integer``) or a str."""
    if not set(map(type, labels)) <= {str, int}:
        normal = []
        for lab in labels:
            if _is_integer(lab):
                normal.append(int(lab))
            elif isinstance(lab, str):
                normal.append(str.__str__(lab))  # the equal plain str
            else:
                raise SpecError(f"stream label {lab!r} must be a str or an "
                                "integer")
        labels = tuple(normal)
    return hashlib.sha256(repr(labels).encode("utf-8")).digest()[:16]


def seed_sequence(root: int, *labels: Label) -> np.random.SeedSequence:
    """Derive the SeedSequence for the substream named by ``labels``."""
    _check_count(root, "seed", low=0)
    return np.random.SeedSequence(
        entropy=int(root), spawn_key=struct.unpack(">4I", _spawn_key(labels)))


def rng_from(root: int, *labels: Label) -> np.random.Generator:
    """Generator over the Philox stream named by ``labels``."""
    return np.random.Generator(np.random.Philox(seed_sequence(root, *labels)))


def _hash_constants(h: int, mult: int, count: int) -> tuple[np.ndarray, ...]:
    """The (xor, multiplier) pairs of ``count`` successive hashes from the
    constant ``h``, as two uint32 columns: a hash xors its word with h,
    multiplies h by ``mult`` and the word by the new h."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(h)
        h = h * mult & _MASK
        mults.append(h)
    return (np.array(xors, dtype=np.uint32)[:, None],
            np.array(mults, dtype=np.uint32)[:, None])


# the hashes of the four output words
_OUT_XORS, _OUT_MULTS = _hash_constants(_INIT_B, _MULT_B, _POOL)


def _root_mixing(root: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SeedSequence's pool, as a uint32 column, after mixing the root's
    entropy words, with the (4, 4, 1) hash constants that spawn word k
    takes for pool word d: those of the (4 k + d)-th hash after the
    root's.

    The entropy is the root's 32-bit words, least significant first,
    zero-padded to the pool size (a spawn key follows them); the pool
    takes the first four, every pool word is mixed into every other, and
    then each further root word into each pool word.
    """
    words = [root & _MASK]
    while root := root >> 32:
        words.append(root & _MASK)
    words += [0] * (_POOL - len(words))
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * _MULT_A & _MASK
        value = value * h & _MASK
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _MASK
        return result ^ result >> 16

    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    xors, mults = _hash_constants(h, _MULT_A, _POOL * _POOL)
    return (np.array(pool, dtype=np.uint32)[:, None],
            xors.reshape(_POOL, _POOL, 1), mults.reshape(_POOL, _POOL, 1))


def philox_keys(root: int, streams: Sequence[tuple[Label, ...]]) -> np.ndarray:
    """The Philox key of each substream named by a label tuple of
    ``streams``, as a (len(streams), 2) uint64 array: row i equals
    ``seed_sequence(root, *streams[i]).generate_state(2, np.uint64)``.

    The root's part of the mixing is the same for every stream and is
    done once; each stream's four spawn-key words are then hashed into
    the pool word by word, and the output words hashed out of it, as
    array operations over the batch.
    """
    _check_count(root, "seed", low=0)
    words, xors, mults = _root_mixing(int(root))
    # (4, m): word k of every stream's spawn key
    spawn = np.frombuffer(b"".join(map(_spawn_key, streams)),
                          dtype=">u4").reshape(-1, _POOL).T.astype(np.uint32)
    # (4, 4, m): spawn word k hashed for pool word d
    hashed = (spawn[:, None, :] ^ xors) * mults
    hashed ^= hashed >> 16
    for column in hashed:
        words = np.uint32(_MIX_L) * words - np.uint32(_MIX_R) * column
        words ^= words >> 16
    words = (words ^ _OUT_XORS) * _OUT_MULTS
    words ^= words >> 16
    # two uint32 words per uint64, the first the less significant
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(
        np.uint64)


class _Key(np.random.bit_generator.ISeedSequence):
    """A derived Philox key where numpy's Philox asks a SeedSequence for
    one; ``Philox(key=...)`` would build a SeedSequence of OS entropy
    first, only to drop it."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key  # Philox asks for its 2 uint64 key words


def keyed_rng(key: np.ndarray) -> np.random.Generator:
    """Generator over the Philox stream with the derived ``key`` (a row of
    ``philox_keys``)."""
    return np.random.Generator(np.random.Philox(_Key(key)))


_ZEROS = np.zeros(4, dtype=np.uint64)


def rekey(rng: np.random.Generator, key: np.ndarray) -> None:
    """Point the Philox generator ``rng`` at the start of the stream with
    ``key``: counter and output buffer zeroed and the buffered half of a
    64-bit draw (``has_uint32``, ``uinteger``) dropped, the state that
    ``Philox(SeedSequence)`` starts from."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

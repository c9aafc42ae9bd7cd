"""Shared pytest plumbing.

The acceptance tests append one line per criterion to ACCEPTANCE_LINES;
the summary hook re-emits them after the run so the pass/fail verdicts
are visible regardless of output capturing. ``random_density`` is the
test modules' one seeded random density matrix.
"""

import numpy as np

ACCEPTANCE_LINES: list[str] = []


def random_density(rng: np.random.Generator, dim: int,
                   real: bool = False) -> np.ndarray:
    """g g^dagger / Tr for a (dim, dim) g of standard normal draws from
    ``rng``: the real parts as one block, then (unless ``real``) the
    imaginary parts as a second."""
    g = rng.normal(size=(dim, dim))
    if not real:
        g = g + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

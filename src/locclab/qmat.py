"""Dense complex operators over party-labeled tensor factors.

Every operator carries a :class:`TensorLayout` naming its factors, e.g.
``(("A1", 2), ("B1", 2))``. Labels beginning with ``A`` belong to the A
party and labels beginning with ``B`` to the B party; bipartite
operations split on that convention. Factor order is part of the value:
reordering is always the explicit :func:`permute`, never implicit.

Counts, dimensions and seeds across the package follow one rule,
``_check_count``: each is a Python or numpy integer in its range (bool is
refused, numpy integers are accepted), else SpecError.

Serialization uses a stable JSON form with floats printed to 17
significant digits, which round-trips IEEE-754 doubles bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, NumericError, ParseError, SpecError
from .tolerances import TOL


def _is_integer(value) -> bool:
    """A Python or numpy integer; bool is an int subclass but no dimension."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(value, what: str, low: int = 1, high: int | None = None,
                 ) -> None:
    """SpecError unless ``value`` is an integer (``_is_integer``) in
    ``low..high``; the one check of every count, dimension and seed."""
    if not _is_integer(value):
        raise SpecError(f"{what} must be an integer, got {value!r}")
    if high is None:
        if value < low:
            raise SpecError(f"{what} must be >= {low}, got {value}")
    elif not low <= value <= high:
        raise SpecError(f"{what} {value} outside {low}..{high} (the limit)")


@dataclass(frozen=True)
class TensorLayout:
    """Ordered (label, dimension) factors of a tensor-product space."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for lab, dim in self.factors:
            if not isinstance(lab, str) or not _is_integer(dim):
                raise LayoutError(f"factor (label {lab!r}, dim {dim!r}) needs "
                                  "a string label and an integer dimension")
        factors = tuple((str(lab), int(dim)) for lab, dim in self.factors)
        object.__setattr__(self, "factors", factors)
        labels = [lab for lab, _ in factors]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate factor labels: {labels}")
        for lab, dim in factors:
            if dim < 1:
                raise LayoutError(f"factor {lab!r} has dimension {dim} < 1")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def dim(self) -> int:
        return math.prod(self.dims) if self.factors else 1

    def position(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise LayoutError(f"label {label!r} not in layout {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.factors[self.position(label)][1]

    def party(self, label: str) -> str:
        head = label[:1].upper()
        if head not in ("A", "B"):
            raise LayoutError(
                f"label {label!r} does not name a party (must start with A or B)")
        return head

    def party_labels(self, party: str) -> tuple[str, ...]:
        return tuple(lab for lab in self.labels if self.party(lab) == party)

    def drop(self, labels) -> "TensorLayout":
        gone = set(labels)
        unknown = gone - set(self.labels)
        if unknown:
            raise LayoutError(f"labels {sorted(unknown)} not in layout {self.labels}")
        return TensorLayout(tuple(f for f in self.factors if f[0] not in gone))

    def concat(self, other: "TensorLayout") -> "TensorLayout":
        clash = set(self.labels) & set(other.labels)
        if clash:
            raise LayoutError(f"layouts share labels {sorted(clash)}")
        return TensorLayout(self.factors + other.factors)

    def reordered(self, labels) -> "TensorLayout":
        labels = tuple(labels)
        if sorted(labels) != sorted(self.labels):
            raise LayoutError(
                f"permutation {labels} is not a reordering of {self.labels}")
        return TensorLayout(tuple((lab, self.dim_of(lab)) for lab in labels))


def _same_layout(rho0: DensityOperator, rho1: DensityOperator) -> None:
    """Raise LayoutError unless both states have the same (label, dim)
    factors."""
    if rho0.layout != rho1.layout:
        raise LayoutError(
            f"state layouts differ: {rho0.layout.factors} vs {rho1.layout.factors}")


def _clean_matrix(entries, dim: int) -> np.ndarray:
    arr = np.array(entries, dtype=np.complex128, order="C")
    if arr.shape != (dim, dim):
        raise LayoutError(f"entries shape {arr.shape} != layout dim ({dim}, {dim})")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise NumericError("operator entries contain non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Operator:
    """A labeled linear operator. No positivity or trace constraints;
    partial transposes and differences of states live here."""

    layout: TensorLayout
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           _clean_matrix(self.entries, self.layout.dim))

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def adjoint_defect(self) -> float:
        """Max entrywise |M - M^dagger|."""
        return float(np.abs(self.entries - self.entries.conj().T).max())


@dataclass(frozen=True)
class DensityOperator(Operator):
    """Operator constrained to be a state: Hermitian within
    ``TOL.hermitian``, eigenvalues >= -``TOL.psd``, trace 1 within
    ``TOL.trace``. Construction re-checks all three."""

    def __post_init__(self):
        super().__post_init__()
        defect = self.adjoint_defect()
        if defect > TOL.hermitian:
            raise NumericError(
                f"density operator not Hermitian: defect {defect:.3e} > {TOL.hermitian}")
        lo = float(np.linalg.eigvalsh(self.entries)[0])
        if lo < -TOL.psd:
            raise NumericError(
                f"density operator not PSD: min eigenvalue {lo:.3e} < -{TOL.psd}")
        tr = self.trace()
        if abs(tr - 1.0) > TOL.trace:
            raise NumericError(f"density operator trace {tr} != 1 within {TOL.trace}")


def tensor(a, b):
    """Tensor product: a DensityOperator when both factors are states, an
    Operator otherwise. Layouts concatenate; shared labels raise
    LayoutError."""
    layout = a.layout.concat(b.layout)
    ent = np.kron(a.entries, b.entries)
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(layout, ent)
    return Operator(layout, ent)


def permute(m, labels):
    """Explicitly reorder tensor factors to the given label order."""
    layout = m.layout
    new_layout = layout.reordered(labels)
    perm = [layout.position(lab) for lab in new_layout.labels]
    k = len(layout.factors)
    dims = layout.dims
    axes = perm + [p + k for p in perm]
    ent = m.entries.reshape(dims + dims).transpose(axes)
    return type(m)(new_layout, ent.reshape(new_layout.dim, new_layout.dim))


def relabel(m, mapping: dict):
    """Rename factor labels without touching entries."""
    layout = m.layout
    unknown = set(mapping) - set(layout.labels)
    if unknown:
        raise LayoutError(f"labels {sorted(unknown)} not in layout {layout.labels}")
    factors = tuple((mapping.get(lab, lab), dim) for lab, dim in layout.factors)
    return type(m)(TensorLayout(factors), m.entries)


def partial_trace(m, labels):
    """Trace out the named factors.

    Returns the same kind of operator (DensityOperator stays a
    DensityOperator). Tracing out every factor leaves a 1x1 operator on
    the empty layout, whose single entry is the full trace.
    """
    layout = m.layout
    gone = set(labels)
    new_layout = layout.drop(gone)  # validates labels
    k = len(layout.factors)
    dims = layout.dims
    t = m.entries.reshape(dims + dims)
    row_idx = list(range(k))
    col_idx = [i if layout.labels[i] in gone else k + i for i in range(k)]
    out_idx = ([i for i in range(k) if layout.labels[i] not in gone]
               + [k + i for i in range(k) if layout.labels[i] not in gone])
    ent = np.einsum(t, row_idx + col_idx, out_idx)
    d = new_layout.dim
    return type(m)(new_layout, ent.reshape(d, d))


def partial_transpose(m, labels) -> Operator:
    """Transpose the named factors.

    Always returns a plain :class:`Operator`: the result of transposing
    part of a state is Hermitian but can fail positivity, which is the
    whole point of the PPT criterion.
    """
    layout = m.layout
    flip = set(labels)
    unknown = flip - set(layout.labels)
    if unknown:
        raise LayoutError(f"labels {sorted(unknown)} not in layout {layout.labels}")
    k = len(layout.factors)
    dims = layout.dims
    axes = list(range(2 * k))
    for i, lab in enumerate(layout.labels):
        if lab in flip:
            axes[i], axes[k + i] = axes[k + i], axes[i]
    ent = m.entries.reshape(dims + dims).transpose(axes).reshape(layout.dim, layout.dim)
    return Operator(layout, ent)


def _as_array(m) -> np.ndarray:
    if isinstance(m, Operator):
        return m.entries
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise LayoutError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise NumericError("matrix entries contain non-finite values")
    return arr


def trace_norm(m) -> float:
    """Sum of singular values; for Hermitian input, sum |eigenvalues|."""
    arr = _as_array(m)
    scale = float(np.abs(arr).max()) if arr.size else 0.0
    if float(np.abs(arr - arr.conj().T).max()) <= TOL.hermitian * max(1.0, scale):
        return float(np.abs(np.linalg.eigvalsh(arr)).sum())
    return float(np.linalg.svd(arr, compute_uv=False).sum())


def _psd_sqrt(arr: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(arr)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a: DensityOperator, b: DensityOperator) -> float:
    """Uhlmann fidelity F(a, b) = (Tr sqrt(sqrt(a) b sqrt(a)))^2 in [0, 1]."""
    if a.layout != b.layout:
        raise LayoutError(f"layouts differ: {a.layout.labels} vs {b.layout.labels}")
    ra = _psd_sqrt(a.entries)
    w = np.linalg.eigvalsh(ra @ b.entries @ ra)
    val = float(np.sqrt(np.clip(w, 0.0, None)).sum()) ** 2
    return min(max(val, 0.0), 1.0)


def von_neumann_entropy(m: DensityOperator) -> float:
    """Entropy in bits: -sum p log2 p over the spectrum."""
    w = np.linalg.eigvalsh(m.entries)
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    return float(max(-(w * np.log2(w)).sum(), 0.0))


# --- serialization -----------------------------------------------------

def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def operator_to_json(m) -> str:
    """Serialize an Operator or DensityOperator to the canonical JSON
    form: layout plus row-major [re, im] pairs at 17 significant digits."""
    layout_part = json.dumps(
        [{"label": lab, "dim": dim} for lab, dim in m.layout.factors],
        separators=(",", ":"))
    flat = m.entries.reshape(-1)
    body = ",".join("[" + _fmt17(z.real) + "," + _fmt17(z.imag) + "]" for z in flat)
    return '{"layout":' + layout_part + ',"entries":[' + body + "]}"


def operator_from_json(text: str, density: bool = True):
    """Parse the canonical JSON operator form.

    Malformed JSON raises :class:`ParseError` carrying the byte offset.
    So, without an offset, do a layout factor whose label is not a JSON
    string or whose dim is not a JSON integer (``2.9``, ``true`` and
    ``"2"`` included) and an entry part that is not a JSON number
    (``true`` included).
    With ``density=True`` the result is validated as a DensityOperator.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed operator JSON: {exc.msg}",
                         offset=len(text[:exc.pos].encode("utf-8"))) from exc
    if not isinstance(doc, dict) or set(doc) != {"layout", "entries"}:
        raise ParseError("operator JSON must have exactly the keys 'layout' and 'entries'")
    try:
        factors = tuple((f["label"], f["dim"]) for f in doc["layout"])
        for lab, dim in factors:
            # bool is an int subclass, so the type is compared exactly
            if not isinstance(lab, str) or type(dim) is not int:
                raise ParseError(f"layout factor (label {lab!r}, dim {dim!r}) "
                                 "needs a string label and an integer dim")
        layout = TensorLayout(factors)
        pairs = doc["entries"]
        arr = np.empty(len(pairs), dtype=np.complex128)
        for i, pair in enumerate(pairs):
            re, im = pair
            if not {type(re), type(im)} <= {int, float}:
                raise ParseError(f"entry {i} {pair!r} needs two JSON numbers")
            arr[i] = complex(re, im)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"operator JSON structure invalid: {exc}") from exc
    d = layout.dim
    if arr.size != d * d:
        raise ParseError(f"entry count {arr.size} != {d}*{d} for layout {layout.labels}")
    cls = DensityOperator if density else Operator
    return cls(layout, arr.reshape(d, d))

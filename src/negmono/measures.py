"""Entanglement measures: negativity, tangle, SCREN and SCRENoA.

The negativity of rho across a cut A|B is ``||rho^{T_B}||_1 - 1``.  SCREN
is the squared convex roof of negativity (minimum mean pure-state
negativity over all decompositions, squared), SCRENoA the squared concave
roof (maximum).  For pure states both collapse to the pure-state
negativity squared; for two-qubit states the Wootters spin-flip algebra
gives exact closed forms that double as oracles for the roof optimizer.

:func:`squared_roof_block` is the one place that picks how SCREN and
SCRENoA are computed, over a stack of density matrices: the two-qubit
closed forms first, then the pure-state formula, then the roof optimizer.
Every (row, direction) of a stack that needs the roof runs in one
:func:`~negmono.roof.optimize_roof_block` call, MIN and MAX mixed, whose
searches advance together as one array program.  :func:`scren` and
:func:`screnoa` are its one-matrix case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import prod
from typing import NamedTuple

import numpy as np

# optimize_roof is the one-matrix form of optimize_roof_block; it stays
# bound here because the benchmark's tracer wraps this binding
from .roof import Direction, RoofConfig, optimize_roof, optimize_roof_block  # noqa: F401
from .states import DensityMatrix, PureState, float_pow, partial_transpose, trace_norm

_NEG_CLAMP = 1e-12

_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class Bipartition:
    """A cut of the tensor factors into a nonempty A side and its complement."""

    a_side: tuple[int, ...]
    b_side: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a_side", tuple(sorted(int(i) for i in self.a_side)))
        object.__setattr__(self, "b_side", tuple(sorted(int(i) for i in self.b_side)))

    @classmethod
    def split(cls, n_factors: int, a_side) -> "Bipartition":
        """A-side indices against the complement within ``n_factors`` factors."""
        a = tuple(sorted({int(i) for i in a_side}))
        b = tuple(i for i in range(n_factors) if i not in a)
        cut = cls(a, b)
        cut.validate(n_factors)
        return cut

    def validate(self, n_factors: int) -> None:
        a, b = set(self.a_side), set(self.b_side)
        if not a or not b:
            raise ValueError("both sides of a bipartition must be nonempty")
        if a & b:
            raise ValueError(f"bipartition sides overlap: {sorted(a & b)}")
        if a | b != set(range(n_factors)):
            raise ValueError(
                f"bipartition {sorted(a)}|{sorted(b)} does not cover all {n_factors} factors"
            )


class Method(Enum):
    PURE_FORMULA = "pure-formula"
    TWO_QUBIT_CLOSED_FORM = "two-qubit-closed-form"
    ROOF_OPTIMIZER = "roof-optimizer"


@dataclass(frozen=True)
class MeasureValue:
    """A measure evaluation: the value, how it was computed, and (for the
    optimizer) the spread-based convergence gap (0 for exact methods)."""

    value: float
    method: Method
    certified_gap: float


def _clamp_nonneg(x):
    """0 for values inside the roundoff window below 0, elementwise."""
    x = np.asarray(x, dtype=float)
    if (x < -1e-9).any():
        raise RuntimeError(f"measure produced {x.min()}, far below the roundoff clamp window")
    return np.where(x > 0.0, x, 0.0)


def negativity(rho: DensityMatrix, cut: Bipartition) -> float:
    """``||rho^{T_B}||_1 - 1``, clamped to 0 inside the roundoff window."""
    cut.validate(rho.n_factors)
    return float(_clamp_nonneg(trace_norm(partial_transpose(rho, cut.b_side)) - 1.0))


def _cut_matrix(psi: PureState, cut: Bipartition) -> np.ndarray:
    cut.validate(psi.n_factors)
    d_a = prod(psi.dims[i] for i in cut.a_side)
    d_b = prod(psi.dims[i] for i in cut.b_side)
    t = psi.amplitudes.reshape(psi.dims)
    return t.transpose(cut.a_side + cut.b_side).reshape(d_a, d_b)


def pure_tangle(psi: PureState, cut: Bipartition) -> float:
    """Tangle ``2 * (1 - tr(rho_A^2))`` of a pure state across a cut."""
    mat = _cut_matrix(psi, cut)
    gram = mat @ mat.conj().T
    purity = float(np.real((gram * gram.conj()).sum()))
    return float(_clamp_nonneg(2.0 * (1.0 - purity)))


def pure_negativity_block(cut_mats: np.ndarray) -> np.ndarray:
    """:func:`pure_negativity` of every amplitude matrix in a stack
    ``(..., d_A, d_B)``, from one batched SVD."""
    s = np.linalg.svd(cut_mats, compute_uv=False)
    return _clamp_nonneg(float_pow(s.sum(axis=-1), 2) - 1.0)


def pure_negativity(psi: PureState, cut: Bipartition) -> float:
    """Negativity of a pure state, ``(sum of Schmidt coefficients)^2 - 1``."""
    return float(pure_negativity_block(_cut_matrix(psi, cut)))


def pure_scren(psi: PureState, cut: Bipartition) -> float:
    """SCREN of a pure state: its negativity squared (the roof is trivial)."""
    n = pure_negativity(psi, cut)
    return n * n


def spin_flip_mus(rho: DensityMatrix) -> np.ndarray:
    """Decreasing square roots of the eigenvalues of ``rho * rho_tilde``
    for a two-qubit state, ``rho_tilde = (Y (x) Y) conj(rho) (Y (x) Y)``.

    The product is not Hermitian but its spectrum is provably real and
    nonnegative; tiny negative parts from roundoff are clamped.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"spin flip requires dims (2, 2), got {rho.dims}")
    return _spin_flip_block(rho.matrix)


def _spin_flip_block(mats: np.ndarray) -> np.ndarray:
    tilde = _YY @ mats.conj() @ _YY
    w = np.linalg.eigvals(mats @ tilde)
    w = np.clip(np.real(w), 0.0, None)
    return np.sqrt(np.sort(w, axis=-1)[..., ::-1])


def _tangle_and_toa(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = mu[..., 0] - mu[..., 1:].sum(axis=-1)
    c = np.where(c > 0.0, c, 0.0)
    return c * c, float_pow(mu.sum(axis=-1), 2)


def two_qubit_block(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`two_qubit_tangle_and_toa` of every validated two-qubit
    density matrix in a stack ``(..., 4, 4)``: one batched spin-flip
    product and ``eigvals``, whose results match a single matrix's bit for
    bit."""
    return _tangle_and_toa(_spin_flip_block(mats))


def two_qubit_tangle_and_toa(rho: DensityMatrix) -> tuple[float, float]:
    """Exact two-qubit tangle ``max(0, mu1 - mu2 - mu3 - mu4)^2`` and tangle
    of assistance ``(mu1 + mu2 + mu3 + mu4)^2``, from one spin-flip spectrum."""
    tangle, toa = _tangle_and_toa(spin_flip_mus(rho))
    return float(tangle), float(toa)


def _dominant_pure_state(matrix: np.ndarray, dims: tuple[int, ...]) -> PureState | None:
    """The state a checked density matrix projects on, or None if it is mixed."""
    w, u = np.linalg.eigh(matrix)
    if w[-1] < 1.0 - 1e-10:
        return None
    vec = u[:, -1]
    return PureState(vec / np.linalg.norm(vec), dims)


def _squared_gap(value_pre: float, spread: float, direction: Direction) -> float:
    if direction is Direction.MIN:
        return (value_pre + spread) ** 2 - value_pre**2
    low = max(value_pre - spread, 0.0)
    return value_pre**2 - low**2


class MeasureColumn(NamedTuple):
    """:class:`MeasureValue` fields over the rows of a stack."""

    values: np.ndarray
    methods: list[Method]
    certified_gaps: np.ndarray

    def row(self, i: int) -> MeasureValue:
        return MeasureValue(float(self.values[i]), self.methods[i], float(self.certified_gaps[i]))


def squared_roof_block(mats: np.ndarray, dims: tuple[int, ...], cut: Bipartition,
                       config: RoofConfig | None = None,
                       directions=(Direction.MIN, Direction.MAX)) -> tuple[MeasureColumn, ...]:
    """SCREN (``Direction.MIN``) and SCRENoA (``Direction.MAX``) of every
    checked density matrix in a stack ``(rows, d, d)`` over ``dims``: one
    :class:`MeasureColumn` per entry of ``directions``, in that order.

    Dispatch: a 2x2 stack takes the Wootters closed forms, both directions
    from one batched spin-flip spectrum (exact for pure and mixed states
    alike); otherwise a pure row takes the pure-state formula and every
    other row the roof optimizer, once per direction, all of them in one
    :func:`~negmono.roof.optimize_roof_block` call.  The
    optimizer value is an upper bound on the true roof for MIN and a lower
    bound for MAX; restart disagreement is reported in ``certified_gaps``,
    never silently.
    """
    cut.validate(len(dims))
    rows = len(mats)
    if tuple(dims) == (2, 2):
        tangle, toa = two_qubit_block(mats)
        exact = {Direction.MIN: tangle, Direction.MAX: toa}
        return tuple(MeasureColumn(exact[d], [Method.TWO_QUBIT_CLOSED_FORM] * rows, np.zeros(rows))
                     for d in directions)
    cols = [MeasureColumn(np.empty(rows), [None] * rows, np.empty(rows)) for _ in directions]
    roof_cells = []  # (row, column) of every value the roof gives
    for b in range(rows):
        psi = _dominant_pure_state(mats[b], dims)
        for c, col in enumerate(cols):
            if psi is None:
                roof_cells.append((b, c))
            else:
                col.values[b], col.methods[b], col.certified_gaps[b] = (
                    pure_scren(psi, cut), Method.PURE_FORMULA, 0.0)
    base = config or RoofConfig()
    results = optimize_roof_block(mats[[b for b, _ in roof_cells]], dims, cut,
                                  [replace(base, direction=directions[c]) for _, c in roof_cells])
    for (b, c), res in zip(roof_cells, results):
        cols[c].values[b], cols[c].methods[b], cols[c].certified_gaps[b] = (
            res.value**2, Method.ROOF_OPTIMIZER,
            _squared_gap(res.value, res.restart_spread, directions[c]))
    return tuple(cols)


def scren(rho: DensityMatrix, cut: Bipartition, config: RoofConfig | None = None) -> MeasureValue:
    """Squared convex-roof extended negativity of ``rho`` across ``cut``:
    the one-matrix case of :func:`squared_roof_block`."""
    (col,) = squared_roof_block(rho.matrix[None], rho.dims, cut, config, (Direction.MIN,))
    return col.row(0)


def screnoa(rho: DensityMatrix, cut: Bipartition, config: RoofConfig | None = None) -> MeasureValue:
    """Squared concave-roof (of-assistance) counterpart of :func:`scren`."""
    (col,) = squared_roof_block(rho.matrix[None], rho.dims, cut, config, (Direction.MAX,))
    return col.row(0)

"""Entanglement measures: negativity, tangle, SCREN and SCRENoA.

The negativity of rho across a cut A|B is ``||rho^{T_B}||_1 - 1``.  SCREN
is the squared convex roof of negativity (minimum mean pure-state
negativity over all decompositions, squared), SCRENoA the squared concave
roof (maximum).  For pure states both collapse to the pure-state
negativity squared; for two-qubit states the Wootters spin-flip algebra
gives exact closed forms, all in :func:`two_qubit_block`, that double as
oracles for the roof optimizer.

:func:`squared_roof_block` is the one place that picks how SCREN and
SCRENoA are computed, as masked columns over a stack of density
matrices: a 2x2 stack takes the two-qubit closed forms;
otherwise one batched ``eigh`` marks the pure rows, whose values come from
one batched SVD shared by both directions, and every (row, direction) of
the other rows runs in one :func:`~negmono.roof.optimize_roof_block` call,
MIN and MAX mixed, whose searches advance together as one array program.
:func:`scren` and :func:`screnoa` are its one-matrix case.
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


def _cut_matrices(amps: np.ndarray, dims: tuple[int, ...], cut: Bipartition) -> np.ndarray:
    """Amplitude vectors ``(..., prod(dims))`` as matrices ``(..., d_A, d_B)``
    across a cut already checked against ``dims``."""
    lead = amps.shape[:-1]
    axes = tuple(range(len(lead))) + tuple(len(lead) + i for i in cut.a_side + cut.b_side)
    t = amps.reshape(lead + tuple(dims)).transpose(axes)
    return t.reshape(lead + (prod(dims[i] for i in cut.a_side), prod(dims[i] for i in cut.b_side)))


def _cut_matrix(psi: PureState, cut: Bipartition) -> np.ndarray:
    cut.validate(psi.n_factors)
    return _cut_matrices(psi.amplitudes, psi.dims, cut)


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


def two_qubit_block(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact tangle ``max(0, mu1 - mu2 - mu3 - mu4)^2`` and tangle of
    assistance ``(mu1 + mu2 + mu3 + mu4)^2`` of every checked two-qubit
    density matrix in a stack ``(..., 4, 4)``, from one batched ``eigvals``
    whose rows match a single matrix's bit for bit.

    The mu_i are the decreasing square roots of the eigenvalues of
    ``rho * rho_tilde``, ``rho_tilde = (Y (x) Y) conj(rho) (Y (x) Y)``: the
    product is not Hermitian but its spectrum is provably real and
    nonnegative, so tiny negative parts from roundoff are clamped.
    """
    w = np.linalg.eigvals(mats @ (_YY @ mats.conj() @ _YY))
    mu = np.sqrt(np.sort(np.clip(np.real(w), 0.0, None), axis=-1)[..., ::-1])
    c = mu[..., 0] - mu[..., 1:].sum(axis=-1)
    c = np.where(c > 0.0, c, 0.0)
    return c * c, float_pow(mu.sum(axis=-1), 2)


def two_qubit_tangle_and_toa(rho: DensityMatrix) -> tuple[float, float]:
    """:func:`two_qubit_block` of one two-qubit state."""
    if rho.dims != (2, 2):
        raise ValueError(f"spin flip requires dims (2, 2), got {rho.dims}")
    tangle, toa = two_qubit_block(rho.matrix)
    return float(tangle), float(toa)


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

    Dispatch, as masked columns over the stack: a 2x2 stack takes the
    closed forms of :func:`two_qubit_block` (exact for pure and mixed
    states alike).  Otherwise one batched ``eigh`` marks the pure rows (top
    eigenvalue within 1e-10 of 1), whose top eigenvectors take the
    pure-state formula once for both directions; every other row takes
    the roof optimizer once per direction, all in one
    :func:`~negmono.roof.optimize_roof_block` call.  The optimizer value is
    an upper bound on the true roof for MIN and a lower bound for MAX;
    restart disagreement is reported in ``certified_gaps``, never silently.
    """
    cut.validate(len(dims))
    rows = len(mats)
    if tuple(dims) == (2, 2):
        tangle, toa = two_qubit_block(mats)
        exact = {Direction.MIN: tangle, Direction.MAX: toa}
        return tuple(MeasureColumn(exact[d], [Method.TWO_QUBIT_CLOSED_FORM] * rows, np.zeros(rows))
                     for d in directions)
    w, u = np.linalg.eigh(mats)
    pure = w[:, -1] >= 1.0 - 1e-10
    # the 1-D norm of each vector: an axis= norm sums in another order
    tops = np.array([u[b, :, -1] / np.linalg.norm(u[b, :, -1]) for b in np.flatnonzero(pure)])
    neg = pure_negativity_block(_cut_matrices(tops.reshape(-1, mats.shape[-1]), dims, cut))
    values = np.zeros(rows)
    values[pure] = neg * neg
    cols = tuple(MeasureColumn(values.copy(), [Method.PURE_FORMULA if p else Method.ROOF_OPTIMIZER
                                               for p in pure], np.zeros(rows)) for _ in directions)
    roof_cells = [(b, c) for b in np.flatnonzero(~pure) for c in range(len(directions))]
    base = config or RoofConfig()
    results = optimize_roof_block(mats[[b for b, _ in roof_cells]], dims, cut,
                                  [replace(base, direction=directions[c]) for _, c in roof_cells])
    for (b, c), res in zip(roof_cells, results):
        cols[c].values[b] = res.value**2
        cols[c].certified_gaps[b] = _squared_gap(res.value, res.restart_spread, directions[c])
    return cols


def scren(rho: DensityMatrix, cut: Bipartition, config: RoofConfig | None = None) -> MeasureValue:
    """Squared convex-roof extended negativity of ``rho`` across ``cut``:
    the one-matrix case of :func:`squared_roof_block`."""
    (col,) = squared_roof_block(rho.matrix[None], rho.dims, cut, config, (Direction.MIN,))
    return col.row(0)


def screnoa(rho: DensityMatrix, cut: Bipartition, config: RoofConfig | None = None) -> MeasureValue:
    """Squared concave-roof (of-assistance) counterpart of :func:`scren`."""
    (col,) = squared_roof_block(rho.matrix[None], rho.dims, cut, config, (Direction.MAX,))
    return col.row(0)

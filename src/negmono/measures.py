"""Entanglement measures: negativity, tangle, SCREN and SCRENoA.

The negativity of rho across a cut A|B is ``||rho^{T_B}||_1 - 1``.  SCREN
is the squared convex roof of negativity (minimum mean pure-state
negativity over all decompositions, squared), SCRENoA the squared concave
roof (maximum).  For pure states both collapse to the pure-state
negativity squared; for two-qubit states Wootters' formula in Uhlmann's
form gives exact closed forms, all in :func:`two_qubit_block`, that double
as oracles for the roof optimizer.  That function takes a factor F of
rho = F F^dagger, not rho: a campaign passes each pure state's amplitude
matrix across (0, j)|rest, so no 2x2 marginal is formed, and
:func:`squared_roof_block` passes the sqrt(q)-weighted eigenbase of each
density matrix.

:func:`squared_roof_block` is the one place that picks how SCREN and
SCRENoA are computed, as masked columns over a stack of density
matrices: a 2x2 stack takes the two-qubit closed forms;
otherwise one batched ``eigh`` marks the pure rows, whose values come from
one batched SVD shared by both directions, and every (row, direction) of
the other rows runs in one :func:`~negmono.roof.optimize_roof_block` call,
MIN and MAX mixed, whose searches advance together as one array program.
:func:`scren` and :func:`screnoa` are its one-matrix case.
A cut is a :class:`~negmono.states.Bipartition`, imported from
:mod:`negmono.states` and so still importable from here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

# optimize_roof is the one-matrix form of optimize_roof_block; it stays
# bound here because the benchmark's tracer wraps this binding
from .roof import RANK_ATOL, Direction, RoofConfig, optimize_roof, optimize_roof_block  # noqa: F401
from .states import (Bipartition, DensityMatrix, PureState, cut_matrices,
                     partial_transpose, trace_norm)

_NEG_CLAMP = 1e-12

# sigma_y (x) sigma_y as a row map: row i of (Y (x) Y) F is
# _YY_SIGNS[i] * F[3 - i]
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]


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
    return cut_matrices(psi.amplitudes, psi.dims, cut)


def pure_tangle(psi: PureState, cut: Bipartition) -> float:
    """Tangle ``2 * (1 - tr(rho_A^2))`` of a pure state across a cut."""
    mat = _cut_matrix(psi, cut)
    gram = mat @ mat.conj().T
    purity = float(np.real((gram * gram.conj()).sum()))
    return float(_clamp_nonneg(2.0 * (1.0 - purity)))


def pure_negativity_block(cut_mats: np.ndarray) -> np.ndarray:
    """:func:`pure_negativity` of every amplitude matrix in a stack
    ``(..., d_A, d_B)``, from one batched SVD."""
    t = np.linalg.svd(cut_mats, compute_uv=False).sum(axis=-1)
    return _clamp_nonneg(t * t - 1.0)


def pure_negativity(psi: PureState, cut: Bipartition) -> float:
    """Negativity of a pure state, ``(sum of Schmidt coefficients)^2 - 1``."""
    return float(pure_negativity_block(_cut_matrix(psi, cut)))


def pure_scren(psi: PureState, cut: Bipartition) -> float:
    """SCREN of a pure state: its negativity squared (the roof is trivial)."""
    n = pure_negativity(psi, cut)
    return n * n


def two_qubit_block(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact tangle ``max(0, mu1 - mu2 - mu3 - mu4)^2`` and tangle of
    assistance ``(mu1 + mu2 + mu3 + mu4)^2`` of every two-qubit state
    rho = F F^dagger given by a stack of factors F ``(..., 4, k)``, whose
    rows match a single factor's bit for bit.

    This is Uhlmann's form of Wootters' formula: the mu_i are the singular
    values of ``F^T (Y (x) Y) F``, which is k x k with rank at most 4
    (missing mu_i are 0).  Unlike square roots of the eigenvalues of
    ``rho * rho_tilde``, they stay accurate on rank-deficient states.  A
    factor with k > 4 columns is first reduced to the 4 x 4 factor R^dagger
    of ``F^dagger = QR``, which leaves rho and the mu_i unchanged.  The
    callers are :func:`negmono.harness._analyze_block`, whose factors are
    the amplitude matrices of pure states across (0, j)|rest, and
    :func:`squared_roof_block`, whose factors are eigenbases.
    """
    if factors.shape[-1] > 4:
        factors = np.linalg.qr(factors.conj().swapaxes(-1, -2), mode="r").conj().swapaxes(-1, -2)
    mu = np.linalg.svd(factors.swapaxes(-1, -2) @ (factors[..., ::-1, :] * _YY_SIGNS),
                       compute_uv=False)
    c = mu[..., 0] - mu[..., 1:].sum(axis=-1)
    c = np.where(c > 0.0, c, 0.0)
    t = mu.sum(axis=-1)
    return c * c, t * t


def two_qubit_tangle_and_toa(rho: DensityMatrix) -> tuple[float, float]:
    """:func:`two_qubit_block` of one two-qubit state, through
    :func:`squared_roof_block`."""
    if rho.dims != (2, 2):
        raise ValueError(f"spin flip requires dims (2, 2), got {rho.dims}")
    tangle, toa = squared_roof_block(rho.matrix[None], rho.dims, Bipartition.split(2, (0,)))
    return float(tangle.values[0]), float(toa.values[0])


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

    Dispatch, as masked columns over the stack, after one batched ``eigh``:
    a 2x2 stack takes the closed forms of :func:`two_qubit_block` (exact
    for pure and mixed states alike) on the factors sqrt(q) times the
    eigenvectors, with the columns of q <= ``RANK_ATOL`` zeroed (masked,
    not dropped, so the stack stays one array).  Otherwise the eigenvalues
    mark the pure rows (top eigenvalue within 1e-10 of 1), whose top
    eigenvectors take the pure-state formula once for both directions;
    every other row takes the roof optimizer once per direction, all in
    one :func:`~negmono.roof.optimize_roof_block` call.  The optimizer value is
    an upper bound on the true roof for MIN and a lower bound for MAX;
    restart disagreement is reported in ``certified_gaps``, never silently.
    """
    cut.validate(len(dims))
    rows = len(mats)
    w, u = np.linalg.eigh(mats)
    if tuple(dims) == (2, 2):
        tangle, toa = two_qubit_block(u * np.sqrt(np.where(w > RANK_ATOL, w, 0.0))[:, None, :])
        exact = {Direction.MIN: tangle, Direction.MAX: toa}
        return tuple(MeasureColumn(exact[d], [Method.TWO_QUBIT_CLOSED_FORM] * rows, np.zeros(rows))
                     for d in directions)
    pure = w[:, -1] >= 1.0 - 1e-10
    # the 1-D norm of each vector: an axis= norm sums in another order
    tops = np.array([u[b, :, -1] / np.linalg.norm(u[b, :, -1]) for b in np.flatnonzero(pure)])
    neg = pure_negativity_block(cut_matrices(tops.reshape(-1, mats.shape[-1]), dims, cut))
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

"""Entanglement measures: negativity, tangle, SCREN and SCRENoA.

The negativity of rho across a cut A|B is ``||rho^{T_B}||_1 - 1``.  SCREN
is the squared convex roof of negativity (minimum mean pure-state
negativity over all decompositions, squared), SCRENoA the squared concave
roof (maximum).  For pure states both collapse to the pure-state
negativity squared; for two-qubit states the Wootters spin-flip algebra
gives exact closed forms that double as oracles for the roof optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import prod

import numpy as np

from .roof import Direction, RoofConfig, optimize_roof
from .states import DensityMatrix, PureState, partial_transpose, trace_norm

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


def _clamp_nonneg(x: float) -> float:
    if x < -1e-9:
        raise RuntimeError(f"measure produced {x}, far below the roundoff clamp window")
    return max(0.0, float(x))


def negativity(rho: DensityMatrix, cut: Bipartition) -> float:
    """``||rho^{T_B}||_1 - 1``, clamped to 0 inside the roundoff window."""
    cut.validate(rho.n_factors)
    return _clamp_nonneg(trace_norm(partial_transpose(rho, cut.b_side)) - 1.0)


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
    return _clamp_nonneg(2.0 * (1.0 - purity))


def pure_negativity(psi: PureState, cut: Bipartition) -> float:
    """Negativity of a pure state, ``(sum of Schmidt coefficients)^2 - 1``."""
    s = np.linalg.svd(_cut_matrix(psi, cut), compute_uv=False)
    return _clamp_nonneg(float(s.sum()) ** 2 - 1.0)


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
    tilde = _YY @ rho.matrix.conj() @ _YY
    w = np.linalg.eigvals(rho.matrix @ tilde)
    w = np.clip(np.real(w), 0.0, None)
    return np.sqrt(np.sort(w)[::-1])


def two_qubit_tangle_and_toa(rho: DensityMatrix) -> tuple[float, float]:
    """Exact two-qubit tangle ``max(0, mu1 - mu2 - mu3 - mu4)^2`` and tangle
    of assistance ``(mu1 + mu2 + mu3 + mu4)^2``, from one spin-flip spectrum."""
    mu = spin_flip_mus(rho)
    c = max(0.0, float(mu[0] - mu[1:].sum()))
    return c * c, float(mu.sum()) ** 2


def _dominant_pure_state(rho: DensityMatrix) -> PureState | None:
    w, u = np.linalg.eigh(rho.matrix)
    if w[-1] < 1.0 - 1e-10:
        return None
    vec = u[:, -1]
    return PureState(vec / np.linalg.norm(vec), rho.dims)


def _squared_gap(value_pre: float, spread: float, direction: Direction) -> float:
    if direction is Direction.MIN:
        return (value_pre + spread) ** 2 - value_pre**2
    low = max(value_pre - spread, 0.0)
    return value_pre**2 - low**2


def _squared_roof(rho: DensityMatrix, cut: Bipartition, config: RoofConfig | None,
                  direction: Direction) -> MeasureValue:
    """SCREN (``Direction.MIN``) or SCRENoA (``Direction.MAX``) of ``rho``.

    Dispatch: pure inputs use the pure-state formula, two-qubit states the
    Wootters closed forms, everything else the roof optimizer.  The
    optimizer value is an upper bound on the true roof for MIN and a lower
    bound for MAX; restart disagreement is reported in ``certified_gap``,
    never silently.
    """
    cut.validate(rho.n_factors)
    psi = _dominant_pure_state(rho)
    if psi is not None:
        return MeasureValue(pure_scren(psi, cut), Method.PURE_FORMULA, 0.0)
    if rho.dims == (2, 2):
        tangle, toa = two_qubit_tangle_and_toa(rho)
        value = tangle if direction is Direction.MIN else toa
        return MeasureValue(value, Method.TWO_QUBIT_CLOSED_FORM, 0.0)
    res = optimize_roof(rho, cut, replace(config or RoofConfig(), direction=direction))
    return MeasureValue(
        value=res.value**2,
        method=Method.ROOF_OPTIMIZER,
        certified_gap=_squared_gap(res.value, res.restart_spread, direction),
    )


def scren(rho: DensityMatrix, cut: Bipartition, config: RoofConfig | None = None) -> MeasureValue:
    """Squared convex-roof extended negativity of ``rho`` across ``cut``."""
    return _squared_roof(rho, cut, config, Direction.MIN)


def screnoa(rho: DensityMatrix, cut: Bipartition, config: RoofConfig | None = None) -> MeasureValue:
    """Squared concave-roof (of-assistance) counterpart of :func:`scren`."""
    return _squared_roof(rho, cut, config, Direction.MAX)

"""Weighted monogamy / polygamy relations for powered SCREN and SCRENoA.

Each relation bounds the alpha-th power of a full-cut pure-state measure
by a weighted sum of per-subsystem measures ``v_j``.  The weighted family
replaces the exponent base ``alpha`` of the baseline bounds with the
factor ``((1+k)^alpha - 1) / k^alpha``, which dominates alpha for
alpha >= 1 and is dominated by it for 0 <= alpha <= 1, so the weighted
bounds are tighter wherever their k-conditions hold.

Relation registry
-----------------
id                           side   measure   alpha     exponent   weighted  condition
mono-hamming                 >=     scren     >= 1      w_H(j)     yes       k-ordering
mono-ladder                  >=     scren     >= 1      j          yes       k-tail-sum
poly-hamming                 <=     screnoa   [0, 1]    w_H(j)     yes       k-ordering
poly-ladder                  <=     screnoa   [0, 1]    j          yes       k-tail-sum
poly-average-neg             <=     scren     < 0       (mean of v_j^alpha) positivity
mono-hamming-neg             >=     screnoa   < 0       w_H(j)     yes       k-ordering
mono-ladder-neg              >=     screnoa   < 0       j          yes       k-tail-sum
mono-ladder-neg-collective   >=     screnoa   < 0       j          yes       k-collective-tail
mono-hamming-base            >=     scren     >= 1      w_H(j)     no        non-increasing
mono-ladder-base             >=     scren     >= 1      j          no        tail-sum at k=1
poly-hamming-base            <=     screnoa   [0, 1]    w_H(j)     no        non-increasing
poly-ladder-base             <=     screnoa   [0, 1]    j          no        tail-sum at k=1

Every bound but the average one is ``sum_j base^{e(j)} v_j^alpha``: the
weighted rows take base = factor at the relation's k, the ``-base`` rows
base = alpha at a pinned k = 1 and report no k.  The ``-base`` rows are
the prior bounds the weighted family tightens, so each weighted row with
alpha >= 0 also reports its baseline value as ``kim_rhs``.  The
ordering-style hypotheses presuppose a non-increasing labeling of the
subsystems, which the harness applies by sorting (this engine never
reorders an input vector itself).

Column kernel
-------------
Relations are evaluated as array columns over the rows of a
:class:`MeasureBlock`, one row per state.  :func:`evaluate_grids` takes
every ``(relation, alpha)`` key of a campaign at once, checks them all
first, and runs each relation once over its whole alpha grid as an
``(alphas, rows, ...)`` program (a :class:`ReportGrid`).  It computes k
and the condition once per (condition mode, weighted), since neither
depends on alpha, and the powers ``v_j^alpha`` and the baseline sums
once per alpha grid.  It is the one evaluator: :meth:`ReportGrid.report`
reads one row at one alpha as a :class:`RelationReport`, and
:func:`evaluate_relation`, :func:`admissible_k` and the ``bound_*``
functions are its one-row case, so there is no second scalar path.

A row's columns do not depend on its block, its position there or the
other alphas of its grid, which keeps campaign reports byte-identical
across reruns and block sizes on one numpy build.  Every power is a
``np.power`` call over the block with one alpha (:func:`_stack_power`),
whose loop gives each element the value it gives that element alone,
and every sum adds its terms left to right from zero, as Python 3.11's
``sum`` of floats does.  The powers are numpy's, not Python's ``**``:
the two differ in the last bit on a few percent of values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import is_int, is_real, require_finite

COND_TOL = 1e-12
SAT_TOL = 1e-9
POS_EPS = 1e-12
# floor for auto-selected k: below this the condition is vacuous (the
# constrained values are numerically zero) and the bound is k-independent
K_FLOOR = 1e-6


class MeasureKind(Enum):
    SCREN = "scren"
    SCRENOA = "screnoa"


def _clamp(x: np.ndarray) -> np.ndarray:
    # max(x, 0.0) per element: a -0.0 stays as it is
    return np.where(x < 0.0, 0.0, x)


@dataclass(frozen=True)
class MeasureBlock:
    """Measure vectors of one kind for a block of states, one row each:
    ``values`` of shape (rows, m), ``lhs`` (rows,) and, for the
    collective-tail relation, ``tail_values`` (rows, m - 1).

    Checked (finite, nonnegative) and clamped as :class:`MeasureVector`
    is; a MeasureVector is the block of one row.
    """

    values: np.ndarray
    kind: MeasureKind
    lhs: np.ndarray
    tail_values: np.ndarray | None = None

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, ndmin=2)
        lhs = np.array(self.lhs, dtype=float, ndmin=1)
        require_finite(vals, "values")
        require_finite(lhs, "lhs")
        if vals.shape[1] == 0:
            raise ValueError("MeasureVector needs at least one subsystem value")
        if (vals < -COND_TOL).any() or (lhs < -COND_TOL).any():
            raise ValueError("measure values must be nonnegative")
        object.__setattr__(self, "values", _clamp(vals))
        object.__setattr__(self, "lhs", _clamp(lhs))
        if self.tail_values is not None:
            tails = np.array(self.tail_values, dtype=float, ndmin=2)
            require_finite(tails, "tail_values")
            if tails.shape[1] != vals.shape[1] - 1:
                raise ValueError(
                    f"expected {vals.shape[1] - 1} tail values, got {tails.shape[1]}"
                )
            object.__setattr__(self, "tail_values", _clamp(tails))

    def row(self, i: int) -> "MeasureVector":
        tails = None if self.tail_values is None else tuple(self.tail_values[i].tolist())
        return MeasureVector(tuple(self.values[i].tolist()), self.kind, float(self.lhs[i]), tails)


@dataclass(frozen=True)
class MeasureVector:
    """Per-subsystem measure values ``v_j = m(rho_{A|B_j})`` plus the
    full-cut pure-state value ``lhs``.

    ``tail_values[i]`` (optional) is the same measure of the collective
    cut ``A | B_{i+1} ... B_{N-1}``, needed only by the collective-tail
    relation.
    """

    values: tuple[float, ...]
    kind: MeasureKind
    lhs: float
    tail_values: tuple[float, ...] | None = None

    def __post_init__(self):
        tails = None if self.tail_values is None else [tuple(self.tail_values)]
        block = MeasureBlock([tuple(self.values)], self.kind, [self.lhs], tails)
        object.__setattr__(self, "values", tuple(block.values[0].tolist()))
        object.__setattr__(self, "lhs", float(block.lhs[0]))
        if block.tail_values is not None:
            object.__setattr__(self, "tail_values", tuple(block.tail_values[0].tolist()))
        object.__setattr__(self, "_block", block)

    @property
    def block(self) -> MeasureBlock:
        """This vector as a block of one row."""
        return self._block


class RelationId(Enum):
    MONO_HAMMING = "mono-hamming"
    MONO_LADDER = "mono-ladder"
    POLY_HAMMING = "poly-hamming"
    POLY_LADDER = "poly-ladder"
    POLY_AVERAGE_NEG = "poly-average-neg"
    MONO_HAMMING_NEG = "mono-hamming-neg"
    MONO_LADDER_NEG = "mono-ladder-neg"
    MONO_LADDER_NEG_COLLECTIVE = "mono-ladder-neg-collective"
    MONO_HAMMING_BASE = "mono-hamming-base"
    MONO_LADDER_BASE = "mono-ladder-base"
    POLY_HAMMING_BASE = "poly-hamming-base"
    POLY_LADDER_BASE = "poly-ladder-base"


class ConditionMode(Enum):
    ORDERING = "ordering"
    TAIL_SUM = "tailsum"
    COLLECTIVE_TAIL = "collective"
    POSITIVITY = "positivity"


class AlphaRange(Enum):
    GEQ_ONE = "alpha >= 1"
    UNIT = "0 <= alpha <= 1"
    NEGATIVE = "alpha < 0"

    def contains(self, alpha: float) -> bool:
        if self is AlphaRange.GEQ_ONE:
            return alpha >= 1.0
        if self is AlphaRange.UNIT:
            return 0.0 <= alpha <= 1.0
        return alpha < 0.0


@dataclass(frozen=True)
class RelationSpec:
    kind: MeasureKind
    geq: bool  # True: lhs^alpha >= rhs (monogamy side); False: <= (polygamy side)
    alpha_range: AlphaRange
    condition: ConditionMode
    exponent: str  # "hamming" | "ladder" | "average"
    # True: base = weight factor at the relation's k.  False: a baseline
    # (base alpha, k pinned to 1 and not reported) or the average relation
    weighted: bool


REGISTRY: dict[RelationId, RelationSpec] = {
    RelationId.MONO_HAMMING: RelationSpec(
        MeasureKind.SCREN, True, AlphaRange.GEQ_ONE, ConditionMode.ORDERING,
        "hamming", True),
    RelationId.MONO_LADDER: RelationSpec(
        MeasureKind.SCREN, True, AlphaRange.GEQ_ONE, ConditionMode.TAIL_SUM,
        "ladder", True),
    RelationId.POLY_HAMMING: RelationSpec(
        MeasureKind.SCRENOA, False, AlphaRange.UNIT, ConditionMode.ORDERING,
        "hamming", True),
    RelationId.POLY_LADDER: RelationSpec(
        MeasureKind.SCRENOA, False, AlphaRange.UNIT, ConditionMode.TAIL_SUM,
        "ladder", True),
    RelationId.POLY_AVERAGE_NEG: RelationSpec(
        MeasureKind.SCREN, False, AlphaRange.NEGATIVE, ConditionMode.POSITIVITY,
        "average", False),
    RelationId.MONO_HAMMING_NEG: RelationSpec(
        MeasureKind.SCRENOA, True, AlphaRange.NEGATIVE, ConditionMode.ORDERING,
        "hamming", True),
    RelationId.MONO_LADDER_NEG: RelationSpec(
        MeasureKind.SCRENOA, True, AlphaRange.NEGATIVE, ConditionMode.TAIL_SUM,
        "ladder", True),
    RelationId.MONO_LADDER_NEG_COLLECTIVE: RelationSpec(
        MeasureKind.SCRENOA, True, AlphaRange.NEGATIVE, ConditionMode.COLLECTIVE_TAIL,
        "ladder", True),
    RelationId.MONO_HAMMING_BASE: RelationSpec(
        MeasureKind.SCREN, True, AlphaRange.GEQ_ONE, ConditionMode.ORDERING,
        "hamming", False),
    RelationId.MONO_LADDER_BASE: RelationSpec(
        MeasureKind.SCREN, True, AlphaRange.GEQ_ONE, ConditionMode.TAIL_SUM,
        "ladder", False),
    RelationId.POLY_HAMMING_BASE: RelationSpec(
        MeasureKind.SCRENOA, False, AlphaRange.UNIT, ConditionMode.ORDERING,
        "hamming", False),
    RelationId.POLY_LADDER_BASE: RelationSpec(
        MeasureKind.SCRENOA, False, AlphaRange.UNIT, ConditionMode.TAIL_SUM,
        "ladder", False),
}


def check_alpha(alpha, relation: RelationId | None = None) -> float:
    """``alpha`` as a float, checked a real number (not a bool or a
    string), finite and, given a relation, in its range: the one alpha
    check of every relation entry point."""
    if not is_real(alpha):
        raise ValueError(f"alpha must be a finite number, got {alpha!r}")
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha = {alpha} is not a finite number")
    if relation is not None and not REGISTRY[relation].alpha_range.contains(alpha):
        rng = REGISTRY[relation].alpha_range.value
        raise ValueError(f"alpha = {alpha} outside the range of {relation.value} ({rng})")
    return alpha


def hamming_weight(j: int) -> int:
    """Number of ones in the binary expansion of ``j``, an integer >= 0
    (not a bool)."""
    if not (is_int(j) and j >= 0):
        raise ValueError(f"hamming_weight expects a nonnegative integer, got {j!r}")
    return int(j).bit_count()


def weight_factor(alpha: float, k):
    """``((1 + k)^alpha - 1) / k^alpha`` for k in (0, 1]; elementwise over
    an array of k.  ``alpha`` must be finite, and k real (not a bool)."""
    alpha = check_alpha(alpha)
    if not (is_real(k) or np.asarray(k).dtype.kind in "iuf"):
        raise ValueError(f"k must be a real number or an array of them, got {k!r}")
    k = np.asarray(k, dtype=float)
    if not ((0.0 < k) & (k <= 1.0)).all():
        raise ValueError(f"k must lie in (0, 1], got {k}")
    factor = _weight_factors((alpha,), k)[0]
    return factor if factor.ndim else float(factor)


def _weight_factors(alphas, k: np.ndarray) -> np.ndarray:
    """The weight factor at each of ``alphas``, already checked, for every
    k of an array in (0, 1]: shape ``(alphas,) + k.shape``."""
    return ((_stack_power([(1.0 + k, alpha) for alpha in alphas], k.shape) - 1.0)
            / _stack_power([(k, alpha) for alpha in alphas], k.shape))


def _one_flag(flags):
    return flags if flags.ndim else bool(flags)


def check_ordering_condition(values, k):
    """True iff ``k * v_j >= v_{j+1} >= 0`` for all consecutive j.

    On a block of rows (rows, m) with one k per row, one flag per row.
    """
    vals = np.asarray(values, dtype=float)
    k = np.asarray(k, dtype=float)[..., None]
    holds = ~(vals < -COND_TOL).any(axis=-1)
    holds &= (k * vals[..., :-1] >= vals[..., 1:] - COND_TOL).all(axis=-1)
    return _one_flag(holds)


def check_tail_sum_condition(values, k):
    """True iff ``k * v_i >= sum_{j > i} v_j`` for all i up to N-2.

    On a block of rows (rows, m) with one k per row, one flag per row.
    """
    vals = np.asarray(values, dtype=float)
    k = np.asarray(k, dtype=float)
    holds = ~(vals < -COND_TOL).any(axis=-1)
    tail = 0.0
    for i in range(vals.shape[-1] - 1, 0, -1):
        tail = tail + vals[..., i]
        holds = holds & (k * vals[..., i - 1] >= tail - COND_TOL)
    return _one_flag(holds)


def row_sum(columns: np.ndarray) -> np.ndarray:
    """Sum over the last axis, added left to right from zero as Python's
    ``sum`` of floats does, so a row's sum is bit for bit its scalar sum."""
    total = 0.0
    for j in range(columns.shape[-1]):
        total = total + columns[..., j]
    return total


def _min_k(numerators: np.ndarray, denominators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the smallest k in (0, 1] with ``k * den_i >= num_i`` for
    all i, and whether there is one.

    A zero denominator facing a positive numerator admits no k at all; a
    constraint-free row gets 1.0 (the bound is then k-independent).
    """
    free = denominators <= POS_EPS
    blocked = (free & (numerators > POS_EPS)).any(axis=-1)
    ratios = np.divide(numerators, denominators, out=np.zeros(numerators.shape), where=~free)
    k = ratios.max(axis=-1, initial=0.0)
    has_k = ~blocked & ~(k > 1.0 + COND_TOL)
    k = np.where(k <= 0.0, 1.0, np.minimum(np.maximum(k, K_FLOOR), 1.0))
    return k, has_k


def _auto_k(vals: np.ndarray, tails: np.ndarray | None,
            mode: ConditionMode) -> tuple[np.ndarray, np.ndarray]:
    if mode is ConditionMode.ORDERING:
        numerators = vals[:, 1:]
    elif mode is ConditionMode.TAIL_SUM:
        m = vals.shape[1]
        numerators = np.empty((len(vals), m - 1))
        for i in range(m - 1):
            numerators[:, i] = row_sum(vals[:, i + 1:])
    else:
        numerators = tails
    return _min_k(numerators, vals[:, :-1])


def admissible_k(values, mode: ConditionMode) -> float | None:
    """Minimal k in (0, 1] satisfying the ordering or tail-sum condition.

    Minimal k yields the largest weight factor for alpha >= 1 and the
    smallest for 0 <= alpha <= 1, i.e. the strongest reportable bound in
    both regimes.
    """
    if mode not in (ConditionMode.ORDERING, ConditionMode.TAIL_SUM):
        raise ValueError(f"admissible_k supports ordering / tail-sum modes, not {mode}")
    k, has_k = _auto_k(np.array([values], dtype=float, ndmin=2), None, mode)
    return float(k[0]) if has_k[0] else None


def _stack_power(calls, shape: tuple) -> np.ndarray:
    """``np.power(base, exponent)`` of every ``(base, exponent)`` of
    ``calls``, each of the given result shape, stacked on a leading axis.

    Each is its own call, the one a single alpha makes, so an alpha grid
    gives every element the bits it gets alone.  One broadcast call over
    ``(alphas,) + shape`` would not: numpy 2.4 buffers the stride-0
    exponent of some such calls (a 7x3 block from three alphas on) into
    a full array.  That skips the scalar-exponent loop's exact cases
    (2.0 is ``x * x``, 0.5 a square root, -1.0 a reciprocal) for the SIMD
    ``pow``, whose last bits differ on a few percent of values."""
    out = np.empty((len(calls),) + shape)
    for i, (base, exponent) in enumerate(calls):
        np.power(base, exponent, out=out[i, ...])
    return out


def _powers(values: np.ndarray, alphas) -> tuple[np.ndarray, np.ndarray]:
    """``v_j^alpha`` of every row (rows, m) at each of ``alphas``, shape
    (alphas, rows, m), and whether the row has them, (alphas, rows):
    0^alpha is undefined for alpha <= 0, so such a row's relation is not
    applicable there."""
    defined = (values > POS_EPS).all(axis=-1)
    guarded = np.where(defined[:, None], values, 1.0)
    powers = _stack_power([(values if alpha > 0.0 else guarded, alpha) for alpha in alphas],
                          values.shape)
    return powers, defined | (np.asarray(alphas) > 0.0)[:, None]


def _pattern_sum(powers: np.ndarray, base: np.ndarray, exponent: str) -> np.ndarray:
    """``sum_j base^{e(j)} v_j^alpha`` per alpha and row, with e = w_H
    (``"hamming"``) or the index itself (``"ladder"``): the one shape of
    every bound but the average one.  ``powers`` is (alphas, rows, m),
    ``base`` (alphas, rows) or, one number per alpha, (alphas, 1)."""
    m = powers.shape[-1]
    e = hamming_weight if exponent == "hamming" else (lambda j: j)
    exponents = np.array([e(j) for j in range(m)], dtype=float)
    coefs = _stack_power([(row[..., None], exponents) for row in base], base.shape[1:] + (m,))
    total = 0.0
    for j in range(m):
        total = total + coefs[..., j] * powers[..., j]
    return total


def _mean(powers: np.ndarray) -> np.ndarray:
    """The average relation's bound per row: the mean of ``v_j^alpha``."""
    return row_sum(powers) / powers.shape[-1]


def _bound_row(values, alpha: float, base, exponent: str) -> float | None:
    powers, defined = _powers(np.array([values], dtype=float, ndmin=2), (alpha,))
    if not defined[0, 0]:
        return None
    if exponent == "average":
        return float(_mean(powers)[0, 0])
    return float(_pattern_sum(powers, np.reshape(base, (1, 1)), exponent)[0, 0])


def bound_hamming(values, alpha: float, k: float) -> float | None:
    """``sum_j factor^{w_H(j)} v_j^alpha`` with factor = weight_factor(alpha, k).

    Returns None when a zero value meets alpha <= 0 (not applicable).
    """
    alpha = check_alpha(alpha)
    return _bound_row(values, alpha, weight_factor(alpha, k), "hamming")


def bound_power_j(values, alpha: float, k: float) -> float | None:
    """Like :func:`bound_hamming` with exponent j instead of w_H(j)."""
    alpha = check_alpha(alpha)
    return _bound_row(values, alpha, weight_factor(alpha, k), "ladder")


def bound_kim(values, alpha: float, variant: str) -> float | None:
    """Baseline bound ``sum_j alpha^{exp(j)} v_j^alpha``; variant is
    ``"hamming"`` or ``"ladder"``.  Stated only for finite alpha >= 0."""
    alpha = check_alpha(alpha)
    if alpha < 0.0:
        raise ValueError("baseline bounds are stated for alpha >= 0 only")
    if variant not in ("hamming", "ladder"):
        raise ValueError(f"unknown baseline variant {variant!r}")
    return _bound_row(values, alpha, alpha, variant)


def bound_average(values, alpha: float) -> float | None:
    """Arithmetic mean of ``v_j^alpha`` for alpha < 0; None if any value
    is numerically zero (the hypothesis requires all measures nonzero)."""
    alpha = check_alpha(alpha)
    if alpha >= 0.0:
        raise ValueError("the average bound applies to alpha < 0 only")
    return _bound_row(values, alpha, None, "average")


@dataclass(frozen=True)
class RelationReport:
    """One relation evaluated on one measure vector.

    ``satisfied`` is None ("not evaluated") when the relation's hypothesis
    fails or a needed quantity is undefined; a False here is a genuine
    violation at the 1e-9 gap tolerance.  ``gap`` is signed so that the
    satisfied direction is positive.  ``kim_rhs`` is the baseline bound a
    weighted relation with alpha >= 0 tightens, and ``tightness_delta``
    compares against it (rhs - kim_rhs on the monogamy side, kim_rhs - rhs
    on the polygamy side).
    """

    relation: RelationId
    alpha: float
    k: float | None
    condition_holds: bool
    lhs_pow: float | None
    rhs: float | None
    satisfied: bool | None
    gap: float | None
    kim_rhs: float | None
    tightness_delta: float | None


@dataclass(frozen=True)
class ReportGrid:
    """One relation over an alpha grid on the rows of a
    :class:`MeasureBlock`: the fields of :class:`RelationReport` as
    columns ``(alphas, rows)``, NaN where a report has None, but ``k``,
    which does not depend on alpha and is one column ``(rows,)``.  ``gap``
    is NaN exactly on the rows that are not evaluated."""

    relation: RelationId
    alphas: tuple[float, ...]
    k: np.ndarray
    condition: np.ndarray
    lhs_pow: np.ndarray
    rhs: np.ndarray
    kim_rhs: np.ndarray
    gap: np.ndarray

    @property
    def evaluated(self) -> np.ndarray:
        return ~np.isnan(self.gap)

    @property
    def violated(self) -> np.ndarray:
        """The evaluated rows whose gap is below -SAT_TOL."""
        return self.gap < -SAT_TOL

    @property
    def tightness(self) -> np.ndarray:
        return (self.rhs - self.kim_rhs) if REGISTRY[self.relation].geq else (self.kim_rhs - self.rhs)

    def report(self, a: int, row: int) -> RelationReport:
        """The report of row ``row`` at ``alphas[a]``."""
        def pick(value):
            value = float(value)
            return None if math.isnan(value) else value

        gap = pick(self.gap[a, row])
        return RelationReport(
            relation=self.relation,
            alpha=self.alphas[a],
            k=pick(self.k[row]),
            condition_holds=bool(self.condition[a, row]),
            lhs_pow=pick(self.lhs_pow[a, row]),
            rhs=pick(self.rhs[a, row]),
            satisfied=None if gap is None else gap >= -SAT_TOL,
            gap=gap,
            kim_rhs=pick(self.kim_rhs[a, row]),
            tightness_delta=pick(self.tightness[a, row]),
        )


def check_k_policy(k_policy) -> float | None:
    """None for the ``"auto"`` policy, else the explicit k, a real number
    (not a bool) in (0, 1]."""
    if isinstance(k_policy, str) and k_policy == "auto":
        return None
    if not is_real(k_policy):
        raise ValueError(f"k policy must be 'auto' or an explicit float, got {k_policy!r}")
    k = float(k_policy)
    if not 0.0 < k <= 1.0:
        raise ValueError(f"explicit k must lie in (0, 1], got {k}")
    return k


def _k_and_condition(block: MeasureBlock, spec: RelationSpec, explicit_k: float | None):
    """The k of the bound per row, whether it exists, and the alpha-free
    part of the condition.  A baseline pins k = 1 and the average
    relation has no k; only a weighted relation reports it."""
    rows = len(block.values)
    if spec.weighted and explicit_k is None:
        k, has_k = _auto_k(block.values, block.tail_values, spec.condition)
    else:
        k = np.full(rows, explicit_k if spec.weighted else 1.0)
        has_k = np.ones(rows, dtype=bool)
    vals = block.values
    if spec.condition is ConditionMode.POSITIVITY:
        holds = np.ones(rows, dtype=bool)
    elif spec.condition is ConditionMode.ORDERING:
        holds = check_ordering_condition(vals, k)
    elif spec.condition is ConditionMode.TAIL_SUM:
        holds = check_tail_sum_condition(vals, k) & has_k
        # the tail sum dominates the single next term, so the ordering
        # condition is implied at the same k
        if (holds & np.logical_not(check_ordering_condition(vals, k))).any():
            raise RuntimeError("tail-sum condition held but ordering did not")
    else:
        holds = (k[:, None] * vals[:, :-1] >= block.tail_values - COND_TOL).all(axis=1)
    return k, has_k, holds & has_k


def evaluate_grids(block: MeasureBlock, keys, k_policy="auto") -> list[ReportGrid]:
    """Evaluate every ``(relation, alpha)`` of ``keys`` on the rows of
    ``block``: one :class:`ReportGrid` per relation, in order of first
    appearance, over its alphas in key order.

    Every alpha, the kinds and ``k_policy`` (``"auto"``, the minimal
    admissible k per row, or an explicit float in (0, 1], checked for
    every relation) are checked first, once.  Out-of-range alpha and a
    mismatched measure kind are errors; an unsatisfiable hypothesis
    yields a not-evaluated row, not an error.  Each relation runs once
    over its grid: k and the condition once per (condition mode,
    weighted), since neither depends on alpha, and the powers and the
    baseline sums once per alpha grid.
    """
    explicit_k = check_k_policy(k_policy)
    grids: dict[RelationId, list[float]] = {}
    for relation, alpha in keys:
        grids.setdefault(relation, []).append(check_alpha(alpha, relation))
    for relation in grids:
        spec = REGISTRY[relation]
        if block.kind is not spec.kind:
            raise ValueError(
                f"{relation.value} applies to {spec.kind.value} vectors, got {block.kind.value}"
            )
        if spec.condition is ConditionMode.COLLECTIVE_TAIL and block.tail_values is None:
            raise ValueError("the collective-tail relation needs MeasureVector.tail_values")

    vals, lhs = block.values, block.lhs
    rows = len(vals)
    lhs_positive = lhs > POS_EPS
    guarded_lhs = np.where(lhs_positive, lhs, 1.0)
    # the alpha <= 0 hypothesis: every value and the full-cut value nonzero
    positive = (vals > POS_EPS).all(axis=1) & lhs_positive
    conditions: dict = {}  # (condition mode, weighted) -> (k, has_k, holds)
    powers: dict = {}  # alphas -> (powers, defined, lhs_pow, has_lhs_pow)
    baselines: dict = {}  # (alphas, exponent) -> the pattern sums at base alpha
    out = []
    for relation, alphas in grids.items():
        alphas = tuple(alphas)
        spec = REGISTRY[relation]
        if (spec.condition, spec.weighted) not in conditions:
            conditions[spec.condition, spec.weighted] = _k_and_condition(block, spec, explicit_k)
        k, has_k, holds = conditions[spec.condition, spec.weighted]
        column = np.array(alphas)[:, None]  # one alpha per row of a grid
        holds = holds & (positive | (column > 0.0))
        if alphas not in powers:
            lhs_pow = _stack_power([(lhs if alpha > 0.0 else guarded_lhs, alpha) for alpha in alphas],
                                   lhs.shape)
            powers[alphas] = _powers(vals, alphas) + (lhs_pow, lhs_positive | (column > 0.0))
        pows, defined, lhs_pow, has_lhs_pow = powers[alphas]

        kim_rhs = np.full((len(alphas), rows), np.nan)
        if spec.exponent == "average":
            rhs, has_rhs = _mean(pows), defined
        else:
            if (alphas, spec.exponent) not in baselines:
                baselines[alphas, spec.exponent] = _pattern_sum(pows, column, spec.exponent)
            baseline = baselines[alphas, spec.exponent]
            if spec.weighted:
                factors = _weight_factors(alphas, np.where(has_k, k, 1.0))
                rhs = _pattern_sum(pows, factors, spec.exponent)
                # the baseline a weighted relation tightens is stated for alpha >= 0
                kim_rhs = np.where(defined & (column >= 0.0), baseline, np.nan)
            else:
                rhs = baseline
            has_rhs = defined & has_k

        evaluated = holds & has_rhs & has_lhs_pow
        gap = (lhs_pow - rhs) if spec.geq else (rhs - lhs_pow)
        out.append(ReportGrid(
            relation=relation,
            alphas=alphas,
            k=np.where(has_k, k, np.nan) if spec.weighted else np.full(rows, np.nan),
            condition=holds,
            lhs_pow=np.where(has_lhs_pow, lhs_pow, np.nan),
            rhs=np.where(has_rhs, rhs, np.nan),
            kim_rhs=kim_rhs,
            gap=np.where(evaluated, gap, np.nan),
        ))
    return out


def evaluate_relation(mv: MeasureVector, relation: RelationId, alpha: float,
                      k_policy="auto") -> RelationReport:
    """Evaluate one relation on ``mv`` at power ``alpha``: the one-key,
    one-row case of :func:`evaluate_grids`.

    ``k_policy`` is ``"auto"`` (minimal admissible k) or an explicit float
    in (0, 1], checked for every relation.  Out-of-range alpha and a
    mismatched measure kind are errors; an unsatisfiable hypothesis yields
    a not-evaluated report, not an error.
    """
    return evaluate_grids(mv.block, [(relation, alpha)], k_policy)[0].report(0, 0)

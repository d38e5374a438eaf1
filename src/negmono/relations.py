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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

COND_TOL = 1e-12
SAT_TOL = 1e-9
POS_EPS = 1e-12
# floor for auto-selected k: below this the condition is vacuous (the
# constrained values are numerically zero) and the bound is k-independent
K_FLOOR = 1e-6


class MeasureKind(Enum):
    SCREN = "scren"
    SCRENOA = "screnoa"


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
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("MeasureVector needs at least one subsystem value")
        if any(v < -COND_TOL for v in vals) or self.lhs < -COND_TOL:
            raise ValueError("measure values must be nonnegative")
        object.__setattr__(self, "values", tuple(max(v, 0.0) for v in vals))
        object.__setattr__(self, "lhs", max(float(self.lhs), 0.0))
        if self.tail_values is not None:
            tails = tuple(max(float(t), 0.0) for t in self.tail_values)
            if len(tails) != len(vals) - 1:
                raise ValueError(
                    f"expected {len(vals) - 1} tail values, got {len(tails)}"
                )
            object.__setattr__(self, "tail_values", tails)


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


def hamming_weight(j: int) -> int:
    """Number of ones in the binary expansion of ``j``."""
    if j < 0:
        raise ValueError("hamming_weight expects a nonnegative integer")
    return int(j).bit_count()


def weight_factor(alpha: float, k: float) -> float:
    """``((1 + k)^alpha - 1) / k^alpha`` for k in (0, 1]."""
    if not 0.0 < k <= 1.0:
        raise ValueError(f"k must lie in (0, 1], got {k}")
    return ((1.0 + k) ** alpha - 1.0) / k**alpha


def check_ordering_condition(values, k: float, tol: float = COND_TOL) -> bool:
    """True iff ``k * v_j >= v_{j+1} >= 0`` for all consecutive j."""
    vals = [float(v) for v in values]
    if any(v < -tol for v in vals):
        return False
    return all(k * vals[j] >= vals[j + 1] - tol for j in range(len(vals) - 1))


def check_tail_sum_condition(values, k: float, tol: float = COND_TOL) -> bool:
    """True iff ``k * v_i >= sum_{j > i} v_j`` for all i up to N-2."""
    vals = [float(v) for v in values]
    if any(v < -tol for v in vals):
        return False
    tail = 0.0
    ok = True
    for i in range(len(vals) - 1, 0, -1):
        tail += vals[i]
        ok = ok and (k * vals[i - 1] >= tail - tol)
    return ok


def _min_k_from_ratios(numerators, denominators) -> float | None:
    """Smallest k in (0, 1] with ``k * den_i >= num_i`` for all i, else None.

    A zero denominator facing a positive numerator admits no k at all; a
    constraint-free system returns 1.0 (the bound is then k-independent).
    """
    k = 0.0
    for num, den in zip(numerators, denominators):
        if den <= POS_EPS:
            if num > POS_EPS:
                return None
            continue
        k = max(k, num / den)
    if k <= 0.0:
        return 1.0
    if k > 1.0 + COND_TOL:
        return None
    return min(max(k, K_FLOOR), 1.0)


def admissible_k(values, mode: ConditionMode) -> float | None:
    """Minimal k in (0, 1] satisfying the ordering or tail-sum condition.

    Minimal k yields the largest weight factor for alpha >= 1 and the
    smallest for 0 <= alpha <= 1, i.e. the strongest reportable bound in
    both regimes.
    """
    vals = [float(v) for v in values]
    if mode is ConditionMode.ORDERING:
        return _min_k_from_ratios(vals[1:], vals[:-1])
    if mode is ConditionMode.TAIL_SUM:
        tails = [sum(vals[i + 1 :]) for i in range(len(vals) - 1)]
        return _min_k_from_ratios(tails, vals[:-1])
    raise ValueError(f"admissible_k supports ordering / tail-sum modes, not {mode}")


def _powers(values, alpha: float) -> list[float] | None:
    if alpha <= 0.0 and any(v <= POS_EPS for v in values):
        return None  # 0^alpha undefined for alpha <= 0: relation not applicable
    return [v**alpha for v in values]


def _pattern_sum(powers: list[float], base: float, exponent: str) -> float:
    """``sum_j base^{e(j)} v_j^alpha`` with e = w_H (``"hamming"``) or the
    index itself (``"ladder"``): the one shape of every bound but the
    average one."""
    e = hamming_weight if exponent == "hamming" else (lambda j: j)
    return float(sum(base ** e(j) * p for j, p in enumerate(powers)))


def bound_hamming(values, alpha: float, k: float) -> float | None:
    """``sum_j factor^{w_H(j)} v_j^alpha`` with factor = weight_factor(alpha, k).

    Returns None when a zero value meets alpha <= 0 (not applicable).
    """
    powers = _powers([float(v) for v in values], alpha)
    if powers is None:
        return None
    return _pattern_sum(powers, weight_factor(alpha, k), "hamming")


def bound_power_j(values, alpha: float, k: float) -> float | None:
    """Like :func:`bound_hamming` with exponent j instead of w_H(j)."""
    powers = _powers([float(v) for v in values], alpha)
    if powers is None:
        return None
    return _pattern_sum(powers, weight_factor(alpha, k), "ladder")


def bound_kim(values, alpha: float, variant: str) -> float | None:
    """Baseline bound ``sum_j alpha^{exp(j)} v_j^alpha``; variant is
    ``"hamming"`` or ``"ladder"``.  Stated only for alpha >= 0."""
    if alpha < 0.0:
        raise ValueError("baseline bounds are stated for alpha >= 0 only")
    if variant not in ("hamming", "ladder"):
        raise ValueError(f"unknown baseline variant {variant!r}")
    powers = _powers([float(v) for v in values], alpha)
    if powers is None:
        return None
    return _pattern_sum(powers, alpha, variant)


def bound_average(values, alpha: float) -> float | None:
    """Arithmetic mean of ``v_j^alpha`` for alpha < 0; None if any value
    is numerically zero (the hypothesis requires all measures nonzero)."""
    if alpha >= 0.0:
        raise ValueError("the average bound applies to alpha < 0 only")
    powers = _powers([float(v) for v in values], alpha)
    if powers is None:
        return None
    return float(sum(powers) / len(powers))


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


def _resolve_k(spec: RelationSpec, mv: MeasureVector, k_policy) -> float | None:
    """The k of the condition and bound; only a weighted relation reports it."""
    if not spec.weighted:
        return 1.0  # a baseline pins k = 1; the average relation has no k
    if isinstance(k_policy, str):
        if k_policy != "auto":
            raise ValueError(f"k policy must be 'auto' or an explicit float, got {k_policy!r}")
        if spec.condition is ConditionMode.COLLECTIVE_TAIL:
            return _min_k_from_ratios(mv.tail_values, mv.values[:-1])
        return admissible_k(mv.values, spec.condition)
    k = float(k_policy)
    if not 0.0 < k <= 1.0:
        raise ValueError(f"explicit k must lie in (0, 1], got {k}")
    return k


def _condition_holds(spec: RelationSpec, mv: MeasureVector, k: float | None, alpha: float) -> bool:
    if alpha <= 0.0 and (any(v <= POS_EPS for v in mv.values) or mv.lhs <= POS_EPS):
        return False
    if spec.condition is ConditionMode.POSITIVITY:
        return True  # covered by the positivity gate above
    if k is None:
        return False
    if spec.condition is ConditionMode.ORDERING:
        return check_ordering_condition(mv.values, k)
    if spec.condition is ConditionMode.TAIL_SUM:
        holds = check_tail_sum_condition(mv.values, k)
        if holds:
            # the tail sum dominates the single next term, so the ordering
            # condition is implied at the same k
            if not check_ordering_condition(mv.values, k):
                raise RuntimeError("tail-sum condition held but ordering did not")
        return holds
    if spec.condition is ConditionMode.COLLECTIVE_TAIL:
        return all(
            k * mv.values[i] >= mv.tail_values[i] - COND_TOL
            for i in range(len(mv.values) - 1)
        )
    raise AssertionError(spec.condition)


def evaluate_relation(mv: MeasureVector, relation: RelationId, alpha: float,
                      k_policy="auto") -> RelationReport:
    """Evaluate one relation on ``mv`` at power ``alpha``.

    ``k_policy`` is ``"auto"`` (minimal admissible k) or an explicit float
    in (0, 1].  Out-of-range alpha and a mismatched measure kind are
    errors; an unsatisfiable hypothesis yields a not-evaluated report, not
    an error.
    """
    spec = REGISTRY[relation]
    if mv.kind is not spec.kind:
        raise ValueError(
            f"{relation.value} applies to {spec.kind.value} vectors, got {mv.kind.value}"
        )
    alpha = float(alpha)
    if not spec.alpha_range.contains(alpha):
        raise ValueError(
            f"alpha = {alpha} outside the range of {relation.value} ({spec.alpha_range.value})"
        )

    if spec.condition is ConditionMode.COLLECTIVE_TAIL and mv.tail_values is None:
        raise ValueError("the collective-tail relation needs MeasureVector.tail_values")

    k = _resolve_k(spec, mv, k_policy)
    condition = _condition_holds(spec, mv, k, alpha)

    lhs_pow = None
    if mv.lhs > POS_EPS or alpha > 0.0:
        lhs_pow = float(mv.lhs**alpha)
    rhs = kim_rhs = None
    if spec.exponent == "average":
        rhs = bound_average(mv.values, alpha)
    else:
        powers = _powers(mv.values, alpha)
        if powers is not None and k is not None:
            base = weight_factor(alpha, k) if spec.weighted else alpha
            rhs = _pattern_sum(powers, base, spec.exponent)
        if powers is not None and spec.weighted and alpha >= 0.0:
            kim_rhs = _pattern_sum(powers, alpha, spec.exponent)
    tightness = None
    if kim_rhs is not None and rhs is not None:
        tightness = (rhs - kim_rhs) if spec.geq else (kim_rhs - rhs)

    gap = None
    satisfied = None
    if condition and rhs is not None and lhs_pow is not None:
        gap = (lhs_pow - rhs) if spec.geq else (rhs - lhs_pow)
        satisfied = bool(gap >= -SAT_TOL)

    return RelationReport(
        relation=relation,
        alpha=alpha,
        k=k if spec.weighted else None,
        condition_holds=condition,
        lhs_pow=lhs_pow,
        rhs=rhs,
        satisfied=satisfied,
        gap=gap,
        kim_rhs=kim_rhs,
        tightness_delta=tightness,
    )

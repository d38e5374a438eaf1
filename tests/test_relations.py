import hashlib
import math
import random

import numpy as np
import pytest

from negmono import (
    ConditionMode,
    MeasureKind,
    MeasureVector,
    RelationId,
    admissible_k,
    bound_average,
    bound_hamming,
    bound_kim,
    bound_power_j,
    check_ordering_condition,
    check_tail_sum_condition,
    evaluate_relation,
    hamming_weight,
    weight_factor,
)
from negmono.harness import builtin_state, relation_reports_to_json, sweep
from negmono.relations import (REGISTRY, MeasureBlock, _pattern_sum, _powers, _weight_factors,
                               evaluate_block)


def scren_vec(values, lhs, tails=None):
    return MeasureVector(tuple(values), MeasureKind.SCREN, lhs, tails)


def screnoa_vec(values, lhs, tails=None):
    return MeasureVector(tuple(values), MeasureKind.SCRENOA, lhs,
                         tuple(tails) if tails is not None else None)


class TestHammingWeight:
    @pytest.mark.parametrize("j,w", [(0, 0), (1, 1), (2, 1), (3, 2), (5, 2), (255, 8)])
    def test_values(self, j, w):
        assert hamming_weight(j) == w

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hamming_weight(-1)


class TestWeightFactor:
    def test_alpha_two_k_one(self):
        # 1 + factor collapses to 2^alpha at k = 1; at alpha = 2 the factor is 3
        assert weight_factor(2.0, 1.0) == 3.0

    def test_alpha_one_any_k(self):
        for k in (0.1, 0.5, 1.0):
            assert abs(weight_factor(1.0, k) - 1.0) < 1e-15

    def test_alpha_two_k_half(self):
        assert abs(weight_factor(2.0, 0.5) - 5.0) < 1e-12

    def test_rejects_k_out_of_range(self):
        for k in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                weight_factor(2.0, k)

    def test_dominates_alpha_above_one(self):
        rng = np.random.default_rng(3)
        alphas = rng.uniform(1, 6, 300)
        ks = rng.uniform(1e-6, 1, 300)
        for a, k in zip(alphas, ks):
            assert weight_factor(a, k) >= a - 1e-12

    def test_dominated_by_alpha_on_unit_range(self):
        rng = np.random.default_rng(4)
        alphas = rng.uniform(0, 1, 300)
        ks = rng.uniform(1e-6, 1, 300)
        for a, k in zip(alphas, ks):
            assert weight_factor(a, k) <= a + 1e-12


class TestScalarLemmas:
    """Randomized scalar inequalities behind every weighted bound."""

    N = 20_000

    def _sample(self, rng):
        k = rng.uniform(1e-6, 1.0, self.N)
        x = k * rng.uniform(1e-9, 1.0, self.N)
        return k, x

    def test_alpha_geq_one_direction(self):
        rng = np.random.default_rng(100)
        k, x = self._sample(rng)
        alpha = rng.uniform(1.0, 8.0, self.N)
        factor = ((1 + k) ** alpha - 1) / k**alpha
        margin = (1 + x) ** alpha - 1 - factor * x**alpha
        assert margin.min() > -1e-12

    def test_unit_alpha_direction_reversed(self):
        rng = np.random.default_rng(101)
        k, x = self._sample(rng)
        alpha = rng.uniform(0.0, 1.0, self.N)
        factor = ((1 + k) ** alpha - 1) / k**alpha
        margin = 1 + factor * x**alpha - (1 + x) ** alpha
        assert margin.min() > -1e-12

    def test_negative_alpha_direction(self):
        rng = np.random.default_rng(102)
        k, x = self._sample(rng)
        alpha = rng.uniform(-8.0, -1e-6, self.N)
        factor = ((1 + k) ** alpha - 1) / k**alpha
        margin = (1 + x) ** alpha - 1 - factor * x**alpha
        assert margin.min() > -1e-12


class TestConditions:
    def test_ordering_examples(self):
        assert check_ordering_condition([1, 1], 1.0)
        assert not check_ordering_condition([1, 0.6], 0.5)
        assert check_ordering_condition([0, 0, 0], 0.3)

    def test_tail_sum_examples(self):
        assert check_tail_sum_condition([1, 0.3, 0.1], 0.5)
        assert check_tail_sum_condition([1, 1], 1.0)
        assert not check_tail_sum_condition([1, 0.6, 0.6], 1.0)

    def test_tail_sum_implies_ordering(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            vals = np.sort(rng.uniform(0, 1, rng.integers(2, 6)))[::-1]
            k = admissible_k(vals, ConditionMode.TAIL_SUM)
            if k is not None and check_tail_sum_condition(vals, k):
                assert check_ordering_condition(vals, k)


class TestAdmissibleK:
    def test_equal_pair_gives_one(self):
        assert admissible_k([1, 1], ConditionMode.ORDERING) == 1.0

    def test_max_ratio(self):
        assert abs(admissible_k([1, 0.25], ConditionMode.ORDERING) - 0.25) < 1e-15

    def test_increasing_pair_not_applicable(self):
        assert admissible_k([0.2, 0.5], ConditionMode.ORDERING) is None

    def test_zero_before_positive_not_applicable(self):
        assert admissible_k([1, 0, 0.5], ConditionMode.ORDERING) is None

    def test_trailing_zeros_unconstrained(self):
        assert admissible_k([1, 0, 0], ConditionMode.ORDERING) == 1.0

    def test_tail_sum_mode(self):
        assert abs(admissible_k([1, 0.3, 0.1], ConditionMode.TAIL_SUM) - 0.4) < 1e-12
        assert admissible_k([1, 0.6, 0.6], ConditionMode.TAIL_SUM) is None

    def test_result_satisfies_condition(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            vals = np.sort(rng.uniform(0, 1, 4))[::-1]
            k = admissible_k(vals, ConditionMode.ORDERING)
            assert k is not None and check_ordering_condition(vals, k)


class TestBounds:
    def test_hamming_example(self):
        assert abs(bound_hamming([1, 1], 2.0, 1.0) - 4.0) < 1e-12

    def test_hamming_single_value(self):
        for alpha, k in ((1.0, 0.5), (2.5, 1.0), (-1.0, 0.7)):
            assert abs(bound_hamming([0.7], alpha, k) - 0.7**alpha) < 1e-12

    def test_hamming_alpha_one_plain_sum(self):
        vals = [1, 0.5, 0.5, 0.25]
        for k in (0.3, 0.5, 1.0):
            assert abs(bound_hamming(vals, 1.0, k) - 2.25) < 1e-12

    def test_power_j_examples(self):
        assert abs(bound_power_j([1, 1], 2.0, 1.0) - 4.0) < 1e-12
        assert abs(bound_power_j([1, 1, 1, 1], 2.0, 1.0) - 40.0) < 1e-12
        assert abs(bound_hamming([1, 1, 1, 1], 2.0, 1.0) - 16.0) < 1e-12

    def test_kim_examples(self):
        assert abs(bound_kim([1, 1], 2.0, "hamming") - 3.0) < 1e-12
        assert abs(bound_kim([1, 1], 1.0, "hamming") - 2.0) < 1e-12
        assert abs(bound_kim([1, 1], 1.0, "ladder") - 2.0) < 1e-12
        assert abs(bound_kim([1, 1, 1, 1], 2.0, "hamming") - 9.0) < 1e-12

    def test_kim_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            bound_kim([1, 1], -1.0, "hamming")

    def test_average_examples(self):
        assert abs(bound_average([1, 1], -1.0) - 1.0) < 1e-12
        assert abs(bound_average([2, 2, 2], -1.0) - 0.5) < 1e-12

    def test_average_zero_value_not_applicable(self):
        assert bound_average([1, 0], -1.0) is None

    def test_average_rejects_nonnegative_alpha(self):
        with pytest.raises(ValueError):
            bound_average([1, 1], 0.5)

    def test_zero_value_negative_alpha_not_applicable(self):
        assert bound_hamming([1, 0], -1.0, 1.0) is None
        assert bound_power_j([0.5, 0.0], -2.0, 0.5) is None

    def test_factor_dominance_transfers_to_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            vals = np.sort(rng.uniform(0, 1, 4))[::-1]
            k = admissible_k(vals, ConditionMode.ORDERING)
            a_hi = rng.uniform(1, 4)
            assert bound_hamming(vals, a_hi, k) >= bound_kim(vals, a_hi, "hamming") - 1e-12
            a_lo = rng.uniform(0.01, 1)
            assert bound_hamming(vals, a_lo, k) <= bound_kim(vals, a_lo, "hamming") + 1e-12

    def test_reduction_at_alpha_one(self):
        rng = np.random.default_rng(29)
        vals = rng.uniform(0, 1, 5)
        for k in (0.2, 0.7, 1.0):
            plain = vals.sum()
            assert abs(bound_hamming(vals, 1.0, k) - plain) < 1e-12
            assert abs(bound_power_j(vals, 1.0, k) - plain) < 1e-12
            assert abs(bound_kim(vals, 1.0, "hamming") - plain) < 1e-12
            assert abs(bound_kim(vals, 1.0, "ladder") - plain) < 1e-12


class TestNonFiniteInput:
    """A NaN or an infinity is rejected where it enters: in a measure
    vector or block when it is built, in alpha at every relation entry
    point."""

    GOOD = {"values": (0.5, 0.25), "lhs": 1.0, "tail_values": (0.25,)}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["values", "lhs", "tail_values"])
    def test_measure_vector_rejects(self, field, bad):
        fields = dict(self.GOOD)
        fields[field] = bad if field == "lhs" else fields[field][:-1] + (bad,)
        with pytest.raises(ValueError, match=f"{field} has a non-finite entry"):
            MeasureVector(fields["values"], MeasureKind.SCRENOA, fields["lhs"],
                          fields["tail_values"])

    @pytest.mark.parametrize("field", ["values", "lhs", "tail_values"])
    def test_measure_block_rejects_one_bad_row(self, field):
        fields = {"values": np.full((3, 2), 0.5), "lhs": np.ones(3),
                  "tail_values": np.full((3, 1), 0.5)}
        fields[field][1] = math.nan
        with pytest.raises(ValueError, match=f"{field} has a non-finite entry"):
            MeasureBlock(fields["values"], MeasureKind.SCRENOA, fields["lhs"],
                         fields["tail_values"])

    @pytest.mark.parametrize("relation, alpha", [
        (RelationId.MONO_HAMMING, math.inf),
        (RelationId.POLY_LADDER, math.nan),
        (RelationId.MONO_HAMMING_NEG, -math.inf),
        (RelationId.POLY_AVERAGE_NEG, -math.inf),
    ])
    def test_evaluate_relation_rejects_alpha(self, relation, alpha):
        kind = REGISTRY[relation].kind
        mv = MeasureVector((0.5, 0.25), kind, 1.0)
        with pytest.raises(ValueError, match="is not a finite number"):
            evaluate_relation(mv, relation, alpha)

    # campaign configs reject these too ("a list of finite numbers")
    @pytest.mark.parametrize("alpha", [True, False, "1.5", None, 1 + 0j], ids=repr)
    def test_entry_points_reject_non_real_alpha(self, alpha):
        relation = RelationId.MONO_HAMMING
        mv = scren_vec([0.5, 0.25], 1.0)
        block = MeasureBlock([[0.5, 0.25]], MeasureKind.SCREN, [1.0])
        for call in (lambda: evaluate_relation(mv, relation, alpha),
                     lambda: evaluate_block(block, [(relation, alpha)]),
                     lambda: sweep(builtin_state("bell"), relation, (alpha,))):
            with pytest.raises(ValueError, match="alpha must be a finite number, got"):
                call()

    def test_out_of_range_message(self):
        with pytest.raises(ValueError, match="outside the range of mono-hamming"):
            evaluate_relation(scren_vec([0.5, 0.25], 1.0), RelationId.MONO_HAMMING, 0.5)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_weight_factor_and_bounds_reject_alpha(self, alpha):
        for call in (lambda: weight_factor(alpha, 0.5),
                     lambda: bound_hamming([0.5, 0.25], alpha, 0.5),
                     lambda: bound_power_j([0.5, 0.25], alpha, 0.5),
                     lambda: bound_kim([0.5, 0.25], alpha, "hamming"),
                     lambda: bound_average([0.5, 0.25], alpha)):
            with pytest.raises(ValueError, match="is not a finite number"):
                call()


class TestEvaluateRelation:
    def test_antisymmetric_example_report(self):
        mv = scren_vec([1.0, 1.0], 4.0)
        rep = evaluate_relation(mv, RelationId.MONO_HAMMING, 2.0, "auto")
        assert rep.k == 1.0
        assert rep.condition_holds
        assert abs(rep.lhs_pow - 16.0) < 1e-12
        assert abs(rep.rhs - 4.0) < 1e-12
        assert abs(rep.kim_rhs - 3.0) < 1e-12
        assert rep.satisfied is True
        assert abs(rep.tightness_delta - 1.0) < 1e-12

    def test_ghz_polygamy_report(self):
        mv = screnoa_vec([1.0, 1.0], 1.0)
        rep = evaluate_relation(mv, RelationId.POLY_HAMMING, 0.5, 1.0)
        assert abs(rep.rhs - np.sqrt(2)) < 1e-12
        assert abs(rep.lhs_pow - 1.0) < 1e-12
        assert rep.satisfied is True

    def test_single_subsystem_degenerate(self):
        mv = scren_vec([0.4], 0.4)
        rep = evaluate_relation(mv, RelationId.MONO_HAMMING, 3.0, "auto")
        assert abs(rep.lhs_pow - 0.4**3) < 1e-15
        assert abs(rep.rhs - 0.4**3) < 1e-15
        assert rep.satisfied is True

    def test_alpha_out_of_range_rejected(self):
        mv = scren_vec([1.0, 0.5], 2.0)
        with pytest.raises(ValueError):
            evaluate_relation(mv, RelationId.MONO_HAMMING, 0.5)
        with pytest.raises(ValueError):
            evaluate_relation(mv, RelationId.POLY_AVERAGE_NEG, 1.0)

    def test_kind_mismatch_rejected(self):
        mv = scren_vec([1.0, 0.5], 2.0)
        with pytest.raises(ValueError):
            evaluate_relation(mv, RelationId.POLY_HAMMING, 0.5)

    def test_auto_without_admissible_k_not_evaluated(self):
        mv = scren_vec([0.2, 0.5], 1.0)  # increasing values: no ordering k
        rep = evaluate_relation(mv, RelationId.MONO_HAMMING, 2.0, "auto")
        assert rep.k is None
        assert not rep.condition_holds
        assert rep.satisfied is None
        assert rep.gap is None

    def test_zero_value_negative_alpha_not_applicable(self):
        mv = screnoa_vec([1.0, 0.0], 1.0)
        rep = evaluate_relation(mv, RelationId.MONO_HAMMING_NEG, -1.0, "auto")
        assert rep.satisfied is None
        assert not rep.condition_holds

    def test_average_relation_on_example_values(self):
        mv = scren_vec([1.0, 1.0], 4.0)
        rep = evaluate_relation(mv, RelationId.POLY_AVERAGE_NEG, -1.0)
        assert abs(rep.rhs - 1.0) < 1e-12
        assert abs(rep.lhs_pow - 0.25) < 1e-12
        assert rep.satisfied is True
        assert rep.k is None
        assert rep.kim_rhs is None

    def test_ghz_negative_alpha_monogamy(self):
        mv = screnoa_vec([1.0, 1.0], 1.0)
        rep = evaluate_relation(mv, RelationId.MONO_HAMMING_NEG, -1.0, "auto")
        assert rep.condition_holds and rep.k == 1.0
        assert abs(rep.rhs - 0.5) < 1e-12  # 1 + (-1/2) * 1
        assert rep.satisfied is True

    def test_tail_sum_without_ordering_raises(self, monkeypatch):
        # the tail-sum condition implies the ordering one; a broken
        # implication must fail loudly, also under ``python -O``
        import negmono.relations as relations

        mv = scren_vec([1.0, 0.3, 0.1], 2.0)
        assert evaluate_relation(mv, RelationId.MONO_LADDER, 2.0, "auto").condition_holds
        monkeypatch.setattr(relations, "check_ordering_condition", lambda values, k: False)
        with pytest.raises(RuntimeError, match="ordering"):
            evaluate_relation(mv, RelationId.MONO_LADDER, 2.0, "auto")

    def test_collective_requires_tails(self):
        mv = screnoa_vec([1.0, 0.5, 0.2], 1.0)
        with pytest.raises(ValueError):
            evaluate_relation(mv, RelationId.MONO_LADDER_NEG_COLLECTIVE, -1.0, "auto")

    def test_collective_with_tails(self):
        mv = screnoa_vec([1.0, 0.5, 0.2], 1.5, tails=[0.8, 0.2])
        rep = evaluate_relation(mv, RelationId.MONO_LADDER_NEG_COLLECTIVE, -1.0, "auto")
        assert rep.condition_holds
        assert abs(rep.k - 0.8) < 1e-12
        assert rep.satisfied is not None

    def test_kim_baseline_reports_no_k(self):
        mv = scren_vec([1.0, 0.5], 2.0)
        rep = evaluate_relation(mv, RelationId.MONO_HAMMING_BASE, 2.0, "auto")
        assert rep.k is None
        assert rep.condition_holds
        assert rep.kim_rhs is None
        assert rep.tightness_delta is None

    def test_kim_baseline_condition_is_sorted_order(self):
        unsorted = scren_vec([0.2, 0.5], 1.0)
        rep = evaluate_relation(unsorted, RelationId.MONO_HAMMING_BASE, 2.0)
        assert not rep.condition_holds
        assert rep.satisfied is None

    # k_policy is checked for every relation, also those that take no k
    @pytest.mark.parametrize("relation,alpha,k_policy", [
        (RelationId.MONO_HAMMING, 2.0, 1.5),
        (RelationId.MONO_HAMMING_BASE, 2.0, 5.0),
        (RelationId.MONO_HAMMING_BASE, 2.0, "bogus"),
        (RelationId.POLY_LADDER_BASE, 0.5, 0.0),
        (RelationId.POLY_AVERAGE_NEG, -1.0, -3.0),
    ], ids=["mono-hamming-1.5", "mono-hamming-base-5", "mono-hamming-base-bogus",
            "poly-ladder-base-0", "poly-average-neg--3"])
    def test_explicit_k_out_of_range_rejected(self, relation, alpha, k_policy):
        mv = MeasureVector((1.0, 0.5), REGISTRY[relation].kind, 2.0)
        with pytest.raises(ValueError):
            evaluate_relation(mv, relation, alpha, k_policy)

    def test_gap_sign_conventions(self):
        mono = evaluate_relation(scren_vec([1.0, 1.0], 4.0), RelationId.MONO_HAMMING, 2.0)
        assert abs(mono.gap - (16.0 - 4.0)) < 1e-12
        poly = evaluate_relation(screnoa_vec([1.0, 1.0], 1.0), RelationId.POLY_HAMMING, 0.5, 1.0)
        assert abs(poly.gap - (np.sqrt(2) - 1.0)) < 1e-12


# the public bound each relation's rhs is, as a function of (values, alpha, k)
RHS_BOUND = {
    RelationId.MONO_HAMMING: bound_hamming,
    RelationId.MONO_LADDER: bound_power_j,
    RelationId.POLY_HAMMING: bound_hamming,
    RelationId.POLY_LADDER: bound_power_j,
    RelationId.POLY_AVERAGE_NEG: lambda v, a, k: bound_average(v, a),
    RelationId.MONO_HAMMING_NEG: bound_hamming,
    RelationId.MONO_LADDER_NEG: bound_power_j,
    RelationId.MONO_LADDER_NEG_COLLECTIVE: bound_power_j,
    RelationId.MONO_HAMMING_BASE: lambda v, a, k: bound_kim(v, a, "hamming"),
    RelationId.MONO_LADDER_BASE: lambda v, a, k: bound_kim(v, a, "ladder"),
    RelationId.POLY_HAMMING_BASE: lambda v, a, k: bound_kim(v, a, "hamming"),
    RelationId.POLY_LADDER_BASE: lambda v, a, k: bound_kim(v, a, "ladder"),
}
# the weighted relations with alpha >= 0, each tightening a baseline
TIGHTENS = {
    RelationId.MONO_HAMMING: "hamming",
    RelationId.MONO_LADDER: "ladder",
    RelationId.POLY_HAMMING: "hamming",
    RelationId.POLY_LADDER: "ladder",
}
UNWEIGHTED = {
    RelationId.POLY_AVERAGE_NEG,
    RelationId.MONO_HAMMING_BASE,
    RelationId.MONO_LADDER_BASE,
    RelationId.POLY_HAMMING_BASE,
    RelationId.POLY_LADDER_BASE,
}


class TestReportFacts:
    @pytest.mark.parametrize("k_policy", ["auto", 0.7])
    @pytest.mark.parametrize("relation", list(RelationId))
    def test_k_baseline_and_rhs(self, relation, k_policy):
        spec = REGISTRY[relation]
        alpha = next(a for a in (2.0, 0.5, -1.0) if spec.alpha_range.contains(a))
        values = (0.9, 0.3, 0.05)
        tails = (0.4, 0.05) if spec.kind is MeasureKind.SCRENOA else None
        rep = evaluate_relation(MeasureVector(values, spec.kind, 1.2, tails), relation,
                                alpha, k_policy)
        assert rep.condition_holds
        assert (rep.k is None) == (relation in UNWEIGHTED)
        assert (rep.kim_rhs is not None) == (relation in TIGHTENS)
        if relation in TIGHTENS:
            assert rep.kim_rhs == bound_kim(values, alpha, TIGHTENS[relation])
        assert rep.rhs is not None
        assert rep.rhs == RHS_BOUND[relation](values, alpha, rep.k)


def _pinned_vectors():
    """Seeded non-increasing vectors of 1 to 5 values plus some with ties
    and zeros, each with a full-cut value and collective tails."""
    rng = random.Random(20191201)
    raws = [sorted((rng.random() for _ in range(n)), reverse=True)
            for n in (1, 2, 3, 4, 5) for _ in range(6)]
    raws += [[0.5, 0.5, 0.5], [0.9, 0.9, 0.2, 0.2], [0.8, 0.3, 0.3, 0.0],
             [0.6, 0.0], [1.0, 1.0], [0.0, 0.0, 0.0]]
    vectors = []
    for raw in raws:
        lhs = sum(raw) * rng.uniform(0.5, 1.5)
        tails = [sum(raw[i + 1:]) * rng.uniform(0.5, 1.0) for i in range(len(raw) - 1)]
        vectors.append((tuple(raw), lhs, tuple(tails)))
    return vectors


class TestPinnedReports:
    # sha256 of every report below as JSON (17 significant digits).  It
    # holds each float of the relation layer to the last bit across
    # commits, so a change to it is a change to campaign reports and needs
    # a recorded reason.  No LAPACK call takes part, but every power comes
    # from numpy's ``pow`` loop, so the digest is specific to the numpy
    # build (numpy 2.4 on x86_64) as well.
    DIGEST = "ac1f03dc9f8aebb5eaf07d7ad81a92002588dfdf60816f0d7483cf9c071bb15c"

    def test_reports_bit_identical(self):
        reports = []
        for values, lhs, tails in _pinned_vectors():
            for relation, spec in REGISTRY.items():
                mv = MeasureVector(values, spec.kind, lhs,
                                   tails if spec.kind is MeasureKind.SCRENOA else None)
                for alpha in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, -0.5, -1.0, -2.0):
                    if spec.alpha_range.contains(alpha):
                        for k_policy in ("auto", 0.7):
                            reports.append(evaluate_relation(mv, relation, alpha, k_policy))
        text = relation_reports_to_json(reports)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


POWER_ALPHAS = (-2.0, -1.0, -0.5, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
POWER_LENGTHS = (1, 7, 255, 256)


class TestPowerKernelRowInvariance:
    """Every power is one ``np.power`` call over a block, so a row's value
    must not depend on the block around it: the block's powers equal, with
    ``==``, each row's powers computed alone and the same rows one row
    further on.  numpy takes a different path for a scalar exponent than
    for an array of exponents (a scalar 2.0 is exactly ``x * x``), so both
    call shapes are covered: ``_powers`` and ``weight_factor`` take a
    scalar exponent, the ``base^{e(j)}`` of ``_pattern_sum`` an array.
    An alpha grid stacks these calls on a leading axis (alphas, rows, ...)
    and must give each alpha's slice the bits of that alpha alone.  A
    numpy build that fails here needs a per-element power kernel again."""

    @staticmethod
    def _shifted(fn, block):
        # the rows behind one extra row, and the same rows as a view that
        # starts one element into its buffer
        padded = np.concatenate([block[:1], block])
        return fn(padded)[1:], fn(padded[1:])

    def _check_rows(self, fn, block):
        whole = fn(block)
        for shifted in self._shifted(fn, block):
            assert np.array_equal(shifted, whole)
        for i in range(len(block)):
            assert np.array_equal(fn(block[i:i + 1])[0], whole[i])

    @pytest.mark.parametrize("alpha", POWER_ALPHAS)
    def test_powers(self, alpha):
        rng = np.random.default_rng(21)
        for rows in POWER_LENGTHS:
            for m in range(1, 10):
                values = 1.0 - rng.random((rows, m))
                self._check_rows(lambda v: _powers(v, (alpha,))[0][0], values)

    @pytest.mark.parametrize("alpha", POWER_ALPHAS)
    def test_weight_factor(self, alpha):
        rng = np.random.default_rng(22)
        for rows in POWER_LENGTHS:
            self._check_rows(lambda k: weight_factor(alpha, k), 1.0 - rng.random(rows))

    @pytest.mark.parametrize("exponent", ["hamming", "ladder"])
    @pytest.mark.parametrize("alpha", POWER_ALPHAS)
    def test_pattern_sum(self, alpha, exponent):
        rng = np.random.default_rng(23)
        for rows in POWER_LENGTHS:
            for m in range(1, 10):
                # one weight factor per row (negative for alpha < 0) and
                # the powers beside it, as evaluate_grids passes them
                rows_in = np.column_stack([weight_factor(alpha, 1.0 - rng.random(rows)),
                                           1.0 - rng.random((rows, m))])
                self._check_rows(lambda r: _pattern_sum(r[None, :, 1:], r[None, :, 0], exponent)[0],
                                 rows_in)
                self._check_rows(
                    lambda r: _pattern_sum(r[None, :, 1:], np.array([[alpha]]), exponent)[0], rows_in)

    @pytest.mark.parametrize("rows", [1, 2, 7, 256])
    def test_alpha_grid_slices_equal_each_alpha_alone(self, rows):
        # the alpha-major call shape: each slice of a grid equals the one
        # scalar-exponent call of its alpha, also where the grid holds
        # numpy's exact cases (2.0, 0.5, -1.0) and where a block is one
        # value, on which a broadcast call would loop over the alphas
        rng = np.random.default_rng(25 + rows)
        grids = (POWER_ALPHAS, POWER_ALPHAS[::-1], (0.5, 2.0, -1.0), (0.0, 0.25, 1.0))
        for m in (1, 2, 3, 9):
            values = 1.0 - rng.random((rows, m))
            k = 1.0 - rng.random(rows)
            for alphas in grids:
                powers, _ = _powers(values, alphas)
                factors = _weight_factors(alphas, k)
                for exponent in ("hamming", "ladder"):
                    sums = _pattern_sum(powers, factors, exponent)
                    baselines = _pattern_sum(powers, np.array(alphas)[:, None], exponent)
                    for i, alpha in enumerate(alphas):
                        one, _ = _powers(values, (alpha,))
                        assert np.array_equal(powers[i], one[0])
                        assert np.array_equal(factors[i], weight_factor(alpha, k))
                        assert np.array_equal(
                            sums[i], _pattern_sum(one, factors[i:i + 1], exponent)[0])
                        assert np.array_equal(
                            baselines[i], _pattern_sum(one, np.array([[alpha]]), exponent)[0])
                        if alpha > 0.0:
                            assert np.array_equal(powers[i], np.power(values, alpha))

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 9])
    def test_block_columns_equal_rows_alone(self, m):
        rng = np.random.default_rng(24 + m)
        rows = 37
        values = -np.sort(-rng.random((rows, m)) ** np.arange(1, m + 1), axis=1)
        values[::5, -1] = 0.0  # rows where negative powers are undefined
        lhs = values.sum(axis=1) * rng.uniform(0.5, 1.5, rows)
        tails = np.cumsum(values[:, :0:-1], axis=1)[:, ::-1] * rng.uniform(0.5, 1.0, (rows, m - 1))
        for kind in MeasureKind:
            block = MeasureBlock(values, kind, lhs, tails if kind is MeasureKind.SCRENOA else None)
            keys = [(relation, alpha) for relation, spec in REGISTRY.items() if spec.kind is kind
                    for alpha in POWER_ALPHAS if spec.alpha_range.contains(alpha)]
            for cols in evaluate_block(block, keys):
                for i in range(rows):
                    assert cols.report(i) == evaluate_relation(block.row(i), cols.relation, cols.alpha)


class TestAlphaBatchInvariance:
    """evaluate_block runs each relation once over its alpha grid; every
    key's columns must equal, to the last bit, those of the key evaluated
    alone."""

    FIELDS = ("k", "condition", "lhs_pow", "rhs", "kim_rhs", "gap")
    ALPHAS = (-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)

    @pytest.mark.parametrize("k_policy", ["auto", 0.7])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_grid_columns_equal_each_key_alone(self, m, k_policy):
        rng = np.random.default_rng(40 + m)
        rows = 29
        values = -np.sort(-rng.random((rows, m)) ** np.arange(1, m + 1), axis=1)
        values[::4, -1] = 0.0  # rows where negative powers are undefined
        lhs = values.sum(axis=1) * rng.uniform(0.5, 1.5, rows)
        lhs[::7] = 0.0
        tails = np.cumsum(values[:, :0:-1], axis=1)[:, ::-1] * rng.uniform(0.5, 1.0, (rows, m - 1))
        for kind in MeasureKind:
            block = MeasureBlock(values, kind, lhs, tails if kind is MeasureKind.SCRENOA else None)
            keys = [(relation, alpha) for relation, spec in REGISTRY.items() if spec.kind is kind
                    for alpha in self.ALPHAS if spec.alpha_range.contains(alpha)]
            relations = {relation for relation, _ in keys}
            assert relations == {r for r, spec in REGISTRY.items() if spec.kind is kind}
            together = evaluate_block(block, keys, k_policy)
            assert len(together) == len(keys)
            for key, cols in zip(keys, together):
                (alone,) = evaluate_block(block, [key], k_policy)
                assert (cols.relation, cols.alpha) == key == (alone.relation, alone.alpha)
                for name in self.FIELDS:
                    assert np.array_equal(getattr(cols, name), getattr(alone, name),
                                          equal_nan=True), (key, name)

    def test_interleaved_and_repeated_keys_keep_their_order(self):
        block = MeasureVector((0.6, 0.3, 0.1), MeasureKind.SCREN, 1.1).block
        keys = [(RelationId.MONO_HAMMING, 2.0), (RelationId.MONO_LADDER, 1.0),
                (RelationId.MONO_HAMMING, 1.5), (RelationId.MONO_HAMMING, 2.0)]
        together = evaluate_block(block, keys)
        assert [(c.relation, c.alpha) for c in together] == keys
        for key, cols in zip(keys, together):
            assert cols.report(0) == evaluate_relation(block.row(0), *key)

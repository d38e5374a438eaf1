"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The negative-alpha
criterion demands zero violations from the alpha < 0 relations that hold
and pins the defect of the ones that do not: the assisted-measure
monogamy family for alpha < 0 is violated by concrete states that
satisfy the stated hypotheses (see the README findings section), and the
test asserts those violations through witnesses whose expected numbers
come from closed forms in exact rational arithmetic.
"""

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from negmono import (
    Bipartition,
    CampaignConfig,
    Direction,
    MeasureKind,
    RelationId,
    RoofConfig,
    analyze,
    bound_power_j,
    builtin_state,
    check_tail_sum_condition,
    evaluate_relation,
    haar_random_mixed,
    ket,
    pure_scren,
    run_campaign,
    scren,
    density,
    partial_trace,
    sweep,
    two_qubit_tangle_and_toa,
)
from negmono.harness import _BLOCK, _analyze_block, campaign_report_json, sample_block
from negmono.relations import evaluate_grids
from negmono.roof import optimize_roof

CUT2 = Bipartition.split(2, (0,))

MONO_GRID = (1.0, 1.5, 2.0, 3.0)
POLY_GRID = (0.25, 0.5, 0.75, 1.0)
NEG_GRID = (-0.5, -1.0, -2.0)

CAMPAIGN_RELATIONS = (
    RelationId.MONO_HAMMING,
    RelationId.MONO_LADDER,
    RelationId.MONO_HAMMING_BASE,
    RelationId.MONO_LADDER_BASE,
    RelationId.POLY_HAMMING,
    RelationId.POLY_LADDER,
    RelationId.POLY_HAMMING_BASE,
    RelationId.POLY_LADDER_BASE,
)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def four_qubit_campaign():
    config = CampaignConfig(
        dims=(2, 2, 2, 2),
        samples=10_000,
        seed=20260808,
        alphas=POLY_GRID + (1.5, 2.0, 3.0),
        relations=CAMPAIGN_RELATIONS,
        k_policy="auto",
        sort_values=True,
    )
    start = time.perf_counter()
    report = run_campaign(config)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def five_qubit_campaign():
    config = CampaignConfig(
        dims=(2, 2, 2, 2, 2),
        samples=1_000,
        seed=11,
        alphas=POLY_GRID + (1.5, 2.0, 3.0),
        relations=CAMPAIGN_RELATIONS,
        k_policy="auto",
        sort_values=True,
    )
    start = time.perf_counter()
    report = run_campaign(config)
    return report, time.perf_counter() - start


def test_worked_example_reproduction():
    """Antisymmetric two-qutrit example: exact full-cut value, roof
    marginals, and the weighted-vs-baseline bound comparison at alpha=2."""
    start = time.perf_counter()
    psi = builtin_state("aharonov")
    full = pure_scren(psi, Bipartition.split(3, (0,)))
    assert abs(full - 4.0) <= 1e-9

    roof = RoofConfig(restarts=8, seed=1)
    rho = density(psi)
    marginal_values = []
    for drop in (2, 1):
        keep = tuple(sorted({0, 1, 2} - {drop}))
        red = partial_trace(rho, keep)
        mv = scren(red, CUT2, roof)
        assert abs(mv.value - 1.0) <= 1e-3, (drop, mv)
        marginal_values.append(mv.value)

    result = analyze(psi, roof)
    rep = evaluate_relation(result.scren, RelationId.MONO_HAMMING, 2.0, 1.0)
    assert abs(rep.lhs_pow - 16.0) <= 1e-8
    assert abs(rep.rhs - 4.0) <= 1e-2
    assert abs(rep.kim_rhs - 3.0) <= 1e-2
    assert abs(rep.tightness_delta - 1.0) <= 2e-2
    assert rep.satisfied is True

    sweep_rows = sweep(psi, RelationId.MONO_HAMMING, MONO_GRID, 1.0, roof_config=roof)
    expected = [2.0**a - (1.0 + a) for a in MONO_GRID]
    got = [r.tightness_delta for r in sweep_rows]
    assert np.allclose(got, expected, atol=2e-2)

    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    _report(
        "worked-example",
        True,
        f"full-cut {full:.12f}, marginals {marginal_values[0]:.6f}/{marginal_values[1]:.6f}, "
        f"rhs {rep.rhs:.6f}, kim {rep.kim_rhs:.6f}, delta {rep.tightness_delta:.6f} "
        f"({elapsed:.1f}s)",
    )


def test_oracle_equivalence():
    """Roof optimizer against the two-qubit closed forms, 100 rank-2 and
    100 full-rank states, both directions, 1e-6 in squared units."""
    start = time.perf_counter()
    worst_min = worst_max = 0.0
    for env, n in ((2, 100), (4, 100)):
        for i in range(n):
            rho = haar_random_mixed((2, 2), env, np.random.SeedSequence((2026, env, i)))
            tangle, toa = two_qubit_tangle_and_toa(rho)
            lo = optimize_roof(
                rho, CUT2,
                RoofConfig(cardinality=4, restarts=16, seed=9000 + i,
                           value_floor=6e-4, squared_tolerance=5e-7),
            )
            hi = optimize_roof(
                rho, CUT2,
                RoofConfig(cardinality=4, restarts=8, seed=9000 + i,
                           direction=Direction.MAX, squared_tolerance=5e-7),
            )
            worst_min = max(worst_min, abs(lo.value**2 - tangle))
            worst_max = max(worst_max, abs(hi.value**2 - toa))
    elapsed = time.perf_counter() - start
    ok = worst_min <= 1e-6 and worst_max <= 1e-6 and elapsed <= 300.0
    _report(
        "oracle-equivalence",
        ok,
        f"worst |min^2 - tangle| {worst_min:.2e}, worst |max^2 - toa| {worst_max:.2e} "
        f"over 200 states ({elapsed:.0f}s)",
    )
    assert worst_min <= 1e-6, f"worst |min^2 - tangle| {worst_min:.3e} exceeds 1e-6"
    assert worst_max <= 1e-6, f"worst |max^2 - toa| {worst_max:.3e} exceeds 1e-6"
    assert elapsed <= 300.0, f"oracle comparison took {elapsed:.1f} s, gate 300 s"


def test_scalar_lemma_suites():
    """>= 1e5 random (x, k, alpha) triples per regime, zero violations at 1e-12."""
    n = 120_000
    rng = np.random.default_rng(77001)
    results = {}
    for name, lo_a, hi_a, geq in (
        ("alpha>=1", 1.0, 10.0, True),
        ("0<=alpha<=1", 0.0, 1.0, False),
        ("alpha<0", -10.0, -1e-9, True),
    ):
        k = rng.uniform(1e-6, 1.0, n)
        x = k * rng.uniform(1e-9, 1.0, n)
        alpha = rng.uniform(lo_a, hi_a, n)
        factor = ((1.0 + k) ** alpha - 1.0) / k**alpha
        lhs = (1.0 + x) ** alpha
        rhs = 1.0 + factor * x**alpha
        margin = (lhs - rhs) if geq else (rhs - lhs)
        violations = int((margin < -1e-12).sum())
        results[name] = (violations, float(margin.min()))
        assert violations == 0, (name, margin.min())
    _report(
        "scalar-lemmas",
        True,
        "; ".join(f"{k}: 120000 triples, worst margin {v[1]:.2e}" for k, v in results.items()),
    )


def test_theorem_campaigns(four_qubit_campaign, five_qubit_campaign):
    """Zero violations wherever a condition passes under auto-k with sorted
    values, and tightness dominance of the weighted bounds over the
    baselines on both ensembles."""
    total_elapsed = 0.0
    covered = set()
    for label, (report, elapsed) in (
        ("4-qubit x 10^4", four_qubit_campaign),
        ("5-qubit x 10^3", five_qubit_campaign),
    ):
        total_elapsed += elapsed
        assert report.total_violations == 0, (label, report.violations[:5])
        for s in report.stats:
            assert s.violations == 0, (label, s)
            # dominance of the weighted bound over its baseline wherever
            # the condition produced any evaluations at all
            if s.mean_tightness_delta is not None:
                assert s.mean_tightness_delta >= -1e-12, (label, s)
                covered.add((s.relation, s.alpha))
    for relation, grid in (
        (RelationId.MONO_HAMMING, MONO_GRID),
        (RelationId.MONO_LADDER, MONO_GRID),
        (RelationId.POLY_HAMMING, POLY_GRID),
        (RelationId.POLY_LADDER, POLY_GRID),
    ):
        for alpha in grid:
            assert (relation, alpha) in covered, (relation.value, alpha)
    assert total_elapsed <= 900.0
    evaluated = sum(s.evaluated for s in four_qubit_campaign[0].stats) + sum(
        s.evaluated for s in five_qubit_campaign[0].stats
    )
    _report(
        "theorem-campaigns",
        True,
        f"{evaluated} condition-passing evaluations, 0 violations, "
        f"weighted bounds dominate baselines ({total_elapsed:.0f}s)",
    )


def test_baseline_inequalities(four_qubit_campaign, five_qubit_campaign):
    """Plain-sum monogamy and polygamy hold over the full ensembles at 1e-9."""
    for label, (report, _) in (
        ("4-qubit", four_qubit_campaign),
        ("5-qubit", five_qubit_campaign),
    ):
        b = report.baseline
        assert b.ckw_violations == 0, label
        assert b.polygamy_violations == 0, label
    b4 = four_qubit_campaign[0].baseline
    b5 = five_qubit_campaign[0].baseline
    _report(
        "baselines",
        True,
        f"monogamy worst gap {min(b4.ckw_worst_gap, b5.ckw_worst_gap):.3e}, "
        f"polygamy worst gap {min(b4.polygamy_worst_gap, b5.polygamy_worst_gap):.3e}",
    )


def _exact_ladder_bound(values, alpha: int, k: Fraction) -> Fraction:
    """``sum_j f^j v_j^alpha`` with f = ((1+k)^alpha - 1) / k^alpha, all in
    exact rationals (integer alpha keeps every power rational)."""
    f = ((1 + k) ** alpha - 1) / k**alpha
    return sum(f**j * v**alpha for j, v in enumerate(values))


def _exact_ladder_gap(values, lhs, alpha: int) -> Fraction:
    """``lhs^alpha - bound`` of mono-ladder-neg in exact rationals, at the
    exact minimal k of the tail-sum condition; negative is a violation."""
    values = [Fraction(v) for v in values]
    k = max(sum(values[i + 1 :]) / values[i] for i in range(len(values) - 1))
    assert 0 < k <= 1, ("tail-sum hypothesis fails in exact arithmetic", values)
    return Fraction(lhs) ** alpha - _exact_ladder_bound(values, alpha, k)


def _branch_witness(n_attached: int, delta: float):
    """(|0...0>|0> + |1...1>(cos d|0> + sin d|1>)) / sqrt(2) on A and
    ``n_attached`` qubits.  A is maximally entangled with the rest (lhs 1);
    every attached qubit but the last carries SCRENoA 1 with A, the last
    one sin(d)^2."""
    amps = np.zeros(2 ** (n_attached + 1), dtype=complex)
    amps[0] = 1.0
    amps[-2] = math.cos(delta)
    amps[-1] = math.sin(delta)
    return ket(amps, (2,) * (n_attached + 1))


def test_negative_alpha_relations():
    """Negative-power relations on the positive-value sub-ensembles.

    The average relation and the 4-qubit assisted Hamming relation hold:
    zero violations are demanded on the Haar sub-ensembles.  The
    remaining assisted-measure monogamy relations are false as specified,
    and the test asserts the defect through witnesses whose expected
    numbers come from closed forms:

    1. the ladder proof step: values (1, 1/2, 1/4) meet the tail-sum
       condition at k = 3/4, yet at alpha = -1 the bound is 151/196 >
       4/7 = sum^alpha, because the proof multiplies an inequality by the
       negative factor f = -9/28 (exact ``fractions`` arithmetic);
    2. mono-hamming-neg with four attached qubits: the branch state with
       values (1, 1, 1, sin^2 d) and lhs 1 has bound 1/(4 sin^2 d) > 1 at
       alpha = -1 (Haar sampling found no 5-qubit violation in 3000
       evaluations);
    3. mono-ladder-neg-collective: the 4-qubit branch state with values
       (1, 1, sin^2 d) and roof tails (1, sin^2 d) has bound
       1/2 + 1/(4 sin^2 d) > 1 at alpha = -1; the roof tail is certified
       because it reaches 1, the ceiling of SCRENoA across a qubit cut;
    4. every Haar mono-ladder-neg violation at an integer alpha is
       rechecked in exact rational arithmetic from its closed-form values.

    The Haar sub-ensembles are analysed and evaluated in blocks, as
    campaigns are.  The Haar collective tallies rest on roof lower bounds
    of the tails, so they are printed but carry no assertion.
    """
    start = time.perf_counter()
    counts = {}
    ladder_violations = []

    def tally(key, rep, sample_idx, bucket):
        evaluated, violations, not_applicable, witnesses = counts.setdefault(
            key, [0, 0, 0, []]
        )
        if rep.satisfied is None:
            counts[key][2] += 1
            return
        counts[key][0] += 1
        if rep.satisfied is False:
            counts[key][1] += 1
            if len(counts[key][3]) < 3:
                counts[key][3].append((bucket, sample_idx, rep.alpha, rep.gap))

    def blocks(cfg, n_samples, roof=None, include_tails=False):
        # sample indices with their sorted SCREN and SCRENoA blocks
        for first in range(0, n_samples, _BLOCK):
            idx = range(first, min(first + _BLOCK, n_samples))
            amps = sample_block(cfg, idx.start, idx.stop)
            yield (idx, *_analyze_block(amps, cfg.dims, roof, True, include_tails))

    def at_grid(relation):
        return [(relation, alpha) for alpha in NEG_GRID]

    # SCREN side: average bound on states with every pairwise value > 1e-6
    cfg4 = CampaignConfig(dims=(2, 2, 2, 2), samples=1, seed=20260808)
    cfg5 = CampaignConfig(dims=(2, 2, 2, 2, 2), samples=1, seed=11)
    na_state_seen = False
    for bucket, cfg, n_samples in (("4q", cfg4, 3000), ("5q", cfg5, 1000)):
        for idx, scren_block, screnoa_block in blocks(cfg, n_samples):
            (average,) = evaluate_grids(scren_block, at_grid(RelationId.POLY_AVERAGE_NEG))
            (hamming,) = evaluate_grids(screnoa_block, at_grid(RelationId.MONO_HAMMING_NEG))
            (ladder,) = evaluate_grids(screnoa_block, at_grid(RelationId.MONO_LADDER_NEG))
            scren_ok = scren_block.values.min(axis=1) > 1e-6
            screnoa_ok = screnoa_block.values.min(axis=1) > 1e-6
            for row, i in enumerate(idx):
                for a, alpha in enumerate(NEG_GRID):
                    if scren_ok[row]:
                        tally("average", average.report(a, row), i, bucket)
                    if screnoa_ok[row]:
                        tally(f"hamming-neg-{bucket}", hamming.report(a, row), i, bucket)
                        rep = ladder.report(a, row)
                        tally(f"ladder-neg-{bucket}", rep, i, bucket)
                        if rep.satisfied is False and alpha.is_integer():
                            ladder_violations.append((screnoa_block.row(row), rep))
                    elif not na_state_seen:
                        # hypothesis failure never reported as a pass
                        assert hamming.report(a, row).satisfied is None
                        na_state_seen = True

    # collective tail-measure relation needs the roof maximizer per state
    roof = RoofConfig(restarts=6, seed=3)
    for idx, _, screnoa_block in blocks(cfg4, 250, roof, include_tails=True):
        (collective,) = evaluate_grids(screnoa_block, at_grid(RelationId.MONO_LADDER_NEG_COLLECTIVE))
        for row, i in enumerate(idx):
            if screnoa_block.values[row].min() <= 1e-6:
                continue
            for a in range(len(NEG_GRID)):
                tally("collective-4q", collective.report(a, row), i, "4q")

    elapsed = time.perf_counter() - start
    lines = []
    for key, (evaluated, violations, n_a, witnesses) in sorted(counts.items()):
        lines.append(f"{key}: {evaluated} evaluated, {violations} violations, {n_a} n/a"
                     + (f" (first {witnesses})" if witnesses else ""))
    ok = counts["average"][1] == 0 and counts["hamming-neg-4q"][1] == 0
    _report("negative-alpha", ok, "; ".join(lines) + f" ({elapsed:.0f}s)")
    assert counts["average"][1] == 0, counts["average"]
    assert counts["hamming-neg-4q"][1] == 0, counts["hamming-neg-4q"]

    # 1. the ladder proof step fails on scalar values
    values = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
    k = Fraction(3, 4)
    assert all(k * values[i] >= sum(values[i + 1 :]) for i in range(len(values) - 1))
    f = ((1 + k) ** -1 - 1) / k**-1
    assert f == Fraction(-9, 28)
    bound = _exact_ladder_bound(values, -1, k)
    assert bound == Fraction(151, 196)
    assert sum(values) ** -1 == Fraction(4, 7) < bound
    # the registry implements exactly this bound and condition
    assert check_tail_sum_condition([float(v) for v in values], 0.75)
    assert abs(bound_power_j([float(v) for v in values], -1.0, 0.75) - 151 / 196) < 1e-12

    # 2. mono-hamming-neg with four attached qubits
    delta = 0.1
    sin2 = math.sin(delta) ** 2
    five = analyze(_branch_witness(4, delta), sort_values=True).screnoa
    assert np.allclose(five.values, (1.0, 1.0, 1.0, sin2), rtol=0, atol=1e-12), five
    assert abs(five.lhs - 1.0) < 1e-12
    rep = evaluate_relation(five, RelationId.MONO_HAMMING_NEG, -1.0)
    assert rep.k == pytest.approx(1.0, abs=1e-12) and rep.condition_holds
    assert rep.rhs == pytest.approx(1.0 / (4.0 * sin2), rel=1e-9)  # 25.08 at d = 0.1
    assert rep.lhs_pow == pytest.approx(1.0, rel=1e-12)
    assert rep.satisfied is False

    # 3. mono-ladder-neg-collective on the 4-qubit branch state
    four = analyze(_branch_witness(3, delta), roof, sort_values=True, include_tails=True).screnoa
    assert np.allclose(four.values, (1.0, 1.0, sin2), rtol=0, atol=1e-12), four
    assert abs(four.tail_values[0] - 1.0) < 1e-9, four  # the ceiling: certified
    assert four.tail_values[1] == four.values[2]
    rep = evaluate_relation(four, RelationId.MONO_LADDER_NEG_COLLECTIVE, -1.0)
    assert rep.k == pytest.approx(1.0, abs=1e-9) and rep.condition_holds
    assert rep.rhs == pytest.approx(0.5 + 1.0 / (4.0 * sin2), rel=1e-9)
    assert rep.satisfied is False

    # 4. the Haar mono-ladder-neg violations are genuine
    assert ladder_violations, "no integer-alpha mono-ladder-neg violation to recheck"
    for mv, rep in ladder_violations:
        gap = _exact_ladder_gap(mv.values, mv.lhs, int(rep.alpha))
        assert gap < 0, (mv, rep)
        assert abs(float(gap) - rep.gap) <= 1e-9 * (1.0 + abs(rep.rhs)), (float(gap), rep)


def test_campaign_determinism():
    """Identical configs produce byte-identical reports."""
    config = CampaignConfig(
        dims=(2, 2, 2, 2),
        samples=400,
        seed=99,
        alphas=(0.5, 1.0, 2.0),
        relations=(RelationId.MONO_HAMMING, RelationId.POLY_HAMMING,
                   RelationId.MONO_HAMMING_BASE, RelationId.POLY_HAMMING_BASE),
        sort_values=True,
    )
    a = campaign_report_json(run_campaign(config)).encode()
    b = campaign_report_json(run_campaign(config)).encode()
    ha = hashlib.sha256(a).hexdigest()
    hb = hashlib.sha256(b).hexdigest()
    assert ha == hb
    _report("determinism", True, f"sha256 {ha[:16]}... reproduced")

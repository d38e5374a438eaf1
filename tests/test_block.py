"""The block kernel of campaigns against the per-state path it replaces.

``run_campaign`` analyses its samples in blocks of ``_BLOCK`` states and
evaluates relations as columns over each block.  These tests pin that
the blocked values equal, bit for bit, what the public one-state
functions give, and that a campaign report equals the one a per-sample
loop folds, on sample counts that straddle block edges.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from negmono import (
    Bipartition,
    CampaignConfig,
    RelationId,
    RoofConfig,
    analyze,
    builtin_state,
    density,
    evaluate_relation,
    harness,
    ket,
    partial_trace,
    pure_scren,
    run_campaign,
    sample_state,
    scren,
    screnoa,
    tensor,
)
from negmono.harness import (
    BaselineStats,
    CampaignReport,
    RelationStats,
    ViolationRecord,
    _analyze_block,
    _grid_for,
    campaign_report_json,
    sample_block,
)
from negmono.measures import two_qubit_block
from negmono.relations import REGISTRY, SAT_TOL, MeasureKind
from negmono.states import cut_matrices

CAPPED_ROOF = RoofConfig(restarts=2, max_iters=10, seed=4)
CUT2 = Bipartition.split(2, (0,))
# the block size these tests pin: the campaigns below take 2 * 64 + 5
# samples, which straddle two block edges, and the scalar paths they are
# compared with stay quick
BLOCK = 64


# states with a pure 2x2 marginal, where the closed forms and the
# pure-state formula differ in the last bits: |Phi+> (x) |+> and
# (0.6|00> + 0.8i|11>) (x) |W3>
PURE_MARGINALS = (
    tensor(builtin_state("bell"), ket([1, 1], (2,))),
    tensor(ket([0.6, 0, 0, 0.8j], (2, 2)), builtin_state("w3")),
)


def _pair_closed_forms(psi, j):
    """two_qubit_block of psi's amplitude factor of rho_{0j}, one row."""
    pair = Bipartition((0, j), tuple(i for i in range(1, psi.n_factors) if i != j))
    tangle, toa = two_qubit_block(cut_matrices(psi.amplitudes[None], psi.dims, pair))
    return float(tangle[0]), float(toa[0])


# a two-qubit pair's value comes from the amplitude factor, scren and
# screnoa of the marginal from its eigh factor: two factorizations of
# one closed form, which agree to about 4e-15
FACTOR_TOL = 1e-13


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 3), (2, 2, 2)])
def test_block_analysis_equals_scalar_path(dims):
    config = CampaignConfig(dims=dims, samples=1, seed=31)
    states = [sample_state(config, i) for i in range(BLOCK + 3)]
    states += [psi for psi in PURE_MARGINALS if psi.dims == dims]
    amps = np.stack([psi.amplitudes for psi in states])
    scren_block, screnoa_block = _analyze_block(amps, dims, CAPPED_ROOF, False, False)
    assert scren_block.values.shape == (len(states), len(dims) - 1)
    for b, psi in enumerate(states):
        assert scren_block.lhs[b] == pure_scren(psi, Bipartition.split(len(dims), (0,)))
        assert screnoa_block.lhs[b] == scren_block.lhs[b]
        one = analyze(psi, CAPPED_ROOF)
        assert scren_block.values[b].tolist() == list(one.scren.values)
        assert screnoa_block.values[b].tolist() == list(one.screnoa.values)
        rho = density(psi)
        for j in range(1, len(dims)):
            marg = partial_trace(rho, (0, j))
            lo = scren(marg, CUT2, CAPPED_ROOF).value
            hi = screnoa(marg, CUT2, CAPPED_ROOF).value
            if dims[j] == 2:
                tangle, toa = _pair_closed_forms(psi, j)
                assert scren_block.values[b, j - 1] == tangle
                assert screnoa_block.values[b, j - 1] == toa
                assert abs(tangle - lo) <= FACTOR_TOL
                assert abs(toa - hi) <= FACTOR_TOL
            else:
                assert scren_block.values[b, j - 1] == lo
                assert screnoa_block.values[b, j - 1] == hi


def _fold_report(st: RelationStats, rep) -> None:
    # the scalar fold of one report, as campaigns folded before blocking
    if rep.condition_holds:
        st.condition_pass += 1
    if rep.satisfied is not None:
        st.evaluated += 1
        if not rep.satisfied:
            st.violations += 1
        if rep.gap is not None and (st.worst_gap is None or rep.gap < st.worst_gap):
            st.worst_gap = rep.gap
        if rep.tightness_delta is not None:
            st._tightness_values.append(rep.tightness_delta)


def _fold_baseline(b: BaselineStats, scren_mv, screnoa_mv) -> None:
    ckw_gap = scren_mv.lhs - sum(scren_mv.values)
    poly_gap = sum(screnoa_mv.values) - screnoa_mv.lhs
    if ckw_gap < -SAT_TOL:
        b.ckw_violations += 1
    if poly_gap < -SAT_TOL:
        b.polygamy_violations += 1
    if b.ckw_worst_gap is None or ckw_gap < b.ckw_worst_gap:
        b.ckw_worst_gap = ckw_gap
    if b.polygamy_worst_gap is None or poly_gap < b.polygamy_worst_gap:
        b.polygamy_worst_gap = poly_gap


def _per_sample_campaign(config: CampaignConfig) -> CampaignReport:
    """One sample at a time: analyze, evaluate_relation per key, scalar folds."""
    needs_tails = RelationId.MONO_LADDER_NEG_COLLECTIVE in config.relations
    stats = {
        (rid, a): RelationStats(rid, a)
        for rid in config.relations
        for a in _grid_for(rid, config.alphas)
    }
    baseline = BaselineStats()
    violations = []
    for i in range(config.samples):
        result = analyze(sample_state(config, i), config.roof,
                         sort_values=config.sort_values, include_tails=needs_tails)
        _fold_baseline(baseline, result.scren, result.screnoa)
        for (rid, alpha), st in stats.items():
            mv = result.scren if REGISTRY[rid].kind is MeasureKind.SCREN else result.screnoa
            rep = evaluate_relation(mv, rid, alpha, config.k_policy)
            _fold_report(st, rep)
            if rep.satisfied is False:
                violations.append(ViolationRecord(rid, alpha, i, rep.gap, mv.lhs, mv.values))
    return CampaignReport(config, list(stats.values()), baseline, violations)


@pytest.fixture
def block_of_64(monkeypatch):
    monkeypatch.setattr(harness, "_BLOCK", BLOCK)


POSITIVE_ALPHA = CampaignConfig(
    dims=(2, 2, 2, 2),
    samples=2 * BLOCK + 5,
    seed=20260808,
    alphas=(0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0),
    relations=(
        RelationId.MONO_HAMMING,
        RelationId.MONO_LADDER,
        RelationId.MONO_HAMMING_BASE,
        RelationId.MONO_LADDER_BASE,
        RelationId.POLY_HAMMING,
        RelationId.POLY_LADDER,
        RelationId.POLY_HAMMING_BASE,
        RelationId.POLY_LADDER_BASE,
    ),
)
# mono-ladder-neg and the collective relation are violated on Haar
# states, so this report orders violations across block edges
NEGATIVE_ALPHA = CampaignConfig(
    dims=(2, 2, 2, 2),
    samples=2 * BLOCK + 5,
    seed=20260808,
    alphas=(-0.5, -1.0, -2.0),
    relations=(
        RelationId.POLY_AVERAGE_NEG,
        RelationId.MONO_HAMMING_NEG,
        RelationId.MONO_LADDER_NEG,
        RelationId.MONO_LADDER_NEG_COLLECTIVE,
    ),
    roof=RoofConfig(restarts=2, max_iters=10),
)


@pytest.mark.parametrize("config", [POSITIVE_ALPHA, NEGATIVE_ALPHA], ids=["alpha-geq-0", "alpha-neg"])
@pytest.mark.usefixtures("block_of_64")
def test_campaign_report_equals_per_sample_fold(config):
    report = run_campaign(config)
    assert campaign_report_json(report) == campaign_report_json(_per_sample_campaign(config))
    if config is NEGATIVE_ALPHA:
        blocks = {v.sample_index // BLOCK for v in report.violations}
        assert len(blocks) > 1, blocks
        # some sample violates more than one key, so the order within a
        # sample is checked as well
        indices = [v.sample_index for v in report.violations]
        assert len(set(indices)) < len(indices)


@pytest.mark.parametrize("sort_values", [False, True], ids=["unsorted", "sorted"])
@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 2, 2, 2, 2)])
def test_batched_tails_equal_per_row_tails(dims, sort_values):
    # a block's collective tails run as one roof stack per reduced dims
    # (two groups at five qubits); each must equal screnoa on its own
    n = len(dims)
    config = CampaignConfig(dims=dims, samples=1, seed=37)
    states = [sample_state(config, i) for i in range(8)]
    amps = np.stack([psi.amplitudes for psi in states])
    _, unsorted = _analyze_block(amps, dims, CAPPED_ROOF, False, False)
    _, screnoa_block = _analyze_block(amps, dims, CAPPED_ROOF, sort_values, True)
    for b, psi in enumerate(states):
        order = np.arange(n - 1)
        if sort_values:
            order = np.argsort(-unsorted.values[b], kind="stable")
        one = analyze(psi, CAPPED_ROOF, sort_values=sort_values, include_tails=True).screnoa
        assert screnoa_block.tail_values[b].tolist() == list(one.tail_values)
        rho = density(psi)
        for i in range(n - 2):
            keep = (0,) + tuple(sorted(int(p) + 1 for p in order[i + 1:]))
            if len(keep) == 2:
                # the last tail is the pair's own two-qubit value
                expected = screnoa(partial_trace(rho, keep), CUT2, CAPPED_ROOF).value
                assert screnoa_block.tail_values[b, i] == _pair_closed_forms(psi, keep[1])[1]
                assert abs(screnoa_block.tail_values[b, i] - expected) <= FACTOR_TOL
                continue
            cut = Bipartition.split(len(keep), (0,))
            expected = screnoa(partial_trace(rho, keep), cut, CAPPED_ROOF).value
            assert screnoa_block.tail_values[b, i] == expected


def test_sample_block_rows_equal_sample_state():
    config = CampaignConfig(dims=(2, 2, 2, 2, 2), samples=1, seed=41)
    edge = harness._BLOCK
    block = np.concatenate([sample_block(config, edge - 3, edge), sample_block(config, edge, edge + 4)])
    assert np.array_equal(block, sample_block(config, edge - 3, edge + 4))
    for row, i in zip(block, range(edge - 3, edge + 4)):
        assert row.tobytes() == sample_state(config, i).amplitudes.tobytes()
    assert sample_block(config, 5, 5).shape == (0, 32)


def _oracle_row(seed: int, index: int, d: int) -> np.ndarray:
    # the stream of (seed, index) as numpy builds it, one SeedSequence and
    # one generator per sample, normalized by np.linalg.norm
    g = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,))).standard_normal(2 * d)
    z = g[:d] + 1j * g[d:]
    return z / np.linalg.norm(z)


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 3), (2, 2, 2, 2), (3, 3, 3), (2,) * 5, (2,) * 6],
                         ids=lambda dims: f"d{np.prod(dims)}")
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 99],
                         ids=["0", "2^32-1", "2^32", "2^64+3", "2^130+99"])
def test_sample_block_rows_equal_numpy_keyed_streams(seed, dims):
    # sample_block derives every stream of a block in one pass; each row
    # must be the draw numpy's own SeedSequence gives, to the last bit.
    # Sample indices from 2**32 on take a two-word spawn key, and a block
    # across 2**32 mixes both word counts
    config = CampaignConfig(dims=dims, samples=1, seed=seed)
    d = int(np.prod(dims))
    for start, stop in ((0, 40), (2**32 - 2, 2**32 + 2)):
        block = sample_block(config, start, stop)
        assert block.shape == (stop - start, d)
        for row, i in zip(block, range(start, stop)):
            assert row.tobytes() == _oracle_row(seed, i, d).tobytes(), i
    psi = sample_state(config, 2**32 + 5)
    assert psi.amplitudes.tobytes() == _oracle_row(seed, 2**32 + 5, d).tobytes()


@pytest.mark.parametrize("index", [True, False, 1.0, 2.5, "3", None, -1, -2**40])
def test_sample_state_rejects_a_bad_index(index):
    config = CampaignConfig(dims=(2, 2, 2), samples=1, seed=3)
    with pytest.raises(ValueError):
        sample_state(config, index)


@pytest.mark.parametrize("start, stop", [(-1, 2), (-3, -1), (5, 4), (True, 3), (0, True),
                                         (1.0, 3), (0, 3.0), (None, 2)])
def test_sample_block_rejects_a_bad_range(start, stop):
    config = CampaignConfig(dims=(2, 2, 2), samples=1, seed=3)
    with pytest.raises(ValueError):
        sample_block(config, start, stop)


def test_sample_state_takes_numpy_integers():
    config = CampaignConfig(dims=(2, 2, 2), samples=1, seed=3)
    assert np.array_equal(sample_state(config, np.int64(9)).amplitudes,
                          sample_state(config, 9).amplitudes)


# the acceptance relations and alphas on qubits: every value comes from
# the closed forms and the pure-state formula, none from the roof
QUBIT_CAMPAIGNS = {
    name: CampaignConfig(dims=dims, samples=samples, seed=seed, alphas=POSITIVE_ALPHA.alphas,
                         relations=POSITIVE_ALPHA.relations)
    for name, dims, samples, seed in (("4q", (2, 2, 2, 2), 300, 14), ("5q", (2, 2, 2, 2, 2), 40, 15))
}


QUBIT_DIGESTS = {
    "4q": "f0f2476db2d081a5b814dada57fdb574767a594607576c7c8cdd9e0bb2509878",
    "5q": "da8fa71cb3a1813c4c0284588fcdb8e4527970148e2543120b17a21e0bf87abc",
}


@pytest.mark.parametrize("name", sorted(QUBIT_DIGESTS))
def test_qubit_campaign_digest(name):
    """Recorded when the relation powers moved from Python's ``pow`` per
    element to ``np.power``, which moved these reports by at most 9e-16
    relative and changed no tally.  Like every LAPACK-backed value, and
    like numpy's ``pow`` loop, they are specific to the numpy build
    (numpy 2.4, scipy-openblas 0.3.31 on x86_64)."""
    text = campaign_report_json(run_campaign(QUBIT_CAMPAIGNS[name]))
    assert hashlib.sha256(text.encode()).hexdigest() == QUBIT_DIGESTS[name]


# (evaluated, condition_pass, violations) per relation, the same at each
# of its alphas; no campaign here has a CKW or polygamy violation
QUBIT_VERDICTS = {
    "4q": {"mono-hamming": (300, 300, 0), "mono-ladder": (292, 292, 0),
           "mono-hamming-base": (300, 300, 0), "mono-ladder-base": (292, 292, 0),
           "poly-hamming": (300, 300, 0), "poly-ladder": (1, 1, 0),
           "poly-hamming-base": (300, 300, 0), "poly-ladder-base": (1, 1, 0)},
    "5q": {"mono-hamming": (40, 40, 0), "mono-ladder": (40, 40, 0),
           "mono-hamming-base": (40, 40, 0), "mono-ladder-base": (40, 40, 0),
           "poly-hamming": (40, 40, 0), "poly-ladder": (0, 0, 0),
           "poly-hamming-base": (40, 40, 0), "poly-ladder-base": (0, 0, 0)},
}


@pytest.mark.parametrize("name", sorted(QUBIT_VERDICTS))
def test_qubit_campaign_verdicts(name):
    # pinned apart from the digest, so a re-pinned digest cannot hide a
    # changed verdict
    report = run_campaign(QUBIT_CAMPAIGNS[name])
    assert len(report.stats) == 4 * len(QUBIT_VERDICTS[name])
    for s in report.stats:
        assert (s.evaluated, s.condition_pass, s.violations) == QUBIT_VERDICTS[name][s.relation.value]
    assert (report.baseline.ckw_violations, report.baseline.polygamy_violations) == (0, 0)


@pytest.fixture
def calls(monkeypatch):
    """Count the calls of the marginal builder and check bound in harness,
    and of numpy's non-Hermitian eigensolver: {name: [args of each call]}."""
    seen = {}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen[name].append(args)
            return real(*args, **kwargs)

        seen[name] = []
        monkeypatch.setattr(owner, name, wrapper)

    counted(harness, "marginal_block")
    counted(harness, "check_density_block")
    counted(np.linalg, "eigvals")
    return seen


@pytest.mark.parametrize("name", sorted(QUBIT_CAMPAIGNS))
def test_qubit_campaign_forms_no_marginal(calls, name):
    # every pair is two-qubit: its closed forms come from the amplitude
    # factor, so no marginal is built or checked and no eigvals runs
    run_campaign(QUBIT_CAMPAIGNS[name])
    assert {k: len(v) for k, v in calls.items()} == {
        "marginal_block": 0, "check_density_block": 0, "eigvals": 0}


@pytest.mark.usefixtures("block_of_64")
def test_qutrit_campaign_forms_only_the_qutrit_marginal(calls):
    config = CampaignConfig(dims=(2, 2, 3), samples=BLOCK + 5, seed=19, alphas=(1.0,),
                            relations=(RelationId.MONO_HAMMING,),
                            roof=RoofConfig(restarts=1, max_iters=2))
    run_campaign(config)
    # one marginal per block, for the 2x3 pair (0, 2) only
    assert [args[2] for args in calls["marginal_block"]] == [(0, 2), (0, 2)]
    assert len(calls["check_density_block"]) == 2
    assert calls["eigvals"] == []


BLOCK_SIZE_CAMPAIGNS = {
    "4q": QUBIT_CAMPAIGNS["4q"],
    # the collective tails group their rows by keep within a block
    "collective": CampaignConfig(dims=(2, 2, 2, 2), samples=12, seed=13, alphas=(-0.5, -1.0),
                                 relations=(RelationId.MONO_LADDER_NEG_COLLECTIVE,),
                                 roof=RoofConfig(restarts=2, max_iters=10, seed=3)),
}


@pytest.mark.parametrize("name", sorted(BLOCK_SIZE_CAMPAIGNS))
def test_report_does_not_depend_on_block_size(monkeypatch, name):
    config = BLOCK_SIZE_CAMPAIGNS[name]
    texts = set()
    for size in (1, 7, 64, 256):
        monkeypatch.setattr(harness, "_BLOCK", size)
        texts.add(campaign_report_json(run_campaign(config)))
    assert len(texts) == 1


def test_campaign_memory_does_not_grow_with_samples():
    # a block holds amplitudes and one marginal's products, never the
    # projector stack, and the tightness values are kept as a running sum
    peaks = []
    for samples in (256, 1024):
        config = CampaignConfig(dims=(2, 2, 2, 2, 2), samples=samples, seed=3, alphas=(0.5, 1.0, 2.0),
                                relations=(RelationId.MONO_HAMMING, RelationId.MONO_HAMMING_BASE,
                                           RelationId.POLY_HAMMING))
        tracemalloc.start()
        try:
            run_campaign(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2_000_000, peaks
    assert abs(peaks[1] - peaks[0]) < 500_000, peaks

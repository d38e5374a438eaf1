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
    vector_for,
)
from negmono.relations import SAT_TOL

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
        rho = density(psi)
        for j in range(1, len(dims)):
            marg = partial_trace(rho, (0, j))
            assert scren_block.values[b, j - 1] == scren(marg, CUT2, CAPPED_ROOF).value
            assert screnoa_block.values[b, j - 1] == screnoa(marg, CUT2, CAPPED_ROOF).value


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
            mv = vector_for(result, rid)
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
        rho = density(psi)
        for i in range(n - 2):
            keep = (0,) + tuple(sorted(int(p) + 1 for p in order[i + 1:]))
            cut = CUT2 if len(keep) == 2 else Bipartition.split(len(keep), (0,))
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


# the acceptance relations and alphas on qubits: every value comes from
# the closed forms and the pure-state formula, none from the roof
QUBIT_CAMPAIGNS = {
    name: CampaignConfig(dims=dims, samples=samples, seed=seed, alphas=POSITIVE_ALPHA.alphas,
                         relations=POSITIVE_ALPHA.relations)
    for name, dims, samples, seed in (("4q", (2, 2, 2, 2), 300, 14), ("5q", (2, 2, 2, 2, 2), 40, 15))
}


@pytest.mark.parametrize("name, digest", [
    ("4q", "12bebe9bc139d93b6f95abdf53051834bd10cbe31160ccf7370ee01faf8fbfd3"),
    ("5q", "62d11d9a4959b0bbc8cba9de0af7e646ac7b6bc190d26dae07f08933b3bb5b77"),
])
def test_qubit_campaign_digest(name, digest):
    """Recorded when blocks were 64 states of projector stacks, these pin
    the amplitude-stack blocks to the same bits.  Like every LAPACK-backed
    value they are specific to the numpy build (numpy 2.4,
    scipy-openblas 0.3.31 on x86_64)."""
    text = campaign_report_json(run_campaign(QUBIT_CAMPAIGNS[name]))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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

"""Builtin states, per-state analysis, sweeps, and Monte Carlo campaigns.

Analysis runs on blocks of states, each held as one amplitude stack
``(rows, d)`` from start to finish.  :func:`run_campaign` walks its
samples in fixed blocks of ``_BLOCK`` indices.  Each block is drawn in
one pass (:func:`sample_block`): the keyed streams of all its samples
are derived at once and drawn through one generator, so no
``SeedSequence`` or generator is built per sample, and every row is the
draw numpy's own ``SeedSequence(seed, spawn_key=(i,))`` gives.  The
block is then analysed at once, and no projector stack is ever built.
The amplitudes are checked once, as :class:`~negmono.states.PureState`
checks one vector.  The full-cut
values come from one batched SVD.  A two-qubit pair rho_{0j} forms no
marginal: :func:`negmono.measures.two_qubit_block` takes the amplitude
matrices across (0, j)|rest as factors of rho_{0j}, which a checked
amplitude row makes a valid state by construction.  Every other marginal
rho_{0j}, and every collective tail, is taken straight from the
amplitudes (:func:`~negmono.states.marginal_block`) and its stack checked
as :class:`~negmono.states.DensityMatrix` checks one matrix.  A block's
relations are evaluated by :func:`negmono.relations.evaluate_grids`,
each relation once over its whole alpha grid as ``(alphas, rows)``
columns: a campaign folds them into its tallies one relation at a time,
and :func:`sweep` reads its one state's grid as reports.  For
density stacks, which method gives a measure value is decided in one
place, :func:`negmono.measures.squared_roof_block` (two-qubit closed
forms, then the pure-state formula, then the roof): this module hands it
each non-qubit pair's stack, and the collective tails of a block grouped
by their reduced dims, one SCRENoA stack per group.  So the roof rows of
a marginal, or of a tail group, run in one
:func:`negmono.roof.optimize_roof_block` call, as one array program,
and no row's value depends on its batch.  :func:`analyze` is the block
of one state, so a campaign and a single analysis share every float:
reports do not depend on the block size.  Batching keeps each value bit
for bit on one numpy build: every power is a ``np.power`` call over the
block with one alpha, which gives each row the value it gives that row
alone, and every sum over a state's values adds left to right from
zero.  A campaign's memory does not grow with its sample count: a
5-qubit campaign peaks near 1.3 MB (traced).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

# scren, screnoa, pure_scren and two_qubit_tangle_and_toa are the one-state
# forms of squared_roof_block, haar_random_pure that of keyed_haar_amplitudes;
# density and partial_trace have no library caller left.  All stay bound
# here, where the benchmark's tracer wraps each layer.  evaluate_relation has
# no caller here either: it stays bound only for bench/tracing.py, until its
# tracer wraps the block functions (ROADMAP item 1)
from .measures import (  # noqa: F401
    pure_negativity_block,
    pure_scren,
    scren,
    screnoa,
    squared_roof_block,
    two_qubit_block,
    two_qubit_tangle_and_toa,
)
from .states import density, haar_random_pure, partial_trace  # noqa: F401
from .relations import evaluate_relation  # noqa: F401
from .relations import (
    SAT_TOL,
    MeasureBlock,
    MeasureKind,
    MeasureVector,
    RelationId,
    RelationReport,
    REGISTRY,
    ReportGrid,
    check_alpha,
    check_k_policy,
    evaluate_grids,
    row_sum,
)
from .roof import Direction, RoofConfig
from .states import (Bipartition, PureState, check_density_block, check_pure_block, cut_matrices,
                     is_int, is_real, keyed_haar_amplitudes, ket, marginal_block, validate_dims)

# states per block of run_campaign: no projector stack is built, so a
# block's largest array at five qubits is one marginal's 512 kB of
# amplitude products, and a campaign's traced peak stays near 1.3 MB
_BLOCK = 256

_BUILTIN_RE = re.compile(r"^([a-z]+)[\s(:]*([\d,x ]*)\)?$")


def _aharonov3() -> PureState:
    # totally antisymmetric three-qutrit state: amplitudes are the
    # Levi-Civita symbol over basis labels, normalized
    amp = np.zeros(27, dtype=complex)
    signs = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
             (0, 2, 1): -1, (1, 0, 2): -1, (2, 1, 0): -1}
    for (a, b, c), s in signs.items():
        amp[9 * a + 3 * b + c] = s
    return ket(amp, (3, 3, 3))


def _ghz(n: int) -> PureState:
    if n < 2:
        raise ValueError("ghz needs at least 2 qubits")
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0
    return ket(amp, (2,) * n)


def _w(n: int) -> PureState:
    if n < 2:
        raise ValueError("w needs at least 2 qubits")
    amp = np.zeros(2**n, dtype=complex)
    for i in range(n):
        amp[1 << i] = 1.0
    return ket(amp, (2,) * n)


def _product(dims: tuple[int, ...]) -> PureState:
    amp = np.zeros(int(np.prod(dims)), dtype=complex)
    amp[0] = 1.0
    return ket(amp, dims)


def builtin_state(name: str) -> PureState:
    """Named state: ``bell``, ``ghz<n>``, ``w<n>``, ``product:<d0>,<d1>,...``
    or ``aharonov`` (the antisymmetric three-qutrit state).

    ``ghz(3)`` style parentheses are accepted as well.
    """
    text = name.strip().lower()
    m = _BUILTIN_RE.match(text)
    if not m:
        raise ValueError(f"unknown builtin state {name!r}")
    head, arg = m.group(1), m.group(2).strip()
    if head == "bell" and not arg:
        return ket([1, 0, 0, 1], (2, 2))
    if head == "aharonov" and not arg:
        return _aharonov3()
    if head == "ghz":
        return _ghz(int(arg or 3))
    if head == "w":
        return _w(int(arg or 3))
    if head == "product" and arg:
        dims = tuple(int(d) for d in re.split(r"[,x ]+", arg) if d)
        return _product(dims)
    raise ValueError(f"unknown builtin state {name!r}")


@dataclass(frozen=True)
class AnalysisResult:
    """SCREN and SCRENoA vectors of one state, rooted at subsystem 0."""

    scren: MeasureVector
    screnoa: MeasureVector


def analyze(psi: PureState, roof_config: RoofConfig | None = None, *,
            sort_values: bool = False, include_tails: bool = False) -> AnalysisResult:
    """Measure vectors of ``psi`` with A = subsystem 0 and B_j the others.

    ``lhs`` is the pure-state SCREN across A | rest (equal for both kinds
    since minimum and maximum roofs coincide on pure states).  Two-qubit
    marginals are measured by :func:`~negmono.measures.two_qubit_block` on
    amplitude factors, other marginals and the tails by
    :func:`~negmono.measures.squared_roof_block`.
    ``sort_values`` relabels the B subsystems so each vector is
    non-increasing (independently per kind); with ``include_tails`` the
    SCRENoA vector also carries the collective tail measures, computed in
    the sorted order when sorting is on.  This is the block of one state.
    """
    scren_block, screnoa_block = _analyze_block(psi.amplitudes[None], psi.dims, roof_config,
                                                sort_values, include_tails)
    return AnalysisResult(scren=scren_block.row(0), screnoa=screnoa_block.row(0))


def _analyze_block(amps: np.ndarray, dims: tuple[int, ...], roof_config: RoofConfig | None,
                   sort_values: bool, include_tails: bool) -> tuple[MeasureBlock, MeasureBlock]:
    """:func:`analyze` of the states of an amplitude stack ``(rows,
    prod(dims))``, one row each, as a SCREN and a SCRENoA block."""
    n = len(dims)
    if n < 2:
        raise ValueError("analysis needs at least two tensor factors")
    rows = len(amps)
    check_pure_block(amps)
    neg = pure_negativity_block(cut_matrices(amps, dims, Bipartition.split(n, (0,))))
    lhs = neg * neg

    cut = Bipartition.split(2, (0,))
    scren_vals = np.empty((rows, n - 1))
    screnoa_vals = np.empty((rows, n - 1))
    for j in range(1, n):
        if dims[0] == dims[j] == 2:
            pair = Bipartition((0, j), tuple(i for i in range(1, n) if i != j))
            scren_vals[:, j - 1], screnoa_vals[:, j - 1] = two_qubit_block(
                cut_matrices(amps, dims, pair))
            continue
        marg = marginal_block(amps, dims, (0, j))
        check_density_block(marg)
        scren_col, screnoa_col = squared_roof_block(marg, (dims[0], dims[j]), cut, roof_config)
        scren_vals[:, j - 1], screnoa_vals[:, j - 1] = scren_col.values, screnoa_col.values

    scren_order = screnoa_order = np.broadcast_to(np.arange(n - 1), (rows, n - 1))
    if sort_values:
        # stable, so ties keep their labels as Python's list.sort does
        scren_order = np.argsort(-scren_vals, axis=1, kind="stable")
        screnoa_order = np.argsort(-screnoa_vals, axis=1, kind="stable")

    tails = None
    if include_tails:
        tails = np.empty((rows, n - 2))
        cells: dict[tuple[int, ...], list] = {}  # keep -> [(b, i)]
        for b in range(rows):
            for i in range(n - 2):
                tail_pos = screnoa_order[b, i + 1:]
                if len(tail_pos) == 1:
                    tails[b, i] = screnoa_vals[b, tail_pos[0]]
                    continue
                keep = (0,) + tuple(sorted(int(p) + 1 for p in tail_pos))
                cells.setdefault(keep, []).append((b, i))
        groups: dict[tuple[int, ...], tuple[list, list]] = {}  # reduced dims -> (cells, stacks)
        for keep, where in cells.items():
            group = groups.setdefault(tuple(dims[k] for k in keep), ([], []))
            group[0].extend(where)
            group[1].append(marginal_block(amps[[b for b, _ in where]], dims, keep))
        for tail_dims, (where, stacks) in groups.items():
            reduced = np.concatenate(stacks)
            check_density_block(reduced)
            cut_0 = Bipartition.split(len(tail_dims), (0,))
            (tail,) = squared_roof_block(reduced, tail_dims, cut_0, roof_config, (Direction.MAX,))
            for (b, i), value in zip(where, tail.values):
                tails[b, i] = value

    return (
        MeasureBlock(np.take_along_axis(scren_vals, scren_order, axis=1), MeasureKind.SCREN, lhs),
        MeasureBlock(np.take_along_axis(screnoa_vals, screnoa_order, axis=1),
                     MeasureKind.SCRENOA, lhs, tails),
    )


def sweep(psi: PureState, relation: RelationId, alphas, k_policy="auto", *,
          sort_values: bool = False, roof_config: RoofConfig | None = None) -> list[RelationReport]:
    """One relation over an alpha grid, any iterable, on a single state:
    the grid and the k policy are checked before any measure is taken,
    then evaluated in one :func:`evaluate_grids` call."""
    alphas = [check_alpha(alpha, relation) for alpha in alphas]
    if not alphas:
        raise ValueError(f"the alpha grid for {relation.value} is empty")
    check_k_policy(k_policy)
    needs_tails = relation is RelationId.MONO_LADDER_NEG_COLLECTIVE
    blocks = _analyze_block(psi.amplitudes[None], psi.dims, roof_config, sort_values, needs_tails)
    (block,) = (b for b in blocks if b.kind is REGISTRY[relation].kind)
    (grid,) = evaluate_grids(block, [(relation, alpha) for alpha in alphas], k_policy)
    return [grid.report(a, 0) for a in range(len(alphas))]


def _grid_for(relation: RelationId, alphas) -> list[float]:
    rng = REGISTRY[relation].alpha_range
    return [a for a in alphas if rng.contains(a)]


@dataclass(frozen=True)
class CampaignConfig:
    dims: tuple[int, ...] = (2, 2, 2, 2)
    samples: int = 1000
    seed: int = 0
    alphas: tuple[float, ...] = (1.0, 2.0)
    relations: tuple[RelationId, ...] = (RelationId.MONO_HAMMING, RelationId.MONO_HAMMING_BASE)
    k_policy: float | str = "auto"
    sort_values: bool = True
    roof: RoofConfig = field(default_factory=RoofConfig)

    def __post_init__(self):
        def need(ok: bool, name: str, what: str) -> None:
            if not ok:
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")

        need(is_int(self.samples) and self.samples >= 1, "samples", "an integer >= 1")
        need(is_int(self.seed) and self.seed >= 0, "seed", "an integer >= 0")
        need(isinstance(self.dims, (list, tuple)) and all(is_int(d) for d in self.dims),
             "dims", "a list of integers")
        need(len(validate_dims(self.dims)) >= 2, "dims", "a list of at least two tensor factors")
        need(isinstance(self.alphas, (list, tuple))
             and all(is_real(a) and math.isfinite(a) for a in self.alphas),
             "alphas", "a list of finite numbers")
        need(isinstance(self.relations, (list, tuple)) and len(self.relations) > 0,
             "relations", "a nonempty list")
        need(self.k_policy == "auto" or (is_real(self.k_policy) and 0.0 < self.k_policy <= 1.0),
             "k_policy", "'auto' or a number in (0, 1]")
        need(isinstance(self.sort_values, bool), "sort_values", "true or false")
        need(isinstance(self.roof, RoofConfig), "roof", "a roof config")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "relations", tuple(RelationId(r) for r in self.relations))
        # a repeated alpha or relation would count each sample twice
        for name in ("alphas", "relations"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValueError(f"{name} must not repeat")
        for rid in self.relations:
            if not _grid_for(rid, self.alphas):
                raise ValueError(
                    f"no alpha in the range of {rid.value} ({REGISTRY[rid].alpha_range.value})"
                )


class _ExactSum:
    """The exact sum of a stream of floats, held as a count and a few
    non-overlapping partials, so that memory stays flat:
    ``math.fsum(partials)`` is bit for bit ``math.fsum`` of every value
    added (both are the correctly rounded exact sum)."""

    def __init__(self):
        self.partials: list[float] = []
        self.count = 0

    def extend(self, values: list[float]) -> None:
        # each partial is the rounded remainder of the old partials and
        # the values less the partials before it, until nothing remains
        terms = self.partials + values
        self.partials = []
        while total := math.fsum(terms):
            self.partials.append(total)
            if not math.isfinite(total):
                break
            terms.append(-total)
        self.count += len(values)

    def append(self, value: float) -> None:
        self.extend([value])


@dataclass
class RelationStats:
    relation: RelationId
    alpha: float
    evaluated: int = 0
    condition_pass: int = 0
    violations: int = 0
    worst_gap: float | None = None
    # the tightness values, kept only as their exact sum
    _tightness_values: _ExactSum = field(default_factory=_ExactSum)

    @property
    def mean_tightness_delta(self) -> float | None:
        total = self._tightness_values
        if not total.count:
            return None
        return math.fsum(total.partials) / total.count


def _absorb(stats: list[RelationStats], grid: ReportGrid) -> None:
    """Fold a block's rows into ``stats``, the stats of each alpha of
    ``grid`` in order, as if the rows came one by one."""
    evaluated = grid.evaluated
    gaps = np.where(evaluated, grid.gap, np.inf)
    worst = gaps[np.arange(len(gaps)), gaps.argmin(axis=1)]  # the first of equals
    tightness = grid.tightness
    counted = evaluated & ~np.isnan(tightness)
    tight = tightness[counted].tolist()
    ends = np.cumsum(counted.sum(axis=1)).tolist()
    for st, passed, n_evaluated, n_violated, low, begin, end in zip(
            stats, grid.condition.sum(axis=1).tolist(), evaluated.sum(axis=1).tolist(),
            grid.violated.sum(axis=1).tolist(), worst.tolist(), [0] + ends[:-1], ends):
        st.condition_pass += passed
        st.evaluated += n_evaluated
        st.violations += n_violated
        if n_evaluated and (st.worst_gap is None or low < st.worst_gap):
            st.worst_gap = low
        if end > begin:
            st._tightness_values.extend(tight[begin:end])


def _worst(current: float | None, gaps: np.ndarray) -> float | None:
    """The running minimum after ``gaps`` in order (the first of equals)."""
    if not gaps.size:
        return current
    low = float(gaps[gaps.argmin()])
    return low if current is None or low < current else current


@dataclass
class ViolationRecord:
    """Enough provenance to regenerate the offending state: the campaign
    seed plus ``sample_index`` reproduce it via :func:`sample_state`."""

    relation: RelationId
    alpha: float
    sample_index: int
    gap: float
    lhs: float
    values: tuple[float, ...]


@dataclass
class BaselineStats:
    """Plain-sum monogamy (lhs >= sum v_j, SCREN) and polygamy
    (lhs <= sum v_j, SCRENoA) over the whole ensemble."""

    ckw_violations: int = 0
    ckw_worst_gap: float | None = None
    polygamy_violations: int = 0
    polygamy_worst_gap: float | None = None

    def absorb(self, scren: MeasureBlock, screnoa: MeasureBlock) -> None:
        """Fold in a block's rows, as if they came one by one."""
        ckw_gap = scren.lhs - row_sum(scren.values)
        poly_gap = row_sum(screnoa.values) - screnoa.lhs
        self.ckw_violations += int((ckw_gap < -SAT_TOL).sum())
        self.polygamy_violations += int((poly_gap < -SAT_TOL).sum())
        self.ckw_worst_gap = _worst(self.ckw_worst_gap, ckw_gap)
        self.polygamy_worst_gap = _worst(self.polygamy_worst_gap, poly_gap)


@dataclass
class CampaignReport:
    config: CampaignConfig
    stats: list[RelationStats]
    baseline: BaselineStats
    violations: list[ViolationRecord]

    @property
    def total_violations(self) -> int:
        return (
            sum(s.violations for s in self.stats)
            + self.baseline.ckw_violations
            + self.baseline.polygamy_violations
        )


def sample_block(config: CampaignConfig, start: int, stop: int) -> np.ndarray:
    """The amplitudes of samples ``start`` to ``stop - 1``, one row each:
    sample i is a Haar draw from the stream keyed on (seed, i),
    ``SeedSequence(seed, spawn_key=(i,))``, independent of every other
    sample.  ``start`` and ``stop`` must be integers with
    ``0 <= start <= stop``; anything else raises ``ValueError``."""
    return keyed_haar_amplitudes(math.prod(config.dims), config.seed, start, stop)


def sample_state(config: CampaignConfig, index: int) -> PureState:
    """The exact state of sample ``index``, an integer >= 0: the one-row
    case of :func:`sample_block`."""
    if not is_int(index):
        raise ValueError(f"sample index must be an integer, got {index!r}")
    return PureState(sample_block(config, index, index + 1)[0], config.dims)


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Evaluate the configured relations over a seeded Haar ensemble.

    Deterministic given the config: each sample is drawn from a stream
    keyed on (seed, sample index).  Samples run in index order, in blocks
    of ``_BLOCK``, and each relation over its alpha grid at once;
    violations are recorded in (sample, relation, alpha) order and the
    report does not depend on the block size.
    """
    needs_tails = RelationId.MONO_LADDER_NEG_COLLECTIVE in config.relations
    stats = {
        (rid, a): RelationStats(rid, a)
        for rid in config.relations
        for a in _grid_for(rid, config.alphas)
    }
    order = {key: pos for pos, key in enumerate(stats)}
    keys_of = {kind: [key for key in stats if REGISTRY[key[0]].kind is kind] for kind in MeasureKind}
    baseline = BaselineStats()
    violations: list[ViolationRecord] = []
    for start in range(0, config.samples, _BLOCK):
        amps = sample_block(config, start, min(start + _BLOCK, config.samples))
        blocks = _analyze_block(amps, config.dims, config.roof, config.sort_values, needs_tails)
        baseline.absorb(*blocks)
        found = []
        for block in blocks:
            for grid in evaluate_grids(block, keys_of[block.kind], config.k_policy):
                cells = [stats[grid.relation, alpha] for alpha in grid.alphas]
                _absorb(cells, grid)
                for i, row in zip(*(axis.tolist() for axis in np.nonzero(grid.violated))):
                    record = ViolationRecord(grid.relation, grid.alphas[i], start + row,
                                             float(grid.gap[i, row]), float(block.lhs[row]),
                                             tuple(block.values[row].tolist()))
                    found.append((row, order[grid.relation, grid.alphas[i]], record))
        violations += [record for *_, record in sorted(found, key=lambda f: f[:2])]
    return CampaignReport(
        config=config,
        stats=list(stats.values()),
        baseline=baseline,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# deterministic serialization (17 significant digits, stable field order)

def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_fmt(str(k))}:{_fmt(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value)}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _csv(header: str, rows) -> str:
    """``header`` and one line per row of values; None is an empty cell."""
    lines = [header] + [",".join(_csv_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


REPORT_CSV_HEADER = "relation,alpha,k,condition,lhs_pow,rhs,kim_rhs,gap,tightness_delta"


def relation_report_dict(rep: RelationReport) -> dict:
    return {
        "id": rep.relation.value,
        "alpha": rep.alpha,
        "k": rep.k,
        "condition": rep.condition_holds,
        "lhs_pow": rep.lhs_pow,
        "rhs": rep.rhs,
        "kim_rhs": rep.kim_rhs,
        "satisfied": rep.satisfied,
        "gap": rep.gap,
        "tightness_delta": rep.tightness_delta,
    }


def relation_reports_to_csv(reports: list[RelationReport]) -> str:
    """The rows of :func:`relation_report_dict` but ``satisfied``, which
    follows from ``gap``."""
    rows = ([v for key, v in relation_report_dict(rep).items() if key != "satisfied"]
            for rep in reports)
    return _csv(REPORT_CSV_HEADER, rows)


def relation_reports_to_json(reports: list[RelationReport]) -> str:
    return _fmt([relation_report_dict(r) for r in reports]) + "\n"


def campaign_config_dict(config: CampaignConfig) -> dict:
    """The config as plain JSON values; the roof echoes every
    :class:`RoofConfig` field but ``direction``, which each measure picks."""
    return {
        "dims": list(config.dims),
        "samples": config.samples,
        "seed": config.seed,
        "alphas": list(config.alphas),
        "relations": [r.value for r in config.relations],
        "k_policy": config.k_policy,
        "sort_values": config.sort_values,
        "roof": {
            f.name: getattr(config.roof, f.name)
            for f in fields(RoofConfig) if f.name != "direction"
        },
    }


def _reject_unknown_keys(data: dict, cls, where: str) -> None:
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")


def campaign_config_from_dict(data: dict) -> CampaignConfig:
    """Inverse of :func:`campaign_config_dict`.  Unknown keys and values of
    the wrong type raise ``ValueError``; ``roof.direction`` is ignored."""
    _reject_unknown_keys(data, CampaignConfig, "campaign config")
    roof_data = data.get("roof", {})
    if not isinstance(roof_data, dict):
        raise ValueError(f"roof must be a JSON object, got {roof_data!r}")
    _reject_unknown_keys(roof_data, RoofConfig, "roof config")
    # direction is chosen per measure
    try:
        roof = RoofConfig(**{k: v for k, v in roof_data.items() if k != "direction"})
    except ValueError as exc:
        raise ValueError(f"roof: {exc}") from None
    return CampaignConfig(**{**data, "roof": roof})


def campaign_report_dict(report: CampaignReport) -> dict:
    return {
        "config": campaign_config_dict(report.config),
        "baseline": {
            "ckw_violations": report.baseline.ckw_violations,
            "ckw_worst_gap": report.baseline.ckw_worst_gap,
            "polygamy_violations": report.baseline.polygamy_violations,
            "polygamy_worst_gap": report.baseline.polygamy_worst_gap,
        },
        "relations": [
            {
                "relation": s.relation.value,
                "alpha": s.alpha,
                "evaluated": s.evaluated,
                "condition_pass": s.condition_pass,
                "violations": s.violations,
                "worst_gap": s.worst_gap,
                "mean_tightness_delta": s.mean_tightness_delta,
            }
            for s in report.stats
        ],
        "violations": [
            {
                "relation": v.relation.value,
                "alpha": v.alpha,
                "sample_index": v.sample_index,
                "gap": v.gap,
                "lhs": v.lhs,
                "values": list(v.values),
            }
            for v in report.violations
        ],
    }


def _float(value) -> str:
    """:func:`_fmt` of a float or None."""
    return "null" if value is None else format(float(value), ".17g")


def campaign_report_json(report: CampaignReport) -> str:
    """``_fmt(campaign_report_dict(report))`` and a newline, byte for byte.

    The relation and violation rows, most of a report, are written flat,
    one format string per row, rather than through ``_fmt``'s recursion
    over a dict per row."""
    head = campaign_report_dict(CampaignReport(report.config, [], report.baseline, []))
    relations = ",".join(
        f'{{"relation":{_fmt(s.relation.value)},"alpha":{_float(s.alpha)},'
        f'"evaluated":{int(s.evaluated)},"condition_pass":{int(s.condition_pass)},'
        f'"violations":{int(s.violations)},"worst_gap":{_float(s.worst_gap)},'
        f'"mean_tightness_delta":{_float(s.mean_tightness_delta)}}}'
        for s in report.stats
    )
    violations = ",".join(
        f'{{"relation":{_fmt(v.relation.value)},"alpha":{_float(v.alpha)},'
        f'"sample_index":{int(v.sample_index)},"gap":{_float(v.gap)},"lhs":{_float(v.lhs)},'
        f'"values":[{",".join(map(_float, v.values))}]}}'
        for v in report.violations
    )
    return (f'{{"config":{_fmt(head["config"])},"baseline":{_fmt(head["baseline"])},'
            f'"relations":[{relations}],"violations":[{violations}]}}\n')


CAMPAIGN_CSV_HEADER = (
    "relation,alpha,evaluated,condition_pass,violations,worst_gap,mean_tightness_delta"
)


def campaign_report_csv(report: CampaignReport) -> str:
    """The ``relations`` rows of :func:`campaign_report_dict`, one per line."""
    rows = campaign_report_dict(report)["relations"]
    return _csv(CAMPAIGN_CSV_HEADER, (row.values() for row in rows))


def emit_report(obj, fmt: str, path=None) -> None:
    """Write a campaign report or a list of relation reports to ``path``,
    or to stdout when ``path`` is None.

    Field order is fixed and floats carry 17 significant digits, so
    rerunning an identical configuration reproduces the file byte for
    byte.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be json or csv, got {fmt!r}")
    if isinstance(obj, CampaignReport):
        text = campaign_report_json(obj) if fmt == "json" else campaign_report_csv(obj)
    elif isinstance(obj, list):
        text = relation_reports_to_json(obj) if fmt == "json" else relation_reports_to_csv(obj)
    else:
        raise TypeError(f"cannot emit {type(obj)}")
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)

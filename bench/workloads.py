"""The benchmark's workloads: seeded inputs, the timed unit of work (a
chunk), and the checks every chunk's outputs must pass.

The cut dimensions of a roof call select its search branch, and each
workload is the only one that reaches its branch: 2x3 marginals of the
qutrit campaign take the Gram-determinant branch, direct 2x2 calls the
det-mode pair/phase solver with kink escapes, and 3x3 calls the batched
SVD branch.  The qubit campaign never calls the roof (every marginal is
2x2 and goes to the closed forms), so it is where roof changes must show
no effect and campaign-path changes show most.

Inputs depend only on the seed entropy and the chunk index, and are
built outside the chunk timer.  Every input a chunk draws is kept and
checked; a failing one counts as a failed operation, never as skipped.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from negmono import (
    Bipartition,
    CampaignConfig,
    Direction,
    RelationId,
    RoofConfig,
    haar_random_mixed,
    ket,
    negativity,
    pure_negativity,
    two_qubit_tangle_and_toa,
)
from negmono.harness import campaign_report_json, run_campaign
from negmono.roof import optimize_roof

# the acceptance campaign: every alpha >= 0 relation on the full grid
ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
RELATIONS = (
    RelationId.MONO_HAMMING,
    RelationId.MONO_LADDER,
    RelationId.MONO_HAMMING_BASE,
    RelationId.MONO_LADDER_BASE,
    RelationId.POLY_HAMMING,
    RelationId.POLY_LADDER,
    RelationId.POLY_HAMMING_BASE,
    RelationId.POLY_LADDER_BASE,
)
CUT2 = Bipartition.split(2, (0,))
ORACLE_TOL = 1e-6  # squared units, as in the tier-1 oracle test
CHECK_TOL = 1e-8
WARM_UP_ROOF = RoofConfig(restarts=1, max_iters=1)
# Roof budget of the qutrit campaign and of roof-3x3.  The default
# RoofConfig (32 restarts of up to 600 sweeps) takes 13-22 s per 3x3 MIN
# call and, in the qutrit campaign, up to 19 s on about one state in a
# hundred, so a run of tens of seconds would hold too few states for its
# throughput to repeat across seeds.  Four restarts keep the consensus
# stop (checked from the third search on) and 40 sweeps bound each search.
ROOF = RoofConfig(restarts=4, max_iters=40)


@dataclass
class Chunk:
    """One timed unit of work: ``seconds`` covers only the calls into negmono."""

    index: int
    states: int
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    roof_calls: list = field(default_factory=list)  # (direction, value, spread, seconds)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED chunk {self.index}: {what}", file=sys.stderr)


def input_stream(entropy: tuple, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy, spawn_key=key)


def derived_seed(entropy: tuple, *key: int) -> int:
    return int(input_stream(entropy, *key).generate_state(1)[0])


class CampaignWorkload:
    """Chunk i runs one seeded campaign per ensemble and serializes its
    report.  Chunk 0 runs twice, so every run repeats a configuration and
    checks that its report comes back byte for byte."""

    min_chunks = 2

    def __init__(self, name: str, ensembles, entropy: tuple):
        self.name = name
        self.ensembles = ensembles  # ((dims, samples per chunk), ...)
        self.entropy = entropy
        self.digests: dict = {}

    def order(self):
        return itertools.chain((0,), itertools.count())

    def warm_up(self) -> None:
        for dims, _ in self.ensembles:
            config = CampaignConfig(dims=dims, samples=1, seed=0, alphas=ALPHAS, relations=RELATIONS,
                                    roof=ROOF)
            campaign_report_json(run_campaign(config))

    def run(self, index: int) -> Chunk:
        configs = [
            CampaignConfig(dims=dims, samples=samples, seed=derived_seed(self.entropy, index, j),
                           alphas=ALPHAS, relations=RELATIONS, k_policy="auto", sort_values=True,
                           roof=ROOF)
            for j, (dims, samples) in enumerate(self.ensembles)
        ]
        chunk = Chunk(index, states=sum(c.samples for c in configs))
        for config in configs:
            chunk.attempted += 1
            start = perf_counter()
            try:
                report = run_campaign(config)
                text = campaign_report_json(report)
            except Exception:
                chunk.seconds += perf_counter() - start
                chunk.fail(traceback.format_exc())
                continue
            chunk.seconds += perf_counter() - start
            digest = hashlib.sha256(text.encode()).hexdigest()
            key = (config.dims, config.seed)
            dims = "x".join(map(str, config.dims))
            print(f"report {self.name} chunk {index} dims {dims} seed {config.seed} "
                  f"samples {config.samples} sha256 {digest}")
            if report.total_violations:
                chunk.fail(f"{report.total_violations} violations, dims {dims} seed {config.seed}")
            elif self.digests.setdefault(key, digest) != digest:
                chunk.fail(f"report of dims {dims} seed {config.seed} differs from its repeat")
        return chunk


class RoofWorkload:
    """Chunk i is one seeded state: one MIN and one MAX roof call, each
    checked by ``check(rho, direction, result)``.

    roof-oracle-2q draws rank-2 states only.  They reach the same det-mode
    solver and kink escapes as full-rank ones, but a full-rank MIN call
    under the oracle config takes 1-60 s, so a run would hold a handful
    of them; the tier-1 oracle test keeps timing that case.
    """

    min_chunks = 1

    def __init__(self, name: str, dims, env_dim: int, min_config: RoofConfig,
                 max_config: RoofConfig, check, entropy: tuple):
        self.name = name
        self.dims = dims
        self.env_dim = env_dim
        self.configs = (min_config, max_config)
        self.check = check
        self.entropy = entropy

    def order(self):
        return itertools.count()

    def warm_up(self) -> None:
        rho = haar_random_mixed(self.dims, self.env_dim, 0)
        for direction in Direction:
            optimize_roof(rho, CUT2, replace(WARM_UP_ROOF, direction=direction))

    def run(self, index: int) -> Chunk:
        rho = haar_random_mixed(self.dims, self.env_dim, input_stream(self.entropy, index, 0))
        seed = derived_seed(self.entropy, index, 1)
        chunk = Chunk(index, states=1)
        for base in self.configs:
            config = replace(base, seed=seed)
            chunk.attempted += 1
            start = perf_counter()
            try:
                result = optimize_roof(rho, CUT2, config)
            except Exception:
                chunk.seconds += perf_counter() - start
                chunk.fail(traceback.format_exc())
                continue
            elapsed = perf_counter() - start
            chunk.seconds += elapsed
            chunk.roof_calls.append((config.direction, result.value, result.restart_spread, elapsed))
            problem = self.check(rho, config.direction, result)
            if problem:
                chunk.fail(f"{self.name} {config.direction.value} roof: {problem}")
        return chunk


def check_oracle(rho, direction: Direction, result) -> str | None:
    """Squared roof against the two-qubit closed forms."""
    tangle, toa = two_qubit_tangle_and_toa(rho)
    exact = tangle if direction is Direction.MIN else toa
    err = abs(result.value**2 - exact)
    return None if err <= ORACLE_TOL else f"|roof^2 - closed form| = {err:.3e}"


def _purification_bound(rho) -> float:
    """min(N_A|BE, N_B|AE) of the canonical purification: no decomposition
    has a larger mean negativity (negativity does not grow on average
    under LOCC, and measuring E is local)."""
    w, u = np.linalg.eigh(rho.matrix)
    keep = w > 1e-12
    psi = ket((u[:, keep] * np.sqrt(w[keep])).reshape(-1), rho.dims + (int(keep.sum()),))
    return min(pure_negativity(psi, Bipartition.split(3, (0,))),
               pure_negativity(psi, Bipartition.split(3, (1,))))


def check_decomposition(rho, direction: Direction, result) -> str | None:
    """Without an oracle: the result must be a decomposition of ``rho``
    whose mean negativity is the reported value, and that value must lie
    on the right side of an exact bound (negativity is convex, so no
    decomposition goes below N(rho))."""
    amps = np.array([s.amplitudes for s in result.states])
    recon = (amps.T * result.weights) @ amps.conj()
    recon_err = float(np.abs(recon - rho.matrix).max())
    if not recon_err <= CHECK_TOL:
        return f"decomposition misses rho by {recon_err:.3e}"
    mean = sum(w * pure_negativity(s, CUT2) for w, s in zip(result.weights, result.states))
    if not abs(mean - result.value) <= CHECK_TOL:
        return f"value {result.value:.12f} is not the decomposition's mean {mean:.12f}"
    if direction is Direction.MIN:
        bound = negativity(rho, CUT2)
        if not result.value >= bound - CHECK_TOL:
            return f"MIN value {result.value:.12f} below the negativity {bound:.12f}"
    else:
        bound = _purification_bound(rho)
        if not result.value <= bound + CHECK_TOL:
            return f"MAX value {result.value:.12f} above the purification bound {bound:.12f}"
    return None


def make(name: str, entropy: tuple):
    if name == "qubit-campaign":
        # 10:1, the mix of the acceptance campaign (10,000 four-qubit and
        # 1,000 five-qubit states)
        return CampaignWorkload(name, (((2, 2, 2, 2), 200), ((2, 2, 2, 2, 2), 20)), entropy)
    if name == "qutrit-campaign":
        return CampaignWorkload(name, (((2, 2, 3), 4),), entropy)
    if name == "roof-oracle-2q":
        return RoofWorkload(
            name, (2, 2), 2,
            RoofConfig(cardinality=4, restarts=16, value_floor=6e-4, squared_tolerance=5e-7),
            RoofConfig(cardinality=4, restarts=8, direction=Direction.MAX, squared_tolerance=5e-7),
            check_oracle, entropy,
        )
    if name == "roof-3x3":
        return RoofWorkload(name, (3, 3), 3, ROOF, replace(ROOF, direction=Direction.MAX),
                            check_decomposition, entropy)
    raise ValueError(f"unknown workload {name!r}")

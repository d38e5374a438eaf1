import hashlib
import math

import numpy as np
import pytest

from negmono import (
    Bipartition,
    CampaignConfig,
    DensityMatrix,
    Direction,
    RoofConfig,
    decomposition_from_isometry,
    density,
    haar_random_mixed,
    haar_random_pure,
    negativity,
    optimize_roof,
    optimize_roof_block,
    partial_trace,
    pure_negativity,
    RelationId,
    two_qubit_tangle_and_toa,
)
from negmono.harness import builtin_state
from negmono.harness import campaign_report_json, run_campaign
from negmono.measures import squared_roof_block
from negmono.roof import (
    _Ascent,
    _eig_base,
    _haar_isometry,
    _Objective,
    _Program,
    _Restarts,
    _rotation_blocks,
    _rotation_coeffs,
    _solve_pair,
)

CUT2 = Bipartition.split(2, (0,))


def reconstruct(weights, states):
    return sum(w * np.outer(s.amplitudes, s.amplitudes.conj()) for w, s in zip(weights, states))


class TestDecompositionFromIsometry:
    def test_identity_reproduces_eigendecomposition(self):
        rho = haar_random_mixed((2, 2), 2, 3)
        evals, evecs = np.linalg.eigh(rho.matrix)
        weights, states = decomposition_from_isometry(rho, np.eye(2))
        assert np.allclose(np.sort(weights), np.sort(evals[evals > 1e-12]), atol=1e-10)
        assert np.abs(reconstruct(weights, states) - rho.matrix).max() < 1e-10

    def test_random_isometry_reconstructs(self):
        rng = np.random.default_rng(5)
        rho = haar_random_mixed((2, 2), 4, 9)
        for m in (4, 6, 9):
            v = _haar_isometry(m, 4, rng)
            weights, states = decomposition_from_isometry(rho, v)
            assert abs(weights.sum() - 1) < 1e-10
            assert np.abs(reconstruct(weights, states) - rho.matrix).max() < 1e-10

    def test_rank2_with_four_members(self):
        rng = np.random.default_rng(8)
        rho = haar_random_mixed((2, 2), 2, 11)
        v = _haar_isometry(4, 2, rng)
        weights, states = decomposition_from_isometry(rho, v)
        # direct mixture resummation oracle
        assert np.abs(reconstruct(weights, states) - rho.matrix).max() < 1e-10

    def test_rejects_shape_mismatch(self):
        rho = haar_random_mixed((2, 2), 2, 1)
        with pytest.raises(ValueError):
            decomposition_from_isometry(rho, np.eye(3))

    def test_rejects_non_isometry(self):
        rho = haar_random_mixed((2, 2), 2, 1)
        bad = np.ones((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            decomposition_from_isometry(rho, bad)


def _pair_objective(di, dj, b, theta, phi):
    """``|det_i'| + |det_j'|`` after the pair rotation (theta, phi)."""
    c, s = math.cos(theta), math.sin(theta)
    w = complex(math.cos(phi), math.sin(phi))
    return (abs(c * c * di + c * s * w * b + s * s * w * w * dj)
            + abs(s * s * di - c * s * w * b + c * c * w * w * dj))


def _symmetric_unitary(seed):
    u = _haar_isometry(2, 2, np.random.default_rng(seed))
    return u @ u.T


class TestSolvePair:
    # the pair's determinant form Q = [[di, b/2], [b/2, dj]] on the
    # degenerate inputs a Haar-random search hardly ever meets
    FORMS = {
        "identity": np.eye(2),  # s1 = s2 and b = 0
        "swap": np.array([[0, 1], [1, 0]]),  # s1 = s2 with a zero diagonal
        # s1 = s2 with Takagi vectors that SVD vectors do not pin down
        "symmetric-unitary": 0.7 * _symmetric_unitary(4),
        "zero": np.zeros((2, 2)),
        "diagonal": np.diag([0.8 - 0.3j, 0.2j]),  # b = 0
        "rank-one": np.array([[1, 1j], [1j, -1]]),  # s2 = 0
    }

    @staticmethod
    def check(q, minimize):
        q = np.asarray(q, dtype=complex)
        di, dj, b = complex(q[0, 0]), complex(q[1, 1]), complex(2 * q[0, 1])
        val, theta, phi = _solve_pair(di, dj, b, minimize)
        assert abs(_pair_objective(di, dj, b, theta, phi) - val) < 1e-14
        at_zero = abs(di) + abs(dj)
        assert (val <= at_zero + 1e-14) if minimize else (val >= at_zero - 1e-14)
        s = np.linalg.svd(q, compute_uv=False)
        assert abs(val - (s[0] - s[1] if minimize else s[0] + s[1])) < 1e-14

    @pytest.mark.parametrize("name", sorted(FORMS))
    @pytest.mark.parametrize("minimize", [True, False])
    def test_degenerate_forms(self, name, minimize):
        self.check(self.FORMS[name], minimize)

    def test_random_forms_reach_singular_value_range(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for minimize in (True, False):
                self.check(q + q.T, minimize)


class TestOptimizeRoof:
    def test_pure_state_any_direction(self):
        rho = density(builtin_state("ghz3"))
        cut = Bipartition.split(3, (0,))
        neg = negativity(rho, cut)
        for direction in (Direction.MIN, Direction.MAX):
            res = optimize_roof(rho, cut, RoofConfig(restarts=2, seed=1, direction=direction))
            assert abs(res.value - neg) < 1e-10

    @pytest.mark.parametrize("env", [2, 3, 4])
    def test_matches_closed_forms(self, env):
        worst_min = worst_max = 0.0
        for i in range(12):
            rho = haar_random_mixed((2, 2), env, np.random.SeedSequence((3, env, i)))
            tangle, toa = two_qubit_tangle_and_toa(rho)
            lo = optimize_roof(
                rho, CUT2,
                RoofConfig(cardinality=4, restarts=12, seed=500 + i,
                           value_floor=6e-4, squared_tolerance=5e-7),
            )
            hi = optimize_roof(
                rho, CUT2,
                RoofConfig(cardinality=4, restarts=6, seed=500 + i, direction=Direction.MAX),
            )
            worst_min = max(worst_min, abs(lo.value**2 - tangle))
            worst_max = max(worst_max, abs(hi.value**2 - toa))
        assert worst_min <= 1e-6
        assert worst_max <= 1e-6

    def test_rank2_prescaled_tolerance(self):
        # rank-2 searches converge to the closed form before squaring
        for i in range(10):
            rho = haar_random_mixed((2, 2), 2, np.random.SeedSequence((4, i)))
            tangle, toa = two_qubit_tangle_and_toa(rho)
            lo = optimize_roof(rho, CUT2, RoofConfig(cardinality=4, restarts=8, seed=i))
            hi = optimize_roof(
                rho, CUT2, RoofConfig(cardinality=4, restarts=6, seed=i, direction=Direction.MAX)
            )
            assert abs(lo.value - np.sqrt(tangle)) < 1e-6
            assert abs(hi.value - np.sqrt(toa)) < 1e-6

    def test_min_below_eigenmix_below_max(self):
        rho = haar_random_mixed((2, 2), 4, 17)
        eig_weights, eig_states = decomposition_from_isometry(rho, np.eye(4))
        eig_mean = sum(
            w * negativity(density(s), CUT2) for w, s in zip(eig_weights, eig_states)
        )
        lo = optimize_roof(rho, CUT2, RoofConfig(cardinality=4, restarts=4, seed=2))
        hi = optimize_roof(
            rho, CUT2, RoofConfig(cardinality=4, restarts=4, seed=2, direction=Direction.MAX)
        )
        assert lo.value <= eig_mean + 1e-9
        assert hi.value >= eig_mean - 1e-9

    def test_cardinality_monotonicity(self):
        for i in range(4):
            rho = haar_random_mixed((2, 2), 2, np.random.SeedSequence((6, i)))
            res = {}
            for m in (2, 3, 4):
                res[m] = optimize_roof(
                    rho, CUT2, RoofConfig(cardinality=m, restarts=8, seed=40 + i)
                )
            slack = max(r.restart_spread for r in res.values()) + 1e-9
            assert res[3].value <= res[2].value + slack
            assert res[4].value <= res[3].value + slack

    def test_returned_decomposition_reconstructs(self):
        rho = haar_random_mixed((2, 2), 4, 23)
        res = optimize_roof(rho, CUT2, RoofConfig(cardinality=4, restarts=4, seed=3))
        assert abs(res.weights.sum() - 1) < 1e-10
        assert np.abs(reconstruct(res.weights, res.states) - rho.matrix).max() < 1e-8

    def test_deterministic(self):
        rho = haar_random_mixed((2, 2), 4, 29)
        a = optimize_roof(rho, CUT2, RoofConfig(cardinality=4, restarts=5, seed=7))
        b = optimize_roof(rho, CUT2, RoofConfig(cardinality=4, restarts=5, seed=7))
        assert a.value == b.value
        assert a.restart_spread == b.restart_spread

    def test_rejects_cardinality_below_rank(self):
        rho = haar_random_mixed((2, 2), 4, 31)
        with pytest.raises(ValueError):
            optimize_roof(rho, CUT2, RoofConfig(cardinality=2, restarts=1))

    # a config file's value of the wrong JSON type is named, not a TypeError
    @pytest.mark.parametrize("over, name", [
        (dict(restarts="2"), "restarts"),
        (dict(max_iters=None), "max_iters"),
        (dict(seed=1.5), "seed"),
        (dict(cardinality="x"), "cardinality"),
        (dict(value_floor=None), "value_floor"),
        (dict(squared_tolerance=True), "squared_tolerance"),
        (dict(direction="min"), "direction"),
        # out-of-range values; NaN and inf would change results silently
        (dict(step_tolerance=math.nan), "step_tolerance"),
        (dict(step_tolerance=math.inf), "step_tolerance"),
        (dict(value_floor=math.inf), "value_floor"),
        (dict(squared_tolerance=math.nan), "squared_tolerance"),
        (dict(seed=-1), "seed"),
        (dict(cardinality=0), "cardinality"),
    ])
    def test_config_rejects_wrong_types(self, over, name):
        with pytest.raises(ValueError, match=name):
            RoofConfig(**over)

    def test_qutrit_marginal_flat_roof(self):
        # every pure state in the antisymmetric two-qutrit support has
        # negativity exactly 1, so both roofs sit at 1
        red = partial_trace(density(builtin_state("aharonov")), (0, 1))
        for direction in (Direction.MIN, Direction.MAX):
            res = optimize_roof(
                red, CUT2, RoofConfig(restarts=4, seed=5, direction=direction)
            )
            assert abs(res.value - 1.0) < 1e-9
            assert res.restart_spread < 1e-9

    def test_generic_cut_sandwich(self):
        # 2x4 cut exercises the Gram path rather than the det-mode solver
        rho = partial_trace(density(haar_random_pure((2, 2, 2, 2), 44)), (0, 1, 2))
        cut = Bipartition.split(3, (0,))
        lo = optimize_roof(rho, cut, RoofConfig(restarts=6, seed=9))
        hi = optimize_roof(rho, cut, RoofConfig(restarts=6, seed=9, direction=Direction.MAX))
        assert 0 <= lo.value <= hi.value + 1e-9
        assert np.abs(reconstruct(hi.weights, hi.states) - rho.matrix).max() < 1e-8


class TestCoordinateSearch:
    """The generic-cut searches (Gram branch on 2xd cuts, SVD branch
    otherwise): pair rotations for MIN, the conjugate-gradient ascent for
    MAX."""

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    def test_contribs_batch_invariant(self, dims):
        # the search evaluates all trial rotations, and then a whole
        # expansion ladder, in one call each and reuses the winner's values,
        # so a row's value must not depend on the other rows of its call
        rho = haar_random_mixed(dims, 3, np.random.SeedSequence((61, *dims)))
        obj = _Objective(dims, (0,), (1,))
        base, rank = _eig_base(rho.matrix)
        rng = np.random.default_rng(62)
        rows = _haar_isometry(9, rank, rng) @ base.T
        for i, j in ((0, 1), (2, 7), (5, 8)):
            pair_d = rows[(i, j), :]
            for step in (0.5, 2.0**-6, 2.0**-20):
                coeffs, ladders = _rotation_blocks(step)
                stacks = [coeffs, np.concatenate([_rotation_coeffs(0.3), coeffs]), *ladders]
                for stacked in stacks:
                    batched = obj.contribs(stacked @ pair_d)
                    one_by_one = np.concatenate([
                        obj.contribs(stacked[k : k + 2] @ pair_d)
                        for k in range(0, len(stacked), 2)
                    ])
                    assert (batched == one_by_one).all()

    # optimize_roof under RoofConfig(restarts=4, max_iters=40) on seeded
    # states, recorded from the search that evaluated every expansion
    # candidate in its own call: (MIN value, MIN spread, MAX value).  None
    # of the capped MIN searches converges, so any change to the MIN
    # trajectory moves them far beyond the tolerance.  The MAX values were
    # found by the same pair-rotation search; the ascent that replaced it
    # must meet or beat them.
    PINNED = {
        ((2, 3), 0): (0.43597299060079076, 0.0118026496729291, 0.9656639254668029),
        ((2, 3), 1): (0.47990845867572496, 0.0005954520597832857, 0.954004310633592),
        ((3, 3), 0): (0.7757088995163084, 0.012315574822476583, 1.5278946288611377),
        ((3, 3), 1): (0.7197047052355927, 0.041286104642083155, 1.6247033281605248),
    }

    @staticmethod
    def check_decomposition(rho, res):
        # the result is a decomposition of rho whose mean negativity is its value
        assert np.abs(reconstruct(res.weights, res.states) - rho.matrix).max() <= 1e-12
        mean = sum(w * pure_negativity(psi, CUT2) for w, psi in zip(res.weights, res.states))
        assert abs(mean - res.value) <= 1e-12

    @pytest.mark.parametrize("dims,i", sorted(PINNED))
    def test_trajectory_pinned(self, dims, i):
        tag = 71 if dims == (2, 3) else 73
        rho = haar_random_mixed(dims, 3, np.random.SeedSequence((tag, i)))
        lo, hi = (optimize_roof(rho, CUT2, RoofConfig(restarts=4, max_iters=40, seed=3 + i,
                                                       direction=direction))
                  for direction in (Direction.MIN, Direction.MAX))
        min_value, min_spread, max_floor = self.PINNED[dims, i]
        assert [lo.value, lo.restart_spread] == pytest.approx([min_value, min_spread],
                                                             rel=1e-12, abs=0.0)
        assert hi.value >= max_floor - 1e-12
        self.check_decomposition(rho, lo)
        self.check_decomposition(rho, hi)

    # MAX values of the pair-rotation search under RoofConfig(restarts=4,
    # max_iters=40, seed=i) on state i: rank-3 3x3 states, and the rank-2
    # 2x3 marginals of parties (0, 2) of (2, 2, 3) pure states, the cut
    # the qutrit campaign sends to the roof
    MAX_FLOORS = {
        (2, 3): (0.7571333522218078, 0.9203046223445912, 0.7921585560585278,
                 0.6093592992914987, 0.8507690415233811, 0.8212524482423533,
                 0.5671260114934966, 0.8565087264062679, 0.9097694741637559,
                 0.8526732214179031, 0.9816902343796075, 0.8837750118476126),
        (3, 3): (1.4240398120948594, 1.5188396421184245, 1.5486209410575773,
                 1.3299210414060818, 1.4850219042253743, 1.555861753439272,
                 1.6124648920575968, 1.6000955558778345, 1.6533041321361917,
                 1.7595961433737037, 1.4868259652225948, 1.6560566188397265),
    }

    @pytest.mark.parametrize("dims", sorted(MAX_FLOORS))
    def test_max_meets_recorded_values(self, dims):
        floors = self.MAX_FLOORS[dims]
        if dims == (3, 3):
            rhos = [haar_random_mixed(dims, 3, np.random.SeedSequence((74, i)))
                    for i in range(len(floors))]
        else:
            pures = (haar_random_pure((2, 2, 3), np.random.SeedSequence((75, i)))
                     for i in range(len(floors)))
            rhos = [partial_trace(density(psi), (0, 2)) for psi in pures]
        configs = [RoofConfig(restarts=4, max_iters=40, seed=i, direction=Direction.MAX)
                   for i in range(len(floors))]
        results = optimize_roof_block(np.stack([rho.matrix for rho in rhos]), dims, CUT2, configs)
        for rho, floor, res in zip(rhos, floors, results):
            assert res.value >= floor - 1e-12
            self.check_decomposition(rho, res)


class TestRoofBlock:
    """optimize_roof_block advances every running restart of a block as
    an array program per direction, one trial call per step for all of
    them; each result must equal optimize_roof on its row alone, bit for
    bit."""

    @staticmethod
    def check(mats, dims, configs):
        results = optimize_roof_block(mats, dims, CUT2, configs)
        assert len(results) == len(mats)
        for mat, cfg, got in zip(mats, configs, results):
            alone = optimize_roof(DensityMatrix(mat, dims), CUT2, cfg)
            assert got.value == alone.value
            assert got.restart_spread == alone.restart_spread
            assert got.weights.shape == alone.weights.shape
            assert (got.weights == alone.weights).all()
            assert len(got.states) == len(alone.states)
            for a, b in zip(got.states, alone.states):
                assert (a.amplitudes == b.amplitudes).all()
            assert (got.restarts_run, got.sweeps, got.stop) == (
                alone.restarts_run, alone.sweeps, alone.stop)
        return results

    def test_mixed_2x3_stack(self):
        dims = (2, 3)
        rows = [haar_random_mixed(dims, env, np.random.SeedSequence((81, env, i)))
                for env, i in ((2, 0), (3, 1), (2, 2), (3, 3), (3, 4))]
        # a product state: its eigendecomposition already has mean
        # negativity 0, so its MIN search stops at min_floor in restart 0
        product = np.kron(haar_random_mixed((2,), 2, 82).matrix,
                          haar_random_mixed((3,), 3, 83).matrix)
        mats = np.stack([rho.matrix for rho in rows] + [product])
        configs = [
            RoofConfig(restarts=4, max_iters=40, seed=1),
            RoofConfig(restarts=3, max_iters=25, seed=2, direction=Direction.MAX),
            RoofConfig(restarts=5, max_iters=15, seed=3, cardinality=6),
            RoofConfig(restarts=2, max_iters=60, seed=4, cardinality=9, direction=Direction.MAX),
            RoofConfig(restarts=6, max_iters=10, seed=5, value_floor=0.05),
            RoofConfig(restarts=4, max_iters=40, seed=6),
        ]
        results = self.check(mats, dims, configs)
        assert results[-1].value <= configs[-1].min_floor
        assert results[-1].restart_spread == 0.0  # restart 0 alone ran

    def test_3x3_stack(self):
        dims = (3, 3)
        mats = np.stack([haar_random_mixed(dims, 3, np.random.SeedSequence((84, i))).matrix
                         for i in range(3)])
        configs = [RoofConfig(restarts=3, max_iters=8, seed=i, direction=d)
                   for i, d in enumerate((Direction.MIN, Direction.MAX, Direction.MIN))]
        self.check(mats, dims, configs)

    def test_2x2_stack(self):
        # det-mode cuts run the exact pair search, one restart at a time
        dims = (2, 2)
        mats = np.stack([haar_random_mixed(dims, 2 + i, np.random.SeedSequence((85, i))).matrix
                         for i in range(3)])
        configs = [RoofConfig(cardinality=4, restarts=4, seed=i, direction=d)
                   for i, d in enumerate((Direction.MIN, Direction.MAX, Direction.MIN))]
        self.check(mats, dims, configs)

    def test_empty_stack(self):
        assert optimize_roof_block(np.empty((0, 6, 6), dtype=complex), (2, 3), CUT2, []) == []

    def test_rejects_rows_of_other_dims(self):
        mats = [haar_random_mixed((2, 3), 3, 86).matrix, haar_random_mixed((3, 3), 3, 87).matrix]
        with pytest.raises(ValueError, match="dims"):
            optimize_roof_block(mats, (2, 3), CUT2, [None, None])


class TestEmbeddedOracle:
    """The search campaigns run, against an exact oracle.

    Local isometries leave SCREN and SCRENoA unchanged, so a two-qubit
    state embedded by W_A (identity, or a Haar isometry into C^3) and a
    Haar W_B into C^3 keeps the closed-form values, while
    squared_roof_block sends the embedded 2x3 and 3x3 states through the
    Gram and SVD branches of the roof search.  Rank 2 is exact at the
    campaign config.  The rank-4 MIN bounds, and every MAX bound, are the
    worst errors of that search on these states, rounded up: gates to
    tighten and never to widen.  The MAX bounds were tightened from 1e-6,
    1e-6, 2e-9 and 5e-12 when MAX moved to the conjugate-gradient ascent.
    """

    CONFIG = RoofConfig(restarts=4, max_iters=40)
    # (rank, A dim): (states, MIN bound, MAX bound)
    CASES = {
        (2, 2): (12, 1e-6, 3e-14),
        (2, 3): (12, 1e-6, 2e-14),
        (4, 2): (12, 7e-5, 2e-12),
        (4, 3): (4, 8e-5, 3e-13),
    }

    @pytest.mark.parametrize("rank,a_dim", sorted(CASES))
    def test_embedded_two_qubit_states(self, rank, a_dim):
        n, min_bound, max_bound = self.CASES[rank, a_dim]
        exact, mats = [], []
        for i in range(n):
            rho = haar_random_mixed((2, 2), rank, np.random.SeedSequence((2026, rank, i)))
            rng = np.random.default_rng(np.random.SeedSequence((2027, rank, a_dim, i)))
            w_a = np.eye(2) if a_dim == 2 else _haar_isometry(3, 2, rng)
            w = np.kron(w_a, _haar_isometry(3, 2, rng))
            exact.append(two_qubit_tangle_and_toa(rho))
            mats.append(DensityMatrix(w @ rho.matrix @ w.conj().T, (a_dim, 3)).matrix)
        tangle, toa = np.array(exact).T
        lo, hi = squared_roof_block(np.stack(mats), (a_dim, 3), CUT2, self.CONFIG)
        # MIN is an upper bound on the tangle, MAX a lower bound on the TOA
        assert (lo.values >= tangle - 1e-12).all()
        assert (hi.values <= toa + 1e-12).all()
        assert (lo.values - tangle).max() <= min_bound
        assert (toa - hi.values).max() <= max_bound


class TestRoofBlockDigest:
    """sha256 over every field of optimize_roof_block results on seeded
    blocks that the campaign digests do not reach: 3x2 and 2x4 cuts, rows
    of mixed rank (several (m, r) programs in one call), product rows that
    stop at the floor, non-default cardinality, value_floor and
    squared_tolerance, MIN and MAX.

    Recorded before the array program swept its row pairs in lockstep,
    and re-recorded when MAX searches moved to the conjugate-gradient
    ascent; it holds every trajectory of these blocks to the last bit.
    Like the campaign digests, it is specific to the numpy build (numpy
    2.4, scipy-openblas 0.3.31 on x86_64) it was recorded with.
    """

    DIMS = ((2, 3), (3, 2), (3, 3), (2, 4))
    BLOCKS = 32
    DIGEST = "9563dc81c3d5c72d4a253f5b937c08a559412b4f24deb77f0f404f92fdb6749a"

    @classmethod
    def block(cls, b):
        rng = np.random.default_rng(np.random.SeedSequence((97, b)))
        dims = cls.DIMS[b % len(cls.DIMS)]
        top = 3 if dims == (3, 3) else 4
        ranks = [int(rng.integers(2, top + 1)) for _ in range(int(rng.integers(2, 4)))]
        mats = [haar_random_mixed(dims, r, np.random.SeedSequence((97, b, k))).matrix
                for k, r in enumerate(ranks)]
        if b % 3 == 0:
            # a rank-2 product state: its MIN search stops at the floor
            ranks.append(2)
            mats.append(np.kron(
                haar_random_mixed(dims[:1], 2, np.random.SeedSequence((98, b))).matrix,
                density(haar_random_pure(dims[1:], np.random.SeedSequence((99, b)))).matrix))
        configs = [RoofConfig(
            cardinality=(None, r, r + 1, r * r)[int(rng.integers(4))],
            restarts=int(rng.integers(1, 6)),
            max_iters=int(rng.integers(3, 13)),
            seed=int(rng.integers(100)),
            direction=(Direction.MIN, Direction.MAX)[int(rng.integers(2))],
            value_floor=(0.0, 0.05, 0.3)[int(rng.integers(3))],
            squared_tolerance=(0.0, 1e-4, 1e-2)[int(rng.integers(3))]) for r in ranks]
        return np.stack(mats), dims, configs

    def test_block_digest(self):
        h = hashlib.sha256()
        for b in range(self.BLOCKS):
            mats, dims, configs = self.block(b)
            for res in optimize_roof_block(mats, dims, CUT2, configs):
                h.update(np.array([res.value, res.restart_spread]).tobytes())
                h.update(res.weights.tobytes())
                for psi in res.states:
                    h.update(psi.amplitudes.tobytes())
                h.update(f"{res.restarts_run} {res.sweeps} {res.stop};".encode())
        assert h.hexdigest() == self.DIGEST


def _run_sequential(rho, cfg):
    """optimize_roof without speculative restarts: each restart starts only
    after the ones before it have folded, as in a plain restart loop."""
    search = _Restarts(rho.matrix, rho.dims, cfg)
    program = (_Program if search.minimize else _Ascent)(
        _Objective(rho.dims, (0,), (1,)), search.m, search.rank)
    program.run([(search, t) for t in search.launch(speculate=False)])
    return search.result()


class TestRestartScheduling:
    """Restarts 0-2 of a row run concurrently when they need no incumbent;
    results still fold in restart order, and a speculative restart that
    the sequential loop would not reach is discarded."""

    @staticmethod
    def product_state():
        return DensityMatrix(np.kron(haar_random_mixed((2,), 2, 82).matrix,
                                     haar_random_mixed((3,), 3, 83).matrix), (2, 3))

    def test_product_min_discards_speculative_restarts(self):
        # the eigendecomposition of a product state already has mean
        # negativity 0, so restart 0 ends at min_floor before its first
        # sweep and restarts 1 and 2, started beside it, are dropped
        res = optimize_roof(self.product_state(), CUT2, RoofConfig(restarts=6, seed=2))
        assert res.value <= RoofConfig().min_floor
        assert (res.restarts_run, res.sweeps, res.stop) == (1, 0, "floor")
        assert res.restart_spread == 0.0

    def test_stop_reasons(self):
        rho = haar_random_mixed((2, 3), 2, np.random.SeedSequence((91, 0)))
        res = optimize_roof(rho, CUT2, RoofConfig(restarts=2, max_iters=5, seed=1))
        assert (res.restarts_run, res.stop) == (2, "budget")
        assert 2 <= res.sweeps <= 10
        # every pure state in the antisymmetric two-qutrit support has
        # negativity 1, so restarts 0-2 agree and the loop stops there
        red = partial_trace(density(builtin_state("aharonov")), (0, 1))
        res = optimize_roof(red, CUT2, RoofConfig(restarts=8, seed=5, direction=Direction.MAX))
        assert (res.restarts_run, res.stop) == (3, "consensus")

    def test_row_stop_drops_running_restarts(self, monkeypatch):
        # a separable mixture of Haar product states: restart 0 reaches the
        # floor after 34 sweeps while restarts 1 and 2, started beside it,
        # still run; the row's stop drops their slots, so neither search
        # is ever handed in
        rng = np.random.default_rng(np.random.SeedSequence((100, 95)))
        k = int(rng.integers(2, 4))
        weights = rng.dirichlet(np.ones(k))
        members = [np.kron(haar_random_pure((2,), rng).amplitudes,
                           haar_random_pure((3,), rng).amplitudes) for _ in range(k)]
        rho = DensityMatrix(sum(w * np.outer(v, v.conj()) for w, v in zip(weights, members)),
                            (2, 3))
        cfg = RoofConfig(restarts=6, max_iters=40, seed=95)
        seq = _run_sequential(rho, cfg)
        handed_in = []
        finish = _Restarts.finish

        def recorded(self, t, *args):
            handed_in.append(t)
            return finish(self, t, *args)

        monkeypatch.setattr(_Restarts, "finish", recorded)
        got = optimize_roof(rho, CUT2, cfg)
        assert handed_in == [0]
        assert (got.restarts_run, got.stop) == (1, "floor")
        assert (got.value, got.restart_spread, got.sweeps) == (seq.value, seq.restart_spread,
                                                               seq.sweeps)
        assert (got.weights == seq.weights).all()
        for a, b in zip(got.states, seq.states, strict=True):
            assert (a.amplitudes == b.amplitudes).all()

    @pytest.mark.parametrize("case", range(7))
    def test_concurrent_equals_sequential(self, case):
        dims, env, seed, cfg = [
            ((2, 3), 2, 0, RoofConfig(restarts=4, max_iters=20, seed=1)),
            ((2, 3), 3, 1, RoofConfig(restarts=6, max_iters=8, seed=2, direction=Direction.MAX)),
            ((2, 3), 3, 2, RoofConfig(restarts=5, max_iters=12, seed=3, value_floor=0.3)),
            ((3, 3), 3, 3, RoofConfig(restarts=3, max_iters=6, seed=4)),
            ((2, 4), 2, 4, RoofConfig(restarts=7, max_iters=10, seed=5, squared_tolerance=1e-3)),
            ((2, 3), 1, 5, RoofConfig(restarts=4, max_iters=10, seed=6, direction=Direction.MAX)),
            # restarts 1 and 2 end before restart 0, which then reaches the
            # floor: their finished results are discarded, not folded
            ((2, 3), 3, 23, RoofConfig(restarts=5, max_iters=12, seed=23, value_floor=0.3)),
        ][case]
        rho = (density(haar_random_pure(dims, 92)) if env == 1
               else haar_random_mixed(dims, env, np.random.SeedSequence((95, seed))))
        rows = [rho, self.product_state()] if dims == (2, 3) else [rho]
        for row in rows:
            got, seq = optimize_roof(row, CUT2, cfg), _run_sequential(row, cfg)
            assert (got.value, got.restart_spread) == (seq.value, seq.restart_spread)
            assert (got.restarts_run, got.sweeps, got.stop) == (seq.restarts_run, seq.sweeps, seq.stop)
            assert (got.weights == seq.weights).all()
            assert len(got.states) == len(seq.states)
            for a, b in zip(got.states, seq.states):
                assert (a.amplitudes == b.amplitudes).all()

    @pytest.mark.parametrize("dims,rank", [((2, 3), 2), ((2, 3), 3), ((3, 3), 3)])
    def test_block_shares_objective_calls(self, dims, rank, monkeypatch):
        # four rows per direction: each step of the block evaluates the
        # trials of every running restart of that direction in one call
        # (MIN and MAX searches run as separate programs)
        calls = [0]
        contribs = _Objective.contribs

        def counted(self, rows):
            calls[0] += 1
            return contribs(self, rows)

        monkeypatch.setattr(_Objective, "contribs", counted)
        mats = np.stack([haar_random_mixed(dims, rank, np.random.SeedSequence((93, i))).matrix
                         for i in range(4)])
        for direction in Direction:
            configs = [RoofConfig(restarts=4, max_iters=15, seed=i, direction=direction)
                       for i in range(4)]
            calls[0] = 0
            optimize_roof_block(mats, dims, CUT2, configs)
            block = calls[0]
            calls[0] = 0
            for mat, cfg in zip(mats, configs):
                optimize_roof(DensityMatrix(mat, dims), CUT2, cfg)
            assert block < 0.5 * calls[0], direction


class TestCampaignDigests:
    """sha256 of campaign reports whose values come from the roof search.

    Recorded from the generator-driven coordinate search that the array
    program replaced; they hold every roof trajectory of these campaigns
    to the last bit, so a change to the search's step rule changes them
    and needs a recorded reason.  ``2x2x3`` and ``collective`` were
    re-recorded, with the same roof values, when their two-qubit pairs
    moved to singular values of the amplitude factor (Uhlmann's form of
    the closed forms).  ``2x2x3``, ``2x3x3`` and ``3x3x2`` were
    re-recorded again, with the same roof values and tallies, when the
    relation powers moved to ``np.power``.  All four were re-recorded
    when MAX searches moved to the conjugate-gradient ascent: every
    SCRENoA value, and so every polygamy and collective-tail field,
    moved, while the SCREN values and the verdicts did not.  Like every
    LAPACK-backed value, they are specific to the numpy build (numpy
    2.4, scipy-openblas 0.3.31 on x86_64) they were recorded with.
    """

    ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
    RELATIONS = tuple(RelationId(r) for r in (
        "mono-hamming", "mono-ladder", "mono-hamming-base", "mono-ladder-base",
        "poly-hamming", "poly-ladder", "poly-hamming-base", "poly-ladder-base"))
    CAPPED = RoofConfig(restarts=4, max_iters=40)
    CASES = {
        # 2x3 marginals, the Gram branch of the objective
        "2x2x3": (dict(dims=(2, 2, 3), samples=12, seed=11, roof=CAPPED),
                  "ec039bb1a0a1b6af1b5429ae8a0de265b181c572b7c54bf304536e967d8d95ae"),
        "2x3x3": (dict(dims=(2, 3, 3), samples=3, seed=12, roof=CAPPED),
                  "26994d3e722b0a2ee4d3a6b7131d7bc6fc5906ce1df71aab0f4589996be59839"),
        # the 3x3 marginal of parties 0 and 1 takes the SVD branch
        "3x3x2": (dict(dims=(3, 3, 2), samples=3, seed=12, roof=CAPPED),
                  "63eb29df25ea0945aa48fa79800e6b88bf8150969affec8d1994f8b65477dd5c"),
        # collective tails: SCRENoA of 2x4 and 2x8 cuts
        "collective": (dict(dims=(2, 2, 2, 2), samples=16, seed=13, alphas=(-0.5, -1.0),
                            relations=(RelationId.MONO_LADDER_NEG_COLLECTIVE,),
                            roof=RoofConfig(restarts=3, max_iters=20, seed=3)),
                       "92e39a4d20650f2dbb97783d57e1e6c8db660c81240b020e1f4e3aa57c152d8b"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_digest(self, name):
        over, digest = self.CASES[name]
        config = CampaignConfig(**{"alphas": self.ALPHAS, "relations": self.RELATIONS, **over})
        text = campaign_report_json(run_campaign(config))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # (evaluated, condition_pass, violations) at every (relation, alpha):
    # pinned apart from the digests, so a re-pinned digest cannot hide a
    # changed verdict; no campaign here has a CKW or polygamy violation
    VERDICTS = {"2x2x3": (12, 12, 0), "2x3x3": (3, 3, 0), "3x3x2": (3, 3, 0)}

    @pytest.mark.parametrize("name", sorted(VERDICTS))
    def test_report_verdicts(self, name):
        config = CampaignConfig(**{"alphas": self.ALPHAS, "relations": self.RELATIONS,
                                   **self.CASES[name][0]})
        report = run_campaign(config)
        assert len(report.stats) == len(self.RELATIONS) * 4
        assert {(s.evaluated, s.condition_pass, s.violations)
                for s in report.stats} == {self.VERDICTS[name]}
        assert (report.baseline.ckw_violations, report.baseline.polygamy_violations) == (0, 0)

import math

import numpy as np
import pytest

from negmono import (
    Bipartition,
    Direction,
    RoofConfig,
    decomposition_from_isometry,
    density,
    haar_random_mixed,
    haar_random_pure,
    negativity,
    optimize_roof,
    partial_trace,
    two_qubit_tangle_and_toa,
)
from negmono.harness import builtin_state
from negmono.roof import (
    _haar_isometry,
    _Objective,
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
    """The generic-cut search (Gram branch on 2xd cuts, SVD branch otherwise)."""

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    def test_contribs_batch_invariant(self, dims):
        # the search evaluates all trial rotations, and then a whole
        # expansion ladder, in one call each and reuses the winner's values,
        # so a row's value must not depend on the other rows of its call
        rho = haar_random_mixed(dims, 3, np.random.SeedSequence((61, *dims)))
        obj = _Objective(rho, (0,), (1,))
        rng = np.random.default_rng(62)
        rows = obj.rows_of(_haar_isometry(9, obj.rank, rng))
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
    # candidate in its own call: (MIN value, MIN spread, MAX value,
    # MAX spread).  None of these capped searches converges, so any change
    # to the search trajectory moves them far beyond the tolerance.
    PINNED = {
        ((2, 3), 0): (0.43597299060079076, 0.0118026496729291,
                      0.9656639254668029, 9.292145950245967e-06),
        ((2, 3), 1): (0.47990845867572496, 0.0005954520597832857,
                      0.954004310633592, 4.384685301217495e-05),
        ((3, 3), 0): (0.7757088995163084, 0.012315574822476583,
                      1.5278946288611377, 0.0008585592485883531),
        ((3, 3), 1): (0.7197047052355927, 0.041286104642083155,
                      1.6247033281605248, 0.00036245191061290427),
    }

    @pytest.mark.parametrize("dims,i", sorted(PINNED))
    def test_trajectory_pinned(self, dims, i):
        tag = 71 if dims == (2, 3) else 73
        rho = haar_random_mixed(dims, 3, np.random.SeedSequence((tag, i)))
        got = []
        for direction in (Direction.MIN, Direction.MAX):
            res = optimize_roof(
                rho, CUT2,
                RoofConfig(restarts=4, max_iters=40, seed=3 + i, direction=direction),
            )
            got += [res.value, res.restart_spread]
        assert got == pytest.approx(self.PINNED[dims, i], rel=1e-12, abs=0.0)

import numpy as np
import pytest

from negmono import (
    Bipartition,
    Method,
    RoofConfig,
    density,
    haar_random_mixed,
    haar_random_pure,
    ket,
    negativity,
    partial_trace,
    pure_negativity,
    pure_scren,
    pure_tangle,
    scren,
    screnoa,
    tensor,
    two_qubit_tangle_and_toa,
)
from negmono.harness import builtin_state
from negmono.measures import spin_flip_mus

CUT2 = Bipartition.split(2, (0,))
CUT3 = Bipartition.split(3, (0,))


def marginal(psi, keep=(0, 1)):
    return partial_trace(density(psi), keep)


class TestBipartition:
    def test_split_builds_complement(self):
        cut = Bipartition.split(4, (0, 2))
        assert cut.a_side == (0, 2)
        assert cut.b_side == (1, 3)

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError):
            Bipartition.split(2, ())
        with pytest.raises(ValueError):
            Bipartition.split(2, (0, 1))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Bipartition((0, 1), (1,)).validate(2)


class TestNegativity:
    def test_bell_is_one(self):
        # oracle: partial transpose eigenvalues are (-1/2, 1/2, 1/2, 1/2)
        assert abs(negativity(density(builtin_state("bell")), CUT2) - 1.0) < 1e-12

    def test_product_state_is_zero(self):
        psi = tensor(haar_random_pure((2,), 3), haar_random_pure((2,), 4))
        assert negativity(density(psi), CUT2) < 1e-12

    def test_antisymmetric_qutrit_full_cut(self):
        psi = builtin_state("aharonov")
        val = negativity(density(psi), CUT3)
        assert abs(val - 2.0) < 1e-12
        # cross-route: (sum of Schmidt coefficients)^2 - 1 on the pure state
        assert abs(pure_negativity(psi, CUT3) - val) < 1e-12


class TestPureTangle:
    def test_bell(self):
        assert abs(pure_tangle(builtin_state("bell"), CUT2) - 1.0) < 1e-12

    def test_product(self):
        psi = tensor(haar_random_pure((2,), 3), haar_random_pure((2,), 4))
        assert pure_tangle(psi, CUT2) < 1e-12

    def test_w3_full_cut(self):
        # marginal of W3 at subsystem 0 has eigenvalues (1/3, 2/3), so the
        # tangle is 2 * (1 - 1/9 - 4/9) = 8/9
        psi = builtin_state("w3")
        red = partial_trace(density(psi), (0,))
        assert np.allclose(np.sort(np.linalg.eigvalsh(red.matrix)), [1 / 3, 2 / 3])
        assert abs(pure_tangle(psi, CUT3) - 8 / 9) < 1e-12


class TestPureScren:
    def test_antisymmetric_qutrit(self):
        assert abs(pure_scren(builtin_state("aharonov"), CUT3) - 4.0) < 1e-12

    def test_ghz3(self):
        assert abs(pure_scren(builtin_state("ghz3"), CUT3) - 1.0) < 1e-12

    def test_equals_tangle_for_rank_two_cuts(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            psi = haar_random_pure((2, 2), rng.integers(1 << 31))
            assert abs(pure_scren(psi, CUT2) - pure_tangle(psi, CUT2)) < 1e-10
        for _ in range(25):
            psi = haar_random_pure((2, 2, 2), rng.integers(1 << 31))
            assert abs(pure_scren(psi, CUT3) - pure_tangle(psi, CUT3)) < 1e-10


class TestTwoQubitClosedForms:
    def test_ghz_marginal(self):
        red = marginal(builtin_state("ghz3"))
        tangle, toa = two_qubit_tangle_and_toa(red)
        assert tangle == 0.0
        # spin-flip spectrum of the diagonal 1/2,1/2 mixture is (1/2, 1/2, 0, 0)
        assert np.allclose(spin_flip_mus(red), [0.5, 0.5, 0, 0], atol=1e-10)
        assert abs(toa - 1.0) < 1e-12

    def test_w_marginal(self):
        red = marginal(builtin_state("w3"))
        assert abs(two_qubit_tangle_and_toa(red)[0] - 4 / 9) < 1e-12

    def test_bell_pure(self):
        tangle, toa = two_qubit_tangle_and_toa(density(builtin_state("bell")))
        assert abs(tangle - 1.0) < 1e-12
        assert abs(toa - 1.0) < 1e-12

    def test_product_pure(self):
        rho = density(tensor(haar_random_pure((2,), 1), haar_random_pure((2,), 2)))
        tangle, toa = two_qubit_tangle_and_toa(rho)
        assert tangle < 1e-12
        assert toa < 1e-12

    def test_combined_helper_matches(self):
        red = haar_random_mixed((2, 2), 4, 31)
        tangle, toa = two_qubit_tangle_and_toa(red)
        mu = spin_flip_mus(red)
        c = max(0.0, float(mu[0] - mu[1:].sum()))
        assert tangle == c * c
        assert toa == float(mu.sum()) ** 2
        # the measure entry points take their closed forms from it, bit for bit
        assert scren(red, CUT2).value == tangle
        assert screnoa(red, CUT2).value == toa

    def test_pure_states_agree_with_tangle(self):
        # the non-normal eigensolve behind the spin flip carries sqrt-level
        # roundoff on the degenerate spectra of pure states
        rng = np.random.default_rng(71)
        for _ in range(20):
            psi = haar_random_pure((2, 2), rng.integers(1 << 31))
            tangle = two_qubit_tangle_and_toa(density(psi))[0]
            assert abs(tangle - pure_tangle(psi, CUT2)) < 5e-8

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            two_qubit_tangle_and_toa(density(haar_random_pure((2, 3), 1)))


class TestScrenDispatch:
    def test_pure_input_uses_pure_formula(self):
        rho = density(builtin_state("aharonov"))
        mv = scren(rho, CUT3)
        assert mv.method is Method.PURE_FORMULA
        assert mv.certified_gap == 0.0
        assert abs(mv.value - 4.0) < 1e-10

    def test_two_qubit_mixed_uses_closed_form(self):
        red = marginal(builtin_state("w3"))
        mv = scren(red, CUT2)
        assert mv.method is Method.TWO_QUBIT_CLOSED_FORM
        assert abs(mv.value - 4 / 9) < 1e-12

    def test_qutrit_marginal_uses_roof(self):
        red = partial_trace(density(builtin_state("aharonov")), (0, 1))
        cfg = RoofConfig(restarts=6, seed=2)
        mv = scren(red, CUT2, cfg)
        assert mv.method is Method.ROOF_OPTIMIZER
        assert abs(mv.value - 1.0) < 1e-3

    def test_screnoa_pure_equals_scren(self):
        rho = density(haar_random_pure((2, 2, 2), 77))
        assert abs(screnoa(rho, CUT3).value - scren(rho, CUT3).value) < 1e-12

    def test_screnoa_ghz_marginal(self):
        red = marginal(builtin_state("ghz3"))
        mv = screnoa(red, CUT2)
        assert abs(mv.value - 1.0) < 1e-6

    def test_scren_at_most_screnoa(self):
        rng = np.random.default_rng(81)
        for _ in range(15):
            red = haar_random_mixed((2, 2), 4, rng.integers(1 << 31))
            assert scren(red, CUT2).value <= screnoa(red, CUT2).value + 1e-9


class TestBaselineInequalities:
    def test_ckw_and_polygamy_on_small_ensembles(self):
        rng = np.random.default_rng(91)
        for dims in [(2, 2, 2), (2, 2, 2, 2)]:
            n = len(dims)
            full = Bipartition.split(n, (0,))
            for _ in range(150):
                psi = haar_random_pure(dims, rng.integers(1 << 31))
                rho = density(psi)
                lhs = pure_scren(psi, full)
                tangles = []
                toas = []
                for j in range(1, n):
                    t, a = two_qubit_tangle_and_toa(partial_trace(rho, (0, j)))
                    tangles.append(t)
                    toas.append(a)
                assert lhs >= sum(tangles) - 1e-9
                assert lhs <= sum(toas) + 1e-9

import hashlib

import numpy as np
import pytest

from negmono import (
    Bipartition,
    DensityMatrix,
    Direction,
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
from negmono.measures import squared_roof_block, two_qubit_block
from negmono.roof import RANK_ATOL
from negmono.states import cut_matrices

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
        # the one-matrix case of the stack form on the eigh factor, bit for bit
        w, u = np.linalg.eigh(red.matrix[None])
        factor = u * np.sqrt(np.where(w > RANK_ATOL, w, 0.0))[:, None, :]
        block_tangle, block_toa = two_qubit_block(factor)
        assert block_tangle.tolist() == [tangle]
        assert block_toa.tolist() == [toa]
        # the measure entry points take their closed forms from it, bit for bit
        assert scren(red, CUT2).value == tangle
        assert screnoa(red, CUT2).value == toa

    def test_pure_states_agree_with_tangle(self):
        # a pure state has rank 1: singular values keep its three zero mu_i
        # exact, where square roots of eigvals(rho rho~) were off by ~1e-8
        rng = np.random.default_rng(71)
        for _ in range(20):
            psi = haar_random_pure((2, 2), rng.integers(1 << 31))
            tangle = two_qubit_tangle_and_toa(density(psi))[0]
            assert abs(tangle - pure_tangle(psi, CUT2)) < 1e-13

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            two_qubit_tangle_and_toa(density(haar_random_pure((2, 3), 1)))


def _haar_unitary(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


PHI_PLUS = np.array([1, 0, 0, 1]) / np.sqrt(2)
PHI_MINUS = np.array([1, 0, 0, -1]) / np.sqrt(2)


class TestUhlmannForm:
    """two_qubit_block takes a factor F of rho = F F^dagger ``(..., 4, k)``:
    the mu_i are the singular values of F^T (Y (x) Y) F."""

    @staticmethod
    def bell_mixture_factor(p, k, rng):
        """A factor (4, k) of (U (x) V)(p Phi+ + (1 - p) Phi-)(U (x) V)^dagger:
        tangle (2p - 1)^2 and TOA 1 exactly.  Its two columns, padded with
        zeros to k, are mixed by a Haar unitary on C^k, which leaves rho as
        it is."""
        local = np.kron(_haar_unitary(2, rng), _haar_unitary(2, rng))
        cols = np.zeros((4, k), dtype=complex)
        cols[:, 0] = np.sqrt(p) * (local @ PHI_PLUS)
        cols[:, 1] = np.sqrt(1.0 - p) * (local @ PHI_MINUS)
        return cols @ _haar_unitary(k, rng)

    P_GRID = (0.03, 0.1, 0.25, 0.4, 0.5, 0.55, 0.7, 0.9, 0.97)

    def test_rank_two_bell_mixtures_exact(self):
        # square roots of eigvals(rho rho~) missed this oracle by up to 1.3e-8
        rng = np.random.default_rng(np.random.SeedSequence(2045))
        for p in self.P_GRID:
            factor = self.bell_mixture_factor(p, 2, rng)
            tangle, toa = two_qubit_tangle_and_toa(DensityMatrix(factor @ factor.conj().T, (2, 2)))
            assert abs(tangle - (2 * p - 1) ** 2) <= 1e-13
            assert abs(toa - 1.0) <= 1e-13

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_factor_widths_exact(self, k):
        # k = 2 leaves two mu_i missing, k = 8 takes the QR reduction
        rng = np.random.default_rng(np.random.SeedSequence((2046, k)))
        factors = np.stack([self.bell_mixture_factor(p, k, rng) for p in self.P_GRID])
        tangle, toa = two_qubit_block(factors)
        assert np.abs(tangle - (2 * np.array(self.P_GRID) - 1) ** 2).max() <= 1e-13
        assert np.abs(toa - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_amplitude_factor_equals_eigh_factor(self, k):
        # the amplitude matrix of a Haar state on (2, 2, k) across (0, 1)|2
        # factors its (0, 1) marginal, of rank min(k, 4); the measure entry
        # points take that marginal's eigh factor instead
        cut = Bipartition((0, 1), (2,))
        for seed in range(8):
            psi = haar_random_pure((2, 2, k), np.random.SeedSequence((2047, k, seed)))
            tangle, toa = two_qubit_block(cut_matrices(psi.amplitudes, psi.dims, cut))
            eigh_tangle, eigh_toa = two_qubit_tangle_and_toa(marginal(psi))
            assert abs(tangle - eigh_tangle) <= 1e-13
            assert abs(toa - eigh_toa) <= 1e-13

    def test_rows_equal_one_factor(self):
        rng = np.random.default_rng(2048)
        for k in (1, 3, 4, 6):
            factors = rng.standard_normal((5, 4, k)) + 1j * rng.standard_normal((5, 4, k))
            factors /= np.linalg.norm(factors, axis=(1, 2))[:, None, None]
            tangle, toa = two_qubit_block(factors)
            for b in range(5):
                one = two_qubit_block(factors[b])
                assert (float(one[0]), float(one[1])) == (tangle[b], toa[b])


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


def _pure_or_mixed(dims, kind, seed):
    """A pure row (kind 0) or a rank-``kind`` mixed row over ``dims``."""
    if kind == 0:
        return density(haar_random_pure(dims, seed)).matrix
    return haar_random_mixed(dims, kind, seed).matrix


class TestRoofBlockDispatch:
    """squared_roof_block over whole stacks: pure rows, roof rows and the
    two-qubit closed form in one call, each row as its one-matrix form
    computes it."""

    CONFIG = RoofConfig(restarts=2, max_iters=6, seed=5)

    def test_empty_stack(self):
        cut = Bipartition.split(2, (0,))
        lo, hi = squared_roof_block(np.zeros((0, 6, 6), dtype=complex), (2, 3), cut)
        for col in (lo, hi):
            assert col.values.shape == (0,)
            assert col.methods == []
            assert col.certified_gaps.shape == (0,)

    @pytest.mark.parametrize("dims, a_side", [((2, 3), (0,)), ((3, 2), (1,)), ((2, 3, 2), (0, 2))])
    def test_interleaved_rows_equal_one_matrix_forms(self, dims, a_side):
        cut = Bipartition.split(len(dims), a_side)
        kinds = (0, 2, 0, 0, 3, 2, 0)
        mats = np.stack([_pure_or_mixed(dims, kind, np.random.SeedSequence((41, len(dims), i)))
                         for i, kind in enumerate(kinds)])
        lo, hi = squared_roof_block(mats, dims, cut, self.CONFIG)
        for b, kind in enumerate(kinds):
            rho = DensityMatrix(mats[b], dims)
            for col, one in ((lo, scren(rho, cut, self.CONFIG)), (hi, screnoa(rho, cut, self.CONFIG))):
                assert col.row(b) == one
                assert one.method is (Method.PURE_FORMULA if kind == 0 else Method.ROOF_OPTIMIZER)


class TestRoofBlockDispatchDigest:
    """sha256 over values, methods and gaps of squared_roof_block on
    35 seeded stacks of 0-4 rows, pure and mixed rows interleaved, over 2x2,
    2x3, 3x2, 3x3, 2x4 and three-factor cuts, for MIN, MAX or both.

    Recorded before the non-2x2 dispatch became masked columns over the
    stack, and re-recorded, with every non-2x2 column unchanged, when the
    2x2 closed forms became singular values of the eigh factor (Uhlmann's
    form); like the other digests it is specific to the numpy build
    (numpy 2.4, scipy-openblas 0.3.31 on x86_64) it was recorded with.
    """

    CASES = (((2, 2), (0,)), ((2, 3), (0,)), ((3, 2), (1,)), ((3, 3), (0,)), ((2, 4), (0,)),
             ((2, 3, 2), (0, 2)), ((2, 2, 2), (1,)))
    DIRECTIONS = ((Direction.MIN,), (Direction.MAX,), (Direction.MIN, Direction.MAX))
    STACKS = 35
    DIGEST = "935dc1cd11c11d19c5fb3725ce37ec261c6a744c69117e6c060aeaff8ac7a013"

    @classmethod
    def stack(cls, s):
        rng = np.random.default_rng(np.random.SeedSequence((43, s)))
        dims, a_side = cls.CASES[s % len(cls.CASES)]
        kinds = [(0, 2, 3)[int(rng.integers(3))] for _ in range(int(rng.integers(0, 5)))]
        d = int(np.prod(dims))
        mats = np.stack([_pure_or_mixed(dims, k, np.random.SeedSequence((43, s, i)))
                         for i, k in enumerate(kinds)]) if kinds else np.zeros((0, d, d), complex)
        config = RoofConfig(restarts=int(rng.integers(1, 3)), max_iters=int(rng.integers(2, 6)),
                            seed=int(rng.integers(100)))
        return (mats, dims, Bipartition.split(len(dims), a_side), config,
                cls.DIRECTIONS[int(rng.integers(3))])

    def test_dispatch_digest(self):
        h = hashlib.sha256()
        for s in range(self.STACKS):
            mats, dims, cut, config, directions = self.stack(s)
            for col in squared_roof_block(mats, dims, cut, config, directions):
                h.update(col.values.tobytes())
                h.update(col.certified_gaps.tobytes())
                h.update(" ".join(m.value for m in col.methods).encode() + b";")
        assert h.hexdigest() == self.DIGEST

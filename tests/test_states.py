import itertools
import json

import numpy as np
import pytest

import negmono
from negmono import (
    DensityMatrix,
    PureState,
    analyze,
    density,
    haar_random_mixed,
    haar_random_pure,
    ket,
    partial_trace,
    partial_transpose,
    read_state_json,
    tensor,
    trace_norm,
    write_state_json,
)
from negmono.harness import builtin_state
from negmono.states import (NORM_ATOL, Bipartition, check_density_block, check_pure_block,
                            cut_matrices, marginal_block)


def bell():
    return ket([1, 0, 0, 1], (2, 2))


def brute_partial_trace(mat, dims, keep):
    """Index-loop contraction oracle, independent of the library routine."""
    dims = list(dims)
    n = len(dims)
    drop = [i for i in range(n) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    d_out = int(np.prod(kept_dims))
    out = np.zeros((d_out, d_out), dtype=complex)
    for row in range(mat.shape[0]):
        ridx = np.unravel_index(row, dims)
        for col in range(mat.shape[1]):
            cidx = np.unravel_index(col, dims)
            if all(ridx[i] == cidx[i] for i in drop):
                r_out = np.ravel_multi_index([ridx[i] for i in keep], kept_dims)
                c_out = np.ravel_multi_index([cidx[i] for i in keep], kept_dims)
                out[r_out, c_out] += mat[row, col]
    return out


class TestKet:
    def test_normalizes_bell(self):
        psi = ket([1, 0, 0, 1], (2, 2))
        expect = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(psi.amplitudes, expect)

    def test_antisymmetric_qutrit_amplitudes(self):
        psi = builtin_state("aharonov")
        assert psi.dims == (3, 3, 3)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12
        nonzero = np.flatnonzero(np.abs(psi.amplitudes) > 1e-14)
        assert sorted(nonzero) == [5, 7, 11, 15, 19, 21]
        mags = np.abs(psi.amplitudes[nonzero])
        assert np.allclose(mags, 1 / np.sqrt(6))
        # sign pattern: +|012> -|021> -|102> +|120> +|201> -|210>
        signs = np.sign(np.real(psi.amplitudes[[5, 7, 11, 15, 19, 21]]))
        assert list(signs) == [1, -1, -1, 1, 1, -1]

    def test_already_normalized_unchanged(self):
        psi = ket([1, 0], (2,))
        assert np.allclose(psi.amplitudes, [1, 0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            ket([0, 0], (2,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ket([1, 0, 0], (2, 2))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            ket([1, 0], (2, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ket([bad, 0, 0, 1], (2, 2))

    def test_norm_overflow(self, tmp_path):
        # the entries are finite but their sum of squares is not; this
        # runs under warnings-as-errors, so the overflow must not warn
        psi = ket([1e200, 0, 0, -1e200j], (2, 2))
        assert np.allclose(psi.amplitudes, np.array([1, 0, 0, -1j]) / np.sqrt(2), rtol=0, atol=1e-15)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dims": [2, 2],
                                    "amplitudes": [[1e200, 0], [0, 0], [0, 0], [0, -1e200]]}))
        loaded, norm = read_state_json(path)
        assert (loaded.amplitudes == psi.amplitudes).all()
        assert norm == pytest.approx(np.sqrt(2) * 1e200, rel=1e-15)

    def test_norm_underflow(self, tmp_path):
        # every square underflows to 0, so the plain norm reads 0
        psi = ket([1e-200, 0, 0, -1e-200j], (2, 2))
        assert np.allclose(psi.amplitudes, np.array([1, 0, 0, -1j]) / np.sqrt(2), rtol=0, atol=1e-15)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"dims": [2, 2],
                                    "amplitudes": [[1e-200, 0], [0, 0], [0, 0], [0, -1e-200]]}))
        loaded, norm = read_state_json(path)
        assert (loaded.amplitudes == psi.amplitudes).all()
        assert norm == pytest.approx(np.sqrt(2) * 1e-200, rel=1e-15)

    def test_smallest_subnormal(self, tmp_path):
        assert (ket([5e-324, 0], (2,)).amplitudes == [1, 0]).all()
        assert (ket([0, -5e-324j], (2,)).amplitudes == [0, -1j]).all()
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps({"dims": [2], "amplitudes": [[5e-324, 0], [0, 0]]}))
        loaded, norm = read_state_json(path)
        assert (loaded.amplitudes == [1, 0]).all()
        assert norm == 5e-324

    @pytest.mark.parametrize("zero", [[0, 0], [0.0, -0.0], [0j, -0j, 0, 0]])
    def test_rejects_only_all_zero(self, zero):
        with pytest.raises(ValueError, match="zero vector"):
            ket(zero, (2,) * (len(zero) // 2))
        # any nonzero entry, however small, is a state
        ket([5e-324] + zero[1:], (2,) * (len(zero) // 2))

    def test_unscaled_when_norm_is_finite(self):
        # a vector whose plain norm is finite is divided by it, bit for bit
        rng = np.random.default_rng(13)
        for scale in (1e-10, 1.0, 1e150):
            amps = scale * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
            assert (ket(amps, (2, 3)).amplitudes == amps / np.linalg.norm(amps)).all()

    def test_pure_state_rejects_nan(self):
        # NaN fails no norm comparison, so it is checked for on its own
        with pytest.raises(ValueError, match="non-finite"):
            PureState([np.nan, 0, 0, 0], (2, 2))


class TestNormBoundary:
    """Every state that PureState accepts can be analysed, and so can the
    tensor product of two of them: the squared-norm check leaves room for
    roundoff below the unit-trace check of a density matrix."""

    OFFSETS = [k * 1e-13 for k in range(-12, 13)]

    @staticmethod
    def accepted(unit, dims):
        states = []
        for offset in TestNormBoundary.OFFSETS:
            try:
                states.append(PureState(unit * (1.0 + offset), dims))
            except ValueError:
                pass
        return states

    def test_accepted_states_analyse(self):
        ghz = np.zeros(8)
        ghz[[0, 7]] = 1.0 / np.sqrt(2.0)
        states = self.accepted(ghz, (2, 2, 2))
        assert len(states) >= 9  # every |norm - 1| <= 4e-13 passes
        for psi in states:
            density(psi)
            analyze(psi)

    def test_tensor_of_accepted_states(self):
        states = self.accepted(np.array([0.6, 0.8j]), (2,))
        assert len(states) >= 9
        for a in states:
            for b in states:
                density(tensor(a, b))


class TestTensor:
    def test_basis_product(self):
        zero = ket([1, 0], (2,))
        one = ket([0, 1], (2,))
        psi = tensor(zero, one)
        assert psi.dims == (2, 2)
        assert np.allclose(psi.amplitudes, [0, 1, 0, 0])

    def test_bell_times_zero(self):
        psi = tensor(bell(), ket([1, 0], (2,)))
        expect = np.zeros(8)
        expect[0] = expect[6] = 1 / np.sqrt(2)
        assert np.allclose(psi.amplitudes, expect)

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = haar_random_pure((2, 3), rng.integers(1 << 31))
            b = haar_random_pure((2,), rng.integers(1 << 31))
            assert abs(np.linalg.norm(tensor(a, b).amplitudes) - 1) < 1e-12


class TestDensity:
    def test_computational_basis(self):
        rho = density(ket([1, 0], (2,)))
        assert np.allclose(rho.matrix, np.diag([1, 0]))

    def test_bell_corners(self):
        rho = density(bell())
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[0, 3] = expect[3, 0] = expect[3, 3] = 0.5
        assert np.allclose(rho.matrix, expect)

    def test_purity_one(self):
        rho = density(haar_random_pure((2, 2, 2), 5))
        assert abs(np.trace(rho.matrix @ rho.matrix).real - 1) < 1e-12


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        mat[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix(mat, (2, 2))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 2, (2, 2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex), (2,))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, entry):
        mat = np.eye(4, dtype=complex) / 4
        mat[entry] = mat[entry[::-1]] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(mat, (2, 2))


class TestPartialTrace:
    def test_bell_marginal_maximally_mixed(self):
        red = partial_trace(density(bell()), (0,))
        assert np.allclose(red.matrix, np.eye(2) / 2)

    def test_antisymmetric_marginal_vs_brute_force(self):
        rho = density(builtin_state("aharonov"))
        red = partial_trace(rho, (0,))
        oracle = brute_partial_trace(rho.matrix, rho.dims, [0])
        assert np.allclose(red.matrix, oracle, atol=1e-12)
        assert np.allclose(red.matrix, np.eye(3) / 3, atol=1e-12)

    def test_keep_all_is_identity(self):
        rho = density(haar_random_pure((2, 2), 3))
        red = partial_trace(rho, (0, 1))
        assert np.allclose(red.matrix, rho.matrix)

    def test_trace_preserved_on_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            rho = density(haar_random_pure((2, 3, 2), rng.integers(1 << 31)))
            for keep in [(0,), (1,), (2,), (0, 2), (1, 2)]:
                red = partial_trace(rho, keep)
                assert abs(red.matrix.trace() - 1) < 1e-10
                oracle = brute_partial_trace(rho.matrix, rho.dims, list(keep))
                assert np.allclose(red.matrix, oracle, atol=1e-12)

    def test_tensor_adjointness(self):
        a = haar_random_pure((2, 2), 7)
        b = haar_random_pure((3,), 8)
        red = partial_trace(density(tensor(a, b)), (0, 1))
        assert np.allclose(red.matrix, density(a).matrix, atol=1e-10)

    def test_rejects_invalid_index(self):
        with pytest.raises(ValueError):
            partial_trace(density(bell()), (2,))


def _same_bits(a, b) -> bool:
    # equal bit patterns, so the sign of every zero counts as well
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestMarginalBlock:
    """Reduced states straight from amplitudes equal, bit for bit, the
    partial trace of the projector, for every keep a campaign takes: each
    marginal (0, j) and each collective tail (0, ...)."""

    # a factor of 8 or more, last or in the middle, is summed as long as
    # any other: np.trace adds in index order from +0 on every axis
    DIMS = [(2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 3), (2, 2, 2, 3), (3, 3, 2), (2, 9, 2),
            (9, 2, 2), (2, 17, 2), (2, 2, 8), (2, 2, 2, 9)]

    @staticmethod
    def keeps(n):
        tails = [(0,) + rest for r in range(2, n) for rest in itertools.combinations(range(1, n), r)]
        return [(0, j) for j in range(1, n)] + tails

    def check(self, states):
        dims = states[0].dims
        amps = np.stack([psi.amplitudes for psi in states])
        for keep in self.keeps(len(dims)):
            block = marginal_block(amps, dims, keep)
            for psi, got in zip(states, block):
                assert _same_bits(got, partial_trace(density(psi), keep).matrix), (dims, keep)

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    def test_haar_rows(self, dims):
        self.check([haar_random_pure(dims, (*dims, i)) for i in range(3)])

    @pytest.mark.parametrize("name", ["ghz4", "w3", "product:2,2,2", "w5", "aharonov"])
    def test_exact_zeros(self, name):
        self.check([builtin_state(name)])

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2)], ids=str)
    def test_signed_zeros(self, dims):
        # entries from {0, +-1, +-i}: many products are zeros whose sign
        # follows the order of each sum and the +0 it starts from
        units = np.array([0, 1, -1, 1j, -1j])
        rng = np.random.default_rng(8)
        amps = units[rng.integers(0, 5, size=(12, int(np.prod(dims))))]
        amps[:, 0] = 1
        self.check([ket(a, dims) for a in amps])

    def test_empty_stack(self):
        for keep, d in (((0, 1), 4), ((0, 2, 3), 8)):
            assert marginal_block(np.empty((0, 16), dtype=complex), (2, 2, 2, 2), keep).shape == (0, d, d)


class TestCutLayout:
    """states owns the row-major layout: cut_matrices is the one reshape
    across a cut, and the induced mixed states reduce through
    marginal_block, bit for bit the projector route."""

    MIXED = ([((2, 2), env) for env in (2, 3, 4)] + [((3, 3), 3)]
             + [(dims, env) for dims in ((2, 3), (3, 2), (2, 4), (2, 8), (2, 2, 3))
                for env in range(2, 10)])

    @pytest.mark.parametrize("dims, env", MIXED, ids=str)
    def test_haar_mixed_equals_projector_trace(self, dims, env):
        for seed in (0, 5, np.random.SeedSequence((2026, env, 1))):
            got = haar_random_mixed(dims, env, seed)
            psi = haar_random_pure(dims + (env,), seed)
            want = partial_trace(density(psi), range(len(dims)))
            assert got.dims == want.dims == dims
            assert _same_bits(got.matrix, want.matrix), (dims, env, seed)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 4), (2, 2, 2), (2, 2, 3),
                                      (3, 3, 2), (2, 3, 2), (2, 2, 2, 2)], ids=str)
    def test_cut_matrices_index_map(self, dims):
        n, d = len(dims), int(np.prod(dims))
        for r in range(1, n):
            for a in itertools.combinations(range(n), r):
                b = tuple(i for i in range(n) if i not in a)
                d_a = int(np.prod([dims[i] for i in a]))
                want = np.arange(d).reshape(dims).transpose(a + b).reshape(d_a, -1)
                got = cut_matrices(np.arange(d), dims, Bipartition.split(n, a))
                assert got.dtype == want.dtype and np.array_equal(got, want), (dims, a)

    def test_cut_matrices_of_a_stack_are_the_rows(self):
        amps = np.stack([haar_random_pure((12,), seed).amplitudes for seed in range(4)])
        cut = Bipartition.split(3, (1,))
        stack = cut_matrices(amps, (2, 3, 2), cut)
        assert stack.shape == (4, 3, 4)
        for row, mat in zip(amps, stack):
            assert _same_bits(mat, cut_matrices(row, (2, 3, 2), cut))

    def test_one_cut_type(self):
        assert negmono.Bipartition is negmono.measures.Bipartition is negmono.states.Bipartition


class TestPureBlockCheck:
    """The amplitude check stands in for the projector check of a campaign
    block: every row it accepts gives an outer product that
    check_density_block accepts."""

    @staticmethod
    def rows(seed, d, count=64):
        return np.stack([haar_random_pure((d,), (seed, i)).amplitudes for i in range(count)])

    @pytest.mark.parametrize("d", [4, 16, 32, 27])
    def test_accepted_rows_give_density_matrices(self, d):
        amps = self.rows(1, d)
        # squared norms pushed out to just inside the bound, both ways
        scale = np.sqrt(1.0 + np.linspace(-0.99, 0.99, len(amps)) * NORM_ATOL)
        for block in (amps, amps * scale[:, None]):
            check_pure_block(block)
            check_density_block(block[:, :, None] * block.conj()[:, None, :])

    def test_norm_just_outside_rejected(self):
        amps = self.rows(2, 16, 4)
        for off in (1e-9, -1e-9, 1.01 * NORM_ATOL):
            bad = amps.copy()
            bad[2] *= np.sqrt(1.0 + off)
            with pytest.raises(ValueError, match="not normalized"):
                check_pure_block(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_rejected(self, bad):
        amps = self.rows(3, 16, 4)
        amps[1, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_pure_block(amps)


class TestPartialTranspose:
    def test_bell_eigenvalues(self):
        pt = partial_transpose(density(bell()), (1,))
        eigs = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_product_state_stays_psd(self):
        rho = density(tensor(haar_random_pure((2,), 1), haar_random_pure((2,), 2)))
        pt = partial_transpose(rho, (1,))
        assert np.linalg.eigvalsh(pt).min() > -1e-12

    def test_involution_exact(self):
        rho = density(haar_random_pure((2, 3), 9))
        pt = partial_transpose(rho, (1,))
        back = partial_transpose(pt, (1,), dims=rho.dims)
        assert np.array_equal(back, rho.matrix)

    def test_preserves_trace_and_hermiticity(self):
        rho = density(haar_random_pure((2, 2, 2), 13))
        pt = partial_transpose(rho, (1, 2))
        assert abs(pt.trace() - 1) < 1e-12
        assert np.abs(pt - pt.conj().T).max() < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_raw_matrix(self, bad):
        mat = np.eye(4) / 4
        mat[1, 1] = bad
        with pytest.raises(ValueError, match="matrix has a non-finite entry"):
            partial_transpose(mat, (1,), dims=(2, 2))


class TestTraceNorm:
    def test_sum_of_absolute_eigenvalues(self):
        assert abs(trace_norm(np.diag([0.5, 0.5, 0.5, -0.5])) - 2.0) < 1e-12

    def test_density_matrix_is_one(self):
        rho = density(haar_random_pure((2, 2), 17))
        assert abs(trace_norm(rho.matrix) - 1.0) < 1e-12

    def test_zero_matrix(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    # NaN passed the asymmetry test (nan > tol is False) and came back as
    # nan; inf raised a RuntimeWarning in the subtraction
    @pytest.mark.parametrize("mat", [np.full((2, 2), np.nan), [[np.inf, 0.0], [0.0, 1.0]]],
                             ids=["nan", "inf"])
    def test_rejects_non_finite(self, mat):
        with pytest.raises(ValueError, match="matrix has a non-finite entry"):
            trace_norm(mat)

    def test_pt_trace_norm_at_least_one(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho = density(haar_random_pure((2, 2, 2), rng.integers(1 << 31)))
            assert trace_norm(partial_transpose(rho, (2,))) >= 1 - 1e-10


class TestHaarSampling:
    def test_deterministic_given_seed(self):
        a = haar_random_pure((2, 2, 2), 7)
        b = haar_random_pure((2, 2, 2), 7)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_normalized(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            psi = haar_random_pure((2, 2), rng.integers(1 << 31))
            assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12

    @pytest.mark.parametrize("dims,expected", [((2, 2), 0.8), ((3, 3), 0.6)])
    def test_mean_marginal_purity(self, dims, expected):
        # Monte Carlo oracle for the first-moment of the marginal purity,
        # expected value (dA + dB) / (dA * dB + 1)
        n = 40_000
        rng = np.random.default_rng(2024)
        d = dims[0] * dims[1]
        z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        mats = z.reshape(n, dims[0], dims[1])
        gram = np.einsum("nab,ncb->nac", mats, mats.conj())
        purity = np.einsum("nac,nca->n", gram, gram).real
        assert abs(purity.mean() - expected) < 0.01
        # the library sampler matches the oracle distribution
        sample = [
            np.trace(
                (m := partial_trace(density(haar_random_pure(dims, (77, i))), (0,)).matrix) @ m
            ).real
            for i in range(3000)
        ]
        assert abs(np.mean(sample) - expected) < 0.02

    def test_mixed_sampler_rank_and_validity(self):
        rho = haar_random_mixed((2, 2), 2, 5)
        evals = np.linalg.eigvalsh(rho.matrix)
        assert (evals > 1e-10).sum() == 2
        full = haar_random_mixed((2, 2), 4, 5)
        assert (np.linalg.eigvalsh(full.matrix) > 1e-10).sum() == 4


class TestStateJson:
    def test_round_trip(self, tmp_path):
        psi = haar_random_pure((2, 3), 19)
        path = tmp_path / "state.json"
        write_state_json(psi, path)
        loaded, norm = read_state_json(path)
        assert loaded.dims == psi.dims
        assert abs(norm - 1) < 1e-12
        assert np.allclose(loaded.amplitudes, psi.amplitudes)

    def test_reader_normalizes_and_reports_factor(self, tmp_path):
        path = tmp_path / "unnorm.json"
        path.write_text(json.dumps({"dims": [2, 2], "amplitudes": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
        psi, norm = read_state_json(path)
        assert abs(norm - np.sqrt(2)) < 1e-12
        assert np.allclose(psi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_reader_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [2, 2], "amplitudes": [[1, 0]]}))
        with pytest.raises(ValueError):
            read_state_json(path)

    # json.load reads NaN and Infinity
    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_reader_rejects_non_finite(self, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2], "amplitudes": [[%s, 0], [0, 0], [0, 0], [1, 0]]}' % bad)
        with pytest.raises(ValueError, match="non-finite"):
            read_state_json(path)

    def test_reader_rejects_zero_vector(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"dims": [2], "amplitudes": [[0, 0], [0, 0]]}))
        with pytest.raises(ValueError):
            read_state_json(path)

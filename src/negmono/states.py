"""Dense complex linear algebra for small multipartite quantum states.

Every state carries an explicit tuple of local dimensions.  Subsystem 0 is
the leftmost tensor factor and amplitudes are laid out row-major, so the
basis index of ``|a b c>`` on dims ``(dA, dB, dC)`` is ``(a*dB + b)*dC + c``.
This module owns that layout and the cut type: :func:`cut_matrices` of a
:class:`Bipartition` is the one reshape of amplitudes across a cut.
All values are immutable after construction and every operation is a pure
function, so concurrent use needs no locking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod

import numpy as np

HERM_ATOL = 1e-12
# on the squared norm, which is a state's trace: roundoff room below HERM_ATOL
NORM_ATOL = 9e-13
PSD_ATOL = 1e-10


def validate_dims(dims) -> tuple[int, ...]:
    """Normalize a sequence of local dimensions to a tuple of ints >= 2."""
    out = tuple(int(d) for d in dims)
    if not out:
        raise ValueError("dims must contain at least one tensor factor")
    if any(d < 2 for d in out):
        raise ValueError(f"dims must have every local dimension >= 2, got {out}")
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


_PY_POW = np.frompyfunc(pow, 2, 1)


def float_pow(x, y) -> np.ndarray:
    """``x ** y`` elementwise through Python's float ``pow``.

    ``np.power`` rounds differently from the C ``pow`` behind Python's
    ``**`` (on an AVX-512 host it differs on a few percent of values), so
    every power a report carries goes through here to stay bit for bit
    the value a scalar ``**`` gives.  Inputs broadcast and are cast to
    Python floats first; the result is a float array (0-d for scalars).
    """
    return np.asarray(_PY_POW(np.asarray(x, dtype=float), np.asarray(y, dtype=float)), dtype=float)


def require_finite(values: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first NaN or infinite entry of ``values``."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} has a non-finite entry {values[~np.isfinite(values)][0]}")


def check_pure_block(amps: np.ndarray) -> None:
    """The :class:`PureState` checks (finite entries, squared norm 1
    within 9e-13) on a vector or on every row of a stack ``(rows, d)``;
    the first failure raises.

    A row that passes gives a projector a a† that passes
    :func:`check_density_block`: it is Hermitian, its trace is the squared
    norm, and its eigenvalues are that norm and zeros, up to roundoff."""
    require_finite(amps, "state vector")
    off = np.abs((amps.real * amps.real + amps.imag * amps.imag).sum(axis=-1) - 1.0)
    if not (off <= NORM_ATOL).all():
        raise ValueError(f"state vector is not normalized: |norm^2 - 1| = {off.max():.3e}")


def check_density_block(mats: np.ndarray) -> None:
    """The :class:`DensityMatrix` checks (finite entries, Hermitian within
    1e-12, unit trace within 1e-12, no eigenvalue below -1e-10) on a
    matrix or on every matrix of a stack ``(..., d, d)``; the first
    failure raises."""
    require_finite(mats, "matrix")
    herm = mats.conj().swapaxes(-1, -2)
    asym = np.abs(mats - herm).max(axis=(-2, -1))
    if not (asym <= HERM_ATOL).all():
        raise ValueError(f"matrix is not Hermitian: max asymmetry {asym.max():.3e}")
    tr = np.trace(mats, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0)
    if not (off <= HERM_ATOL).all():
        raise ValueError(f"matrix trace {tr.flat[off.argmax()]} is not 1")
    herm += mats  # the Hermitian part, in place: a stack can be large
    herm *= 0.5
    min_eig = np.linalg.eigvalsh(herm).min(axis=-1)
    if not (min_eig >= -PSD_ATOL).all():
        raise ValueError(f"matrix has negative eigenvalue {min_eig.min():.3e}")


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over explicit tensor factors.

    Attributes
    ----------
    amplitudes : np.ndarray
        Complex vector of length ``prod(dims)`` with squared Euclidean
        norm 1 (within 9e-13).
    dims : tuple[int, ...]
        Local dimension of each tensor factor, leftmost first.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = validate_dims(self.dims)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != prod(dims):
            raise ValueError(
                f"amplitude length {amps.size} does not match dims {dims} "
                f"(product {prod(dims)})"
            )
        check_pure_block(amps)
        object.__setattr__(self, "amplitudes", _frozen(amps))
        object.__setattr__(self, "dims", dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix with tensor factors."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = validate_dims(self.dims)
        mat = np.array(self.matrix, dtype=complex)
        d = prod(dims)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        check_density_block(mat)
        object.__setattr__(self, "matrix", _frozen(mat))
        object.__setattr__(self, "dims", dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)


def _norm(amps: np.ndarray) -> tuple[float, float]:
    """``(scale, norm)``: ``norm`` is the Euclidean norm of ``amps / scale``,
    so ``scale * norm`` is that of the finite ``amps`` (0 for a zero vector).

    scale is 1 unless the plain norm overflows, where it is the largest
    real or imaginary magnitude, or falls below 1e-14, where it is the
    power of two just above that magnitude (at least 2**-1021, so that
    dividing by it is exact and its reciprocal finite)."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(amps)
    if 1e-14 <= norm < np.inf:
        return 1.0, norm
    scale = max(np.abs(amps.real).max(initial=0.0), np.abs(amps.imag).max(initial=0.0))
    if norm < np.inf:
        scale = float(np.ldexp(1.0, max(int(np.frexp(scale)[1]), -1021)))
    return scale, np.linalg.norm(amps / scale)


def ket(amplitudes, dims) -> PureState:
    """Build a normalized :class:`PureState` from raw amplitudes.

    The input is normalized, also where its norm overflows or underflows;
    an all-zero or non-finite vector or a length mismatch raises
    ``ValueError``.
    """
    dims = validate_dims(dims)
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    require_finite(amps, "state vector")
    scale, norm = _norm(amps)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return PureState(amps / scale / norm, dims)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor (Kronecker) product of two pure states, renormalized; dims concatenate."""
    return ket(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims)


def density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector ``|psi><psi|`` as a :class:`DensityMatrix`."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.dims)


def _check_subsystems(indices, n: int, *, allow_empty: bool = False) -> tuple[int, ...]:
    idx = sorted({int(i) for i in indices})
    if not idx and not allow_empty:
        raise ValueError("subsystem index set must be nonempty")
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError(f"subsystem indices {idx} out of range for {n} factors")
    return tuple(idx)


@dataclass(frozen=True)
class Bipartition:
    """A cut of the tensor factors into a nonempty A side and its complement."""

    a_side: tuple[int, ...]
    b_side: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a_side", tuple(sorted(int(i) for i in self.a_side)))
        object.__setattr__(self, "b_side", tuple(sorted(int(i) for i in self.b_side)))

    @classmethod
    def split(cls, n_factors: int, a_side) -> "Bipartition":
        """A-side indices against the complement within ``n_factors`` factors."""
        a = tuple(sorted({int(i) for i in a_side}))
        b = tuple(i for i in range(n_factors) if i not in a)
        cut = cls(a, b)
        cut.validate(n_factors)
        return cut

    def validate(self, n_factors: int) -> None:
        a, b = set(self.a_side), set(self.b_side)
        if not a or not b:
            raise ValueError("both sides of a bipartition must be nonempty")
        if a & b:
            raise ValueError(f"bipartition sides overlap: {sorted(a & b)}")
        if a | b != set(range(n_factors)):
            raise ValueError(
                f"bipartition {sorted(a)}|{sorted(b)} does not cover all {n_factors} factors"
            )


def cut_matrices(amps: np.ndarray, dims: tuple[int, ...], cut: Bipartition) -> np.ndarray:
    """Amplitude vectors ``(..., prod(dims))`` as matrices ``(..., d_A, d_B)``
    across a cut already checked against ``dims``: row and column run
    row-major over the A and the B factors, each side in index order.
    Applied to ``np.arange(prod(dims))`` it gives the index map of the cut."""
    lead = amps.shape[:-1]
    axes = tuple(range(len(lead))) + tuple(len(lead) + i for i in cut.a_side + cut.b_side)
    t = amps.reshape(lead + tuple(dims)).transpose(axes)
    return t.reshape(lead + (prod(dims[i] for i in cut.a_side), prod(dims[i] for i in cut.b_side)))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every factor not listed in ``keep``.

    The result keeps the retained factors in their original order and
    preserves the trace exactly up to roundoff.
    """
    keep = _check_subsystems(keep, rho.n_factors)
    cur = list(rho.dims)
    t = rho.matrix.reshape(rho.dims * 2)
    for i in sorted(set(range(len(cur))) - set(keep), reverse=True):
        t = np.trace(t, axis1=i, axis2=i + len(cur))
        del cur[i]
    d = prod(cur)
    return DensityMatrix(t.reshape(d, d), tuple(cur))


def marginal_block(amps: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """The reduced states on the sorted factors ``keep`` of every row of an
    amplitude stack ``(rows, prod(dims))``, unvalidated, without building
    the projector stack a a†.

    Each entry sums the products a_i conj(a_j) that the projector holds
    over the dropped factors, the last one innermost, each sum adding in
    index order from +0 as ``np.trace`` does: so every result is bit for
    bit :func:`partial_trace` of the projector, signed zeros too."""
    drop = [i for i in range(len(dims)) if i not in keep]
    a = cut_matrices(amps, dims, Bipartition(keep, drop))
    rows, d_keep, rest = a.shape
    t = a[:, :, None, :] * a.conj()[:, None, :, :]
    for size in reversed([dims[i] for i in drop]):
        rest //= size
        t = t.reshape(rows, d_keep, d_keep, rest, size)
        total = np.zeros(t.shape[:-1], dtype=complex)
        for k in range(size):
            total += t[..., k]
        t = total
    return t.reshape(rows, d_keep, d_keep)


def partial_transpose(rho, subsystems, dims=None) -> np.ndarray:
    """Transpose the listed factors; returns a plain Hermitian matrix.

    ``rho`` is a :class:`DensityMatrix`, or any Hermitian matrix when
    ``dims`` is given (the output of a partial transposition is generally
    not positive, so round trips need the raw form).  Applying the same
    transposition twice returns the original matrix exactly, and the
    trace is untouched.
    """
    if isinstance(rho, DensityMatrix):
        mat, dims = rho.matrix, rho.dims
    else:
        if dims is None:
            raise ValueError("dims is required for a raw matrix input")
        dims = validate_dims(dims)
        mat = np.asarray(rho, dtype=complex)
    n = len(dims)
    subs = _check_subsystems(subsystems, n, allow_empty=True)
    t = mat.reshape(dims + dims)
    axes = list(range(2 * n))
    for i in subs:
        axes[i], axes[i + n] = axes[i + n], axes[i]
    d = mat.shape[0]
    return t.transpose(axes).reshape(d, d)


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix.

    Inputs with asymmetry up to 1e-12 are symmetrized before the
    eigensolve; anything beyond that is rejected rather than silently
    repaired.
    """
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    asym = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
    if asym > HERM_ATOL:
        raise ValueError(f"matrix is not Hermitian within tolerance: asymmetry {asym:.3e}")
    sym = (mat + mat.conj().T) / 2.0
    return float(np.abs(np.linalg.eigvalsh(sym)).sum())


def haar_amplitudes(d: int, seeds) -> np.ndarray:
    """Haar-distributed unit vectors in C^d, one row per seed: a stack
    ``(rows, d)``.

    Row i is drawn from ``numpy.random.default_rng(seeds[i])`` alone (real
    parts, then imaginary parts) and divided by its own norm, so it does
    not depend on the other rows.
    """
    draws = [np.random.default_rng(seed).standard_normal(2 * d) for seed in seeds]
    g = np.reshape(draws, (-1, 2, d))
    z = g[:, 0] + 1j * g[:, 1]
    return z / np.reshape([np.linalg.norm(row) for row in z], (-1, 1))


def haar_random_pure(dims, seed) -> PureState:
    """Draw a Haar-distributed pure state, reproducible bit-for-bit from ``seed``.

    ``seed`` may be an int or anything ``numpy.random.default_rng`` accepts
    (e.g. a ``SeedSequence``).  This is the one-row case of
    :func:`haar_amplitudes`.
    """
    dims = validate_dims(dims)
    return PureState(haar_amplitudes(prod(dims), [seed])[0], dims)


def haar_random_mixed(dims, env_dim: int, seed) -> DensityMatrix:
    """Induced random mixed state: Haar pure state on ``dims + (env_dim,)``,
    environment traced out by :func:`marginal_block`; ``env_dim`` bounds its rank."""
    dims = validate_dims(dims)
    psi = haar_random_pure(dims + (int(env_dim),), seed)
    return DensityMatrix(marginal_block(psi.amplitudes[None], psi.dims, range(len(dims)))[0], dims)


def state_to_json_dict(psi: PureState) -> dict:
    return {
        "dims": list(psi.dims),
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }


def write_state_json(psi: PureState, path) -> None:
    """Write a state in the interchange format ``{"dims": [...], "amplitudes": [[re, im], ...]}``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json_dict(psi), fh)
        fh.write("\n")


def read_state_json(path) -> tuple[PureState, float]:
    """Read a state file, normalizing if needed.

    Returns the normalized state together with the norm of the raw vector
    (the applied normalization factor; 1.0 means the file was already
    normalized).
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]], dtype=complex)
        psi = ket(amps, data["dims"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
    scale, norm = _norm(amps)
    return psi, float(scale * norm)

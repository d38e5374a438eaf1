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
import numbers
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

    ``rho`` is a :class:`DensityMatrix`, or any finite Hermitian matrix
    when ``dims`` is given (the output of a partial transposition is
    generally not positive, so round trips need the raw form).  Applying
    the same transposition twice returns the original matrix exactly, and
    the trace is untouched.
    """
    if isinstance(rho, DensityMatrix):
        mat, dims = rho.matrix, rho.dims
    else:
        if dims is None:
            raise ValueError("dims is required for a raw matrix input")
        dims = validate_dims(dims)
        mat = np.asarray(rho, dtype=complex)
        require_finite(mat, "matrix")
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
    eigensolve; anything beyond that, and any NaN or infinite entry, is
    rejected rather than silently repaired.
    """
    mat = np.asarray(m, dtype=complex)
    require_finite(mat, "matrix")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    asym = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
    if asym > HERM_ATOL:
        raise ValueError(f"matrix is not Hermitian within tolerance: asymmetry {asym:.3e}")
    sym = (mat + mat.conj().T) / 2.0
    return float(np.abs(np.linalg.eigvalsh(sym)).sum())


def _haar_rows(d: int, generators) -> np.ndarray:
    """The draw-and-normalize body of the Haar samplers: row i is the
    next ``2 d`` standard normals of the i-th generator (real parts, then
    imaginary parts) divided by their norm, a stack ``(rows, d)``.

    The norm is ``np.linalg.norm``'s, bit for bit: the square root of the
    dot products of the real parts and of the imaginary parts, each a
    BLAS dot over the stride-2 views of a complex row.  ``np.vecdot``
    (numpy 2.0 on) runs that same dot per row, where ``einsum`` and a
    row sum add in another order."""
    draws = [rng.standard_normal(2 * d) for rng in generators]
    g = np.reshape(draws, (-1, 2, d))
    z = g[:, 0] + 1j * g[:, 1]
    re, im = z.real, z.imag
    return z / np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[:, None]


def haar_amplitudes(d: int, seeds) -> np.ndarray:
    """Haar-distributed unit vectors in C^d, one row per seed: a stack
    ``(rows, d)``.

    Row i is drawn from ``numpy.random.default_rng(seeds[i])`` alone, so
    it does not depend on the other rows.  Normalizing uses
    ``np.vecdot``, so this needs numpy 2.0 or later.
    """
    return _haar_rows(d, (np.random.default_rng(seed) for seed in seeds))


# numpy's SeedSequence (NEP 19): its pool size, the uint32 hash constants
# of its entropy mix (A) and of generate_state (B), and its mix
# multipliers; then the multiplier of PCG64's 128-bit LCG
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(n: int) -> list[int]:
    """The little-endian uint32 words of ``n >= 0`` (0 is one word), as
    SeedSequence reads an integer."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value, n: int, init: int = _INIT_A, mult: int = _MULT_A):
    """SeedSequence's n-th hashmix of a uint32 ``value``: its running hash
    constant depends on n alone.  ``value`` is an int or a uint64 array of
    uint32 values, one per row; the result is of the same kind."""
    xor = init * pow(mult, n, 1 << 32) & _MASK32
    value = (value ^ xor) * (xor * mult & _MASK32) & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    out = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return out ^ out >> 16


def _mix_in(pool: list, words, n: int) -> int:
    """Mix ``words`` in turn into every pool word, as SeedSequence mixes
    entropy beyond its pool, numbering the hashmix calls from n; returns
    the next call number."""
    for word in words:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, n))
            n += 1
    return n


def _keyed_pcg64_states(entropy: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``default_rng(SeedSequence(entropy,
    spawn_key=(i,)))`` starts from, for i from ``start`` to ``stop - 1``.

    The entropy's words are mixed once; each key word then goes into a
    uint64 array of every row's pool, where products of two uint32 values
    do not overflow.  The rows run in spans that share the key's words
    above the lowest, so a span's keys have one word count.  PCG64 seeds
    from ``generate_state(4, uint64)``: the first two words are s, the
    last two t, and its state is ``(inc + s) * MULT + inc`` mod 2**128
    with ``inc = 2 t + 1``."""
    run = _uint32_words(entropy)
    run += [0] * (_POOL - len(run))  # a spawn key pads the entropy to the pool
    pool = [_hashmix(word, n) for n, word in enumerate(run[:_POOL])]
    n = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], n))
                n += 1
    n = _mix_in(pool, run[_POOL:], n)

    states = []
    while start < stop:
        high = start >> 32
        end = min(stop, (high + 1) << 32)
        low = np.arange(start & _MASK32, (start & _MASK32) + end - start, dtype=np.uint64)
        rows = [np.full(end - start, word, dtype=np.uint64) for word in pool]
        _mix_in(rows, [low] + (_uint32_words(high) if high else []), n)
        out = [_hashmix(rows[i % _POOL], i, _INIT_B, _MULT_B) for i in range(8)]
        s_hi, s_lo, t_hi, t_lo = ((out[2 * i] | out[2 * i + 1] << 32).tolist() for i in range(4))
        for s_hi_i, s_lo_i, t_hi_i, t_lo_i in zip(s_hi, s_lo, t_hi, t_lo):
            inc = (t_hi_i << 64 | t_lo_i) << 1 & _MASK128 | 1
            states.append(((inc + (s_hi_i << 64 | s_lo_i)) * _PCG64_MULT + inc & _MASK128, inc))
        start = end
    return states


def _is_index(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def keyed_haar_amplitudes(d: int, entropy: int, start: int, stop: int) -> np.ndarray:
    """Haar-distributed unit vectors in C^d for the stream keys ``start``
    to ``stop - 1`` of ``entropy``, one row each: row i - start is the
    draw of :func:`haar_amplitudes` from the seed
    ``SeedSequence(entropy, spawn_key=(i,))``, bit for bit.

    The streams are derived in one pass (:func:`_keyed_pcg64_states`) and
    drawn through one generator whose state is set per row, so no
    SeedSequence or generator is built per row.  ``entropy``, ``start``
    and ``stop`` must be integers (not bools) with ``entropy >= 0`` and
    ``0 <= start <= stop``.
    """
    if not (_is_index(start) and _is_index(stop) and 0 <= start <= stop):
        raise ValueError(f"stream keys must be integers 0 <= start <= stop, "
                         f"got start={start!r}, stop={stop!r}")
    if not (_is_index(entropy) and entropy >= 0):
        raise ValueError(f"entropy must be an integer >= 0, got {entropy!r}")
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator

    def streams():
        for state, inc in _keyed_pcg64_states(int(entropy), int(start), int(stop)):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            yield rng

    return _haar_rows(d, streams())


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

"""Optimization of decomposition roofs of the mean pure-state negativity.

A density matrix of rank r has pure-state decompositions in one-to-one
correspondence with m x r matrices V having orthonormal columns (m >= r):
the unnormalized members are ``v_k = sum_j V[k, j] * sqrt(q_j) |phi_j>``
built from the eigendecomposition ``{q_j, |phi_j>}``.  The roof value is
the min (or max) over V of ``sum_k p_k N(|psi_k>)``, searched by local
moves in the row space of V: generic cuts use derivative-free pairwise
rotations with step control, while 2x2-by-2x2 cuts get closed-form
per-pair solves (a Takagi factorization of the pair's determinant form).

The generic search is bound by per-call overhead on tiny arrays, so it
batches its candidates into at most two objective calls per row pair,
with rotation blocks cached per step size, and it runs in lockstep with
the other searches of its block.  ``_coordinate_search`` and the restart
loop ``_roof_search`` are generators: each yields the stack of rows it
needs evaluated and is sent back their ``_Objective.contribs`` values
(the exact pair search never yields).  :func:`optimize_roof_block`
drives every search of a stack of density matrices that share dims and
cut: each round it concatenates the pending requests of all searches,
makes one ``contribs`` call and hands each search its slice; once one
search is left it feeds that search directly.  ``contribs`` is row-wise
to the last bit, so a row's value never depends on its batch: every
search takes the trajectory it takes alone, and :func:`optimize_roof` is
the block of one.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from math import prod

import numpy as np

from .states import DensityMatrix, PureState

RANK_ATOL = 1e-12
ISOMETRY_ATOL = 1e-10
_IMPROVE_EPS = 1e-15
# mean negativity is nonnegative, so a minimization can stop at this floor
_MIN_FLOOR = 1e-8


class Direction(Enum):
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class RoofConfig:
    """Knobs for :func:`optimize_roof`.

    ``cardinality`` is the decomposition size m (defaults to min(r*r, 16),
    never below the rank r).  ``max_iters`` caps coordinate sweeps per
    restart.  ``step_tolerance`` governs only the generic search, which
    otherwise stops once its trial rotation angle shrinks below it; the
    exact pair search of 2x2-by-2x2 cuts has no step to shrink and stops
    on a sweep's gain instead.  A nonzero ``value_floor`` lets a
    minimization return as soon as the mean negativity drops below it
    (the result is an upper bound on the infimum either way, so callers
    that only need the value to that precision can save the extra work).
    """

    cardinality: int | None = None
    restarts: int = 32
    max_iters: int = 600
    step_tolerance: float = 1e-7
    seed: int = 0
    direction: Direction = Direction.MIN
    value_floor: float = 0.0
    squared_tolerance: float = 0.0

    def __post_init__(self):
        ints = ("restarts", "max_iters", "seed") + (() if self.cardinality is None else ("cardinality",))
        for name in ints + ("step_tolerance", "value_floor", "squared_tolerance"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if name in ints else numbers.Real):
                kind = "an integer" if name in ints else "a number"
                raise ValueError(f"{name} must be {kind}, got {value!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.step_tolerance <= 0:
            raise ValueError("step_tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.value_floor < 0 or self.squared_tolerance < 0:
            raise ValueError("value_floor and squared_tolerance must be nonnegative")

    @property
    def min_floor(self) -> float:
        return max(_MIN_FLOOR, self.value_floor)

    def value_slack(self, value: float) -> float:
        """Pre-squared precision implied by ``squared_tolerance`` at ``value``.

        ``|v^2 - u^2| ~ 2 v |v - u|``, so a caller content with the squared
        value to ``squared_tolerance`` needs v itself only to this slack;
        zero when no squared tolerance was requested.  The denominator is
        floored so that near-zero searches stay precise: there the true
        value may be 0 and the error is ``v^2`` itself, which only the
        full-precision descent plus ``value_floor`` control.
        """
        if self.squared_tolerance <= 0.0:
            return 0.0
        return self.squared_tolerance / (2.0 * (abs(value) + 0.05))


@dataclass
class RoofResult:
    """Best decomposition found: ``value`` is the mean negativity before squaring."""

    value: float
    weights: np.ndarray
    states: list[PureState]
    restart_spread: float


def _eig_base(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """Columns sqrt(q_j)|phi_j> of the eigendecomposition, rank-truncated."""
    w, u = np.linalg.eigh(matrix)
    order = np.argsort(w)[::-1]
    w = w[order]
    u = u[:, order]
    r = int((w > RANK_ATOL).sum())
    if r == 0:
        raise ValueError("density matrix has numerically zero rank")
    return u[:, :r] * np.sqrt(w[:r]), r


def _members(base: np.ndarray, dims: tuple[int, ...], V: np.ndarray):
    """``(weights, states)`` of the decomposition that the isometry ``V``
    selects from the eigenbase ``base``, zero-weight members dropped."""
    rows = V @ base.T
    weights = np.real((rows * rows.conj()).sum(axis=1))
    kept = [k for k in range(rows.shape[0]) if weights[k] > 1e-14]
    return (np.array([weights[k] for k in kept]),
            [PureState(rows[k] / np.sqrt(weights[k]), dims) for k in kept])


def decomposition_from_isometry(rho: DensityMatrix, V: np.ndarray):
    """Pure-state decomposition of ``rho`` selected by the isometry ``V``.

    ``V`` must have shape (m, r) with orthonormal columns, r = rank(rho).
    Returns ``(weights, states)`` with ``sum_k weights[k] |psi_k><psi_k|``
    reconstructing ``rho``.  Members with numerically zero weight are
    dropped from the state list.
    """
    base, r = _eig_base(rho.matrix)
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2 or V.shape[1] != r or V.shape[0] < r:
        raise ValueError(
            f"isometry shape {V.shape} incompatible with rank {r}: expected (m >= {r}, {r})"
        )
    gram_err = np.abs(V.conj().T @ V - np.eye(r)).max()
    if gram_err > ISOMETRY_ATOL:
        raise ValueError(f"V does not have orthonormal columns: deviation {gram_err:.3e}")
    return _members(base, rho.dims, V)


class _Objective:
    """Cached machinery for evaluating sum_k ||reshape(v_k)||_1^2 - 1.

    For an unnormalized member v with nuclear norm t of its cut-reshaped
    matrix, ``p * N(psi) = t^2 - p``; summing over a decomposition gives
    ``f = sum_k t_k^2 - 1``.  When either side of the cut has dimension 2,
    the nuclear norm comes from the closed form
    ``t^2 = tr(G) + 2*sqrt(det(G))`` with G the 2x2 Gram matrix of the
    rows (or columns) of the reshaped member.  A 2x2-by-2x2 cut is flagged
    as ``det_mode``: there ``t^2 = ||v||^2 + 2 |det|`` with det an actual
    quadratic form of the member, which unlocks the exact per-pair solver.

    ``rho`` is a :class:`DensityMatrix` or a ``(matrix, dims)`` pair of a
    matrix that is already checked.  ``contribs`` depends on the dims and
    the cut alone, so one objective's ``contribs`` serves every density
    matrix with the same dims and cut.
    """

    def __init__(self, rho, a_side, b_side):
        matrix, dims = (rho.matrix, rho.dims) if isinstance(rho, DensityMatrix) else rho
        self.dims = dims
        self.d_a = prod(dims[i] for i in a_side)
        self.d_b = prod(dims[i] for i in b_side)
        index = np.arange(prod(dims)).reshape(dims).transpose(tuple(a_side) + tuple(b_side))
        self.perm = index.reshape(self.d_a, self.d_b)
        if self.d_b == 2 and self.d_a != 2:
            self.perm = self.perm.T  # orient the 2-dim side first for the Gram fast path
            self.d_a, self.d_b = self.d_b, self.d_a
        self.det_mode = self.d_a == 2 and self.d_b == 2
        self.perm_flat = tuple(int(i) for i in self.perm.reshape(-1))
        # state-space indices of the two rows of the reshaped member, for
        # the Gram fast path
        self.half_rows = tuple(np.ascontiguousarray(half) for half in self.perm[:2])
        self.base, self.rank = _eig_base(matrix)

    def rows_of(self, V: np.ndarray) -> np.ndarray:
        return V @ self.base.T

    def contribs(self, rows: np.ndarray) -> np.ndarray:
        """Nuclear-norm-squared of each row's cut-reshaped matrix.

        Each row's value depends on that row alone, bit for bit, however
        many rows come in one call; the coordinate search relies on this.
        """
        if self.d_a == 2:
            x = rows[:, self.half_rows[0]]
            y = rows[:, self.half_rows[1]]
            yc = y.conj()
            g00 = np.einsum("kb,kb->k", x, x.conj()).real
            g11 = np.einsum("kb,kb->k", y, yc).real
            g01 = np.einsum("kb,kb->k", x, yc)
            det = np.maximum(g00 * g11 - np.abs(g01) ** 2, 0.0)
            return g00 + g11 + 2.0 * np.sqrt(det)
        s = np.linalg.svd(rows[:, self.perm], compute_uv=False)
        return s.sum(axis=1) ** 2


def _solve_pair(di: complex, dj: complex, b: complex,
                minimize: bool) -> tuple[float, float, float]:
    """Optimize ``|det_i'| + |det_j'|`` over one pair rotation (theta, phi).

    Rotating rows (x_i, x_j) by [[c, s w], [-s conj(w), c]] with
    c = cos(theta), s = sin(theta), w = exp(i phi) maps the pair's
    determinants to

        det_i' = c^2 di + c s w b + s^2 w^2 dj
        det_j' = conj(w)^2 (s^2 di - c s w b + c^2 w^2 dj)

    where b is the cross bilinear of the det form.  With x = (c, s w) and
    the complex symmetric Q = [[di, b/2], [b/2, dj]] these are
    ``det_i' = x^T Q x`` and ``|det_j'| = |y^T Q y|`` for the unit y
    orthogonal to x.  In the Takagi form Q = U diag(s1, s2) U^T with
    s1 >= s2 >= 0 the objective ranges exactly over [s1 - s2, s1 + s2]:
    the maximum is at x = conj(U) e1, the minimum at
    x = conj(U) (1, i)/sqrt(2), the middle of an interval of minimizers
    where neither determinant sits on the kink of |.|.  The first Takagi
    vector u = p + i q is the top eigenvector [p; q] of the real symmetric
    [[Re Q, Im Q], [Im Q, -Re Q]], which stays valid when s1 = s2.
    Returns (value, theta, phi) with value evaluated at the returned
    angles and never worse than theta = 0.
    """
    sign = 1.0 if minimize else -1.0
    h = 0.5 * b
    m = np.array(
        [
            [di.real, h.real, di.imag, h.imag],
            [h.real, dj.real, h.imag, dj.imag],
            [di.imag, h.imag, -di.real, -h.real],
            [h.imag, dj.imag, -h.real, -dj.real],
        ]
    )
    top = np.linalg.eigh(m)[1][:, -1]
    # the maximizer x = conj(u) = p - i q
    x0 = complex(top[0], -top[2])
    x1 = complex(top[1], -top[3])
    if minimize:
        # z spans the orthogonal complement of the maximizer, and the cross
        # term x^T Q z vanishes there, so mixing the two halfway with the
        # phase that anti-aligns z^T Q z against s1 gives s1 - s2
        z0, z1 = -x1.conjugate(), x0.conjugate()
        qz = di * z0 * z0 + b * z0 * z1 + dj * z1 * z1
        rot = 1j * cmath.exp(-0.5j * cmath.phase(qz))
        x0, x1 = (x0 + rot * z0) / math.sqrt(2.0), (x1 + rot * z1) / math.sqrt(2.0)
    theta = math.atan2(abs(x1), abs(x0))
    phi = cmath.phase(x1) - cmath.phase(x0)
    c, s = math.cos(theta), math.sin(theta)
    w = complex(math.cos(phi), math.sin(phi))
    csw = c * s * w
    w2 = w * w
    val = abs(c * c * di + csw * b + s * s * w2 * dj) + abs(s * s * di - csw * b + c * c * w2 * dj)
    base = abs(di) + abs(dj)
    if sign * val > sign * base:
        return base, 0.0, 0.0
    return val, theta, phi


def _pair_exact_search(obj: _Objective, V: np.ndarray, cfg: RoofConfig) -> tuple[float, np.ndarray]:
    """Block-coordinate descent with exact per-pair solves (det_mode cuts).

    Each sweep moves every row pair (i, j) of V to the exact optimum of
    ``|det_i| + |det_j|`` over the pair's whole rotation plane
    (``_solve_pair``); the Frobenius part of the objective is invariant,
    and so are row phases.  Pair rotations and row phases generate U(m),
    which acts transitively on the isometries, so no other move is needed
    to reach every decomposition: a column phase of V, for one, is a
    composite of these moves.  The sweeps can still stall at points that
    are optimal in every pair plane but not overall, such as kinks where
    a determinant sits at 0; the restarts and perturbation hops of
    :func:`optimize_roof` leave those, and the oracle tests check the
    result against the two-qubit closed forms.  The search stops once a
    sweep gains less than ``max(1e-12, value_slack / 16)``.
    """
    minimize = cfg.direction is Direction.MIN
    sign = 1.0 if minimize else -1.0
    m = V.shape[0]
    p0, p1, p2, p3 = obj.perm_flat

    def det_of(row) -> complex:
        return complex(row[p0] * row[p3] - row[p1] * row[p2])

    def cross_of(x, y) -> complex:
        return complex(x[p0] * y[p3] + y[p0] * x[p3] - x[p1] * y[p2] - y[p1] * x[p2])

    rows = obj.rows_of(V)
    dets = [det_of(rows[k]) for k in range(m)]
    fro = float(np.real((rows * rows.conj()).sum()))

    def value() -> float:
        return fro + 2.0 * sum(abs(d) for d in dets) - 1.0

    if m < 2:
        return value(), V

    def refresh():
        nonlocal V, rows, dets, fro
        V = _reorthonormalize(V)
        rows = obj.rows_of(V)
        dets[:] = [det_of(rows[k]) for k in range(m)]
        fro = float(np.real((rows * rows.conj()).sum()))

    version = [0] * m
    seen: dict[tuple[int, int], tuple[int, int]] = {}
    for _ in range(cfg.max_iters):
        if minimize and value() <= cfg.min_floor:
            break
        # a caller-declared squared tolerance caps the useful per-sweep
        # resolution; grinding below it buys nothing
        gain_floor = max(1e-12, cfg.value_slack(value()) / 16.0)
        gain = 0.0
        for i in range(m - 1):
            for j in range(i + 1, m):
                # skip pairs whose rows have not moved since their last
                # fruitless solve (Jacobi-style staleness)
                if seen.get((i, j)) == (version[i], version[j]):
                    continue
                di, dj = dets[i], dets[j]
                b = cross_of(rows[i], rows[j])
                val, theta, phi = _solve_pair(di, dj, b, minimize)
                delta = val - (abs(di) + abs(dj))
                if sign * delta >= -_IMPROVE_EPS:
                    seen[(i, j)] = (version[i], version[j])
                    continue
                c, s = math.cos(theta), math.sin(theta)
                w = complex(math.cos(phi), math.sin(phi))
                block = np.array([[c, s * w], [-s * np.conj(w), c]])
                V[(i, j), :] = block @ V[(i, j), :]
                rows[(i, j), :] = block @ rows[(i, j), :]
                dets[i] = det_of(rows[i])
                dets[j] = det_of(rows[j])
                version[i] += 1
                version[j] += 1
                gain -= sign * 2.0 * delta
        if gain > 0.0:
            refresh()
        if gain < gain_floor:
            break
    return value(), V


def _haar_isometry(m: int, r: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    q, rr = np.linalg.qr(z)
    d = np.diagonal(rr)
    return q * (d / np.abs(d))


def _reorthonormalize(V: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(V)
    # realign column phases with the input so near-isometric V maps to
    # itself up to roundoff (raw LAPACK Q may flip column phases)
    d = np.where(np.abs(np.diagonal(r)) > 0, np.diagonal(r), 1.0)
    return q * (d / np.abs(d))


def _rotation_coeffs(theta: float) -> np.ndarray:
    """Row-pair mixing coefficients of the four trial rotations at ``theta``:
    angle +/-theta with relative phase 1, then phase i, stacked as an
    (8, 2) matrix acting on (row_i, row_j)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [c, s], [-s, c],
            [c, -s], [s, c],
            [c, 1j * s], [1j * s, c],
            [c, -1j * s], [-1j * s, c],
        ],
        dtype=complex,
    )


@functools.cache
def _rotation_blocks(step: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The four trial rotations at ``step`` and, per variant, its expansion
    ladder: the variant's (2, 2) blocks at angles ``step * 2, step * 4, ...``
    while the angle stays below 1.6, stacked in that order into one
    C-contiguous (2L, 2) matrix.  Steps start at 0.5, so L >= 1.  Steps
    are ``0.5 * 2**-k``, so the cache stays small; its arrays are
    read-only."""
    thetas = []
    scale = 2.0
    while step * scale < 1.6:
        thetas.append(step * scale)
        scale *= 2.0
    stack = np.stack([_rotation_coeffs(theta) for theta in thetas])
    blocks = (_rotation_coeffs(step),) + tuple(
        stack[:, 2 * t : 2 * t + 2].reshape(-1, 2) for t in range(4))
    for block in blocks:
        block.setflags(write=False)
    return blocks[0], blocks[1:]


def _coordinate_search(obj: _Objective, V: np.ndarray, cfg: RoofConfig):
    """Derivative-free descent by pairwise row rotations of ``V``.

    Each sweep visits every row pair (i, j) and tries four rotations of
    angle ``step`` (two real, two with relative phase i) in one objective
    call; the best one, if it improves, is expanded along its expansion
    ladder (doubling angles below 1.6), evaluated in one more call, and the
    last candidate of the improving prefix is applied.  The rotation blocks
    of each step size are built once per process, and the applied
    candidate's contributions are taken from the call that produced them.
    Since ``_Objective.contribs`` is row-wise (a row's value does not
    depend on the other rows of its call), this gives bit for bit the
    values of evaluating each candidate on its own, so the trajectory is
    the plain one-candidate-at-a-time search.  The step halves once a
    sweep gains less than ``1e-2 * step**2``.

    A generator: it yields each row stack it needs evaluated, is sent
    back the stack's ``obj.contribs`` values, and returns ``(value, V)``.
    """
    minimize = cfg.direction is Direction.MIN
    sign = 1.0 if minimize else -1.0
    m = V.shape[0]
    rows = obj.rows_of(V)  # cached image of V in state space, updated in lock step
    values = yield rows
    total = float(values.sum())
    if m < 2:
        return total - 1.0, V
    contribs = values.tolist()
    step = 0.5
    sweeps = 0
    while step > cfg.step_tolerance and sweeps < cfg.max_iters:
        if minimize and total - 1.0 <= cfg.min_floor:
            break
        sweeps += 1
        coeffs, ladders = _rotation_blocks(step)
        gain = 0.0
        for i in range(m - 1):
            for j in range(i + 1, m):
                pair_d = rows[(i, j), :]
                base = contribs[i] + contribs[j]
                cc = (yield coeffs @ pair_d).tolist()
                deltas = [cc[0] + cc[1] - base, cc[2] + cc[3] - base,
                          cc[4] + cc[5] - base, cc[6] + cc[7] - base]
                signed = [sign * d for d in deltas]
                t = signed.index(min(signed))  # the first minimum, as np.argmin
                delta = deltas[t]
                if signed[t] >= -_IMPROVE_EPS:
                    continue
                block = coeffs[2 * t : 2 * t + 2]
                new_pair = cc[2 * t : 2 * t + 2]
                # expand along the winning direction while it keeps
                # improving, so narrow valleys are crossed in one move
                # instead of one step per sweep
                ladder = ladders[t]
                cl = (yield ladder @ pair_d).tolist()
                for k in range(0, len(cl), 2):
                    d = cl[k] + cl[k + 1] - base
                    if sign * d < sign * delta - _IMPROVE_EPS:
                        delta, block, new_pair = d, ladder[k : k + 2], cl[k : k + 2]
                    else:
                        break
                V[(i, j), :] = block @ V[(i, j), :]
                rows[(i, j), :] = block @ pair_d
                contribs[i], contribs[j] = new_pair
                total += delta
                gain -= sign * delta
        if gain > 0.0:
            # rotations keep V isometric to machine precision; a per-sweep QR
            # stops the residual drift from accumulating
            V = _reorthonormalize(V)
            rows = obj.rows_of(V)
            values = yield rows
            total = float(values.sum())
            contribs = values.tolist()
        if gain < 1e-2 * step * step:
            # progress at this scale has dropped to the quadratic tail:
            # refine rather than re-sweeping
            step *= 0.5
    return total - 1.0, V


_HOP_ANGLES = (0.08, 0.2, 0.45)


def _perturb(V: np.ndarray, rng: np.random.Generator, angle: float) -> np.ndarray:
    """Kick V by random small row rotations, then restore exact isometry."""
    V = V.copy()
    m = V.shape[0]
    for _ in range(m):
        i, j = rng.choice(m, size=2, replace=False)
        theta = rng.uniform(-angle, angle)
        phase = np.exp(2j * np.pi * rng.uniform())
        c, s = np.cos(theta), np.sin(theta)
        block = np.array([[c, phase * s], [-np.conj(phase) * s, c]])
        V[(i, j), :] = block @ V[(i, j), :]
    return _reorthonormalize(V)


def _roof_search(obj: _Objective, cfg: RoofConfig):
    """The restart loop of :func:`optimize_roof` on one density matrix, as
    a generator: it passes on the requests of ``_coordinate_search`` (the
    exact pair search of det-mode cuts never yields) and returns the
    :class:`RoofResult`."""
    r = obj.rank
    if cfg.cardinality is None:
        m = max(min(r * r, 16), r)
    else:
        m = int(cfg.cardinality)
        if m < r:
            raise ValueError(f"cardinality {m} below rank {r}")
    minimize = cfg.direction is Direction.MIN
    n_independent = max(1, (cfg.restarts + 1) // 2)

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best_val = None
    best_v = None
    per_restart = []
    for t in range(cfg.restarts):
        rng = np.random.default_rng(children[t])
        if t == 0:
            v0 = np.zeros((m, r), dtype=complex)
            v0[:r, :r] = np.eye(r)
        elif m < 2:
            break  # a single-member decomposition leaves nothing to search
        elif t < n_independent:
            v0 = _haar_isometry(m, r, rng)
        else:
            v0 = _perturb(best_v, rng, _HOP_ANGLES[t % len(_HOP_ANGLES)])
        if obj.det_mode:
            val, v_opt = _pair_exact_search(obj, v0, cfg)
        else:
            val, v_opt = yield from _coordinate_search(obj, v0, cfg)
        per_restart.append(val)
        if best_val is None or (val < best_val if minimize else val > best_val):
            best_val = val
            best_v = v_opt
        if minimize and best_val <= cfg.min_floor:
            break
        # two searches landing on the same value to within the consensus
        # tolerance marks the shared attractor; stray stationary points
        # form a near-continuum and do not coincide, so consensus is a
        # reliable stopping signal.  The relaxation from a declared
        # squared tolerance is trusted only away from zero: near-zero
        # incumbents may still be sitting above a vanishing optimum, where
        # agreement between two stuck searches is cheap.
        if t >= 2:
            srt = sorted(per_restart, reverse=not minimize)
            tol_consensus = 1e-9
            if not minimize or best_val >= 0.05:
                tol_consensus = max(1e-9, cfg.value_slack(best_val) / 4.0)
            if abs(srt[0] - srt[1]) < tol_consensus:
                break
    value = max(best_val, 0.0)
    weights, states = _members(obj.base, obj.dims, best_v)
    spread = float(max(per_restart) - min(per_restart))
    return RoofResult(value=value, weights=weights, states=states, restart_spread=spread)


def optimize_roof_block(mats, dims, cut, configs) -> list[RoofResult]:
    """:func:`optimize_roof` of every checked density matrix in a stack
    ``(rows, d, d)`` over one ``dims`` and one ``cut``, row ``b`` under
    ``configs[b]``; one :class:`RoofResult` per row, in order.

    The searches run in lockstep: each round, one ``contribs`` call
    evaluates the pending rows of every search.  Each result equals, bit
    for bit, what :func:`optimize_roof` gives on its row alone.  Every
    row must have the shape of ``dims``, since all share the objective's
    index map.
    """
    dims = tuple(dims)
    cut.validate(len(dims))
    d = prod(dims)
    if len(configs) != len(mats):
        raise ValueError(f"{len(configs)} configs for {len(mats)} rows")
    for b, mat in enumerate(mats):
        if np.shape(mat) != (d, d):
            raise ValueError(f"row {b} has shape {np.shape(mat)}, not that of dims {dims}")
    objs = [_Objective((mat, dims), cut.a_side, cut.b_side) for mat in mats]
    if not objs:
        return []
    contribs = objs[0].contribs  # the same function for every row of one dims and cut
    searches = [_roof_search(obj, cfg or RoofConfig()) for obj, cfg in zip(objs, configs)]
    results: list = [None] * len(searches)
    pending = {}
    for b, search in enumerate(searches):
        try:
            pending[b] = next(search)
        except StopIteration as stop:
            results[b] = stop.value
    while len(pending) > 1:
        order = list(pending)
        requests = [pending[b] for b in order]
        values = contribs(np.concatenate(requests))
        start = 0
        for b, request in zip(order, requests):
            end = start + len(request)
            try:
                pending[b] = searches[b].send(values[start:end])
            except StopIteration as stop:
                del pending[b]
                results[b] = stop.value
            start = end
    # the last search runs alone, without the bookkeeping of a round
    for b, request in pending.items():
        try:
            while True:
                request = searches[b].send(contribs(request))
        except StopIteration as stop:
            results[b] = stop.value
    return results


def optimize_roof(rho: DensityMatrix, cut, config: RoofConfig | None = None) -> RoofResult:
    """Optimize the mean pure-state negativity over decompositions of ``rho``.

    ``cut`` is a :class:`negmono.measures.Bipartition` of ``rho.dims``.
    The restart budget is split between independent starting points and
    perturbation hops around the incumbent: restart 0 starts from the
    eigendecomposition itself (so the returned optimum can never be worse
    than the raw eigenmixture), the first half continues from seeded
    Haar-random isometries, and the remainder re-searches from small
    random kicks of the best point found so far, which escapes the shallow
    stationary points this landscape is prone to.  Non-convergence is
    never fatal: disagreement between searches surfaces as a large
    ``restart_spread``.  One call runs one restart budget and returns its
    best value as found; a minimization relaxed by ``squared_tolerance``
    that stops just above ``min_floor`` is not rerun at full precision.
    This is the block of one of :func:`optimize_roof_block`.
    """
    return optimize_roof_block(rho.matrix[None], rho.dims, cut, [config])[0]

"""Optimization of decomposition roofs of the mean pure-state negativity.

A density matrix of rank r has pure-state decompositions in one-to-one
correspondence with m x r matrices V having orthonormal columns (m >= r):
the unnormalized members are ``v_k = sum_j V[k, j] * sqrt(q_j) |phi_j>``
built from the eigendecomposition ``{q_j, |phi_j>}``.  The roof value is
the min (or max) over V of ``sum_k p_k N(|psi_k>)``.  On generic cuts a
minimization (SCREN) is searched by derivative-free pairwise rotations of
the rows of V with step control, and a maximization (SCRENoA) by
Riemannian conjugate-gradient ascent on V; 2x2-by-2x2 cuts get
closed-form per-pair solves (a Takagi factorization of the pair's
determinant form) in both directions.

The generic searches are bound by per-call overhead on tiny arrays, so
they run as array programs: every running search of a block whose
decompositions share m, r and direction is one slot of stacked arrays,
rows ``(S, m, n)``, isometries ``(S, m, r)``.  In the rotation program
(``_Program``, MIN) the slots sweep the row pairs in lockstep: step p
moves every slot by pair p with one batched trial matmul and one
``_Objective.contribs`` call, then one ladder call for the slots whose
best trial improved; at the sweep boundary the slots that moved share
one stacked QR and refresh.  The accept and ladder decisions stay per
slot, in Python scalars.  In the ascent (``_Ascent``, MAX) each step
takes one batched SVD for the gradients and one ``contribs`` call that
scores a few step sizes of every slot.  ``contribs`` is row-wise and the
batched matmul, SVD and QR are slice-wise to the last bit, so a slot's
values never depend on its batch: every search takes the trajectory it
takes alone.

Each density matrix runs its restart loop as a ``_Restarts`` object,
which folds results in restart order.  The restarts that a sequential
loop runs unless the floor stops it first (t <= 2 and independent of
the incumbent) start at once as concurrent slots; a result that the
sequential loop would not have reached is discarded.  2x2-by-2x2 cuts
run the exact pair search one restart at a time.
:func:`optimize_roof_block` drives a stack of density matrices that share
dims and cut, all on one ``_Objective`` (index map: ``cut_matrices`` of
the basis indices), and :func:`optimize_roof` is the block of one.
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

from .states import Bipartition, DensityMatrix, PureState, cut_matrices

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
    never below the rank r).  ``max_iters`` caps, per restart, the sweeps
    of a MIN search and of the pair search of 2x2-by-2x2 cuts, and the
    ascent steps of a MAX search on generic cuts.  ``step_tolerance``
    governs only the generic MIN search, which otherwise stops once its
    trial rotation angle shrinks below it; the pair search and the ascent
    stop on a step's gain instead.  A nonzero ``value_floor`` lets a
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
        if not isinstance(self.direction, Direction):
            raise ValueError(f"direction must be a Direction, got {self.direction!r}")
        # the comparisons are False for NaN, so NaN fails each rule
        for name, ok, rule in (
                ("restarts", self.restarts >= 1, ">= 1"),
                ("max_iters", self.max_iters >= 1, ">= 1"),
                ("seed", self.seed >= 0, ">= 0"),
                ("cardinality", self.cardinality is None or self.cardinality >= 1, ">= 1"),
                ("step_tolerance", 0 < self.step_tolerance < math.inf, "finite and positive"),
                ("value_floor", 0 <= self.value_floor < math.inf, "finite and >= 0"),
                ("squared_tolerance", 0 <= self.squared_tolerance < math.inf, "finite and >= 0")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

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
    """Best decomposition found: ``value`` is the mean negativity before squaring.

    ``restarts_run`` counts the restarts folded into the result and
    ``sweeps`` their sweeps, or ascent steps for a MAX search on a
    generic cut.  ``stop`` says why the restart loop ended:
    ``"floor"`` (a minimization reached ``min_floor``), ``"consensus"``
    (the two best restarts agree) or ``"budget"`` (every restart ran, or
    a single-member decomposition left nothing to search).
    """

    value: float
    weights: np.ndarray
    states: list[PureState]
    restart_spread: float
    restarts_run: int
    sweeps: int
    stop: str


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
    """Cached index maps for evaluating sum_k ||reshape(v_k)||_1^2 - 1.

    For an unnormalized member v with nuclear norm t of its cut-reshaped
    matrix, ``p * N(psi) = t^2 - p``; summing over a decomposition gives
    ``f = sum_k t_k^2 - 1``.  When either side of the cut has dimension 2,
    the nuclear norm comes from the closed form
    ``t^2 = tr(G) + 2*sqrt(det(G))`` with G the 2x2 Gram matrix of the
    rows (or columns) of the reshaped member.  A 2x2-by-2x2 cut is flagged
    as ``det_mode``: there ``t^2 = ||v||^2 + 2 |det|`` with det an actual
    quadratic form of the member, which unlocks the exact per-pair solver.

    It depends on the dims and the cut alone, so one objective serves
    every density matrix of a block.
    """

    def __init__(self, dims: tuple[int, ...], a_side, b_side):
        self.perm = cut_matrices(np.arange(prod(dims)), dims, Bipartition(a_side, b_side))
        if self.perm.shape[1] == 2 and self.perm.shape[0] != 2:
            self.perm = self.perm.T  # orient the 2-dim side first for the Gram fast path
        self.gram = self.perm.shape[0] == 2
        self.det_mode = self.perm.shape == (2, 2)
        # state-space indices of the two rows of the reshaped member, for
        # the Gram fast path
        self.half_rows = tuple(np.ascontiguousarray(half) for half in self.perm[:2])

    def contribs(self, rows: np.ndarray) -> np.ndarray:
        """Nuclear-norm-squared of each row's cut-reshaped matrix.

        Each row's value depends on that row alone, bit for bit, however
        many rows come in one call; the coordinate search relies on this.
        """
        if self.gram:
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


def _pair_exact_search(obj: _Objective, base: np.ndarray, V: np.ndarray,
                       cfg: RoofConfig) -> tuple[float, np.ndarray, int]:
    """Block-coordinate descent with exact per-pair solves (det_mode cuts),
    from the isometry ``V`` over the eigenbase ``base``.

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
    sweep gains less than ``max(1e-12, value_slack / 16)``.  Returns
    ``(value, V, sweeps)``.
    """
    minimize = cfg.direction is Direction.MIN
    sign = 1.0 if minimize else -1.0
    m = V.shape[0]
    p0, p1, p2, p3 = obj.perm.ravel().tolist()

    def det_of(row) -> complex:
        return complex(row[p0] * row[p3] - row[p1] * row[p2])

    def cross_of(x, y) -> complex:
        return complex(x[p0] * y[p3] + y[p0] * x[p3] - x[p1] * y[p2] - y[p1] * x[p2])

    rows = V @ base.T
    dets = [det_of(rows[k]) for k in range(m)]
    fro = float(np.real((rows * rows.conj()).sum()))

    def value() -> float:
        return fro + 2.0 * sum(abs(d) for d in dets) - 1.0

    if m < 2:
        return value(), V, 0

    def refresh():
        nonlocal V, rows, dets, fro
        V = _reorthonormalize(V)
        rows = V @ base.T
        dets[:] = [det_of(rows[k]) for k in range(m)]
        fro = float(np.real((rows * rows.conj()).sum()))

    version = [0] * m
    seen: dict[tuple[int, int], tuple[int, int]] = {}
    sweeps = 0
    for _ in range(cfg.max_iters):
        if minimize and value() <= cfg.min_floor:
            break
        sweeps += 1
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
    return value(), V, sweeps


def _haar_isometry(m: int, r: int, rng: np.random.Generator) -> np.ndarray:
    return _reorthonormalize(rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))


def _reorthonormalize(V: np.ndarray) -> np.ndarray:
    """The QR isometry of ``V`` (m, r), or of each matrix of a stack
    ``(S, m, r)`` from one stacked QR."""
    q, r = np.linalg.qr(V)
    # realign column phases with the input so near-isometric V maps to
    # itself up to roundoff (raw LAPACK Q may flip column phases)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    d = np.where(np.abs(d) > 0, d, 1.0)
    return q * (d / np.abs(d))[..., None, :]


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


class _Restarts:
    """The restart loop of :func:`optimize_roof` on one density matrix,
    whose eigenbase ``base`` (rank ``rank``) it holds.

    Restart 0 starts from the eigendecomposition, restarts below
    ``n_independent`` from seeded Haar isometries, and later ones from a
    kick of the incumbent; restart t draws from the stream
    ``SeedSequence(cfg.seed, spawn_key=(t,))``.  Searches hand in their
    results through :meth:`finish` in any order; the results fold in
    restart order, as a sequential loop folds them, and a fold may end
    the loop (``stop``) or start the next restart.  Restart t runs only
    once restarts 0..t-1 have folded, except for :meth:`launch`'s
    speculative ones.
    """

    def __init__(self, matrix: np.ndarray, dims: tuple[int, ...], cfg: RoofConfig):
        self.base, r = _eig_base(matrix)
        self.rank = r
        if cfg.cardinality is None:
            self.m = max(min(r * r, 16), r)
        else:
            self.m = int(cfg.cardinality)
            if self.m < r:
                raise ValueError(f"cardinality {self.m} below rank {r}")
        self.dims, self.cfg = dims, cfg
        self.minimize = cfg.direction is Direction.MIN
        self.n_independent = max(1, (cfg.restarts + 1) // 2)
        self.per_restart: list[float] = []
        self.best_val = self.best_v = None
        self.sweeps = 0
        self.stop: str | None = None
        self.started = 0
        self.held: dict[int, tuple] = {}

    def launch(self, speculate: bool) -> list[int]:
        """The restarts to start at once: restart 0 and, with ``speculate``,
        those that the loop runs unless the floor stops it first (t <= 2,
        since consensus is checked from restart 2 on, and t below
        ``n_independent``, so they need no incumbent)."""
        self.started = 1 if self.m < 2 or not speculate else min(3, self.n_independent)
        return list(range(self.started))

    def initial(self, t: int) -> np.ndarray:
        m, r = self.m, self.rank
        if t == 0:
            v0 = np.zeros((m, r), dtype=complex)
            v0[:r, :r] = np.eye(r)
            return v0
        rng = np.random.default_rng(np.random.SeedSequence(self.cfg.seed, spawn_key=(t,)))
        if t < self.n_independent:
            return _haar_isometry(m, r, rng)
        return _perturb(self.best_v, rng, _HOP_ANGLES[t % len(_HOP_ANGLES)])

    def finish(self, t: int, value: float, V: np.ndarray, sweeps: int) -> list[int]:
        """Hand in restart ``t``'s search; returns the restarts to start now.
        Once the loop has stopped, a speculative restart it never reached
        is held and never folded."""
        self.held[t] = (value, V, sweeps)
        while self.stop is None and len(self.per_restart) in self.held:
            self._fold(*self.held.pop(len(self.per_restart)))
        if self.stop is not None or self.started > len(self.per_restart):
            return []
        self.started += 1
        return [self.started - 1]

    def _fold(self, value: float, V: np.ndarray, sweeps: int) -> None:
        cfg = self.cfg
        t = len(self.per_restart)
        self.per_restart.append(value)
        self.sweeps += sweeps
        if self.best_val is None or (value < self.best_val if self.minimize else value > self.best_val):
            self.best_val, self.best_v = value, V
        if self.minimize and self.best_val <= cfg.min_floor:
            self.stop = "floor"
            return
        # two searches landing on the same value to within the consensus
        # tolerance marks the shared attractor; stray stationary points
        # form a near-continuum and do not coincide, so consensus is a
        # reliable stopping signal.  The relaxation from a declared
        # squared tolerance is trusted only away from zero: near-zero
        # incumbents may still be sitting above a vanishing optimum, where
        # agreement between two stuck searches is cheap.
        if t >= 2:
            srt = sorted(self.per_restart, reverse=not self.minimize)
            tol_consensus = 1e-9
            if not self.minimize or self.best_val >= 0.05:
                tol_consensus = max(1e-9, cfg.value_slack(self.best_val) / 4.0)
            if abs(srt[0] - srt[1]) < tol_consensus:
                self.stop = "consensus"
                return
        if t + 1 == cfg.restarts or self.m < 2:
            # a single-member decomposition leaves nothing to search
            self.stop = "budget"

    def result(self) -> RoofResult:
        weights, states = _members(self.base, self.dims, self.best_v)
        return RoofResult(value=max(self.best_val, 0.0), weights=weights, states=states,
                          restart_spread=float(max(self.per_restart) - min(self.per_restart)),
                          restarts_run=len(self.per_restart), sweeps=self.sweeps, stop=self.stop)


class _Slot:
    """The scalar state of one running coordinate search in a ``_Program``."""

    __slots__ = ("row", "t", "step", "coeffs", "ladders", "sweeps", "gain", "total", "contribs")

    def __init__(self, row: _Restarts, t: int, values: np.ndarray):
        self.row, self.t = row, t
        self.step = 0.5
        self.coeffs, self.ladders = _rotation_blocks(self.step)
        self.sweeps = 0
        self.gain = 0.0
        self.total = float(values.sum())
        self.contribs = values.tolist()

    def begin_sweep(self) -> bool:
        """Start the next sweep, or return False once the search is over."""
        cfg = self.row.cfg
        if not (self.step > cfg.step_tolerance and self.sweeps < cfg.max_iters):
            return False
        if self.total - 1.0 <= cfg.min_floor:
            return False
        self.sweeps += 1
        self.gain = 0.0
        return True

    def end_sweep(self) -> None:
        if self.gain < 1e-2 * self.step * self.step:
            # progress at this scale has dropped to the quadratic tail:
            # refine rather than re-sweeping
            self.step *= 0.5
            self.coeffs, self.ladders = _rotation_blocks(self.step)


class _Searches:
    """The running searches of a block that share m and r, as slots of
    stacked arrays: slot s holds ``V[s]`` (m, r) and its image
    ``rows[s] = V[s] @ base.T`` (m, n), where ``base`` is its row's
    eigenbase.  Slots join when their restart starts and leave when
    their search ends or their row stops.  A subclass names its scalar
    slot state in ``_slot_type``, rebuilds its stacked state from the
    kept slots in ``_arrays`` and advances every slot by one step in
    ``_advance``.
    """

    def __init__(self, obj: _Objective, m: int, r: int):
        self.obj, self.contribs = obj, obj.contribs
        self.m, self.r, self.n = m, r, obj.perm.size
        self.slots: list = []
        self._arrays(np.empty((0, m, r), complex), np.empty((0, m, self.n), complex), [])

    def run(self, starts: list[tuple[_Restarts, int]]) -> None:
        self._settle([], starts)
        while self.slots:
            self._advance()

    def _settle(self, finished: list, starts: list) -> None:
        """Fold ended searches into their rows, start the restarts that the
        folds (or a new row) call for, and drop the slots of rows that
        stopped.  A search can end as it starts, so this repeats until no
        restart is left to start."""
        done = {id(slot) for slot, _ in finished}
        new = []  # (slot, V, rows) of started searches that run on
        while finished or starts:
            for slot, V in finished:
                starts += [(slot.row, t) for t in
                           slot.row.finish(slot.t, slot.total - 1.0, V, slot.sweeps)]
            finished = []
            if not starts:
                break
            V = np.stack([row.initial(t) for row, t in starts])
            rows = V @ np.stack([row.base for row, _ in starts]).swapaxes(1, 2)
            values = self.contribs(rows.reshape(-1, self.n)).reshape(len(starts), self.m)
            for (row, t), v, rw, vals in zip(starts, V, rows, values):
                slot = self._slot_type(row, t, vals)
                if self.m < 2 or not slot.begin_sweep():
                    finished.append((slot, v))
                else:
                    new.append((slot, v, rw))
            starts = []
        keep = [s for s, slot in enumerate(self.slots)
                if id(slot) not in done and slot.row.stop is None]
        new = [entry for entry in new if entry[0].row.stop is None]
        if len(keep) == len(self.slots) and not new:
            return
        self.slots = [self.slots[s] for s in keep] + [slot for slot, *_ in new]
        V = np.concatenate([self.V[keep]] + [v[None] for _, v, _ in new])
        rows = np.concatenate([self.rows[keep]] + [rw[None] for *_, rw in new])
        self._arrays(V, rows, keep)


class _Program(_Searches):
    """Derivative-free descent by pairwise row rotations of V, for every
    running MIN search of a block that shares m and r, as one array
    program.

    Each sweep of a search visits every row pair (i, j) and tries four
    rotations of angle ``step`` (two real, two with relative phase i);
    the best one, if it improves, is expanded along its ladder (doubling
    angles below 1.6), and the last candidate of the improving prefix is
    applied, with its contributions taken from the call that produced
    them.  After a sweep that gained, a QR stops isometry drift from
    accumulating and the contributions are recomputed; the step halves
    once a sweep gains less than ``1e-2 * step**2``.  The search ends when
    the step falls to ``step_tolerance``, after ``max_iters`` sweeps, or
    when it reaches ``min_floor``.

    A slot's contributions and step control live in its ``_Slot``.  The
    slots share m, so the pairs, and sweep them in lockstep, joining and
    leaving at the sweep boundary.
    """

    _slot_type = _Slot

    def __init__(self, obj: _Objective, m: int, r: int):
        self.pairs = [(i, j) for i in range(m - 1) for j in range(i + 1, m)]
        self.pair_index = np.array(self.pairs, dtype=np.intp).reshape(-1, 2)
        super().__init__(obj, m, r)

    def _arrays(self, V: np.ndarray, rows: np.ndarray, keep: list) -> None:
        S = len(self.slots)
        self.V, self.rows = V, rows
        # flat views: row i of slot s is row s * m + i
        self.V_flat, self.rows_flat = V.reshape(S * self.m, self.r), rows.reshape(S * self.m, self.n)
        # flat row indices (pair, slot, 2) of every slot's rows at every pair
        self.at = np.arange(S, dtype=np.intp)[:, None] * self.m + self.pair_index[:, None, :]
        self.bases = np.stack([slot.row.base for slot in self.slots]) if S else None
        self.coeff_stack = np.stack([slot.coeffs for slot in self.slots]) if S else None

    def _advance(self) -> None:
        for p in range(len(self.pairs)):
            self._step(p)
        self._end_sweeps()

    def _step(self, p: int) -> None:
        """Try pair p of every slot, and move the slots it improves."""
        i, j = self.pairs[p]
        at = self.at[p]
        pair_d = self.rows_flat[at]
        trials = self.contribs((self.coeff_stack @ pair_d).reshape(-1, self.n))
        trials = trials.reshape(-1, 8).tolist()
        won = []
        for s, (slot, cc) in enumerate(zip(self.slots, trials)):
            base = slot.contribs[i] + slot.contribs[j]
            deltas = [cc[0] + cc[1] - base, cc[2] + cc[3] - base,
                      cc[4] + cc[5] - base, cc[6] + cc[7] - base]
            t = deltas.index(min(deltas))  # the first minimum, as np.argmin
            if deltas[t] < -_IMPROVE_EPS:
                won.append((s, t, deltas[t], base, cc))
        if won:
            self._move(won, i, j, at, pair_d)

    def _move(self, won: list, i: int, j: int, at: np.ndarray, pair_d: np.ndarray) -> None:
        """Expand every improving slot's best trial along its ladder, in one
        ``contribs`` call over the slots' own rungs, and apply the moves to
        their rows i and j.

        A row of a matmul does not depend on the other rows of its left
        factor, so ladders of different heights (slots at different steps)
        are zero-padded to one height, and the padding rows are dropped
        before ``contribs``.
        """
        slots, n = self.slots, self.n
        idx = [s for s, *_ in won]
        if len(idx) < len(slots):
            pair_d, at = pair_d[idx], at[idx]
        ladders = [slots[s].ladders[t] for s, t, *_ in won]
        rungs = [len(ladder) for ladder in ladders]
        height = max(rungs)
        coeffs = np.zeros((len(idx), height, 2), complex)
        for k, ladder in enumerate(ladders):
            coeffs[k, : rungs[k]] = ladder
        ladder_rows = coeffs @ pair_d
        own = (ladder_rows.reshape(-1, n) if min(rungs) == height
               else ladder_rows[np.arange(height) < np.array(rungs)[:, None]])
        values = self.contribs(own).tolist()
        blocks = []
        offset = 0
        for k, (s, t, delta, base, cc) in enumerate(won):
            slot = slots[s]
            block, new_pair = slot.coeffs[2 * t : 2 * t + 2], cc[2 * t : 2 * t + 2]
            # expand along the winning direction while it keeps improving,
            # so narrow valleys are crossed in one move instead of one step
            # per sweep
            cl = values[offset : offset + rungs[k]]
            offset += rungs[k]
            for q in range(0, len(cl), 2):
                d = cl[q] + cl[q + 1] - base
                if d < delta - _IMPROVE_EPS:
                    delta, block, new_pair = d, coeffs[k, q : q + 2], cl[q : q + 2]
                else:
                    break
            blocks.append(block)
            slot.contribs[i], slot.contribs[j] = new_pair
            slot.total += delta
            slot.gain -= delta
        blocks = np.array(blocks)
        self.V_flat[at] = blocks @ self.V_flat[at]
        self.rows_flat[at] = blocks @ pair_d

    def _end_sweeps(self) -> None:
        slots = self.slots
        refresh = [s for s, slot in enumerate(slots) if slot.gain > 0.0]
        if refresh:
            # rotations keep V isometric to machine precision; a QR after
            # each sweep that moved stops the residual drift from accumulating
            V = _reorthonormalize(self.V[refresh])
            rows = V @ self.bases[refresh].swapaxes(1, 2)
            self.V[refresh], self.rows[refresh] = V, rows
            values = self.contribs(rows.reshape(-1, self.n)).reshape(len(refresh), self.m)
            for s, vals in zip(refresh, values):
                slots[s].total = float(vals.sum())
                slots[s].contribs = vals.tolist()
        finished = []
        for s, slot in enumerate(slots):
            slot.end_sweep()
            if slot.begin_sweep():
                self.coeff_stack[s] = slot.coeffs
            else:
                finished.append((slot, self.V[s].copy()))
        if finished:
            self._settle(finished, [])


# an ascent step scores these multiples of the last accepted step size;
# a search starts at step size _ASCENT_STEP
_ASCENT_SCALES = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 1.0 / 16.0])
_ASCENT_STEP = 0.1


class _Climb:
    """The scalar state of one running ascent in an ``_Ascent``:
    ``along_gradient`` says that its direction is the gradient itself,
    and ``fresh`` that its gradient must be taken at the current V."""

    __slots__ = ("row", "t", "step", "sweeps", "total", "along_gradient", "fresh")

    def __init__(self, row: _Restarts, t: int, values: np.ndarray):
        self.row, self.t = row, t
        self.step = _ASCENT_STEP
        self.sweeps = 0
        self.total = float(values.sum())
        self.along_gradient = self.fresh = True

    def begin_sweep(self) -> bool:
        """Count the next step, or return False once the budget is spent."""
        if self.sweeps >= self.row.cfg.max_iters:
            return False
        self.sweeps += 1
        return True


def _tangent(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Projection of each ``X[s]`` onto the tangent space of the isometries
    at ``V[s]``: ``X - V herm(V^dagger X)``."""
    a = V.conj().swapaxes(1, 2) @ X
    return X - V @ (0.5 * (a + a.conj().swapaxes(1, 2)))


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re tr(a[s]^dagger b[s])`` of every slot s."""
    return (a.conj() * b).real.reshape(len(a), -1).sum(axis=1)


class _Ascent(_Searches):
    """Riemannian conjugate-gradient ascent on V, for every running MAX
    search of a block that shares m and r, as one array program.

    With ``M_k = U_k S_k W_k^dagger`` the cut-reshaped member k and
    ``t_k = ||M_k||_*``, the objective ``f = sum_k t_k^2`` has the
    Euclidean gradient ``E = 2 diag(t) G conj(B)`` in V, where row k of G
    is ``U_k W_k^dagger`` in basis order and B is the eigenbase; its
    Riemannian gradient is ``xi = E - V herm(V^dagger E)`` (Abrudan,
    Eriksson & Koivunen, IEEE TSP 56, 1134, 2008).  A maximum keeps the
    members' singular values apart from 0, where the nuclear norm is
    smooth, which is why MAX, and not MIN, takes this step.

    Each step takes one batched SVD over the members of every slot whose
    V moved, sets the direction by Polak-Ribiere+ with projection
    transport (reset to xi when it is not an ascent direction), and
    scores ``_ASCENT_SCALES`` times the last accepted step size along it,
    each retracted by ``_reorthonormalize``, in one ``contribs`` call for
    every slot.  The best candidate is kept only if f rises.  After a
    failed step along a conjugate direction the next step retries along
    xi at the same V.  The search ends on a step that gains less than
    ``max(1e-12, value_slack / 16)``, on a failed step along xi, or after
    ``max_iters`` steps.

    Every operation is slice-wise, and ``contribs`` row-wise, to the last
    bit, so a search takes the trajectory it takes alone.
    """

    _slot_type = _Climb

    def __init__(self, obj: _Objective, m: int, r: int):
        self.inverse = np.argsort(obj.perm.ravel())
        # search directions and last gradients, zero for new slots
        self.D = self.xi = np.empty((0, m, r), complex)
        super().__init__(obj, m, r)

    def _arrays(self, V: np.ndarray, rows: np.ndarray, keep: list) -> None:
        pad = np.zeros((len(self.slots) - len(keep), self.m, self.r), complex)
        self.D = np.concatenate([self.D[keep], pad])
        self.xi = np.concatenate([self.xi[keep], pad])
        self.V, self.rows = V, rows
        if self.slots:
            bases = np.stack([slot.row.base for slot in self.slots])
            self.bases_t, self.bases_conj = bases.swapaxes(1, 2), bases.conj()

    def _directions(self, idx: list) -> None:
        """Gradient and search direction of the slots ``idx`` at their V."""
        k, m = len(idx), self.m
        V, rows = self.V[idx], self.rows[idx]
        u, s, wh = np.linalg.svd(rows[..., self.obj.perm], full_matrices=False)
        grads = (u @ wh).reshape(k, m, self.n)[..., self.inverse]
        E = (2.0 * s.sum(axis=-1))[..., None] * (grads @ self.bases_conj[idx])
        xi = _tangent(V, E)
        old_xi, old_D = self.xi[idx], self.D[idx]
        # Polak-Ribiere+; a new slot has old_xi = 0 and so beta = 0
        den = _inner(old_xi, old_xi)
        num = _inner(xi, xi - _tangent(V, old_xi))
        beta = np.maximum(np.divide(num, den, out=np.zeros(k), where=den > 0.0), 0.0)
        D = xi + beta[:, None, None] * _tangent(V, old_D)
        reset = (beta == 0.0) | (_inner(D, xi) <= 0.0)
        D[reset] = xi[reset]
        self.xi[idx], self.D[idx] = xi, D
        for s, flag in zip(idx, reset.tolist()):
            self.slots[s].along_gradient = flag

    def _advance(self) -> None:
        slots = self.slots
        fresh = [s for s, slot in enumerate(slots) if slot.fresh]
        if fresh:
            self._directions(fresh)
        steps = np.array([slot.step for slot in slots])[:, None] * _ASCENT_SCALES
        cands = _reorthonormalize(self.V[:, None] + steps[..., None, None] * self.D[:, None])
        cand_rows = cands @ self.bases_t[:, None]
        values = self.contribs(cand_rows.reshape(-1, self.n)).reshape(
            len(slots), len(_ASCENT_SCALES), self.m).sum(axis=-1)
        best = values.argmax(axis=1).tolist()
        values = values.tolist()
        moved, retry, finished = [], [], []
        for s, (slot, c) in enumerate(zip(slots, best)):
            value = values[s][c]
            if value > slot.total:
                gain = value - slot.total
                slot.total, slot.step, slot.fresh = value, slot.step * _ASCENT_SCALES[c], True
                moved.append(s)
                ended = gain < max(1e-12, slot.row.cfg.value_slack(value - 1.0) / 16.0)
            else:
                slot.fresh = False
                retry.append(s)
                ended = slot.along_gradient
            if ended or not slot.begin_sweep():
                finished.append(s)
        if moved:
            won = [best[s] for s in moved]
            self.V[moved], self.rows[moved] = cands[moved, won], cand_rows[moved, won]
        if retry:
            self.D[retry] = self.xi[retry]
            for s in retry:
                slots[s].along_gradient = True
        if finished:
            self._settle([(slots[s], self.V[s].copy()) for s in finished], [])


def optimize_roof_block(mats, dims, cut: Bipartition, configs) -> list[RoofResult]:
    """:func:`optimize_roof` of every checked density matrix in a stack
    ``(rows, d, d)`` over one ``dims`` and one ``cut``, row ``b`` under
    ``configs[b]``; one :class:`RoofResult` per row, in order.

    On generic cuts, the searches of every row whose decompositions share
    m, r and direction run as one array program: a step of the MIN
    program advances every running restart by one row pair, and a step
    of the MAX ascent advances every running restart by one gradient
    step.  The first restarts of a row run concurrently, and a result its
    sequential loop would not reach is discarded.  On 2x2-by-2x2 cuts
    each row runs its exact pair searches one restart at a time.  Each
    result equals, bit for bit, what :func:`optimize_roof` gives on its
    row alone.  Every row must have the shape of ``dims``, since all
    share the objective's index map.
    """
    dims = tuple(dims)
    cut.validate(len(dims))
    d = prod(dims)
    if len(configs) != len(mats):
        raise ValueError(f"{len(configs)} configs for {len(mats)} rows")
    for b, mat in enumerate(mats):
        if np.shape(mat) != (d, d):
            raise ValueError(f"row {b} has shape {np.shape(mat)}, not that of dims {dims}")
    obj = _Objective(dims, cut.a_side, cut.b_side)
    searches = [_Restarts(mat, dims, cfg or RoofConfig()) for mat, cfg in zip(mats, configs)]
    if obj.det_mode:
        for search in searches:
            pending = search.launch(speculate=False)
            while pending:
                t = pending.pop()
                V = search.initial(t)
                pending += search.finish(t, *_pair_exact_search(obj, search.base, V, search.cfg))
    else:
        groups: dict[tuple[bool, int, int], list] = {}
        for search in searches:
            groups.setdefault((search.minimize, search.m, search.rank), []).extend(
                (search, t) for t in search.launch(speculate=True))
        for (minimize, m, r), starts in groups.items():
            (_Program if minimize else _Ascent)(obj, m, r).run(starts)
    return [search.result() for search in searches]


def optimize_roof(rho: DensityMatrix, cut: Bipartition, config: RoofConfig | None = None) -> RoofResult:
    """Optimize the mean pure-state negativity over decompositions of ``rho``.

    ``cut`` is a :class:`negmono.states.Bipartition` of ``rho.dims``.
    The restart budget is split between independent starting points and
    perturbation hops around the incumbent: restart 0 starts from the
    eigendecomposition itself (so the returned optimum can never be worse
    than the raw eigenmixture), the first half continues from seeded
    Haar-random isometries, and the remainder re-searches from small
    random kicks of the best point found so far, which escapes the shallow
    stationary points this landscape is prone to.  Non-convergence is
    never fatal: disagreement between searches surfaces as a large
    ``restart_spread``, and the result says how many restarts and sweeps
    ran and why the loop stopped.  One call runs one restart budget and
    returns its best value as found; a minimization relaxed by
    ``squared_tolerance`` that stops just above ``min_floor`` is not rerun
    at full precision.  This is the block of one of
    :func:`optimize_roof_block`, so its first restarts run concurrently.
    """
    return optimize_roof_block(rho.matrix[None], rho.dims, cut, [config])[0]

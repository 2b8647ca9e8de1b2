"""Primal-dual solvers for spectrogram inpainting.

The one iteration loop, ``gcpa_inner``, is a Chambolle-Pock iteration
whose primal lives in the time domain (a real signal) while its one dual is
a TF matrix; the penalty is the phase-corrected total variation of the
analysis coefficients.  The data constraint -- agree with the observation
on the reliable columns -- needs no dual: each column is one frame and
M >= W, so the reliable columns fix the signal wherever their windows
reach, and the iteration moves only the samples they leave free.  A real
primal sees only the conjugate-symmetric part of a coefficient matrix, so
the dual is kept on frequency rows 0..M//2 and goes through the real-input
frame operator of ``stft``.  The loop uses the tight default window and one
dual step, ``_dual_step``, whose block norms count the mirrored rows.

``frame_runs`` groups the gaps of a mask into independent runs of frames
on the full-length grid and finds which of them move, ``_observe`` sets one
up on its own sample span (a run that reaches round the circle is the
whole circle), and ``solve_observed`` solves it with one of ``METHODS``.
A run with no free sample (a gap of one or two columns at hop W/4) cannot
move: ``_observe`` restores it in closed form, with one synthesis of the
frames that reach its gap frames and one analysis of those, and it takes
no iteration, IF estimate or dual.  The runs that move are solved by:

* ``uphain``  -- re-estimates the instantaneous frequency from the
  current reconstruction before every inner run (the full iterated method).
* ``bphain``  -- one inner run at an IF estimated once from the
  corrupted observation; ``bphain_oracle`` estimates it from a supplied
  ground-truth signal instead.
* ``tf_only`` -- the ablation without phase correction: ``bphain``'s one
  inner run with omega fixed at 0 (every correction factor is 1), i.e. the
  plain time-direction total variation on the same free samples; no IF
  estimate.

Every method runs ``solve_observed``'s outer loop over ``gcpa_inner`` on a
run that moves; they differ only in where omega comes from and in the
number of rounds.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .phase_prior import correction_factors, estimate_if
from .prox import Thresholder, _zero_cols
from .stft import (
    _expand,
    _frame_plan,
    _hermitian_half,
    _irfft_frames,
    _is_int,
    _overlap_add,
    _rfft_frames,
    default_window,
)

METHODS = ("uphain", "bphain", "bphain_oracle", "tf_only")

# A sample is left free when d_rel, the share of its tight-frame energy
# M*sum_n w(t - a*n)**2 = 1 that the reliable frames carry, is at most this
# (about the square root of the double epsilon).  Fixing a sample at
# b / d_rel amplifies an error in the observation by up to 1/sqrt(d_rel), so
# the cut bounds that gain at 1e4.  With W = 2048 at hop W/4, d_rel next to
# a window zero is 3.7e-12: a 3-column gap leaves 15 samples free, not 1,
# and a gap of g >= 4 columns (g - 3)*512 + 15.
FREE_DREL = 1e-8


class DivergenceError(RuntimeError):
    """Raised when an iterate stops being finite.

    args is (iteration,) and the message is built on demand, so the error
    pickles (it crosses from a pool worker) without doubling its message.
    """

    def __init__(self, iteration):
        super().__init__(iteration)
        self.iteration = iteration

    def __str__(self):
        return f"solver diverged at iteration {self.iteration}"


@dataclass(frozen=True)
class SolverConfig:
    """The dual step sigma, regularization and iteration budget.

    sigma is the one step knob: the primal step ``tau`` = 1/(4*sigma) puts
    tau*sigma*||D R_omega ana||**2 on the Chambolle-Pock bound 1 (the norm
    is at most 2 for the tight default window, which the solvers always
    use).  ``thresholder`` (soft by default) is applied at level ``lam``.
    """

    sigma: float = 1.0
    lam: float = 0.01
    inner_iters: int = 500
    outer_iters: int = 10
    epsilon: float = 0.001
    thresholder: Thresholder = Thresholder()

    @property
    def tau(self):
        return 0.25 / float(self.sigma)  # a Python float: no overflow warning

    def __post_init__(self):
        if not all(not isinstance(v, (bool, np.bool_)) and math.isfinite(v)  # True is no 1.0
                   for v in (self.sigma, self.lam, self.epsilon)):
            raise ValueError("sigma, lambda and epsilon must be finite numbers")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not math.isfinite(self.tau):
            raise ValueError(f"sigma {self.sigma!r} is too small: tau = 1/(4*sigma) overflows")
        for name, least in (("inner_iters", 1), ("outer_iters", 0)):  # as _job_count checks jobs
            n = getattr(self, name)
            if not _is_int(n) or n < least:
                raise ValueError(f"{name} must be an integer >= {least}, not {n!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.thresholder(np.zeros(0, dtype=complex), self.lam)  # its checks of lam (sign, overflow)


def _dual_step(Q, thresh, lam, M, mag):
    """Q - thresh(Q, lam), in place, for the conjugate-symmetric dual with rows
    0..M//2 = Q (frames-major); mag is a real work array of Q's shape."""
    if thresh.kind == "soft":
        # Q - soft(Q) is the entrywise projection onto the lam-ball; the
        # floor makes a zero entry 0 at lam = 0
        np.abs(Q, out=mag)
        np.maximum(mag, lam or 1e-300, out=mag)
        np.divide(lam, mag, out=mag)
        Q *= mag
        return Q
    if thresh.kind == "l2_block":  # on all M rows: the norm counts the mirrored rows
        Q -= thresh(_expand(Q, M), lam)[: Q.shape[1]].T
    else:  # entrywise, mapping conj(z) to the conjugate of z's image: rows 0..M//2
        Q -= thresh(Q, lam)
    return Q


def _finite(a):
    """np.all(np.isfinite(a)), from one sum when that is finite (a finite
    sum has no infinite or NaN term)."""
    return bool(np.isfinite(np.add.reduce(a, axis=None))) or bool(np.all(np.isfinite(a)))


def find_gaps(mask):
    """Maximal runs of consecutive zero columns, ascending, as ranges."""
    cols = np.unique(_zero_cols(mask))
    runs = np.split(cols, np.flatnonzero(np.diff(cols) > 1) + 1)
    return [range(int(r[0]), int(r[-1]) + 1) for r in runs if r.size]


@dataclass(frozen=True)
class FrameRun:
    """Frames start .. start + count - 1 (modulo N) of the full-length grid,
    on which the gaps in ``gaps`` (column ranges, in frame order) are solved;
    ``moves``, whether a frame touches a free sample (``frame_runs`` finds
    it; a run made by hand is taken to move), is left out of comparisons."""

    start: int
    count: int
    gaps: tuple
    moves: bool = field(default=True, compare=False)


def _overlap(cfg):
    """r = ceil(W/a) - 1: the frames each side of a frame that share a sample
    with it."""
    return -(-cfg.window_len // cfg.hop) - 1


def _touching(first, last, cfg):
    """(the first frame touching sample first, the last touching sample
    last): frame n touches sample t when a*n <= t < a*n + W."""
    return -((cfg.window_len - 1 - first) // cfg.hop), last // cfg.hop


def _reach(start, count, cfg):
    """(r, frames, span): frames start..start+count-1 with the r of
    ``_overlap`` each side, which reach their samples (mod N; none for the
    whole circle), and the slice of the frames' span buffer that holds those
    samples."""
    W, a = cfg.window_len, cfg.hop
    if count == cfg.n_frames:
        return 0, np.arange(count), slice(None)
    r = _overlap(cfg)
    frames = (start - r + np.arange(count + 2 * r)) % cfg.n_frames
    return r, frames, slice(a * r, a * (r + count - 1) + W)


def _d_rel(reliable, cfg, circular):
    """The overlap-add of M*w**2 over the frames flagged ``reliable``: the
    share of each sample's tight-frame energy that they carry, read-only: a
    span's is kept in a bounded cache per pattern, the circle's is not."""
    of = _d_rel_of.__wrapped__ if circular else _d_rel_of
    return of(np.asarray(reliable, dtype=bool).tobytes(), cfg, circular)


@lru_cache(maxsize=64)
def _d_rel_of(pattern, cfg, circular):
    w = default_window(cfg)
    d_rel = _overlap_add(np.frombuffer(pattern, dtype=bool)[:, None] * (w * (w * cfg.channels)),
                         cfg, circular)
    d_rel.flags.writeable = False
    return d_rel


def _free(reliable, span, cfg, circular):
    """(d_rel, free, moving) on the span (``_reach``) of frames flagged
    ``reliable``: their ``_d_rel``, the samples with d_rel <= FREE_DREL, and
    the hull of the frames that touch one, counted from the span's first
    frame: none when no sample is free, every frame on the circle."""
    d_rel = _d_rel(reliable, cfg, circular)[span]
    free = d_rel <= FREE_DREL
    if circular:
        return d_rel, free, slice(0, len(reliable))
    f = np.flatnonzero(free)
    if not f.size:
        return d_rel, free, slice(0, 0)
    first, last = _touching(int(f[0]), int(f[-1]), cfg)
    return d_rel, free, slice(first, last + 1)


def _reliable(zero_cols, N):
    """Whether each of the N columns is reliable: not among zero_cols."""
    return np.bincount(_zero_cols(zero_cols), minlength=N) == 0


def frame_runs(zero_cols, cfg):
    """Group the gaps of a mask into independent frame runs.

    A gap's run is its own columns plus every frame that touches one of its
    free samples (``_free`` of the frames that reach the gap), widened by
    one frame each side for the time difference; runs that share a frame
    merge, modulo N at the file ends.  The terms other frames form are
    constant.  A run that would reach round the circle onto itself (see
    ``_reach``) becomes the whole circle.  A run moves when one of its gaps
    has a free sample: every sample a gap frame does not touch has d_rel 1.
    """
    return _frame_runs(_reliable(zero_cols, cfg.n_frames), cfg)


def _frame_runs(reliable, cfg):
    """``frame_runs`` of the gap columns that ``reliable`` does not flag."""
    gaps = find_gaps(np.flatnonzero(~reliable))
    W, a, N = cfg.window_len, cfg.hop, cfg.n_frames
    spans, moving = [], set()
    for gap in gaps:
        _, frames, span = _reach(gap.start, len(gap), cfg)
        hull = _free(reliable[frames], span, cfg, False)[2]
        if hull.stop > hull.start:
            moving.add(gap)
        lo = gap.start + min(0, hull.start)
        hi = gap.start + max(len(gap), hull.stop) - 1
        spans.append([lo - 1, hi + 1])

    merged = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    while len(merged) > 1 and merged[-1][1] >= merged[0][0] + N:
        merged[-1][1] = max(merged[-1][1], merged.pop(0)[1] + N)
    r = _overlap(cfg)
    if any(hi - lo + 1 >= N or a * (hi - lo + 2 * r) + W > cfg.signal_len for lo, hi in merged):
        return [FrameRun(0, N, tuple(gaps), bool(moving))]
    runs = [(lo % N, hi - lo + 1, tuple(sorted((g for g in gaps if (g.start - lo) % N <= hi - lo),
                                               key=lambda g: (g.start - lo) % N)))
            for lo, hi in merged]
    return [FrameRun(start, count, run_gaps, not moving.isdisjoint(run_gaps))
            for start, count, run_gaps in runs]


@dataclass
class _Run:
    """A FrameRun set up for the iteration (see ``_set_up``): Xc, reliable,
    gaps (positions) and ramp over its frames (Xc and ramp frames-major);
    free, x_det and x0 over its span; moving, the slice of its frames that
    touch a free sample (their contiguous hull, or on the circle every
    frame); cols, the grid columns of its gaps; cut, the position of its
    pair N-1 -> 0, which is no difference term (or an empty slice); peak,
    the scale its data was divided by; start, the run's first frame."""

    cfg: object
    circular: bool
    Xc: np.ndarray
    reliable: np.ndarray
    gaps: np.ndarray
    cols: np.ndarray
    free: np.ndarray
    x_det: np.ndarray
    ramp: np.ndarray
    moving: slice
    cut: object
    x0: np.ndarray
    peak: float
    start: int


@dataclass
class _Fixed:
    """A FrameRun that cannot move, restored by ``_observe``: cols, the grid
    columns of its gaps, values, their coefficients (M rows), and source,
    the (X_corr, reliable, run) a trace sets up again with ``_set_up``."""

    cols: np.ndarray
    values: np.ndarray
    source: tuple


def _gather(X_corr, frames, rel):
    """Rows 0..M//2 of the conjugate-symmetric part of the columns
    ``frames`` of X_corr, frames-major, with those not flagged ``rel`` set
    to 0 whatever X_corr holds; a non-finite coefficient in a reliable
    column raises ValueError."""
    unwrapped = frames[-1] - frames[0] == len(frames) - 1  # then a column slice, not a copy
    with np.errstate(over="ignore", invalid="ignore"):  # whatever the gap columns hold
        Xh = _hermitian_half(X_corr.data[:, slice(frames[0], frames[-1] + 1) if unwrapped
                                         else frames])
        Xh[~rel] = 0.0  # assigned, so +0 as apply_mask writes it
        if not _finite(Xh):
            bad = frames[~np.all(np.isfinite(Xh), axis=1)].tolist()
            raise ValueError(f"reliable column(s) {bad} of the run on columns {frames[0]}.."
                             f"{frames[-1]} hold a non-finite coefficient")
    return Xh


def _gap_coeffs(x, gaps, ramp, cfg):
    """All M rows of the coefficients of the frames at positions ``gaps``
    (ascending) of those whose samples x holds, ramp their phase rows: only
    the gap frames' hull is analysed (wrapping round x on the circle), a
    frame's rFFT being its own row."""
    g0, a = gaps[0], cfg.hop
    hull = np.take(x, a * g0 + np.arange(a * (gaps[-1] - g0) + cfg.window_len), mode="wrap")
    A = _rfft_frames(hull, default_window(cfg), cfg, False)[gaps - g0]
    return _expand(A * ramp[gaps], cfg.channels)


def _observe(X_corr, reliable, run):
    """Set up a FrameRun of X_corr from the columns that reach it (reliable
    flags every column): one that moves as ``_set_up`` does, one that
    cannot move restored at once, as a ``_Fixed``.

    syn o P_rel o ana multiplies by d_rel, the overlap-add of M*w**2 over
    the reliable frames (``_d_rel``; the mask removes whole frames, M >= W:
    the frame operator is diagonal).  So a signal agreeing with X on the
    reliable columns has d_rel*x = b with b = syn(P_rel X), and x_det =
    b / d_rel wherever d_rel > 0.  A run with no free sample is that: x_det
    is synthesized once, at the scale of X, on its g gap frames (its first
    gap column to its last) from the g + 2r frames that reach them (r of
    ``_overlap``), and those g frames are analysed; no peak, x0 or
    iteration.  A non-finite coefficient in a reliable column it reads
    raises ValueError.
    """
    if run.moves:
        return _set_up(X_corr, reliable, run)
    cfg = X_corr.config
    N = cfg.n_frames
    g0 = run.gaps[0].start
    gaps = np.concatenate([(g.start - g0) % N + np.arange(len(g)) for g in run.gaps])
    count = int(gaps[-1]) + 1
    circular = count == N
    reach, frames, span = _reach(g0, count, cfg)
    rel = reliable[frames]
    ramp = _frame_plan(cfg, g0 - reach, len(frames))
    V = np.conj(ramp)
    V *= _gather(X_corr, frames, rel)
    x_det = _irfft_frames(V, default_window(cfg), cfg, circular)[span]
    x_det /= _d_rel(rel, cfg, circular)[span]
    values = _gap_coeffs(x_det, gaps, ramp[reach:], cfg)
    return _Fixed((g0 + gaps) % N, values, (X_corr, reliable, run))


def _set_up(X_corr, reliable, run):
    """Set up a FrameRun of X_corr as a ``_Run`` for the iteration, scaled
    so the synthesized observation, its start x0, peaks at 1 on its span
    (lam keeps its scale).  x_det = b / d_rel (``_observe``) holds where
    ``_free`` fixes a sample; the samples it leaves free, where the division
    would amplify errors in Xc too much, are not fixed, and the frames that
    touch them are the run's ``moving``.
    """
    cfg = X_corr.config
    N = cfg.n_frames
    w = default_window(cfg)
    start, count = run.start, run.count
    circular = count == N
    reach, frames, span = _reach(start, count, cfg)
    rel = reliable[frames]
    Xh = _gather(X_corr, frames, rel)

    ramp = _frame_plan(cfg, start - reach, len(frames))
    cr = np.conj(ramp)
    # cr * Xh at every size: numpy's temporary elision swaps the operands from 256 KiB on
    x0 = _irfft_frames(cr * Xh, w, cfg, circular)[span]
    peak = float(np.max(np.abs(x0))) or 1.0
    Xh, x0 = Xh / peak, x0 / peak
    d_rel, free, moving = _free(rel, span, cfg, circular)
    x_det = _irfft_frames(Xh * cr, w, cfg, circular)[span]
    x_det /= np.maximum(d_rel, FREE_DREL)

    inner = slice(reach, reach + count)
    gaps = np.flatnonzero(~rel[inner])
    cut = N - 1 - start if start + count > N and not circular else slice(0)
    return _Run(cfg, circular, Xh[inner], rel[inner], gaps, frames[inner][gaps],
                free, x_det, ramp[inner], moving, cut, x0, peak, start)


def _row_weights(M):
    """Weights of rows 0..M//2 in a sum over all M rows of a conjugate-
    symmetric matrix: the DC row once, the Nyquist row once when M is even,
    every other row twice."""
    wt = np.full(M // 2 + 1, 2.0)
    wt[0] = 1.0
    if M % 2 == 0:
        wt[-1] = 1.0
    return wt


def _trace_terms(A, rot, Xc, reliable, M, lam, cut=slice(0)):
    """(lam * ||D(rot*A)||_1, ||P_rel(A - Xc)||_F) over all M rows, given
    rows 0..M//2 of conjugate-symmetric A and Xc (frames-major)."""
    row_weight = _row_weights(M)
    V = A * rot
    var = np.abs(V[:-1] - V[1:])
    var[cut] = 0.0
    obj = lam * float(np.sum(row_weight * var))
    diff2 = row_weight * np.abs(A - Xc) ** 2
    return obj, float(np.sqrt(np.sum(diff2[reliable])))


def gcpa_inner(x0, Z0, run, omega, cfg, rows=None):
    """Run ``cfg.inner_iters`` primal-dual iterations at fixed omega -> (x, Z).

    run is a frame run that moves, set up by ``_set_up``; the primal x0 lives on
    its span, the dual Z0 on rows 0..M//2 of its k - 1 frame pairs,
    frames-major (k - 1, M//2 + 1), as the returned ones do; omega lives on
    its k frames.  x0 and Z0 are not mutated.
    ``rows``, if given, is a (cfg.inner_iters, 2) float array; row i - 1
    receives (objective, feasibility_residual) after iteration i, as
    ``_trace_terms`` gives them at x.
    Tracing costs no transform: T = sigma*D(R_omega ana(x)) (the cut pair
    zero) and the reliable moving frames' sigma*R_omega ana(x) are carried
    along from the loop's own differences Q and its A2 of the extrapolated
    point, moved halfway as x is (the analysis is linear), so a row is
    (lam/sigma)*sum|T| and a fixed-frame feasibility constant plus the
    carried frames, to round-off, both scaled once after the loop.
    Divergence (a non-finite moving sample) raises DivergenceError with the
    iteration index.

    Free samples.  The reliable columns fix x wherever their windows reach
    (``_observe``), so the feasible set is "those samples at x_det, the
    rest free", and the data constraint needs no dual: this is plain
    Chambolle-Pock on min lam*||D R_omega ana(x)||_1 over the free samples.
    The primal step moves only the free samples and holds the others at
    x_det; the start is reset to x_det there too, so every iterate is
    feasible.  A run with no free sample (a gap of one or two columns at
    hop W/4) never comes here: ``_observe`` restores it as x_det.

    Moving frames.  Only the frames that touch a free sample (the run's
    ``moving`` hull) are transformed in the loop, and this is exact: on a
    fixed sample 2*x_det - x_det == x_det and x - 0*v == x in floating
    point, so every other frame's analysis is the one at x_det, taken once
    per call, and a frame that touches no free sample adds nothing to a
    free sample in the overlap-add.

    Half spectrum.  A real primal sees only the conjugate-symmetric part of
    a coefficient matrix, so the observation enters through that part, and
    the iteration and its dual run on its rows 0..M//2 with the real-input
    transforms of ``stft``, frames-major.  Fixed phase factors (frame ramp,
    omega rotation, step scales) are folded into single precomputed
    matrices, and the loop's work arrays are allocated once.
    """
    scfg, circular, cut, fm = run.cfg, run.circular, run.cut, run.moving
    w = default_window(scfg)
    M, W, a = scfg.channels, scfg.window_len, scfg.hop

    x = np.where(run.free, x0, run.x_det)
    Z = Z0.copy()
    rot = correction_factors(omega[: M // 2 + 1], a, M).T
    ramp_rot_sigma = run.ramp * rot * cfg.sigma  # corrected analysis, dual step folded
    A2 = _rfft_frames(x, w, scfg, circular) * ramp_rot_sigma  # the fixed frames read x_det alone
    if rows is not None:
        # T = sigma*D(R_omega A x) over the pairs, C = A2 over the reliable
        # moving frames; rot has unit modulus, so |A - Xc| = |C - Xs| / sigma
        wt, pm = _row_weights(M), slice(max(fm.start - 1, 0), fm.stop)
        T = A2[:-1] - A2[1:]
        T[cut] = 0.0
        Xs = run.Xc * rot * cfg.sigma
        fixed = run.reliable.copy()
        fixed[fm] = False
        fixed2 = np.sum(wt * np.abs(A2[fixed] - Xs[fixed]) ** 2)  # constant
        rel = fm.start + np.flatnonzero(run.reliable[fm])
        C, Xs = A2[rel], Xs[rel]

    # xm, the moving frames' samples, is a view of x, updated in place
    span = slice(None) if circular else slice(a * fm.start, a * (fm.stop - 1) + W)
    xm = x[span]
    tau_free = cfg.tau * run.free[span]  # primal step, zero on fixed samples
    rcr = np.conj(rot[fm] * run.ramp[fm])  # corrected-adjoint synthesis factor
    DZ = np.empty((len(Z) + 1, Z.shape[1]), dtype=complex)
    x_half, xbar = np.empty_like(xm), np.empty_like(xm)
    Q, mag = np.empty_like(Z), np.empty(Z.shape)

    # divergence is detected explicitly, so silence the overflow warnings a
    # blown-up iterate would otherwise spray before the check fires
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.inner_iters):
            # back = syn(R*_omega D* Z) on the moving frames
            DZ[0] = Z[0]
            np.subtract(Z[1:], Z[:-1], out=DZ[1:-1])
            np.negative(Z[-1], out=DZ[-1])
            DZ[fm] *= rcr
            np.multiply(tau_free, _irfft_frames(DZ[fm], w, scfg, circular), out=x_half)
            np.subtract(xm, x_half, out=x_half)

            np.multiply(x_half, 2.0, out=xbar)
            xbar -= xm
            np.multiply(_rfft_frames(xbar, w, scfg, circular), ramp_rot_sigma[fm], out=A2[fm])
            np.subtract(A2[:-1], A2[1:], out=Q)
            if rows is not None:  # x_half is the midpoint of xm and xbar
                T[pm] += 0.5 * (Q[pm] - T[pm])
                T[cut] = 0.0
                C += 0.5 * (A2[rel] - C)
            Q += Z
            Q[cut] = 0.0
            _dual_step(Q, cfg.thresholder, cfg.lam, M, mag)  # Q holds the dual step now

            Z, Q = Q, Z
            xm[:] = x_half
            if not _finite(xm):
                raise DivergenceError(i + 1)
            if rows is not None:
                rows[i] = np.sum(wt * np.abs(T)), np.sum(wt * np.abs(C - Xs) ** 2)

    if rows is not None:
        rows[:, 0] *= cfg.lam / cfg.sigma
        rows[:, 1] = np.sqrt(fixed2 + rows[:, 1]) / cfg.sigma
    return x, Z


def _omega_source(run, method, x_true):
    """The IF of a round of ``method`` on a ``_Run``, as a function of the
    current reconstruction (x_true, a whole signal, is read over the span)."""
    scfg = run.cfg
    estimate = lambda x: estimate_if(x, scfg, circular=run.circular)
    if method == "bphain_oracle":
        # one round, so the oracle's estimate is taken at most once
        truth = np.take(x_true, scfg.hop * run.start + np.arange(len(run.x0)), mode="wrap")
        return lambda x: estimate(truth)
    if method == "tf_only":
        return lambda x: np.zeros((scfg.channels, len(run.reliable)))
    return estimate


def _held(obs, cfg, method, x_true, traced, rounds):
    """info of a ``_Fixed`` run: at x_det from the first round on, so a
    second round changes nothing and stops.  Traced, the run is set up as
    one that moves (x0, peak and omega, which nothing else reads), and each
    round's rows repeat the terms at x_det, at the normalized scale."""
    used = min(rounds, 2)
    info = {"outer_iters_used": used, "stopped_early": used == 2,
            "final_change": 0.0 if used == 2 else None}
    if traced:
        run = _set_up(*obs.source)
        scfg, M = run.cfg, run.cfg.channels
        F = _rfft_frames(run.x_det, default_window(scfg), scfg, run.circular) * run.ramp
        omega_of = _omega_source(run, method, x_true)
        rows = []
        for x in (run.x0, run.x_det)[:used]:  # round j starts from the output of round j - 1
            rot = correction_factors(omega_of(x)[: M // 2 + 1], scfg.hop, M).T
            terms = _trace_terms(F, rot, run.Xc, run.reliable, M, cfg.lam, run.cut)
            rows.append(np.tile(terms, (cfg.inner_iters, 1)))
        info["trace"] = np.concatenate(rows)
    return info


def solve_observed(obs, cfg, method="uphain", x_true=None, traced=False):
    """Restore the gaps of a FrameRun ``_observe`` has set up with one of
    ``METHODS`` (x_true, a whole signal, is read over the run's span): up to
    cfg.outer_iters + 1 inner runs (uphain; 1 otherwise) from obs.x0, each
    at the omega of the current reconstruction, until consecutive outputs
    move less than cfg.epsilon in l2.  Returns (the grid columns of the
    run's gaps, their coefficients (M rows), info); traced, info["trace"]
    holds the (objective, feasibility) row of every inner iteration run, an
    (outer_iters_used * inner_iters, 2) array.  A run that cannot move is
    already restored: it takes no IF estimate and no iteration, and reports
    the rounds and rows the loop would have (``_held``).  Only the gap
    frames' hull is analysed: a frame's rFFT is its own row."""
    rounds = cfg.outer_iters + 1 if method == "uphain" else 1
    if isinstance(obs, _Fixed):
        return obs.cols, obs.values, _held(obs, cfg, method, x_true, traced, rounds)
    omega_of = _omega_source(obs, method, x_true)
    x, Z = obs.x0, np.zeros_like(obs.Xc[1:])  # a zero dual on the k - 1 pairs
    rows = np.empty((rounds, cfg.inner_iters, 2)) if traced else None  # round j's in rows[j]
    info = {"outer_iters_used": 0, "stopped_early": False, "final_change": None}

    for j in range(rounds):
        prev = x
        x, Z = gcpa_inner(x, Z, obs, omega_of(prev), cfg, rows[j] if traced else None)
        info["outer_iters_used"] = j + 1
        # the starting synthesis is not an output: the first change compared
        # is the one between the first two inner runs
        if j >= 1:
            change = float(np.linalg.norm(x - prev))
            info["final_change"] = change
            if change < cfg.epsilon:
                info["stopped_early"] = True
                break

    if traced:
        info["trace"] = rows[: info["outer_iters_used"]].reshape(-1, 2)
    return obs.cols, _gap_coeffs(x, obs.gaps, obs.ramp, obs.cfg) * obs.peak, info


def operator_norm_estimate(apply, apply_adjoint, probe_shape, iters=50, seed=0):
    """Spectral norm of a linear map by power iteration on adjoint(apply(.)).

    The probe is a seeded real Gaussian of the given shape (the maps used
    here all have real domains).  Returns sqrt of the dominant eigenvalue of
    the normal operator.  Raises on non-finite intermediates.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(probe_shape)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return 0.0
    v = v / nrm
    lam_est = 0.0
    for _ in range(iters):
        u = apply_adjoint(apply(v))
        u = np.asarray(u)
        if not np.all(np.isfinite(u)):
            raise ValueError("non-finite value during power iteration")
        lam_est = np.linalg.norm(np.ravel(u))
        if lam_est == 0.0:
            return 0.0
        v = u / lam_est
    return float(np.sqrt(lam_est))

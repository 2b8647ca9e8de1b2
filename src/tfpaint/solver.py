"""Primal-dual solvers for spectrogram inpainting.

The workhorse is a Chambolle-Pock iteration whose primal lives in the time
domain (a real signal) while its one dual is a TF matrix; the penalty is the
phase-corrected total variation of the analysis coefficients.  The data
constraint -- agree with the observation on the reliable columns -- needs
no dual: each column is one frame and M >= W, so the reliable columns fix
the signal wherever their windows reach, and the iteration moves only the
samples they leave free (see ``gcpa_inner``).  A real primal sees only the
conjugate-symmetric part of a coefficient matrix, so the dual is kept on
frequency rows 0..M//2 and goes through the real-input frame operator of
``stft``.  Every solver uses the tight default window and one dual step,
``_dual_step``, whose block norms count the mirrored rows.

``frame_runs`` groups the gaps of a mask into independent runs of frames
on the full-length grid, and ``solve_run`` solves one on its own sample
span; the drivers solve the whole circle, the one run that folds.

Two drivers share one outer loop around the inner iteration:

* ``uphain_tf``   -- re-estimates the instantaneous frequency from the current
  reconstruction before every inner run (the full iterated method).
* ``bphain_tf``   -- one inner run at an IF estimated once, either from the
  corrupted observation or from a supplied ground-truth signal.

``cpa_tf_only`` is the ablation without phase correction: a plain
Chambolle-Pock iteration on the time-direction total variation (omega = 0)
whose primal stays in the TF domain, on rows 0..M//2; one run, kept for
comparison.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .phase_prior import _coeffs, correction_factors, estimate_if
from .prox import Thresholder, project_feasible
from .stft import (
    Spectrogram,
    _expand,
    _frame_plan,
    _hermitian_half,
    _irfft_frames,
    _overlap_add,
    _rfft_frames,
    _synthesize,
    default_window,  # public here too, as before the window moved to stft
    make_hann,
    make_hann_derivative,
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
    """Raised when an iterate stops being finite."""

    def __init__(self, iteration):
        super().__init__(f"solver diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverConfig:
    """Step sizes, regularization and iteration budget.

    tau/sigma must satisfy tau*sigma*4 <= 1 (||D R_omega ana|| <= 2 for the
    tight default window, which the solvers always use); set
    ``allow_unsafe`` to bypass the check deliberately.  ``thresholder``
    defaults to soft thresholding at level ``lam``.
    """

    tau: float = 0.25
    sigma: float = 1.0
    lam: float = 0.01
    inner_iters: int = 500
    outer_iters: int = 10
    epsilon: float = 0.001
    alpha_relax: float = 1.0
    thresholder: Thresholder = None
    allow_unsafe: bool = False

    def __post_init__(self):
        if min(self.tau, self.sigma) <= 0:
            raise ValueError("step sizes must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.inner_iters < 1:
            raise ValueError("inner_iters must be >= 1")
        if self.outer_iters < 0:
            raise ValueError("outer_iters must be >= 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.alpha_relax < 2.0:
            raise ValueError("alpha_relax must lie in (0, 2)")
        if not self.allow_unsafe and self.tau * self.sigma * 4.0 > 1.0 + 1e-12:
            raise ValueError(
                "tau*sigma*4 > 1 violates the dual step condition "
                "(pass allow_unsafe=True to override)"
            )
        if self.thresholder is None:
            object.__setattr__(self, "thresholder", Thresholder("soft", lam=self.lam))


@dataclass
class SolverState:
    """Primal signal x plus the dual matrix Z (M x (N-1))."""

    x: np.ndarray
    Z: np.ndarray


@lru_cache(maxsize=64)
def _if_windows(window_len):
    # IF estimation uses the plain Hann pair; the estimate is a ratio, so a
    # common rescaling of both windows (e.g. the tight normalization at 75%
    # overlap) leaves it unchanged.
    return make_hann(window_len), make_hann_derivative(window_len)


def _zero_cols(mask):
    return np.asarray(mask.zero_cols if hasattr(mask, "zero_cols") else mask, dtype=int)


def initial_state(X_corr):
    """Start of the outer loop: x = syn(X_corr), the dual zero."""
    cfg = X_corr.config
    x0 = _synthesize(_hermitian_half(X_corr.data), default_window(cfg).samples, cfg)
    M, N = X_corr.data.shape
    return SolverState(x0, np.zeros((M, N - 1), dtype=complex))


def _dual_step(Q, thresh, M):
    """Q - thresh(Q) for the conjugate-symmetric dual with rows 0..M//2 =
    Q (frames-major)."""
    if thresh.kind == "soft":
        # Q - soft(Q) is the entrywise projection onto the lam-ball
        mag = np.abs(Q)
        return Q * (np.minimum(mag, thresh.lam) / np.maximum(mag, 1e-300))
    # on all M rows, so a block norm counts the mirrored rows too
    return Q - thresh(_expand(Q, M))[: Q.shape[1]].T


def find_gaps(mask):
    """Maximal runs of consecutive zero columns, ascending, as ranges."""
    cols = np.unique(_zero_cols(mask))
    runs = np.split(cols, np.flatnonzero(np.diff(cols) > 1) + 1)
    return [range(int(r[0]), int(r[-1]) + 1) for r in runs if r.size]


@dataclass(frozen=True)
class FrameRun:
    """Frames start .. start + count - 1 (modulo N) of the full-length grid,
    on which the gaps in ``gaps`` (column ranges, in frame order) are solved."""

    start: int
    count: int
    gaps: tuple


def _reach(start, count, cfg):
    """(r, frames, span): frames start..start+count-1 with the r = ceil(W/a)-1
    each side that reach their samples (mod N; none for the whole circle),
    and the slice of the frames' span buffer that holds those samples."""
    W, a = cfg.window_len, cfg.hop
    if count == cfg.n_frames:
        return 0, np.arange(count), slice(None)
    r = -(-W // a) - 1
    frames = (start - r + np.arange(count + 2 * r)) % cfg.n_frames
    return r, frames, slice(a * r, a * (r + count - 1) + W)


def frame_runs(zero_cols, cfg):
    """Group the gaps of a mask into independent frame runs.

    A gap's run is its own columns plus every frame that touches one of its
    free samples, widened by one frame each side for the time difference;
    runs that share a frame merge, modulo N at the file ends.  The terms
    other frames form are constant.  A run that would reach round the
    circle onto itself (see ``_reach``) becomes the whole circle.
    """
    gaps = find_gaps(zero_cols)
    W, a, N = cfg.window_len, cfg.hop, cfg.n_frames
    w = default_window(cfg).samples
    reliable = ~np.isin(np.arange(N), _zero_cols(zero_cols))
    spans = []
    for gap in gaps:
        _, frames, span = _reach(gap.start, len(gap), cfg)
        d_rel = _overlap_add(reliable[frames][:, None] * (w * (w * cfg.channels)), cfg, False)
        free = a * gap.start + np.flatnonzero(d_rel[span] <= FREE_DREL)
        lo, hi = gap.start, gap.stop - 1
        if free.size:  # frame n touches sample t when a*n <= t < a*n + W
            lo, hi = min(lo, -((W - 1 - int(free[0])) // a)), max(hi, int(free[-1]) // a)
        spans.append([lo - 1, hi + 1])

    merged = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    while len(merged) > 1 and merged[-1][1] >= merged[0][0] + N:
        merged[-1][1] = max(merged[-1][1], merged.pop(0)[1] + N)
    r = -(-W // a) - 1  # as in _reach
    if any(hi - lo + 1 >= N or a * (hi - lo + 2 * r) + W > cfg.signal_len for lo, hi in merged):
        return [FrameRun(0, N, tuple(gaps))]
    return [FrameRun(lo % N, hi - lo + 1,
                     tuple(sorted((g for g in gaps if (g.start - lo) % N <= hi - lo),
                                  key=lambda g: (g.start - lo) % N)))
            for lo, hi in merged]


@dataclass
class _Run:
    """A FrameRun set up for the solvers (see ``_observe``): Xc, reliable,
    gaps (positions) and ramp over its frames (Xc and ramp frames-major);
    free, x_det and x0 over its span; moving, the slice of its frames that
    touch a free sample (their contiguous hull, the whole circle, or none);
    cols, the grid columns of its gaps; cut, the position of its pair
    N-1 -> 0, which is no difference term (or an empty slice); peak, the
    scale its data was divided by."""

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
    x0: np.ndarray = None
    peak: float = 1.0


def _observe(X_corr, zero, run=None):
    """Set up a FrameRun of X_corr from the columns that reach it, scaled so
    the synthesized observation, its start, peaks at 1 on its span (lam
    keeps its scale); or (run None) the whole spectrogram, as given."""
    cfg = X_corr.config
    N = cfg.n_frames
    w = default_window(cfg).samples
    start, count = (0, N) if run is None else (run.start, run.count)
    circular = count == N
    reach, frames, span = _reach(start, count, cfg)
    Xh = _hermitian_half(X_corr.data if circular else X_corr.data[:, frames])
    reliable = ~np.isin(frames, zero)

    x0, peak = None, 1.0
    if run is not None:
        ramp = _frame_plan(cfg, start - reach, len(frames))
        x0 = _irfft_frames(Xh * np.conj(ramp), w, cfg, circular)[span]
        peak = float(np.max(np.abs(x0))) or 1.0
        Xh, x0 = Xh / peak, x0 / peak
    free, x_det = _free_samples(Xh, reliable, w, cfg, start - reach, circular)
    free, x_det = free[span], x_det[span]

    f = np.flatnonzero(free)  # frame j touches sample t when a*j <= t < a*j + W
    if not f.size:
        moving = slice(0, 0)
    elif circular:
        moving = slice(0, count)
    else:
        moving = slice(-((cfg.window_len - 1 - int(f[0])) // cfg.hop), int(f[-1]) // cfg.hop + 1)

    inner = slice(reach, reach + count)
    gaps = np.flatnonzero(~reliable[inner])
    cut = N - 1 - start if start + count > N and not circular else slice(0)
    return _Run(cfg, circular, Xh[inner], reliable[inner], gaps, frames[inner][gaps],
                free, x_det, _frame_plan(cfg, start, count), moving, cut, x0, peak)


def _trace_terms(A, rot, Xc, reliable, M, lam, cut=slice(0)):
    """(lam * ||D(rot*A)||_1, ||P_rel(A - Xc)||_F) over all M rows, given
    rows 0..M//2 of conjugate-symmetric A and Xc (frames-major): the DC row
    counts once, the Nyquist row once when M is even, every other row
    twice."""
    row_weight = np.full(A.shape[1], 2.0)
    row_weight[0] = 1.0
    if M % 2 == 0:
        row_weight[-1] = 1.0
    V = A * rot
    var = np.abs(V[:-1] - V[1:])
    var[cut] = 0.0
    obj = lam * float(np.sum(row_weight * var))
    diff2 = row_weight * np.abs(A - Xc) ** 2
    return obj, float(np.sqrt(np.sum(diff2[reliable])))


def _free_samples(Xc, reliable, w, scfg, start=0, circular=True):
    """(free, x_det): the samples the reliable columns leave free, and the
    values they fix everywhere else, for the frames from ``start`` that Xc
    (rows 0..M//2, frames-major) and ``reliable`` cover: over their span, or
    the circle.

    syn o P_rel o ana multiplies by d_rel, the overlap-add of M*w**2 over
    the reliable frames (the mask removes whole frames, M >= W).  So a
    signal agreeing with Xc on the reliable columns has d_rel*x = b with
    b = syn(P_rel Xc), and x = b / d_rel wherever d_rel > 0.  Samples with
    d_rel <= FREE_DREL are left free instead, where the division would
    amplify errors in Xc too much.
    """
    d_rel = _overlap_add(reliable[:, None] * (w * (w * scfg.channels)), scfg, circular)
    ramp = _frame_plan(scfg, start, len(reliable))
    x_det = _irfft_frames(Xc * reliable[:, None] * np.conj(ramp), w, scfg, circular)
    return d_rel <= FREE_DREL, x_det / np.maximum(d_rel, FREE_DREL)


def gcpa_inner(state0, mask, X_corr, omega, cfg, trace=None):
    """Run ``cfg.inner_iters`` primal-dual iterations at fixed omega.

    X_corr is a Spectrogram whose gap columns ``mask`` lists, or one frame
    run as ``_observe`` sets it up (state on its span and k - 1 pairs,
    omega on its k frames).  state0 is not mutated.  ``trace``, if given, is
    called after each iteration with (iteration, objective,
    feasibility_residual) where the objective is lam * ||D R_omega ana(x)||_1;
    tracing costs one analysis of the moving frames per iteration.
    Divergence (a non-finite moving sample) raises DivergenceError with the
    iteration index.

    Free samples.  The reliable columns fix x wherever their windows reach
    (``_free_samples``), so the feasible set is "those samples at x_det,
    the rest free", and the data constraint needs no dual: this is plain
    Chambolle-Pock on min lam*||D R_omega ana(x)||_1 over the free samples.
    The primal step moves only the free samples and holds the others at
    x_det; the start is reset to x_det there too, so relaxation keeps every
    iterate feasible.  A gap of one or two columns at hop W/4 leaves no free
    sample and comes back as x_det.

    Moving frames.  Only the frames that touch a free sample (the run's
    ``moving`` hull) are transformed in the loop, and this is exact: on a
    fixed sample 2*x_det - x_det == x_det and x - 0*v == x in floating
    point, so every other frame's analysis is the one at x_det, taken once
    per call, and a frame that touches no free sample adds nothing to a
    free sample in the overlap-add.  A 1-2-column gap at hop W/4 has no
    moving frame and costs no transform per iteration; its dual still
    steps.

    Half spectrum.  A real primal sees only the conjugate-symmetric part of
    a coefficient matrix, so the observation and the starting dual enter
    through that part, and the iteration runs on its rows 0..M//2 with the
    real-input transforms of ``stft``, frames-major.  The returned dual is
    conjugate-symmetric.  Fixed phase factors (frame ramp, omega rotation,
    step scales) are folded into single precomputed matrices, and the
    loop's work arrays are allocated once.
    """
    run = X_corr if isinstance(X_corr, _Run) else _observe(X_corr, _zero_cols(mask))
    scfg, circular, cut, fm = run.cfg, run.circular, run.cut, run.moving
    w = default_window(scfg).samples
    M, W, a = scfg.channels, scfg.window_len, scfg.hop
    rot = correction_factors(_coeffs(omega)[: M // 2 + 1], a, M).T
    alpha = cfg.alpha_relax

    ramp_rot_sigma = run.ramp * rot * cfg.sigma  # corrected analysis, dual step folded

    x = np.where(run.free, state0.x, run.x_det)
    Z = _hermitian_half(state0.Z)
    F = _rfft_frames(x, w, scfg, circular)  # the fixed frames read x_det alone
    A2 = F * ramp_rot_sigma
    A = F * run.ramp if trace is not None else None
    Q = np.empty_like(Z)

    moving = fm.stop > fm.start
    if moving:
        # xm, the moving frames' samples, is a view of x, updated in place
        span = slice(None) if circular else slice(a * fm.start, a * (fm.stop - 1) + W)
        xm = x[span]
        tau_free = cfg.tau * run.free[span]  # primal step, zero on fixed samples
        rcr = np.conj(rot[fm] * run.ramp[fm])  # corrected-adjoint synthesis factor
        DZ = np.empty((len(Z) + 1, Z.shape[1]), dtype=complex)
        x_half, xbar = np.empty_like(xm), np.empty_like(xm)

    # divergence is detected explicitly, so silence the overflow warnings a
    # blown-up iterate would otherwise spray before the check fires
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.inner_iters):
            if moving:
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
            Q += Z
            Q[cut] = 0.0
            Z_half = _dual_step(Q, cfg.thresholder, M)

            Z = Z_half if alpha == 1.0 else Z + alpha * (Z_half - Z)
            if moving:
                if alpha == 1.0:
                    xm[:] = x_half
                else:
                    xm += alpha * (x_half - xm)
                if not np.all(np.isfinite(xm)):
                    raise DivergenceError(i + 1)
            if trace is not None:
                if moving:
                    np.multiply(_rfft_frames(xm, w, scfg, circular), run.ramp[fm], out=A[fm])
                trace(i + 1, *_trace_terms(A, rot, run.Xc, run.reliable, M, cfg.lam, cut))

    return SolverState(x, _expand(Z, M))


def _estimate(x, run):
    gh, gd = _if_windows(run.cfg.window_len)
    return estimate_if(x, gh, gd, run.cfg, circular=run.circular)


def _outer_loop(run, cfg, rounds, omega_of, trace=None):
    """Up to ``rounds`` inner runs from run.x0, each at omega_of(current
    reconstruction), stopping once consecutive outputs move less than
    cfg.epsilon in l2; returns (the gap columns, M rows, at scale; info)."""
    scfg = run.cfg
    state = SolverState(run.x0, np.zeros((scfg.channels, len(run.reliable) - 1), dtype=complex))
    xhat = state.x
    info = {"outer_iters_used": 0, "stopped_early": False, "final_change": None}

    for j in range(rounds):
        omega = omega_of(xhat)
        sub = None
        if trace is not None:
            sub = lambda i, o, f, _j=j: trace(_j * cfg.inner_iters + i, o, f)
        state = gcpa_inner(state, None, run, omega, cfg, trace=sub)
        xhat_prev, xhat = xhat, state.x
        info["outer_iters_used"] = j + 1
        # the starting synthesis is not an output: the first change compared
        # is the one between the first two inner runs
        if j >= 1:
            change = float(np.linalg.norm(xhat - xhat_prev))
            info["final_change"] = change
            if change < cfg.epsilon:
                info["stopped_early"] = True
                break

    A = _rfft_frames(xhat, default_window(scfg).samples, scfg, run.circular)
    return _expand(A[run.gaps] * run.ramp[run.gaps], scfg.channels) * run.peak, info


def _tf_only(run, cfg, trace=None):
    """The TF-domain ablation on one run; returns what ``_outer_loop`` does."""
    M = run.cfg.channels
    Xc, cut = run.Xc, run.cut
    X = X_bar = Xc.astype(complex)  # never updated in place
    Z = np.zeros((len(Xc) - 1, Xc.shape[1]), dtype=complex)
    DZ = np.zeros_like(X)
    tau, sigma = cfg.tau, cfg.sigma

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.inner_iters):
            Q = Z + sigma * (X_bar[:-1] - X_bar[1:])
            Q[cut] = 0.0
            Z = _dual_step(Q, cfg.thresholder, M)
            DZ[-1] = 0.0  # DZ = D* Z
            DZ[:-1] = Z
            DZ[1:] -= Z
            # project_feasible keeps columns: it sees the M-row orientation
            X_new = project_feasible((X - tau * DZ).T, run.gaps, Xc.T).T
            X_bar = 2.0 * X_new - X
            X = X_new
            if not np.all(np.isfinite(X)):
                raise DivergenceError(i + 1)
            if trace is not None:
                trace(i + 1, *_trace_terms(X, 1.0, Xc, run.reliable, M, cfg.lam, cut))

    info = {"outer_iters_used": 1, "stopped_early": False, "final_change": None}
    return _expand(X[run.gaps], M) * run.peak, info


def solve_run(X_corr, zero_cols, run, cfg, method="uphain", x_true=None, trace=None):
    """Restore the gaps of one FrameRun of X_corr (run None: the whole
    spectrogram as given) with one of ``METHODS``, all over the run's span,
    x_true's too; zero_cols lists every gap column.  Returns (the grid
    columns of the run's gaps, their coefficients (M rows), info)."""
    obs = _observe(X_corr, _zero_cols(zero_cols), run)
    if method == "tf_only":
        return (obs.cols, *_tf_only(obs, cfg, trace))
    if run is None:
        obs.x0 = initial_state(X_corr).x
    omega_of = lambda xhat: _estimate(xhat, obs)
    if method == "bphain_oracle":
        start = X_corr.config.hop * (run.start if run else 0)
        omega = _estimate(np.take(x_true, start + np.arange(len(obs.x0)), mode="wrap"), obs)
        omega_of = lambda xhat: omega
    rounds = cfg.outer_iters + 1 if method == "uphain" else 1
    return (obs.cols, *_outer_loop(obs, cfg, rounds, omega_of, trace))


def _whole(X_corr, mask, cfg, method, x_true=None, trace=None, return_info=False):
    """A driver's solve of the whole spectrogram as given, into a copy."""
    cols, values, info = solve_run(X_corr, mask, None, cfg, method, x_true, trace)
    out = np.array(X_corr.data)
    out[:, cols] = values
    out = Spectrogram(out, X_corr.config)
    return (out, info) if return_info else out


def uphain_tf(X_corr, mask, cfg, trace=None, return_info=False):
    """Iterated solver: IF re-estimation before every inner run.

    X_corr must already be peak-normalized with masked columns zeroed.  The
    outer loop runs at most cfg.outer_iters + 1 inner rounds and stops once
    consecutive outputs move less than cfg.epsilon in l2.  Reliable columns
    of the result equal X_corr exactly.
    """
    return _whole(X_corr, mask, cfg, "uphain", trace=trace, return_info=return_info)


def bphain_tf(X_corr, mask, cfg, omega_source="corrupted", x_true=None,
              trace=None, return_info=False):
    """Single-pass variant: the IF is estimated once, then frozen.

    omega_source selects where the estimate comes from: "corrupted" uses the
    synthesized observation, "oracle" uses the supplied ground-truth signal.
    One inner run of the shared outer loop.
    """
    if omega_source == "oracle":
        if x_true is None:
            raise ValueError("omega_source='oracle' requires x_true")
        x_true = np.asarray(x_true, dtype=float)
        if x_true.shape != (X_corr.config.signal_len,):
            raise ValueError("x_true length does not match the spectrogram config")
        method = "bphain_oracle"
    elif omega_source == "corrupted":
        method = "bphain"
    else:
        raise ValueError(f"unknown omega_source {omega_source!r}")
    return _whole(X_corr, mask, cfg, method, x_true, trace, return_info)


def cpa_tf_only(X_corr, mask, cfg, trace=None, return_info=False):
    """Ablation without phase correction, primal kept in the TF domain.

    Solves min_X lam*||D X||_1 + (feasibility indicator) directly over
    coefficient matrices with plain Chambolle-Pock: the time-direction total
    variation at omega = 0, so no IF estimate and no outer loop, one run of
    cfg.inner_iters iterations.  Step condition tau*sigma*4 <= 1 covers the
    operator norm here too (||D|| <= 2).  The iterates stay conjugate-
    symmetric, so the loop runs on rows 0..M//2 and expands once at the end.
    """
    return _whole(X_corr, mask, cfg, "tf_only", trace=trace, return_info=return_info)


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

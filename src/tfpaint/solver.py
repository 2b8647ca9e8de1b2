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

from .phase_prior import (
    _coeffs,
    correction_factors,
    estimate_if,
    time_variation,
    time_variation_adjoint,
)
from .prox import Thresholder, project_feasible
from .stft import (
    Spectrogram,
    _analyze,
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
    """Q - thresh(Q) for the conjugate-symmetric dual with rows 0..M//2 = Q."""
    if thresh.kind == "soft":
        # Q - soft(Q) is the entrywise projection onto the lam-ball
        mag = np.abs(Q)
        return Q * (np.minimum(mag, thresh.lam) / np.maximum(mag, 1e-300))
    # on all M rows, so a block norm counts the mirrored rows too
    return Q - thresh(_expand(Q, M))[: len(Q)]


def _trace_terms(A, rot, Xc, reliable, M, lam):
    """(lam * ||D(rot*A)||_1, ||P_rel(A - Xc)||_F) over all M rows, given
    rows 0..M//2 of conjugate-symmetric A and Xc: the DC row counts once,
    the Nyquist row once when M is even, every other row twice."""
    row_weight = np.full((len(A), 1), 2.0)
    row_weight[0] = 1.0
    if M % 2 == 0:
        row_weight[-1] = 1.0
    var = np.abs(time_variation(A * rot))
    obj = lam * float(np.sum(row_weight * var))
    diff2 = row_weight * np.abs(A - Xc) ** 2
    return obj, float(np.sqrt(np.sum(diff2[:, reliable])))


def _free_samples(Xc, reliable, w, scfg):
    """(free, x_det): the samples the reliable columns leave free, and the
    values they fix everywhere else.

    syn o P_rel o ana multiplies by d_rel, the overlap-add of M*w**2 over
    the reliable frames (the mask removes whole frames, M >= W).  So a
    signal agreeing with Xc on the reliable columns has d_rel*x = b with
    b = syn(P_rel Xc), and x = b / d_rel wherever d_rel > 0.  Samples with
    d_rel <= FREE_DREL are left free instead, where the division would
    amplify errors in Xc too much.
    """
    d_rel = _overlap_add((w * (w * scfg.channels))[:, None] * reliable, scfg)
    x_det = _synthesize(Xc * reliable, w, scfg) / np.maximum(d_rel, FREE_DREL)
    return d_rel <= FREE_DREL, x_det


def gcpa_inner(state0, mask, X_corr, omega, cfg, trace=None):
    """Run ``cfg.inner_iters`` primal-dual iterations at fixed omega.

    state0 is not mutated.  ``trace``, if given, is called after each
    iteration with (iteration, objective, feasibility_residual) where the
    objective is lam * ||D R_omega ana(x)||_1; tracing costs one extra
    analysis per iteration.  Divergence (non-finite primal) raises
    DivergenceError with the iteration index.

    Free samples.  The reliable columns fix x wherever their windows reach
    (``_free_samples``), so the feasible set is "those samples at x_det,
    the rest free", and the data constraint needs no dual: this is plain
    Chambolle-Pock on min lam*||D R_omega ana(x)||_1 over the free samples.
    The primal step moves only the free samples and holds the others at
    x_det; the start is reset to x_det there too, so relaxation keeps every
    iterate feasible.  A gap of one or two columns at hop W/4 leaves no free
    sample and comes back as x_det.

    Half spectrum.  A real primal sees only the conjugate-symmetric part of
    a coefficient matrix, so the observation and the starting dual enter
    through that part, and the iteration runs on its rows 0..M//2 with the
    real-input transforms of ``stft``.  The returned dual is conjugate-
    symmetric.  Fixed phase factors (frame ramp, omega rotation, step
    scales) are folded into single precomputed matrices.
    """
    scfg = X_corr.config
    w = default_window(scfg).samples
    M = scfg.channels
    half = M // 2 + 1
    ramp = _frame_plan(scfg)
    rot = correction_factors(_coeffs(omega)[:half], scfg.hop, M)
    Xc = _hermitian_half(X_corr.data)
    reliable = np.ones(Xc.shape[1], dtype=bool)
    reliable[_zero_cols(mask)] = False
    alpha = cfg.alpha_relax

    ramp_rot_sigma = ramp * rot * cfg.sigma  # corrected analysis, dual step folded
    rcr = np.conj(rot * ramp)                # corrected-adjoint synthesis factor

    free, x_det = _free_samples(Xc, reliable, w, scfg)
    tau_free = cfg.tau * free                # primal step, zero on fixed samples
    x = np.where(free, state0.x, x_det)
    Z = _hermitian_half(state0.Z)
    DZ = np.empty((half, Xc.shape[1]), dtype=complex)

    # divergence is detected explicitly, so silence the overflow warnings a
    # blown-up iterate would otherwise spray before the check fires
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.inner_iters):
            # back = syn(R*_omega D* Z)
            DZ[:, 0] = Z[:, 0]
            np.subtract(Z[:, 1:], Z[:, :-1], out=DZ[:, 1:-1])
            np.negative(Z[:, -1], out=DZ[:, -1])
            x_half = x - tau_free * _irfft_frames(DZ * rcr, w, scfg)

            A2 = _rfft_frames(2.0 * x_half - x, w, scfg)
            A2 *= ramp_rot_sigma
            Z_half = _dual_step(Z + (A2[:, :-1] - A2[:, 1:]), cfg.thresholder, M)

            if alpha == 1.0:
                x, Z = x_half, Z_half
            else:
                x = x + alpha * (x_half - x)
                Z = Z + alpha * (Z_half - Z)
            if not np.all(np.isfinite(x)):
                raise DivergenceError(i + 1)
            if trace is not None:
                trace(i + 1, *_trace_terms(_analyze(x, w, scfg), rot, Xc, reliable, M, cfg.lam))

    return SolverState(x, _expand(Z, M))


def _estimate(xhat, scfg):
    gh, gd = _if_windows(scfg.window_len)
    return estimate_if(xhat, gh, gd, scfg)


def _outer_loop(X_corr, mask, cfg, rounds, omega_of, trace=None):
    """Up to ``rounds`` inner runs from the synthesized observation, each at
    omega_of(current reconstruction); returns (Spectrogram, info).

    Stops once consecutive outputs move less than cfg.epsilon in l2.
    Reliable columns of the result equal X_corr exactly.
    """
    scfg = X_corr.config
    state = initial_state(X_corr)
    xhat = state.x
    info = {"outer_iters_used": 0, "stopped_early": False, "final_change": None}

    for j in range(rounds):
        omega = omega_of(xhat)
        sub = None
        if trace is not None:
            sub = lambda i, o, f, _j=j: trace(_j * cfg.inner_iters + i, o, f)
        state = gcpa_inner(state, mask, X_corr, omega, cfg, trace=sub)
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

    full = _expand(_analyze(xhat, default_window(scfg).samples, scfg), scfg.channels)
    out = project_feasible(full, _zero_cols(mask), np.asarray(X_corr.data))
    return Spectrogram(out, scfg), info


def uphain_tf(X_corr, mask, cfg, trace=None, return_info=False):
    """Iterated solver: IF re-estimation before every inner run.

    X_corr must already be peak-normalized with masked columns zeroed.  The
    outer loop runs at most cfg.outer_iters + 1 inner rounds and stops once
    consecutive outputs move less than cfg.epsilon in l2.  Reliable columns
    of the result equal X_corr exactly.
    """
    scfg = X_corr.config
    out, info = _outer_loop(X_corr, mask, cfg, cfg.outer_iters + 1,
                            lambda xhat: _estimate(xhat, scfg), trace=trace)
    return (out, info) if return_info else out


def bphain_tf(X_corr, mask, cfg, omega_source="corrupted", x_true=None,
              trace=None, return_info=False):
    """Single-pass variant: the IF is estimated once, then frozen.

    omega_source selects where the estimate comes from: "corrupted" uses the
    synthesized observation, "oracle" uses the supplied ground-truth signal.
    One inner run of the shared outer loop.
    """
    scfg = X_corr.config
    if omega_source == "corrupted":
        # the loop's one round starts from the synthesized observation
        omega_of = lambda xhat: _estimate(xhat, scfg)
    elif omega_source == "oracle":
        if x_true is None:
            raise ValueError("omega_source='oracle' requires x_true")
        x_true = np.asarray(x_true, dtype=float)
        if x_true.shape != (scfg.signal_len,):
            raise ValueError("x_true length does not match the spectrogram config")
        omega = _estimate(x_true, scfg)
        omega_of = lambda xhat: omega
    else:
        raise ValueError(f"unknown omega_source {omega_source!r}")
    out, info = _outer_loop(X_corr, mask, cfg, 1, omega_of, trace=trace)
    return (out, info) if return_info else out


def cpa_tf_only(X_corr, mask, cfg, trace=None, return_info=False):
    """Ablation without phase correction, primal kept in the TF domain.

    Solves min_X lam*||D X||_1 + (feasibility indicator) directly over
    coefficient matrices with plain Chambolle-Pock: the time-direction total
    variation at omega = 0, so no IF estimate and no outer loop, one run of
    cfg.inner_iters iterations.  Step condition tau*sigma*4 <= 1 covers the
    operator norm here too (||D|| <= 2).  The iterates stay conjugate-
    symmetric, so the loop runs on rows 0..M//2 and expands once at the end.
    """
    scfg = X_corr.config
    M = scfg.channels
    Xc = _hermitian_half(X_corr.data)
    zero = _zero_cols(mask)
    reliable = np.ones(Xc.shape[1], dtype=bool)
    reliable[zero] = False

    X = X_bar = Xc.astype(complex)  # never updated in place
    Z = np.zeros((len(Xc), Xc.shape[1] - 1), dtype=complex)
    tau, sigma = cfg.tau, cfg.sigma

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.inner_iters):
            Z = _dual_step(Z + sigma * time_variation(X_bar), cfg.thresholder, M)
            X_new = project_feasible(X - tau * time_variation_adjoint(Z), zero, Xc)
            X_bar = 2.0 * X_new - X
            X = X_new
            if not np.all(np.isfinite(X)):
                raise DivergenceError(i + 1)
            if trace is not None:
                trace(i + 1, *_trace_terms(X, 1.0, Xc, reliable, M, cfg.lam))

    # projecting against the full observation keeps reliable columns exact
    out = Spectrogram(project_feasible(_expand(X, M), zero, X_corr.data), scfg)
    info = {"outer_iters_used": 1, "stopped_early": False, "final_change": None}
    return (out, info) if return_info else out


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

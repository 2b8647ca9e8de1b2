"""Primal-dual solvers for spectrogram inpainting.

The workhorse is a generalized Chambolle-Pock iteration whose primal lives in
the time domain (a real signal) while both duals are TF matrices; the
penalty is the phase-corrected total variation of the analysis coefficients
and the data constraint is enforced by projection onto the set of matrices
agreeing with the observation on reliable columns.  Inside the loop the data
dual is carried in the time domain, as its synthesis, and rebuilt as a matrix
once per inner run (see ``gcpa_inner``).

Three drivers wrap the inner loop:

* ``uphain_tf``   -- re-estimates the instantaneous frequency from the current
  reconstruction after every inner run (the full iterated method).
* ``bphain_tf``   -- estimates the IF once up front, either from the corrupted
  observation or from a supplied ground-truth signal.
* ``cpa_tf_only`` -- a plain Chambolle-Pock iteration whose primal stays in
  the TF domain; kept for comparison, consistently weaker.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .phase_prior import (
    correction_factors,
    estimate_if,
    time_variation,
    time_variation_adjoint,
)
from .prox import Thresholder, project_feasible
from .stft import (
    Spectrogram,
    _analyze,
    _frame_plan,
    _overlap_add,
    _synthesize,
    make_hann,
    make_hann_derivative,
    tight_window,
)


class DivergenceError(RuntimeError):
    """Raised when an iterate stops being finite."""

    def __init__(self, iteration):
        super().__init__(f"solver diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverConfig:
    """Step sizes, regularization and iteration budget.

    tau/sigma/eta must satisfy tau*sigma*4 <= 1 and tau*eta <= 1 (the
    operator-norm bounds of the two dual branches); set ``allow_unsafe`` to
    bypass the check deliberately.  ``thresholder`` defaults to soft
    thresholding at level ``lam``.
    """

    tau: float = 0.25
    sigma: float = 1.0
    eta: float = 4.0
    lam: float = 0.01
    inner_iters: int = 500
    outer_iters: int = 10
    epsilon: float = 0.001
    alpha_relax: float = 1.0
    thresholder: Thresholder = None
    allow_unsafe: bool = False

    def __post_init__(self):
        if min(self.tau, self.sigma, self.eta) <= 0:
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
        if not self.allow_unsafe:
            if self.tau * self.sigma * 4.0 > 1.0 + 1e-12:
                raise ValueError(
                    "tau*sigma*4 > 1 violates the dual step condition "
                    "(pass allow_unsafe=True to override)"
                )
            if self.tau * self.eta > 1.0 + 1e-12:
                raise ValueError(
                    "tau*eta > 1 violates the dual step condition "
                    "(pass allow_unsafe=True to override)"
                )
        if self.thresholder is None:
            object.__setattr__(self, "thresholder", Thresholder("soft", lam=self.lam))


@dataclass
class SolverState:
    """Primal signal x plus the two dual matrices (M x N and M x (N-1))."""

    x: np.ndarray
    Y: np.ndarray
    Z: np.ndarray


@lru_cache(maxsize=64)
def default_window(cfg):
    """Canonical tight Hann window for a frame geometry (cached)."""
    return tight_window(make_hann(cfg.window_len), cfg)


@lru_cache(maxsize=64)
def _if_windows(window_len):
    # IF estimation uses the plain Hann pair; the estimate is a ratio, so a
    # common rescaling of both windows (e.g. the tight normalization at 75%
    # overlap) leaves it unchanged.
    return make_hann(window_len), make_hann_derivative(window_len)


def _window_samples(g, cfg):
    if g is None:
        g = default_window(cfg)
    return np.asarray(g.samples if hasattr(g, "samples") else g, dtype=float)


def _zero_cols(mask):
    return np.asarray(mask.zero_cols if hasattr(mask, "zero_cols") else mask, dtype=int)


def initial_state(X_corr, g=None):
    """Start of every driver: x = syn(X_corr), both duals zero."""
    cfg = X_corr.config
    w = _window_samples(g, cfg)
    x0 = _synthesize(np.asarray(X_corr.data, dtype=complex), w, cfg)
    M, N = X_corr.data.shape
    return SolverState(x0, np.zeros((M, N), dtype=complex), np.zeros((M, N - 1), dtype=complex))


def _mirror_residual(V, scale):
    """Max deviation of V from Hermitian row symmetry, relative to scale."""
    M = V.shape[0]
    if scale == 0.0:
        return 0.0
    return np.max(np.abs(V - np.conj(V[(-np.arange(M)) % M]))) / scale


def _expand_half(Vh, M):
    """Hermitian extension of the top half+1 frequency rows."""
    half = M // 2 + 1
    full = np.empty((M, Vh.shape[1]), dtype=complex)
    full[:half] = Vh
    full[half:] = np.conj(Vh[half - 2 : 0 : -1])
    return full


def gcpa_inner(state0, mask, X_corr, omega, cfg, g=None, trace=None):
    """Run ``cfg.inner_iters`` primal-dual iterations at fixed omega.

    state0 is not mutated.  ``trace``, if given, is called after each
    iteration with (iteration, objective, feasibility_residual) where the
    objective is lam * ||D R_omega ana(x)||_1; tracing costs one extra
    analysis per iteration.  Divergence (non-finite primal) raises
    DivergenceError with the iteration index.

    Data dual in time.  With v = x - tau*(syn(R*_omega D* Z) + syn(Y)), the
    data step is Y_half = P_rel(Y + eta*(ana(v) - Xc)), and the primal
    update needs only syn(Y_half).  The mask removes whole columns and each
    column is one frame, so syn o P_rel o ana is diagonal in time: it
    multiplies by d_rel = OLA over the reliable frames of M*w**2, the
    overlap-add of the squared window.  Hence syn(Y_half) =
    syn(P_rel Y) + eta*(d_rel*v - b) with b = syn(P_rel Xc), both fixed per
    call, and Y is never transformed inside the loop.  Relaxation keeps this
    linear: the reliable part moves by alpha*eta*P_rel(ana(v) - Xc) per
    step, and the gap part only decays, P_gap Y_k = (1 - alpha)**k P_gap Y0
    (zero after one step at alpha = 1).  So after K steps
    Y = P_rel(Y0 + alpha*eta*(ana(S) - K*Xc)) plus the decayed gap part,
    where S is the sum of the v's.  S is accumulated relative to
    x_ref = state0.x, with K*(ana(x_ref) - Xc) added back, so the long sum
    does not cancel digits.  Each iteration is left with one synthesis and
    one analysis, both in the total-variation branch.

    When the observation and starting duals carry the conjugate row symmetry
    of real audio (they always do in the normal pipeline), the whole
    iteration runs on the top half of the frequency rows with real-input
    transforms -- the lower rows are implied.  Inputs without that symmetry
    fall back to full-spectrum arithmetic.  Fixed phase factors (frame ramp,
    omega rotation, step scales) are folded into single precomputed
    matrices either way.
    """
    scfg = X_corr.config
    Xc_full = np.asarray(X_corr.data)
    w = _window_samples(g, scfg)
    om = omega.omega if hasattr(omega, "omega") else np.asarray(omega)
    rot_full = correction_factors(om, scfg.hop, scfg.channels)
    zero = _zero_cols(mask)
    reliable = np.ones(Xc_full.shape[1], dtype=bool)
    reliable[zero] = False

    idx, ramp_full = _frame_plan(scfg)
    tau, sigma, eta, alpha = cfg.tau, cfg.sigma, cfg.eta, cfg.alpha_relax
    W, M, N = scfg.window_len, scfg.channels, scfg.n_frames
    w_syn = w * M                    # inverse-FFT scale folded into the window
    half = M // 2 + 1

    scale = max(
        np.max(np.abs(Xc_full)), np.max(np.abs(state0.Y)), np.max(np.abs(state0.Z))
    )
    hermitian = (
        M % 2 == 0
        and _mirror_residual(Xc_full, scale) <= 1e-10
        and _mirror_residual(state0.Y, scale) <= 1e-10
        and _mirror_residual(state0.Z, scale) <= 1e-10
    )

    if hermitian:
        rows = slice(0, half)
        # end rows (DC and Nyquist) enter sums once, interior rows twice
        row_weight = np.full((half, 1), 2.0)
        row_weight[0] = row_weight[-1] = 1.0

        def frames_of(v):
            if W == M:
                return v[idx] * w[:, None]
            frames = np.zeros((M, N))
            frames[:W] = v[idx] * w[:, None]
            return frames

        def ana(v, phase):
            F = np.fft.rfft(frames_of(v), axis=0)
            F *= phase
            return F

        def syn(V):
            # V carries conj(ramp) and any rotation; the implied lower rows
            # make the inverse transform real
            contrib = np.fft.irfft(V, n=M, axis=0)[:W] * w_syn[:, None]
            return _overlap_add(contrib, scfg)

    else:
        rows = slice(0, M)
        row_weight = np.ones((M, 1))

        def ana(v, phase):
            if W == M:
                frames = v[idx] * w[:, None]
            else:
                frames = np.zeros((M, N))
                frames[:W] = v[idx] * w[:, None]
            return np.fft.fft(frames, axis=0) * phase

        def syn(V):
            contrib = np.fft.ifft(V, axis=0)[:W].real * w_syn[:, None]
            return _overlap_add(contrib, scfg)

    ramp = ramp_full[rows]
    rot = rot_full[rows]
    ramp_c = np.conj(ramp)
    ramp_eta = ramp * eta                # step scale folded into the phase
    ramp_rot_sigma = ramp * rot * sigma  # corrected analysis, dual step folded
    rcr = np.conj(rot) * ramp_c          # corrected-adjoint synthesis factor
    Xc = Xc_full[rows]

    x = np.array(state0.x, dtype=float)
    Y0 = np.asarray(state0.Y)[rows]
    Z = np.array(state0.Z[rows], dtype=complex)
    thresh = cfg.thresholder
    soft_lam = thresh.lam if thresh.kind == "soft" else None
    DZ = np.empty((Z.shape[0], N), dtype=complex)

    # the data dual, carried in time: syn(P_rel Y), syn(P_gap Y0) and its
    # decay factor, eta*d_rel, eta*b and the sum of v - x_ref
    eta_d = eta * _overlap_add((w * w_syn)[:, None] * reliable, scfg)
    eta_b = eta * syn(Xc * reliable * ramp_c)
    syn_rel = syn(Y0 * reliable * ramp_c)
    syn_gap = syn(Y0 * ~reliable * ramp_c)
    gap_decay = 1.0
    x_ref = x.copy()
    S = np.zeros_like(x)

    # divergence is detected explicitly, so silence the overflow warnings a
    # blown-up iterate would otherwise spray before the check fires
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.inner_iters):
            # back = syn(R*_omega D* Z)
            DZ[:, 0] = Z[:, 0]
            np.subtract(Z[:, 1:], Z[:, :-1], out=DZ[:, 1:-1])
            np.negative(Z[:, -1], out=DZ[:, -1])
            back = syn(DZ * rcr)

            v = x - tau * (back + syn_rel + gap_decay * syn_gap)
            S += v - x_ref
            syn_Yh = syn_rel + (eta_d * v - eta_b)
            x_half = x - tau * (back + syn_Yh)

            A2 = ana(2.0 * x_half - x, ramp_rot_sigma)
            Q = Z + (A2[:, :-1] - A2[:, 1:])
            if soft_lam is not None:
                # Q - soft(Q) is the entrywise projection onto the lam-ball
                mag = np.abs(Q)
                Z_half = Q * (np.minimum(mag, soft_lam) / np.maximum(mag, 1e-300))
            else:
                Z_half = Q - thresh(Q)

            if alpha == 1.0:
                x, Z, syn_rel = x_half, Z_half, syn_Yh
            else:
                x = x + alpha * (x_half - x)
                Z = Z + alpha * (Z_half - Z)
                syn_rel = syn_rel + alpha * (syn_Yh - syn_rel)
            gap_decay *= 1.0 - alpha
            if not np.all(np.isfinite(x)):
                raise DivergenceError(i + 1)
            if trace is not None:
                A = ana(x, ramp)
                var = np.abs(time_variation(A * rot))
                obj = cfg.lam * float(np.sum(row_weight * var))
                diff2 = row_weight * np.abs(A - Xc) ** 2
                feas = float(np.sqrt(np.sum(diff2[:, reliable])))
                trace(i + 1, obj, feas)

    K = cfg.inner_iters
    Y = Y0 + alpha * (ana(S, ramp_eta) + K * (ana(x_ref, ramp_eta) - eta * Xc))
    Y[:, zero] = gap_decay * Y0[:, zero]
    if hermitian:
        return SolverState(x, _expand_half(Y, M), _expand_half(Z, M))
    return SolverState(x, Y, Z)


def _estimate(xhat, scfg):
    gh, gd = _if_windows(scfg.window_len)
    return estimate_if(xhat, gh, gd, scfg)


def _finish(xhat, mask, X_corr, w):
    out = project_feasible(
        _analyze(xhat, w, X_corr.config), _zero_cols(mask), np.asarray(X_corr.data)
    )
    return Spectrogram(out, X_corr.config)


def uphain_tf(X_corr, mask, cfg, g=None, trace=None, return_info=False):
    """Iterated solver: IF re-estimation between inner runs.

    X_corr must already be peak-normalized with masked columns zeroed.  The
    outer loop runs at most cfg.outer_iters + 1 inner rounds and stops once
    consecutive outputs move less than cfg.epsilon in l2.  Reliable columns
    of the result equal X_corr exactly.
    """
    scfg = X_corr.config
    w = _window_samples(g, scfg)
    state = initial_state(X_corr, g=w)
    xhat = state.x
    info = {"outer_iters_used": 0, "stopped_early": False, "final_change": None}

    for j in range(cfg.outer_iters + 1):
        omega = _estimate(xhat, scfg)
        sub = None
        if trace is not None:
            sub = lambda i, o, f, _j=j: trace(_j * cfg.inner_iters + i, o, f)
        state = gcpa_inner(state, mask, X_corr, omega, cfg, g=w, trace=sub)
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

    out = _finish(xhat, mask, X_corr, w)
    if return_info:
        return out, info
    return out


def bphain_tf(X_corr, mask, cfg, omega_source="corrupted", x_true=None, g=None,
              trace=None, return_info=False):
    """Single-pass variant: the IF is estimated once, then frozen.

    omega_source selects where the estimate comes from: "corrupted" uses the
    synthesized observation, "oracle" uses the supplied ground-truth signal.
    """
    scfg = X_corr.config
    w = _window_samples(g, scfg)
    state = initial_state(X_corr, g=w)
    if omega_source == "corrupted":
        omega = _estimate(state.x, scfg)
    elif omega_source == "oracle":
        if x_true is None:
            raise ValueError("omega_source='oracle' requires x_true")
        x_true = np.asarray(x_true, dtype=float)
        if x_true.shape != (scfg.signal_len,):
            raise ValueError("x_true length does not match the spectrogram config")
        omega = _estimate(x_true, scfg)
    else:
        raise ValueError(f"unknown omega_source {omega_source!r}")

    state = gcpa_inner(state, mask, X_corr, omega, cfg, g=w, trace=trace)
    out = _finish(state.x, mask, X_corr, w)
    if return_info:
        return out, {"outer_iters_used": 1, "stopped_early": False, "final_change": None}
    return out


def cpa_tf_only(X_corr, mask, cfg, g=None, trace=None, return_info=False):
    """Plain Chambolle-Pock with the primal kept in the TF domain.

    Solves min_X lam*||D R_omega X||_1 + (feasibility indicator) directly
    over coefficient matrices, with the same outer IF-update and stopping
    structure as uphain_tf.  Step condition tau*sigma*4 <= 1 covers the
    operator norm here too (||D R_omega|| <= 2).
    """
    scfg = X_corr.config
    w = _window_samples(g, scfg)
    Xc = np.asarray(X_corr.data)
    zero = _zero_cols(mask)
    reliable = np.ones(Xc.shape[1], dtype=bool)
    reliable[zero] = False

    X = np.array(Xc, dtype=complex)
    X_bar = X.copy()
    Z = np.zeros((Xc.shape[0], Xc.shape[1] - 1), dtype=complex)
    tau, sigma = cfg.tau, cfg.sigma
    thresh = cfg.thresholder

    xhat = _synthesize(X, w, scfg)
    info = {"outer_iters_used": 0, "stopped_early": False, "final_change": None}

    for j in range(cfg.outer_iters + 1):
        omega = _estimate(xhat, scfg)
        rot = correction_factors(
            omega.omega if hasattr(omega, "omega") else omega, scfg.hop, scfg.channels
        )
        rot_c = np.conj(rot)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(cfg.inner_iters):
                Q = Z + sigma * time_variation(X_bar * rot)
                Z = Q - thresh(Q)
                X_new = project_feasible(X - tau * (time_variation_adjoint(Z) * rot_c), zero, Xc)
                X_bar = 2.0 * X_new - X
                X = X_new
                if not np.all(np.isfinite(X)):
                    raise DivergenceError(i + 1)
                if trace is not None:
                    obj = cfg.lam * float(np.sum(np.abs(time_variation(X * rot))))
                    feas = float(np.linalg.norm((X - Xc)[:, reliable]))
                    trace(j * cfg.inner_iters + i + 1, obj, feas)
        xhat_prev, xhat = xhat, _synthesize(X, w, scfg)
        info["outer_iters_used"] = j + 1
        if j >= 1:
            change = float(np.linalg.norm(xhat - xhat_prev))
            info["final_change"] = change
            if change < cfg.epsilon:
                info["stopped_early"] = True
                break

    out = Spectrogram(project_feasible(X, zero, Xc), scfg)
    if return_info:
        return out, info
    return out


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

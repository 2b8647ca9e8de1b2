import pickle
from dataclasses import replace

import numpy as np
import pytest

from tfpaint.phase_prior import (
    _coeffs,
    _if_windows,
    correction_factors,
    estimate_if,
    time_variation,
    time_variation_adjoint,
)
from tfpaint.evaluate import make_test_signal
from tfpaint.pipeline import ColumnMask, apply_mask, inpaint_spectrogram, make_mask
from tfpaint.prox import Thresholder, project_feasible
from tfpaint.solver import (
    FREE_DREL,
    METHODS,
    DivergenceError,
    FrameRun,
    SolverConfig,
    _d_rel,
    _dual_step,
    _observe,
    _reach,
    _reliable,
    _trace_terms,
    default_window,
    find_gaps,
    frame_runs,
    gcpa_inner,
    operator_norm_estimate,
    solve_observed,
)
from tfpaint.stft import (
    Spectrogram,
    StftConfig,
    _expand,
    _frame_plan,
    _hermitian_half,
    _irfft_frames,
    _rfft_frames,
    analyze,
    make_hann,
    make_hann_derivative,
    synthesize,
)

SEG = StftConfig(window_len=2048, hop=512, channels=2048, signal_len=8192)
EMPTY = np.array([], dtype=int)


def three_tone(n=SEG.signal_len):
    t = np.arange(n)
    x = sum(
        0.3 * np.cos(2 * np.pi * (f / 16000.0) * t + 0.7 * k)
        for k, f in enumerate([440.0, 554.37, 659.25])
    )
    return 0.9 * x / np.max(np.abs(x))


def corrupted(x, zero_cols):
    X = analyze(x, default_window(SEG), SEG).data.copy()
    X[:, zero_cols] = 0.0
    return Spectrogram(X, SEG)


def circle(scfg, zero):
    """The whole circle as one frame run, as ``frame_runs`` folds a run that
    would reach round it onto itself."""
    return FrameRun(0, scfg.n_frames, tuple(find_gaps(zero)))


def half_zeros(scfg, pairs):
    """A zero dual on rows 0..M//2 of ``pairs`` frame pairs, frames-major."""
    return np.zeros((pairs, scfg.channels // 2 + 1), complex)


def observe(Xc, zero, run):
    """``_observe`` of run, given the gap columns ``zero`` of Xc."""
    return _observe(Xc, _reliable(zero, Xc.config.n_frames), run)


def observed(Xc, zero, run=None):
    """(x0, Z0, run, omega): ``run`` of Xc (by default the first that
    ``frame_runs`` makes of zero, or the whole circle when there is no gap)
    as ``solve_observed`` starts it: from x0 with a zero dual Z0, and the IF
    of that start."""
    scfg = Xc.config
    if run is None:
        run = (frame_runs(zero, scfg) or [circle(scfg, zero)])[0]
    obs = observe(Xc, zero, run)
    omega = estimate_if(obs.x0, scfg, circular=obs.circular)
    return obs.x0, half_zeros(scfg, run.count - 1), obs, omega


def blank_rows(cfg):
    """Trace rows for ``gcpa_inner``, NaN until it writes them."""
    return np.full((cfg.inner_iters, 2), np.nan)


def assert_rows_match(got, ref):
    # every row written, each within round-off of the reference's
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, ref))


def restore(Xc, zero, cfg, method="uphain", **kwargs):
    """``inpaint_spectrogram`` of Xc with the gap columns ``zero``."""
    mask = ColumnMask(Xc.config.n_frames, zero)
    return inpaint_spectrogram(Xc, mask, method, cfg, **kwargs)


# The level each thresholder kind is tested at (SolverConfig.lam, the only
# copy of lambda; the thresholder itself holds none).
KIND_LAM = {"soft": 0.01, "p_shrinkage": 0.01, "smooth_hard": 1e-3, "l2_block": 1.0,
            "l2_squared": 0.2}


def kind_fields(kind):
    return {"lam": KIND_LAM[kind], "thresholder": Thresholder(kind)}


# ---------------------------------------------------------------- config


def test_config_defaults():
    cfg = SolverConfig()
    assert (cfg.tau, cfg.sigma) == (0.25, 1.0)
    assert cfg.lam == 0.01
    assert (cfg.inner_iters, cfg.outer_iters) == (500, 10)
    assert cfg.epsilon == 0.001
    assert cfg.thresholder.kind == "soft"


def test_config_step_conditions():
    # sigma is the one step knob: tau = 1/(4*sigma) sits on the bound
    # tau*sigma*4 <= 1 at every sigma
    for sigma in (0.0625, 0.25, 1.0, 4.0):
        assert SolverConfig(sigma=sigma).tau * sigma * 4 == 1
    # so neither tau nor an override of the bound can be set, the data
    # constraint has no dual, so no step size of its own, and the step is
    # the plain one, with no relaxation
    for field in ("tau", "allow_unsafe", "eta", "alpha_relax"):
        with pytest.raises(TypeError):
            SolverConfig(**{field: 0.5})
    # a sigma so small that tau overflows (from a numpy one, no warning)
    for sigma in (1e-310, np.float64(5e-324)):
        with pytest.raises(ValueError, match="overflows"):
            SolverConfig(sigma=sigma)


def test_config_rejects_bad_fields():
    for kwargs in (
        dict(sigma=0.0),
        dict(sigma=-1.0),
        dict(lam=-0.1),
        dict(inner_iters=0),
        dict(outer_iters=-1),
        dict(epsilon=0.0),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


@pytest.mark.parametrize("value", [np.nan, np.inf, True], ids=["nan", "inf", "bool"])
@pytest.mark.parametrize("field", ["sigma", "lam", "epsilon"])
def test_config_rejects_nonfinite_fields(field, value):
    # NaN fails every comparison, so the range checks alone let it through;
    # a bool is no number either (sigma=True would run at sigma = 1)
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("value", [np.nan, 2.5, np.inf, True], ids=["nan", "2.5", "inf", "bool"])
@pytest.mark.parametrize("field", ["inner_iters", "outer_iters"])
def test_config_rejects_non_integer_iteration_counts(field, value):
    # a count fails at construction, not deep in the loop; NaN passes < 1
    with pytest.raises(ValueError, match="integer"):
        SolverConfig(**{field: value})
    assert getattr(SolverConfig(**{field: np.int64(3)}), field) == 3


def test_config_checks_the_thresholder_at_its_level():
    # p-shrinkage's lam**(2 - p) overflows at lam = 1e300: the config fails,
    # not the first dual update
    with pytest.raises(ValueError, match="overflows"):
        SolverConfig(lam=1e300, thresholder=Thresholder("p_shrinkage"))
    SolverConfig(lam=1e300)  # soft thresholding takes any finite level


# ---------------------------------------------------------------- inner loop


def test_zero_input_is_fixed_point():
    X0 = Spectrogram(np.zeros((SEG.channels, SEG.n_frames), complex), SEG)
    zero = np.arange(3, 7)
    obs = observe(X0, zero, circle(SEG, zero))
    x0, Z0 = np.zeros(SEG.signal_len), half_zeros(SEG, SEG.n_frames - 1)
    omega = np.zeros((SEG.channels, SEG.n_frames))
    x, Z = gcpa_inner(x0, Z0, obs, omega, SolverConfig(inner_iters=25))
    assert not np.any(x)
    assert not np.any(Z)


def test_fully_observed_reaches_feasibility():
    Xc = corrupted(three_tone(), EMPTY)
    x0, Z0, obs, omega = observed(Xc, EMPTY)
    x, _ = gcpa_inner(x0, Z0, obs, omega, SolverConfig(inner_iters=100))
    res = np.linalg.norm(analyze(x * obs.peak, default_window(SEG), SEG).data - Xc.data)
    assert res <= 1e-6


def test_consistent_input_barely_moves():
    # bin-centered tone, nothing masked: the corrected variation is already
    # inside the soft threshold's dead zone, so the iterates stay put
    t = np.arange(SEG.signal_len)
    x = 0.9 * np.cos(2 * np.pi * 56 * t / 2048)
    Xc = Spectrogram(analyze(x, default_window(SEG), SEG).data, SEG)
    x0, Z0, obs, omega = observed(Xc, EMPTY)
    x, _ = gcpa_inner(x0, Z0, obs, omega, SolverConfig(inner_iters=200))
    assert np.max(np.abs(x - x0)) < 1e-8


def tone_gap_trace(zero, cfg):
    # bphain's one inner run: from x0 with a zero dual, at the IF of x0
    t = np.arange(SEG.signal_len)
    x = 0.9 * np.cos(2 * np.pi * (440.3 / 16000.0) * t)
    (run,) = frame_runs(zero, SEG)
    *_, info = solve_observed(observe(corrupted(x, zero), zero, run), cfg, "bphain", traced=True)
    return info["trace"].T


def test_single_gap_objective_trend():
    # four columns at hop W/4 leave 527 samples free
    obj, feas = tone_gap_trace(np.arange(6, 10), SolverConfig())
    assert len(obj) == 500
    # overall decrease from the first iteration to the last
    assert obj[-1] < obj[0]
    # sampled every 50 iterations the trend is non-increasing to within a
    # relative round-off-level slack
    samp = obj[49::50]
    assert np.all(np.diff(samp) <= 1e-6 * max(1.0, samp[0]))
    # the constraint residual keeps shrinking too
    fsamp = feas[49::50]
    assert np.all(np.diff(fsamp) <= 1e-12)


def test_one_column_gap_leaves_nothing_to_solve():
    # a one-column gap fixes every sample, so the iterate never moves
    obj, feas = tone_gap_trace(np.array([8]), SolverConfig(inner_iters=50))
    assert len(obj) == 50
    assert np.all(obj == obj[0])
    assert np.all(feas <= 1e-12)


def test_divergence_detected(diverging):
    zero = np.arange(6, 10)
    case = observed(corrupted(three_tone(), zero), zero)
    with pytest.raises(DivergenceError) as err:
        gcpa_inner(*case, SolverConfig(inner_iters=400))
    # the first primal step reads the zero starting dual, the second the overflowed one
    assert err.value.iteration == 2


def test_divergence_error_pickles():
    # it crosses from a pool worker to the caller by pickle
    err = pickle.loads(pickle.dumps(DivergenceError(7)))
    assert err.iteration == 7 and err.args == (7,)
    assert str(err) == "solver diverged at iteration 7"


def test_unsafe_steps_cannot_diverge_without_free_samples(diverging):
    # an overflowing dual step never acts where every sample is fixed: such
    # a run takes no step, and its gap column is the clean one
    zero = np.array([8])
    x = three_tone()
    (run,) = frame_runs(zero, SEG)
    assert not run.moves
    for method in METHODS:
        cols, got, _ = solve_observed(observe(corrupted(x, zero), zero, run),
                                      SolverConfig(inner_iters=400), method, x)
        want = analyze(x, default_window(SEG), SEG).data[:, cols]
        assert np.max(np.abs(got - want)) <= 1e-12


def test_inner_does_not_mutate_input_state():
    zero = np.arange(6, 10)
    x0, Z0, obs, omega = observed(corrupted(three_tone(), zero), zero)
    kept = x0.copy()
    gcpa_inner(x0, Z0, obs, omega, SolverConfig(inner_iters=3))
    assert np.array_equal(x0, kept)
    assert not np.any(Z0)


def test_cached_windows_are_read_only():
    # every solve shares them: a write into one would change every later IF
    # estimate and transform at that geometry
    hann, hann_d = _if_windows(SEG.window_len)
    # so is a span's d_rel, kept once per reliable-frame pattern
    for w in (hann, hann_d, default_window(SEG), _d_rel(np.ones(7, dtype=bool), SEG, False)):
        with pytest.raises(ValueError):
            w[0] = 1.0
    assert np.array_equal(hann, make_hann(SEG.window_len))
    assert np.array_equal(hann_d, make_hann_derivative(SEG.window_len))


# ---------------------------------------------------------------- drivers


def test_uphain_nothing_masked_returns_input():
    Xc = corrupted(three_tone(), EMPTY)
    out = restore(Xc, EMPTY, SolverConfig(inner_iters=3, outer_iters=1))
    assert np.array_equal(out.data, Xc.data)


def test_uphain_reliable_columns_bit_exact():
    zero = np.array([5, 6])
    Xc = corrupted(three_tone(), zero)
    out = restore(Xc, zero, SolverConfig(inner_iters=10, outer_iters=1))
    keep = np.ones(SEG.n_frames, dtype=bool)
    keep[zero] = False
    assert np.array_equal(out.data[:, keep], Xc.data[:, keep])
    assert not np.array_equal(out.data[:, zero], Xc.data[:, zero])


def test_uphain_stop_check_starts_at_second_round():
    # an enormous epsilon trips the criterion at its first evaluation, which
    # by construction happens after the second inner run, not the first: on
    # a run that cannot move (as _held reports it) and on one that moves; a
    # tiny one lets the run that moves take every outer_iters + 1 round
    for zero, epsilon, moves, rounds in (([8], 1e9, False, 2), ([7, 8, 9], 1e9, True, 2),
                                         ([7, 8, 9], 1e-300, True, 11)):
        zero = np.array(zero)
        (run,) = frame_runs(zero, SEG)
        assert run.moves == moves
        *_, info = solve_observed(observe(corrupted(three_tone(), zero), zero, run),
                                  SolverConfig(inner_iters=5, epsilon=epsilon))
        assert info["stopped_early"] == (rounds == 2)
        assert info["outer_iters_used"] == rounds
        assert (info["final_change"] > 0.0) == moves


def test_uphain_deterministic():
    zero = np.array([7, 8])
    Xc = corrupted(three_tone(), zero)
    cfg = SolverConfig(inner_iters=8, outer_iters=1)
    a = restore(Xc, zero, cfg)
    b = restore(Xc, zero, cfg)
    assert np.array_equal(a.data, b.data)


def test_uphain_recovers_single_gap():
    zero = np.array([8])
    x = three_tone()
    X_true = analyze(x, default_window(SEG), SEG).data
    Xc = corrupted(x, zero)
    out = restore(Xc, zero, SolverConfig(inner_iters=200, outer_iters=3))
    err = np.linalg.norm(out.data[:, zero] - X_true[:, zero])
    ref = np.linalg.norm(X_true[:, zero])
    assert 20 * np.log10(ref / err) > 40.0


def test_bphain_oracle_matches_corrupted_source():
    # a 4-column gap leaves samples free, so omega reaches the output; the
    # oracle estimates it from x_true at the raw scale and bphain from the
    # run's x0 / peak, which agree to round-off that estimate_if amplifies
    # (5e-8 of a gap peak of about 2.6)
    zero = np.arange(6, 10)
    Xc = corrupted(three_tone(), zero)
    cfg = SolverConfig(inner_iters=15)
    a = restore(Xc, zero, cfg, "bphain")
    x_same = synthesize(Xc, default_window(SEG), SEG)
    b = restore(Xc, zero, cfg, "bphain_oracle", x_true=x_same)
    peak = np.max(np.abs(a.data[:, zero]))
    assert np.max(np.abs(a.data - b.data)) <= 1e-6 * peak
    # and omega does reach it: a truth of other tones moves the gap visibly
    t = np.arange(SEG.signal_len)
    other = restore(Xc, zero, cfg, "bphain_oracle", x_true=np.cos(2 * np.pi * 0.11 * t))
    assert np.max(np.abs(other.data - a.data)) > 1e-3 * peak


def test_tf_only_feasibility():
    # a 4-column gap leaves samples free, so the run takes inner steps
    zero = np.arange(6, 10)
    Xc = corrupted(three_tone(), zero)
    assert frame_runs(zero, SEG)[0].moves
    out = restore(Xc, zero, SolverConfig(inner_iters=10, outer_iters=1), "tf_only")
    keep = np.ones(SEG.n_frames, dtype=bool)
    keep[zero] = False
    assert np.array_equal(out.data[:, keep], Xc.data[:, keep])
    empty_out = restore(corrupted(three_tone(), EMPTY), EMPTY, SolverConfig(inner_iters=3),
                        "tf_only")
    assert np.array_equal(empty_out.data, corrupted(three_tone(), EMPTY).data)


def test_tf_only_is_one_run_without_phase_correction(monkeypatch):
    import tfpaint.solver as solver_mod

    def no_estimate(*args, **kwargs):
        raise AssertionError("tf_only must not estimate the IF")

    monkeypatch.setattr(solver_mod, "estimate_if", no_estimate)
    zero = np.arange(6, 10)
    out, info = restore(corrupted(three_tone(), zero), zero,
                        SolverConfig(inner_iters=10, outer_iters=3), "tf_only",
                        return_info=True, trace=True)
    assert info["outer_iters_used"] == [1]
    assert info["trace"][0].shape == (10, 2)
    assert np.all(np.isfinite(out.data))


def test_uphain_beats_tf_only_on_gap():
    # on a gap with free samples the phase-aware prior is worth tens of dB
    zero = np.arange(6, 10)
    x = three_tone()
    X_true = analyze(x, default_window(SEG), SEG).data
    Xc = corrupted(x, zero)
    cfg = SolverConfig(inner_iters=100, outer_iters=3)

    def gap_snr(out):
        err = np.linalg.norm(out.data[:, zero] - X_true[:, zero])
        return 20 * np.log10(np.linalg.norm(X_true[:, zero]) / err)

    assert gap_snr(restore(Xc, zero, cfg)) > gap_snr(restore(Xc, zero, cfg, "tf_only")) + 20.0


# ---------------------------------------------------------------- norm probe


def test_norm_identity():
    est = operator_norm_estimate(lambda v: v, lambda v: v, 64, iters=10)
    assert abs(est - 1.0) <= 1e-9


def test_norm_analysis_is_one():
    w = default_window(SEG)
    est = operator_norm_estimate(
        lambda v: analyze(v, w, SEG).data,
        lambda V: synthesize(V, w, SEG),
        SEG.signal_len,
        iters=40,
    )
    assert abs(est - 1.0) <= 1e-6


def test_norm_corrected_variation_bounded():
    w = default_window(SEG)
    rng = np.random.default_rng(7)
    om = rng.uniform(-8.0, 8.0, size=(SEG.channels, SEG.n_frames))
    rot = correction_factors(om, SEG.hop, SEG.channels)
    est = operator_norm_estimate(
        lambda v: time_variation(analyze(v, w, SEG).data * rot),
        lambda V: synthesize(time_variation_adjoint(V) * np.conj(rot), w, SEG),
        SEG.signal_len,
        iters=40,
    )
    assert est <= 2.0 + 1e-6


@pytest.mark.parametrize("width", [3, 4, 6, 8, 12])
def test_step_bound_holds_on_the_free_samples(width):
    # the loop steps K = D R_omega ana P, P zeroing every sample but the run's
    # free ones: ||K|| <= 2 puts tau*sigma*||K||**2 on the bound 1 at any sigma
    # (measured 1.42, 1.71, 1.87, 1.77 and 1.78)
    x = make_test_signal("multitone", 1.0, 16000, k=3, seed=0)
    mask = make_mask(1.0, 16000, 512, width)
    cfg = StftConfig(signal_len=mask.n_cols * 512)
    w = default_window(cfg)
    Xc = apply_mask(analyze(x[: cfg.signal_len], w, cfg), mask)
    (run,) = frame_runs(mask.zero_cols, cfg)
    obs = observe(Xc, mask.zero_cols, run)
    keep = np.zeros(cfg.signal_len, dtype=bool)
    keep[(cfg.hop * obs.start + np.flatnonzero(obs.free)) % cfg.signal_len] = True
    rot = correction_factors(estimate_if(synthesize(Xc, w, cfg), cfg), cfg.hop, cfg.channels)
    est = operator_norm_estimate(
        lambda v: time_variation(analyze(v * keep, w, cfg).data * rot),
        lambda V: keep * synthesize(time_variation_adjoint(V) * np.conj(rot), w, cfg),
        cfg.signal_len,
        iters=40,
    )
    assert est <= 2.0 + 1e-6


def test_norm_rejects_nonfinite():
    with pytest.raises(ValueError):
        operator_norm_estimate(lambda v: v * np.inf, lambda v: v, 8, iters=3)


# ------------------------------------------------------- spectrum storage


def test_gcpa_odd_channels():
    scfg = StftConfig(window_len=5, hop=1, channels=5, signal_len=15)
    rng = np.random.default_rng(3)
    x = 0.5 * rng.standard_normal(15)
    X = analyze(x, default_window(scfg), scfg).data.copy()
    zero = np.arange(5, 10)  # leaves samples 9 and 10 free
    X[:, zero] = 0.0
    out = restore(Spectrogram(X, scfg), zero, SolverConfig(inner_iters=20, outer_iters=1))
    keep = np.ones(15, dtype=bool)
    keep[zero] = False
    assert np.array_equal(out.data[:, keep], X[:, keep])
    assert np.all(np.isfinite(out.data))


# ------------------------------------------------- free-sample oracle


def reliable_energy(scfg, reliable):
    """d_rel by its definition: M*w**2 summed over the reliable frames."""
    w = default_window(scfg)
    d = np.zeros(scfg.signal_len)
    for n in np.flatnonzero(reliable):
        d[(n * scfg.hop + np.arange(scfg.window_len)) % scfg.signal_len] += scfg.channels * w**2
    return d


def objective_and_feasibility(x, Xc, rot, reliable, lam):
    A = analyze(x, default_window(Xc.config), Xc.config).data
    return (lam * float(np.sum(np.abs(time_variation(A * rot)))),
            float(np.linalg.norm((A - Xc.data)[:, reliable])))


def fixed_values(Xc, reliable):
    """(fixed, x_det): the samples the reliable columns fix, and their values
    syn(P_rel Xc) / d_rel."""
    d_rel = reliable_energy(Xc.config, reliable)
    fixed = d_rel > FREE_DREL
    syn = synthesize(Xc.data * reliable, default_window(Xc.config), Xc.config)
    return fixed, syn[fixed] / d_rel[fixed]


def free_sample_reference(x0, Z0, zero, Xc, omega, cfg, rows=None):
    """Textbook Chambolle-Pock on all M rows (the dual Z0, on rows 0..M//2,
    is expanded to them): the primal step moves every sample, then the
    fixed ones are reset to x_det.  Returns (x, Z); rows, if given, receives
    each iteration's objective and feasibility from a new analysis."""
    scfg = Xc.config
    w = default_window(scfg)
    rot = correction_factors(omega, scfg.hop, scfg.channels)
    reliable = np.ones(Xc.data.shape[1], dtype=bool)
    reliable[zero] = False
    fixed, x_det = fixed_values(Xc, reliable)
    x, Z = x0.copy(), _expand(Z0, scfg.channels)
    x[fixed] = x_det
    for i in range(cfg.inner_iters):
        back = synthesize(time_variation_adjoint(Z) * np.conj(rot), w, scfg)
        x_half = x - cfg.tau * back
        x_half[fixed] = x_det
        A2 = analyze(2.0 * x_half - x, w, scfg).data
        Q = Z + cfg.sigma * time_variation(A2 * rot)
        x, Z = x_half, Q - cfg.thresholder(Q, cfg.lam)
        if rows is not None:
            rows[i] = objective_and_feasibility(x, Xc, rot, reliable, cfg.lam)
    return x, Z


def two_dual_reference(x0, zero, Xc, omega, cfg, eta, iters):
    """The generalized Chambolle-Pock iteration with a second dual Y for the
    data constraint, every step analysed and synthesised in full; returns x."""
    scfg = Xc.config
    w = default_window(scfg)
    rot = correction_factors(omega, scfg.hop, scfg.channels)
    tau, sigma = cfg.tau, cfg.sigma
    x = x0.copy()
    Y = np.zeros_like(Xc.data)
    Z = np.zeros((Xc.data.shape[0], Xc.data.shape[1] - 1), dtype=complex)
    for _ in range(iters):
        back = synthesize(time_variation_adjoint(Z) * np.conj(rot), w, scfg)
        R = Y + eta * analyze(x - tau * (back + synthesize(Y, w, scfg)), w, scfg).data
        Y = R - eta * project_feasible(R / eta, zero, Xc.data)
        x_new = x - tau * (back + synthesize(Y, w, scfg))
        Q = Z + sigma * time_variation(analyze(2.0 * x_new - x, w, scfg).data * rot)
        Z = Q - cfg.thresholder(Q, cfg.lam)
        x = x_new
    return x


def oracle_case(scfg, zero, warm=False, gap_left=0.0):
    """(x0, Z0, run, Xc, omega) for a gap in the three-tone signal on scfg,
    solved on the whole circle; Xc is the observation at the run's scale.

    ``warm`` starts from a non-zero, conjugate-symmetric dual.  gap_left
    scales what the observation keeps on the gap columns; the solver must
    ignore it.
    """
    w = default_window(scfg)
    X = analyze(three_tone(scfg.signal_len), w, scfg).data.copy()
    X[:, zero] *= gap_left
    x0, Z0, obs, omega = observed(Spectrogram(X, scfg), zero, circle(scfg, zero))
    if warm:
        rng = np.random.default_rng(5)
        V = time_variation(analyze(rng.standard_normal(scfg.signal_len), w, scfg).data)
        Z0 = _hermitian_half(0.01 * V / np.max(np.abs(V)))
    return x0, Z0, obs, Spectrogram(X / obs.peak, scfg), omega


SHORT = StftConfig(window_len=1024, hop=256, channels=2048, signal_len=8192)
ODD = StftConfig(window_len=992, hop=248, channels=1023, signal_len=8184)


# "alpha1" names the plain case: the Chambolle-Pock step at relaxation 1,
# the only one the solver takes
@pytest.mark.parametrize(
    "scfg, warm, gap_left, kind, sigma",
    [
        (SEG, False, 0.0, "soft", 1.0),
        (SEG, True, 0.0, "soft", 1.0),
        (SEG, False, 0.5, "soft", 1.0),
        # a block norm must count the mirrored rows the solver does not store
        (SEG, True, 0.0, "l2_block", 1.0),
        (SHORT, True, 0.0, "soft", 1.0),
        (ODD, True, 0.0, "soft", 1.0),
        # sigma != 1 (tau = 1/(4*sigma)) scales the carried trace
        (SEG, True, 0.0, "soft", 0.5),
    ],
    ids=["alpha1", "warm-dual", "stale-gap", "l2-block", "short-window", "odd-channels",
         "sigma0.5"],
)
def test_gcpa_matches_free_sample_reference(scfg, warm, gap_left, kind, sigma):
    zero = np.arange(6, 10) if scfg is SEG else np.arange(14, 18)
    x0, Z0, obs, Xc, omega = oracle_case(scfg, zero, warm, gap_left)
    cfg = SolverConfig(sigma=sigma, inner_iters=30, **kind_fields(kind))
    got_rows, ref_rows = blank_rows(cfg), blank_rows(cfg)
    x, Z = gcpa_inner(x0, Z0, obs, omega, cfg, got_rows)
    ref_x, ref_Z = free_sample_reference(x0, Z0, zero, Xc, omega, cfg, ref_rows)
    assert not np.array_equal(x, x0)  # the free samples moved
    for a, b in ((x, ref_x), (_expand(Z, scfg.channels), ref_Z)):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))
    assert_rows_match(got_rows, ref_rows)


def test_free_sample_fixed_point_is_feasible_and_no_worse_than_two_duals():
    # both formulations, 3000 iterations on a small geometry (6 of 32
    # columns missing, 49 free samples): the free-sample iterate meets the
    # constraint to round-off, and its objective is no higher than the
    # two-dual iterate's once that is made feasible.  (The two-dual iterate
    # itself still misses the constraint by ~3e-4 here, which lets it sit
    # below the constrained minimum.)
    scfg = StftConfig(window_len=64, hop=16, channels=64, signal_len=512)
    zero = np.arange(10, 16)
    x0, Z0, obs, Xc, omega = oracle_case(scfg, zero)
    # sigma pinned: tau = 0.25 and the reference's eta = 4 keep tau * eta = 1
    # whatever the default sigma
    cfg = SolverConfig(sigma=1.0, inner_iters=3000)
    rot = correction_factors(omega, scfg.hop, scfg.channels)
    reliable = np.ones(scfg.n_frames, dtype=bool)
    reliable[zero] = False

    free, _ = gcpa_inner(x0, Z0, obs, omega, cfg)
    two = two_dual_reference(x0, zero, Xc, omega, cfg, eta=4.0, iters=3000)
    fixed, x_det = fixed_values(Xc, reliable)
    two[fixed] = x_det
    obj_free, feas_free = objective_and_feasibility(free, Xc, rot, reliable, cfg.lam)
    obj_two, feas_two = objective_and_feasibility(two, Xc, rot, reliable, cfg.lam)
    assert feas_free <= 1e-12 * np.linalg.norm(Xc.data)
    assert feas_two <= 1e-12 * np.linalg.norm(Xc.data)
    assert obj_free <= obj_two


def run_case(scfg, zero, warm=False, noise=0.0):
    """(x0, Z0, run, omega, k, moving frames) for the one frame run
    ``frame_runs`` makes of the gap columns ``zero`` of the three-tone
    signal, as ``solve_observed`` starts it; noise > 0 adds that much (relative)
    complex noise, which no real signal has, to the observation."""
    w = default_window(scfg)
    X = analyze(three_tone(scfg.signal_len), w, scfg).data.copy()
    if noise:
        rng = np.random.default_rng(12)
        X += noise * np.max(np.abs(X)) * (rng.standard_normal(X.shape)
                                          + 1j * rng.standard_normal(X.shape))
    X[:, zero] = 0.0
    (run,) = frame_runs(zero, scfg)
    x0, Z0, obs, omega = observed(Spectrogram(X, scfg), zero, run)
    k = run.count
    if warm:
        rng = np.random.default_rng(5)
        frames = (run.start + np.arange(k)) % scfg.n_frames
        V = time_variation(analyze(rng.standard_normal(scfg.signal_len), w, scfg).data[:, frames])
        Z0 = _hermitian_half(0.01 * V / np.max(np.abs(V)))
    return x0, Z0, obs, omega, k, obs.moving.stop - obs.moving.start


def transformed_frames(monkeypatch):
    """{"rfft": [...], "irfft": [...]}: from now on, the frames (the rows of
    the input) of each call of np.fft.rfft and np.fft.irfft, in call order."""
    rows = {"rfft": [], "irfft": []}
    for name in rows:
        def counted(a, *args, _f=getattr(np.fft, name), _log=rows[name], **kw):
            a = np.asarray(a)
            assert a.strides[-1] == a.itemsize  # contiguous along the FFT axis
            _log.append(a.shape[0] if a.ndim == 2 else 1)
            return _f(a, *args, **kw)
        monkeypatch.setattr(np.fft, name, counted)
    return rows


@pytest.mark.parametrize("warm", [False, True], ids=["zero", "warm"])
def test_gcpa_two_transforms_per_iteration(monkeypatch, warm):
    # counts transformed frames, the rows of each rfft/irfft input: an
    # iteration analyses and synthesizes the moving frames once each, and
    # the set-up is at most one analysis of the run's frames (the fixed
    # frames at x_det); a run with no moving frame takes no iteration
    # (test_run_that_cannot_move_is_restored_in_closed_form counts it)
    rows = transformed_frames(monkeypatch)

    def count(case, iters, trace=None):
        for log in rows.values():
            log.clear()
        cfg = SolverConfig(inner_iters=iters)
        gcpa_inner(*case, cfg, trace)
        return {name: (len(log), sum(log)) for name, log in rows.items()}

    # the whole circle (a 4-column gap on 16 frames reaches round it: every
    # frame moves) and a 4-column frame run (8 frames, 6 moving)
    for scfg, zero, n_moving in ((SEG, np.arange(6, 10), SEG.n_frames),
                                 (RUNS, np.arange(14, 18), 6)):
        *case, k, moving = run_case(scfg, zero, warm)
        assert moving == n_moving
        few, many = count(case, 5), count(case, 15)
        for name in rows:
            assert many[name][1] - few[name][1] == 10 * moving
            assert few[name][0] - 5 <= 1
            assert few[name][1] - 5 * moving <= k
        # tracing adds no transform
        traces = [np.full((n, 2), np.nan) for n in (5, 15)]
        few = count(case, 5, trace=traces[0])
        many = count(case, 15, trace=traces[1])
        for name in rows:
            assert many[name][1] - few[name][1] == 10 * moving
        assert all(np.all(np.isfinite(t)) for t in traces)


def fresh_trace_terms(x, run, omega, lam):
    """_trace_terms of x on a frame run, from a new analysis of x."""
    M = run.cfg.channels
    rot = correction_factors(_coeffs(omega)[: M // 2 + 1], run.cfg.hop, M).T
    A = _rfft_frames(x, default_window(run.cfg), run.cfg, run.circular) * run.ramp
    return _trace_terms(A, rot, run.Xc, run.reliable, M, lam, run.cut)


def test_run_without_moving_frames_runs_no_dual_step(monkeypatch):
    # a 1-column gap fixes x at x_det: the dual cannot reach an output, so
    # none is stepped, and a trace repeats the terms at x_det, round j at
    # the IF of round j - 1's output (x0, then x_det)
    import tfpaint.solver as solver_mod

    calls = []
    monkeypatch.setattr(solver_mod, "_dual_step", lambda *args: calls.append(args))
    zero = np.array([14])
    (run,) = frame_runs(zero, RUNS)
    assert not run.moves
    obs = observe(runs_corrupted(zero), zero, run)
    cfg = SolverConfig(inner_iters=25)
    cols, values, info = solve_observed(obs, cfg, "uphain", traced=True)
    assert not calls
    assert info["outer_iters_used"] == 2 and info["stopped_early"]
    assert info["final_change"] == 0.0
    full = _observe(*obs.source[:2], replace(run, moves=True))  # the run as a trace sets it up
    assert full.moving.stop == full.moving.start and not np.any(full.free)
    terms = [fresh_trace_terms(full.x_det, full, estimate_if(x, RUNS, circular=False), cfg.lam)
             for x in (full.x0, full.x_det)]
    assert info["trace"].tolist() == [list(terms[0])] * 25 + [list(terms[1])] * 25
    # untraced, omega is not even estimated or turned into phase factors
    monkeypatch.setattr(solver_mod, "correction_factors", None)
    monkeypatch.setattr(solver_mod, "estimate_if", None)
    assert np.array_equal(solve_observed(obs, cfg)[1], values)


@pytest.mark.parametrize("kind, sigma", [("soft", 1.0), ("l2_block", 1.0), ("soft", 0.5)],
                         ids=["alpha1", "l2-block", "sigma0.5"])  # alpha1: the plain step
@pytest.mark.parametrize("zero, noise", [(np.arange(14, 18), 0.0),
                                         (np.array([30, 31, 0, 1]), 0.0),
                                         (np.arange(14, 18), 1e-3)],
                         ids=["interior", "file-end", "noisy"])
def test_trace_does_not_drift_from_a_fresh_analysis(zero, noise, kind, sigma):
    # the trace carries the analysis of x along instead of taking it; after
    # 500 iterations its terms still match a new analysis of the output
    # (with noise, the frames that do not move leave a residual of their own)
    cfg = SolverConfig(sigma=sigma, inner_iters=500, **kind_fields(kind))
    x0, Z0, obs, omega, k, moving = run_case(RUNS, zero, warm=True, noise=noise)
    assert moving > 0
    rows = blank_rows(cfg)
    x, _ = gcpa_inner(x0, Z0, obs, omega, cfg, rows)
    assert np.all(np.isfinite(rows))  # every row written
    obj, feas = fresh_trace_terms(x, obs, omega, cfg.lam)
    assert rows[-1, 0] == pytest.approx(obj, rel=1e-12, abs=0.0)
    # the feasibility residual is round-off of the data here (the reliable
    # frames barely see a free sample): relative to ||P_rel Xc||
    data = _trace_terms(0.0 * obs.Xc, 1.0, obs.Xc, obs.reliable, RUNS.channels, cfg.lam)[1]
    assert abs(rows[-1, 1] - feas) <= 1e-12 * data


def edge_dual(lam, half):
    """An (8, half) dual: zero entries, entries on the lam-ball's edge and one
    ulp either side, tiny ones, then seeded ones."""
    up, down = np.nextafter(lam, np.inf), np.nextafter(lam, -np.inf)
    rng = np.random.default_rng(8)
    # (below 1e-300 the old floor scaled the entry down by |Q| / 1e-300)
    edge = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), lam, -lam, 1j * lam,
            -1j * lam, up, -up, 1j * up, down, 1j * down, 1e-300, -1e-300j, 2e-300]
    n = 8 * half - len(edge)
    return np.concatenate([np.array(edge, dtype=complex),
                           0.02 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))]
                          ).reshape(8, half)


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_dual_step_clip_matches_min_max_formula(lam):
    # Q * (lam / max(|Q|, lam)) is the old min(|Q|, lam) / max(|Q|, 1e-300)
    # bit for bit, at zero entries, on the ball's edge and one ulp outside
    Q = edge_dual(lam, 8)
    mag = np.abs(Q)
    old = Q * (np.minimum(mag, lam) / np.maximum(mag, 1e-300))
    got = _dual_step(Q.copy(), Thresholder("soft"), lam, 14, np.empty(Q.shape))
    assert got.tobytes() == old.tobytes()


@pytest.mark.parametrize("M", [14, 13])
@pytest.mark.parametrize("kind", ["p_shrinkage", "smooth_hard", "l2_squared", "l2_block"])
def test_dual_step_matches_the_m_row_formula(kind, M):
    # the entrywise kinds step rows 0..M//2 alone, l2_block all M rows; each
    # gives the bits of thresholding all M rows and keeping rows 0..M//2
    lam, thresh = KIND_LAM[kind], Thresholder(kind)
    Q = edge_dual(lam, M // 2 + 1)
    want = Q - thresh(_expand(Q, M), lam)[: Q.shape[1]].T
    got = _dual_step(Q.copy(), thresh, lam, M, np.empty(Q.shape))
    assert np.array_equal(got, want)


# ------------------------------------------------------- free-sample threshold


@pytest.mark.parametrize("width, n_free", [(1, 0), (2, 0), (3, 15), (4, 527),
                                           (5, 1039), (6, 1551)])
def test_free_sample_counts_at_quarter_hop(width, n_free):
    # exact zeros of d_rel alone leave 0, 0, 1, 513, 1025, 1537; the
    # threshold frees the 7 samples either side whose d_rel is below it
    reliable = np.ones(SEG.n_frames, dtype=bool)
    reliable[5 : 5 + width] = False
    zero = np.flatnonzero(~reliable)
    X0 = Spectrogram(np.zeros((SEG.channels, SEG.n_frames), complex), SEG)
    free = observe(X0, zero, circle(SEG, zero)).free
    assert int(np.sum(free)) == n_free
    assert np.array_equal(free, reliable_energy(SEG, reliable) <= FREE_DREL)


@pytest.mark.parametrize("zero", [[8], [7, 8]])
def test_narrow_gap_restores_to_round_off(zero):
    zero = np.array(zero)
    x = three_tone()
    Xc = corrupted(x, zero)
    (run,) = frame_runs(zero, SEG)
    cols, values, info = solve_observed(observe(Xc, zero, run), SolverConfig(inner_iters=20))
    out = Xc.data.copy()
    out[:, cols] = values
    err = x - synthesize(out, default_window(SEG), SEG)
    assert 20 * np.log10(np.linalg.norm(x) / np.linalg.norm(err)) >= 200.0
    # the ordinary change rule stops it: the second round cannot move
    assert info["stopped_early"] and info["outer_iters_used"] == 2
    assert info["final_change"] == 0.0


def test_fixed_samples_stable_under_observation_noise():
    # x_det = syn(P_rel Xc) / d_rel moves by at most ||dX|| / sqrt(d_rel)
    # (Cauchy-Schwarz over the frames), so the threshold caps the gain
    zero = np.arange(6, 10)
    reliable = np.ones(SEG.n_frames, dtype=bool)
    reliable[zero] = False
    w = default_window(SEG)
    H = _hermitian_half(corrupted(three_tone(), zero).data)
    rng = np.random.default_rng(11)
    E = rng.standard_normal(H.shape) + 1j * rng.standard_normal(H.shape)
    E *= 1e-9 * np.max(np.abs(H)) / np.max(np.abs(E)) * reliable[:, None]
    # on the circle, as _observe forms them: free by d_rel, x_det = b / d_rel
    d_rel = _d_rel(reliable, SEG, True)
    free = d_rel <= FREE_DREL
    cr = np.conj(_frame_plan(SEG, 0, SEG.n_frames))
    x_det, x_noisy = (_irfft_frames(Hn * reliable[:, None] * cr, w, SEG, True)
                      / np.maximum(d_rel, FREE_DREL) for Hn in (H, H + E))
    moved = np.abs(x_noisy - x_det)[~free]
    noise = np.linalg.norm(_expand(E, SEG.channels))
    assert np.all(moved <= noise / np.sqrt(reliable_energy(SEG, reliable)[~free]))
    assert np.max(moved) <= noise / np.sqrt(FREE_DREL)


# ------------------------------------------------------------ frame runs

RUNS = StftConfig(window_len=2048, hop=512, channels=2048, signal_len=16384)  # N = 32


@pytest.mark.parametrize("width, count", [(1, 3), (2, 4), (3, 7), (4, 8), (5, 9), (6, 10)])
def test_run_length_at_default_geometry(width, count):
    gap = range(12, 12 + width)
    (run,) = frame_runs(np.arange(gap.start, gap.stop), RUNS)
    assert run.count == count
    assert run.gaps == (gap,)
    # by definition: the gap and every frame touching a free sample, plus
    # one frame each side
    reliable = np.ones(RUNS.n_frames, dtype=bool)
    reliable[gap.start : gap.stop] = False
    free = np.flatnonzero(reliable_energy(RUNS, reliable) <= FREE_DREL)
    touched = [n for n in range(RUNS.n_frames)
               if np.any((free >= n * RUNS.hop) & (free < n * RUNS.hop + RUNS.window_len))]
    assert run.start == min(touched + [gap.start]) - 1
    assert run.start + count - 1 == max(touched + [gap.stop - 1]) + 1


def test_frame_runs_known_cases():
    N = RUNS.n_frames
    assert frame_runs(np.array([], dtype=int), RUNS) == []
    # the file ends wrap: the circular frame, with the pair N-1 -> 0 cut
    assert frame_runs([0], RUNS) == [FrameRun(N - 1, 3, (range(0, 1),))]
    assert frame_runs([N - 1], RUNS) == [FrameRun(N - 2, 3, (range(N - 1, N),))]
    assert frame_runs([N - 1, 0], RUNS) == [FrameRun(N - 2, 4, (range(N - 1, N), range(0, 1)))]
    # runs that share a frame merge, runs that only touch do not
    assert frame_runs([10, 12], RUNS) == [FrameRun(9, 5, (range(10, 11), range(12, 13)))]
    assert frame_runs([10, 13], RUNS) == [FrameRun(9, 3, (range(10, 11),)),
                                          FrameRun(12, 3, (range(13, 14),))]
    # a run that would reach round the circle onto itself is the whole circle
    long_gap = np.arange(3, 28)
    assert frame_runs(long_gap, RUNS) == [FrameRun(0, N, (range(3, 28),))]


def runs_corrupted(zero):
    X = analyze(three_tone(RUNS.signal_len), default_window(RUNS), RUNS).data.copy()
    X[:, zero] = 0.0
    return Spectrogram(X, RUNS)


def test_d_rel_is_summed_once_per_reliable_pattern(monkeypatch):
    # d_rel depends on the reliable-frame pattern alone: five 1-column gaps
    # far apart make one, the 7 frames reaching a gap, which frame_runs
    # reads and _observe reads again to restore each run, so the set-up sums
    # M*w**2 once, not ten times, and a second restoration not at all; the
    # circle's is not kept
    import tfpaint.solver as solver_mod

    summed = []
    overlap_add = solver_mod._overlap_add
    monkeypatch.setattr(solver_mod, "_overlap_add",
                        lambda c, *args: summed.append(len(c)) or overlap_add(c, *args))
    solver_mod._d_rel_of.cache_clear()
    zero = np.array([4, 10, 16, 22, 29])
    X = runs_corrupted(zero)
    runs = frame_runs(zero, RUNS)
    assert len(runs) == 5
    for run in runs:
        observe(X, zero, run)
    assert summed == [7]
    inpaint_spectrogram(X, ColumnMask(RUNS.n_frames, zero), jobs=1)
    assert summed == [7]
    for _ in range(2):
        _d_rel(np.ones(RUNS.n_frames, dtype=bool), RUNS, True)
    assert summed == [7, 32, 32]
    assert solver_mod._d_rel_of.cache_info().currsize == 1


@pytest.mark.parametrize("zero, analysed", [([10, 12], 3), (np.arange(14, 18), 4)],
                         ids=["merged", "moving"])
def test_output_analysis_transforms_the_gap_frames_alone(monkeypatch, zero, analysed):
    # runs of 5 and 8 frames: the output analysis, the last one a solve
    # takes, transforms frames g0..g1 of the gaps alone
    import tfpaint.solver as solver_mod

    done = []
    rfft_frames = solver_mod._rfft_frames
    monkeypatch.setattr(solver_mod, "_rfft_frames",
                        lambda *args: done.append(rfft_frames(*args)) or done[-1])
    zero = np.asarray(zero)
    (run,) = frame_runs(zero, RUNS)
    solve_observed(observe(runs_corrupted(zero), zero, run), SolverConfig(inner_iters=5))
    assert run.count > analysed and done[-1].shape == (analysed, RUNS.channels // 2 + 1)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("zero", [np.arange(14, 18), np.arange(0, 3), np.array([30, 31, 0]),
                                  np.array([10, 12]), np.arange(5, 32)],
                         ids=["interior", "file-start", "file-end-wrap", "merged", "whole-circle"])
def test_gap_frame_analysis_matches_the_whole_run(monkeypatch, zero, method, traced):
    # each frame's rFFT is its own row, so analysing the gap frames alone
    # gives the bits of an analysis of every frame of the run (of the whole
    # circle, whose last gap frames wrap round onto its start); and a run
    # that cannot move (the merged 1-column gaps), which synthesizes x_det
    # from the frames that reach its gap frames alone, gives the bits of
    # x_det synthesized from every frame that reaches the run
    import tfpaint.solver as solver_mod

    solved = []
    inner = solver_mod.gcpa_inner
    monkeypatch.setattr(solver_mod, "gcpa_inner",
                        lambda *args: solved.append(inner(*args)) or solved[-1])
    (run,) = frame_runs(zero, RUNS)
    X = runs_corrupted(zero)
    obs = observe(X, zero, run)
    cfg = SolverConfig(inner_iters=5, outer_iters=1)
    cols, values, _ = solve_observed(obs, cfg, method, three_tone(RUNS.signal_len), traced)
    w = default_window(RUNS)
    if run.moves:
        assert obs.circular == (len(zero) > 4)
        A = _rfft_frames(solved[-1][0], w, RUNS, obs.circular)
        want = _expand(A[obs.gaps] * obs.ramp[obs.gaps], RUNS.channels) * obs.peak
    else:
        assert not solved
        reach, frames, span = _reach(run.start, run.count, RUNS)
        rel = _reliable(zero, RUNS.n_frames)[frames]
        ramp = _frame_plan(RUNS, run.start - reach, len(frames))
        V = np.conj(ramp) * _hermitian_half(X.data[:, frames])
        x_det = _irfft_frames(V, w, RUNS, False)[span] / _d_rel(rel, RUNS, False)[span]
        gaps = reach + np.flatnonzero(~rel[reach : reach + run.count])
        A = _rfft_frames(x_det, w, RUNS, False)
        want = _expand(A[gaps - reach] * ramp[gaps], RUNS.channels)
    assert np.array_equal(cols, zero)  # in frame order
    assert values.shape == want.shape and values.tobytes() == want.tobytes()


@pytest.mark.parametrize("zero", [[14], [14, 15], [0], [31, 0], [10, 12]],
                         ids=["width-1", "width-2", "file-end", "file-end-width-2", "merged"])
def test_run_that_cannot_move_is_restored_in_closed_form(monkeypatch, zero):
    # no sample is free, so the restoration is x_det = syn(P_rel X) / d_rel:
    # one synthesis of the g + 2r frames that reach the g gap frames, one
    # analysis of those, and no inner loop or IF estimate
    import tfpaint.solver as solver_mod

    def must_not_run(*args, **kw):
        raise AssertionError("called on a run that cannot move")

    N, w = RUNS.n_frames, default_window(RUNS)
    zero = np.asarray(zero)
    X = runs_corrupted(zero)
    (run,) = frame_runs(zero, RUNS)
    assert not run.moves
    g, r = (zero[-1] - zero[0]) % N + 1, RUNS.window_len // RUNS.hop - 1
    x_true = three_tone(RUNS.signal_len)
    monkeypatch.setattr(solver_mod, "gcpa_inner", must_not_run)
    monkeypatch.setattr(solver_mod, "estimate_if", must_not_run)
    rows = transformed_frames(monkeypatch)
    cols, values, info = solve_observed(observe(X, zero, run), SolverConfig(), "uphain", x_true)
    assert rows == {"rfft": [g], "irfft": [g + 2 * r]}
    assert np.array_equal(cols, zero) and info["outer_iters_used"] == 2

    # the closed form on the whole circle, d_rel by its definition
    x = synthesize(X, w, RUNS) / reliable_energy(RUNS, _reliable(zero, N))
    want = analyze(x, w, RUNS).data[:, zero]
    assert np.max(np.abs(values - want)) <= 1e-15 * np.max(np.abs(X.data))

    # the same bits from the pipeline, for any method and job count
    mask = ColumnMask(N, zero)
    for method in METHODS:
        for jobs in (1, 2):
            out = inpaint_spectrogram(X, mask, method, jobs=jobs, x_true=x_true).data
            assert out[:, zero].tobytes() == values.tobytes()


@pytest.mark.parametrize("zero", [[3], [0, 2, 4, 7]], ids=["one-gap", "gap-hull-is-the-circle"])
def test_run_that_cannot_move_on_the_whole_circle(zero):
    # on 8 frames a run reaches round the circle: the frames reaching a
    # 1-column gap wrap onto themselves, and gaps from the first column to
    # the last make the circle their gap frames; both are the closed form
    scfg = StftConfig(window_len=2048, hop=512, channels=2048, signal_len=4096)
    w = default_window(scfg)
    X = analyze(three_tone(scfg.signal_len), w, scfg).data.copy()
    X[:, zero] = 0.0
    X = Spectrogram(X, scfg)
    (run,) = frame_runs(zero, scfg)
    assert (run.start, run.count, run.moves) == (0, scfg.n_frames, False)
    x = synthesize(X, w, scfg) / reliable_energy(scfg, _reliable(zero, scfg.n_frames))
    want = analyze(x, w, scfg).data[:, zero]
    cfg = SolverConfig(inner_iters=5)
    cols, values, _ = solve_observed(observe(X, zero, run), cfg)
    assert np.array_equal(cols, zero)
    assert np.max(np.abs(values - want)) <= 1e-15 * np.max(np.abs(X.data))
    *_, traced, info = solve_observed(observe(X, zero, run), cfg, traced=True)
    assert traced.tobytes() == values.tobytes()
    assert info["trace"].shape == (2 * cfg.inner_iters, 2)


def test_run_peak_matches_synthesis():
    # a run is scaled by the peak of the synthesized observation over its
    # span, and starts from that synthesis
    zero = np.arange(14, 18)
    X = analyze(three_tone(RUNS.signal_len), default_window(RUNS), RUNS).data.copy()
    X[:, zero] = 0.0
    (run,) = frame_runs(zero, RUNS)
    obs = observe(Spectrogram(X, RUNS), zero, run)
    span = RUNS.hop * run.start + np.arange(len(obs.x0))
    syn = synthesize(X, default_window(RUNS), RUNS)[span]
    assert abs(obs.peak - np.max(np.abs(syn))) <= 1e-12
    assert np.max(np.abs(obs.x0 * obs.peak - syn)) <= 1e-12
    assert obs.peak < 0.9  # three_tone peaks at 0.9; the span sees less


WIDE = StftConfig(window_len=2048, hop=384, channels=2048, signal_len=384 * 64)


@pytest.mark.parametrize("width", [1, 6])
def test_run_start_takes_one_product_order_at_any_size(width):
    # numpy computes Xh * np.conj(ramp) as np.conj(ramp) * Xh once the
    # temporary reaches 256 KiB, and the two can differ in the last bit;
    # the 1-column run (13 frames) is below that size, the 6-column above
    zero = np.arange(30, 30 + width)
    X = analyze(three_tone(WIDE.signal_len), default_window(WIDE), WIDE).data.copy()
    X[:, zero] = 0.0
    (run,) = frame_runs(zero, WIDE)
    # the set-up that takes x0: a run that moves, or one that cannot when traced
    obs = _observe(Spectrogram(X, WIDE), _reliable(zero, WIDE.n_frames),
                   replace(run, moves=True))
    assert run.moves == (width == 6)
    reach, frames, span = _reach(run.start, run.count, WIDE)
    Xh = _hermitian_half(X[:, frames])
    assert (Xh.nbytes < 2**18) == (width == 1)
    ramp = _frame_plan(WIDE, run.start - reach, len(frames))
    x0 = _irfft_frames(np.conj(ramp) * Xh, default_window(WIDE), WIDE, False)[span]
    assert obs.peak == np.max(np.abs(x0))
    assert np.array_equal(obs.x0, x0 / obs.peak)


def two_gaps(apart):
    # a 4-column gap (run 6..13) and a 1-column gap whose run starts
    # `apart` frames after it; at apart = 1 the second gap lies among the
    # frames that fix the first run's samples
    return np.concatenate((np.arange(8, 12), [15 + apart]))


@pytest.mark.parametrize("zero", [np.arange(14, 18), np.arange(0, 4), np.arange(28, 32),
                                  two_gaps(1), two_gaps(2), two_gaps(3), np.arange(3, 28)],
                         ids=["interior", "first-column", "last-column",
                              "apart-1", "apart-2", "apart-3", "whole-circle"])
def test_run_solve_matches_whole_spectrogram_reference(zero):
    N = RUNS.n_frames
    X = analyze(three_tone(RUNS.signal_len), default_window(RUNS), RUNS).data.copy()
    X[:, zero] = 0.0
    x0 = synthesize(X, default_window(RUNS), RUNS)
    omega = estimate_if(x0, RUNS)
    cfg = SolverConfig(inner_iters=30)
    runs = frame_runs(zero, RUNS)
    if len(zero) == 5:
        assert runs[1].start - (runs[0].start + runs[0].count) == zero[-1] - 15
    for run in runs:
        obs = observe(Spectrogram(X, RUNS), zero, run)
        if not run.moves:  # the 1-column gap: its columns are the reference's
            ref, _ = free_sample_reference(x0, half_zeros(RUNS, N - 1), zero,
                                           Spectrogram(X, RUNS), omega, cfg)
            want = analyze(ref, default_window(RUNS), RUNS).data[:, obs.cols]
            assert np.max(np.abs(obs.values - want)) <= 1e-12 * np.max(np.abs(want))
            continue
        # the reference solves the whole spectrogram at the run's scale
        whole = Spectrogram(X / obs.peak, RUNS)
        ref, _ = free_sample_reference(x0 / obs.peak, half_zeros(RUNS, N - 1), zero, whole,
                                       omega, cfg)
        frames = (run.start + np.arange(run.count)) % N
        span = (RUNS.hop * run.start + np.arange(len(obs.x0))) % RUNS.signal_len
        Z0 = half_zeros(RUNS, run.count - 1)
        got, _ = gcpa_inner(obs.x0, Z0, obs, omega[:, frames], cfg)
        # a run's span, or the whole signal for the circle (frame_runs folds
        # the 25-column gap into FrameRun(0, N, ...))
        length = RUNS.hop * (run.count - 1) + RUNS.window_len
        assert got.shape == (RUNS.signal_len if run.count == N else length,)
        assert np.max(np.abs(got - ref[span])) <= 1e-12 * np.max(np.abs(ref))
        if len(run.gaps[0]) >= 3:  # the free samples moved
            assert not np.array_equal(got[obs.free], obs.x0[obs.free])


RUN_ARRAYS = ("x0", "x_det", "free", "Xc", "ramp")


@pytest.mark.parametrize("kind", ["soft", "l2_block"],
                         ids=["alpha1", "l2-block"])  # alpha1: soft, the plain step
@pytest.mark.parametrize("zero", [np.arange(14, 18), np.array([30, 31, 0, 1])],
                         ids=["interior", "file-end"])
def test_solvers_leave_their_inputs_unchanged(zero, kind):
    # the outer loop hands one _Run to up to outer_iters + 1 inner runs, and
    # its ramp is frame_plan's cached array: an in-place write to any of
    # them, or a fixed-frame analysis kept from an earlier call, would leak
    # into the next round
    cfg = SolverConfig(inner_iters=10, outer_iters=2, **kind_fields(kind))
    x0, Z0, obs, omega, k, moving = run_case(RUNS, zero, warm=True)
    assert 0 < moving < k
    # the file-end run crosses the pair N-1 -> 0
    assert isinstance(obs.cut, slice) == (zero[0] != 30)
    kept = {name: getattr(obs, name).copy() for name in RUN_ARRAYS}
    inputs = (x0.copy(), Z0.copy(), omega.copy())
    # a round at another omega between two equal ones, as the outer loop
    # runs them, and that round again on a freshly set-up run; each gives (x, Z)
    other = 0.5 * omega
    first = gcpa_inner(x0, Z0, obs, omega, cfg)
    between = gcpa_inner(x0, Z0, obs, other, cfg)
    second = gcpa_inner(x0, Z0, obs, omega, cfg)
    fresh = gcpa_inner(x0, Z0, run_case(RUNS, zero)[2], other, cfg)
    assert not np.array_equal(first[0], x0)
    assert not np.array_equal(first[0], between[0])
    assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])
    assert np.array_equal(between[0], fresh[0]) and np.array_equal(between[1], fresh[1])
    for name in RUN_ARRAYS:
        assert np.array_equal(getattr(obs, name), kept[name]), name
    for now, before in zip((x0, Z0, omega), inputs):
        assert np.array_equal(now, before)

    X = analyze(three_tone(RUNS.signal_len), default_window(RUNS), RUNS).data.copy()
    X[:, zero] = 0.0
    X_corr = Spectrogram(X.copy(), RUNS)
    (run,) = frame_runs(zero, RUNS)
    for method in ("uphain", "tf_only"):
        runs = [observe(X_corr, zero, run) for _ in range(2)]
        made = [(r, {name: getattr(r, name).copy() for name in RUN_ARRAYS}) for r in runs]
        got = [solve_observed(r, cfg, method) for r in runs]
        assert np.array_equal(got[0][1], got[1][1])
        assert np.array_equal(X_corr.data, X)
        for made_run, snap in made:
            for name in RUN_ARRAYS:
                assert np.array_equal(getattr(made_run, name), snap[name]), (method, name)


@pytest.mark.parametrize("zero", [np.arange(14, 18)],
                         ids=["moving-alpha1"])  # alpha1: the plain step
def test_inner_leaves_a_warm_state_unchanged(zero):
    # the dual stays on rows 0..M//2 from round to round, so gcpa_inner
    # must step a copy of Z0: the loop swaps its two dual buffers (a run
    # that cannot move has no dual: test_run_without_moving_frames_runs_no_dual_step)
    x0, Z0, obs, omega, k, moving = run_case(RUNS, zero, warm=True)
    assert moving > 0 and np.any(Z0)
    x_kept, Z_kept = x0.copy(), Z0.copy()
    cfg = SolverConfig(inner_iters=5)
    for rows in (None, blank_rows(cfg)):
        x, Z = gcpa_inner(x0, Z0, obs, omega, cfg, rows)
        assert np.array_equal(x0, x_kept) and np.array_equal(Z0, Z_kept)
        assert not np.shares_memory(Z, Z0)
        assert not np.array_equal(Z, Z_kept)


# ------------------------------------------------ tf_only at omega = 0


@pytest.mark.parametrize("kind", ["soft", "l2_block"])
def test_tf_only_matches_free_sample_reference_at_zero_omega(kind):
    # tf_only is one inner run at omega = 0 on the free samples: on the
    # whole circle, the reference sees the observation at the run's scale,
    # and the run's output is scaled back
    zero = np.arange(6, 10)
    Xc = corrupted(three_tone(), zero)
    run = circle(SEG, zero)
    obs = observe(Xc, zero, run)
    cfg = SolverConfig(inner_iters=30, **kind_fields(kind))
    cols, values, info = solve_observed(obs, cfg, "tf_only", traced=True)
    ref_rows = blank_rows(cfg)
    ref, _ = free_sample_reference(obs.x0, half_zeros(SEG, SEG.n_frames - 1), zero,
                                   Spectrogram(Xc.data / obs.peak, SEG),
                                   np.zeros((SEG.channels, SEG.n_frames)), cfg, ref_rows)
    want = obs.peak * analyze(ref, default_window(SEG), SEG).data[:, zero]
    assert info["outer_iters_used"] == 1
    assert np.array_equal(cols, zero)
    assert not np.array_equal(ref[obs.free], obs.x0[obs.free])  # the free samples moved
    assert values.shape == want.shape
    assert np.max(np.abs(values - want)) <= 1e-10 * np.max(np.abs(want))
    assert_rows_match(info["trace"], ref_rows)

import numpy as np
import pytest

from tfpaint.phase_prior import (
    correction_factors,
    estimate_if,
    time_variation,
    time_variation_adjoint,
)
from tfpaint.prox import Thresholder, default_thresholder, project_feasible
from tfpaint.solver import (
    FREE_DREL,
    DivergenceError,
    FrameRun,
    SolverConfig,
    SolverState,
    _free_samples,
    _observe,
    bphain_tf,
    cpa_tf_only,
    default_window,
    frame_runs,
    gcpa_inner,
    initial_state,
    operator_norm_estimate,
    solve_run,
    uphain_tf,
)
from tfpaint.stft import (
    Spectrogram,
    StftConfig,
    _expand,
    _hermitian_half,
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


def omega_for(x_init):
    return estimate_if(x_init, make_hann(2048), make_hann_derivative(2048), SEG)


# ---------------------------------------------------------------- config


def test_config_defaults():
    cfg = SolverConfig()
    assert (cfg.tau, cfg.sigma) == (0.25, 1.0)
    assert cfg.lam == 0.01
    assert (cfg.inner_iters, cfg.outer_iters) == (500, 10)
    assert cfg.epsilon == 0.001
    assert cfg.alpha_relax == 1.0
    assert cfg.thresholder.kind == "soft"


def test_config_thresholder_tracks_lambda():
    assert SolverConfig(lam=0.05).thresholder.lam == 0.05
    # an explicit thresholder is taken as-is
    th = Thresholder("p_shrinkage", lam=0.2, p=0.5)
    assert SolverConfig(lam=0.01, thresholder=th).thresholder is th


def test_config_step_conditions():
    with pytest.raises(ValueError):
        SolverConfig(tau=0.5, sigma=1.0)  # tau*sigma*4 = 2
    # the defaults sit exactly on the bound
    SolverConfig(tau=0.25, sigma=1.0)
    # the data constraint has no dual, so no step size of its own
    with pytest.raises(TypeError):
        SolverConfig(eta=4.0)
    # explicit override lets unsafe steps through
    cfg = SolverConfig(tau=0.5, sigma=1.0, allow_unsafe=True)
    assert cfg.tau == 0.5


def test_config_rejects_bad_fields():
    for kwargs in (
        dict(tau=0.0),
        dict(sigma=-1.0),
        dict(lam=-0.1),
        dict(inner_iters=0),
        dict(outer_iters=-1),
        dict(epsilon=0.0),
        dict(alpha_relax=0.0),
        dict(alpha_relax=2.0),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


# ---------------------------------------------------------------- inner loop


def test_zero_input_is_fixed_point():
    X0 = Spectrogram(np.zeros((SEG.channels, SEG.n_frames), complex), SEG)
    state0 = SolverState(
        np.zeros(SEG.signal_len),
        np.zeros((SEG.channels, SEG.n_frames - 1), complex),
    )
    omega = np.zeros((SEG.channels, SEG.n_frames))
    out = gcpa_inner(state0, np.arange(3, 7), X0, omega, SolverConfig(inner_iters=25))
    assert not np.any(out.x)
    assert not np.any(out.Z)


def test_fully_observed_reaches_feasibility():
    Xc = corrupted(three_tone(), EMPTY)
    state0 = initial_state(Xc)
    st = gcpa_inner(state0, EMPTY, Xc, omega_for(state0.x), SolverConfig(inner_iters=100))
    res = np.linalg.norm(analyze(st.x, default_window(SEG), SEG).data - Xc.data)
    assert res <= 1e-6


def test_consistent_input_barely_moves():
    # bin-centered tone, nothing masked: the corrected variation is already
    # inside the soft threshold's dead zone, so the iterates stay put
    t = np.arange(SEG.signal_len)
    x = 0.9 * np.cos(2 * np.pi * 56 * t / 2048)
    Xc = Spectrogram(analyze(x, default_window(SEG), SEG).data, SEG)
    state0 = initial_state(Xc)
    st = gcpa_inner(state0, EMPTY, Xc, omega_for(state0.x), SolverConfig(inner_iters=200))
    assert np.max(np.abs(st.x - state0.x)) < 1e-8


def tone_gap_trace(zero, cfg):
    t = np.arange(SEG.signal_len)
    x = 0.9 * np.cos(2 * np.pi * (440.3 / 16000.0) * t)
    Xc = corrupted(x, zero)
    state0 = initial_state(Xc)
    rows = []
    gcpa_inner(state0, zero, Xc, omega_for(state0.x), cfg,
               trace=lambda i, o, f: rows.append((o, f)))
    return np.array(rows).T


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
    assert np.all(obj == obj[0])
    assert np.all(feas <= 1e-12)


def unsafe_config():
    # l2_squared's dual step is unbounded; soft's clips every dual entry to
    # the lam-ball, which keeps the iterates bounded at any step size
    return SolverConfig(tau=5.0, sigma=5.0, inner_iters=400, allow_unsafe=True,
                        thresholder=default_thresholder("l2_squared"))


def test_divergence_detected():
    zero = np.arange(6, 10)
    Xc = corrupted(three_tone(), zero)
    state0 = initial_state(Xc)
    bad = unsafe_config()
    with pytest.raises(DivergenceError) as err:
        gcpa_inner(state0, zero, Xc, omega_for(state0.x), bad)
    assert err.value.iteration >= 1


def test_unsafe_steps_cannot_diverge_without_free_samples():
    zero = np.array([8])
    x = three_tone()
    Xc = corrupted(x, zero)
    state0 = initial_state(Xc)
    st = gcpa_inner(state0, zero, Xc, omega_for(state0.x), unsafe_config())
    assert np.max(np.abs(st.x - x)) <= 1e-12


def test_inner_does_not_mutate_input_state():
    Xc = corrupted(three_tone(), np.array([8]))
    state0 = initial_state(Xc)
    x0 = state0.x.copy()
    gcpa_inner(state0, np.array([8]), Xc, omega_for(state0.x), SolverConfig(inner_iters=3))
    assert np.array_equal(state0.x, x0)
    assert not np.any(state0.Z)


# ---------------------------------------------------------------- drivers


def test_uphain_nothing_masked_returns_input():
    Xc = corrupted(three_tone(), EMPTY)
    out = uphain_tf(Xc, EMPTY, SolverConfig(inner_iters=3, outer_iters=1))
    assert np.array_equal(out.data, Xc.data)


def test_uphain_reliable_columns_bit_exact():
    zero = np.array([5, 6])
    Xc = corrupted(three_tone(), zero)
    out = uphain_tf(Xc, zero, SolverConfig(inner_iters=10, outer_iters=1))
    keep = np.ones(SEG.n_frames, dtype=bool)
    keep[zero] = False
    assert np.array_equal(out.data[:, keep], Xc.data[:, keep])
    assert not np.array_equal(out.data[:, zero], Xc.data[:, zero])


def test_uphain_stop_check_starts_at_second_round():
    zero = np.array([8])
    Xc = corrupted(three_tone(), zero)
    # an enormous epsilon trips the criterion at its first evaluation, which
    # by construction happens after the second inner run, not the first
    out, info = uphain_tf(
        Xc, zero, SolverConfig(inner_iters=5, epsilon=1e9), return_info=True
    )
    assert info["stopped_early"]
    assert info["outer_iters_used"] == 2


def test_uphain_deterministic():
    zero = np.array([7, 8])
    Xc = corrupted(three_tone(), zero)
    cfg = SolverConfig(inner_iters=8, outer_iters=1)
    a = uphain_tf(Xc, zero, cfg)
    b = uphain_tf(Xc, zero, cfg)
    assert np.array_equal(a.data, b.data)


def test_uphain_recovers_single_gap():
    zero = np.array([8])
    x = three_tone()
    X_true = analyze(x, default_window(SEG), SEG).data
    Xc = corrupted(x, zero)
    out = uphain_tf(Xc, zero, SolverConfig(inner_iters=200, outer_iters=3))
    err = np.linalg.norm(out.data[:, zero] - X_true[:, zero])
    ref = np.linalg.norm(X_true[:, zero])
    assert 20 * np.log10(ref / err) > 40.0


def test_bphain_oracle_matches_corrupted_source():
    zero = np.array([8])
    Xc = corrupted(three_tone(), zero)
    cfg = SolverConfig(inner_iters=15)
    a = bphain_tf(Xc, zero, cfg)
    x_same = synthesize(Xc, default_window(SEG), SEG)
    b = bphain_tf(Xc, zero, cfg, omega_source="oracle", x_true=x_same)
    assert np.array_equal(a.data, b.data)


def test_bphain_argument_validation():
    Xc = corrupted(three_tone(), EMPTY)
    with pytest.raises(ValueError):
        bphain_tf(Xc, EMPTY, SolverConfig(inner_iters=2), omega_source="oracle")
    with pytest.raises(ValueError):
        bphain_tf(Xc, EMPTY, SolverConfig(inner_iters=2), omega_source="guess")
    with pytest.raises(ValueError):
        bphain_tf(
            Xc,
            EMPTY,
            SolverConfig(inner_iters=2),
            omega_source="oracle",
            x_true=np.zeros(3),
        )


def test_cpa_tf_only_feasibility():
    zero = np.array([7, 8])
    Xc = corrupted(three_tone(), zero)
    out = cpa_tf_only(Xc, zero, SolverConfig(inner_iters=10, outer_iters=1))
    keep = np.ones(SEG.n_frames, dtype=bool)
    keep[zero] = False
    assert np.array_equal(out.data[:, keep], Xc.data[:, keep])
    empty_out = cpa_tf_only(corrupted(three_tone(), EMPTY), EMPTY, SolverConfig(inner_iters=3))
    assert np.array_equal(empty_out.data, corrupted(three_tone(), EMPTY).data)


def test_cpa_tf_only_is_one_run_without_phase_correction(monkeypatch):
    import tfpaint.solver as solver_mod

    def no_estimate(*args, **kwargs):
        raise AssertionError("tf_only must not estimate the IF")

    monkeypatch.setattr(solver_mod, "estimate_if", no_estimate)
    zero = np.array([7, 8])
    out, info = cpa_tf_only(corrupted(three_tone(), zero), zero,
                            SolverConfig(inner_iters=10, outer_iters=3), return_info=True)
    assert info["outer_iters_used"] == 1
    assert np.all(np.isfinite(out.data))


def test_uphain_beats_tf_only_on_gap():
    zero = np.array([7, 8])
    x = three_tone()
    X_true = analyze(x, default_window(SEG), SEG).data
    Xc = corrupted(x, zero)
    cfg = SolverConfig(inner_iters=100, outer_iters=3)

    def gap_snr(out):
        err = np.linalg.norm(out.data[:, zero] - X_true[:, zero])
        return 20 * np.log10(np.linalg.norm(X_true[:, zero]) / err)

    assert gap_snr(uphain_tf(Xc, zero, cfg)) > gap_snr(cpa_tf_only(Xc, zero, cfg))


# ---------------------------------------------------------------- norm probe


def test_norm_identity():
    est = operator_norm_estimate(lambda v: v, lambda v: v, 64, iters=10)
    assert abs(est - 1.0) <= 1e-9


def test_norm_analysis_is_one():
    w = default_window(SEG).samples
    est = operator_norm_estimate(
        lambda v: analyze(v, w, SEG).data,
        lambda V: synthesize(V, w, SEG),
        SEG.signal_len,
        iters=40,
    )
    assert abs(est - 1.0) <= 1e-6


def test_norm_corrected_variation_bounded():
    w = default_window(SEG).samples
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
    out = uphain_tf(Spectrogram(X, scfg), zero, SolverConfig(inner_iters=20, outer_iters=1))
    keep = np.ones(15, dtype=bool)
    keep[zero] = False
    assert np.array_equal(out.data[:, keep], X[:, keep])
    assert np.all(np.isfinite(out.data))


# ------------------------------------------------- free-sample oracle


def reliable_energy(scfg, reliable):
    """d_rel by its definition: M*w**2 summed over the reliable frames."""
    w = default_window(scfg).samples
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


def free_sample_reference(state0, zero, Xc, omega, cfg, trace):
    """Textbook Chambolle-Pock on all M rows: the primal step moves every
    sample, then the fixed ones are reset to x_det."""
    scfg = Xc.config
    w = default_window(scfg)
    rot = correction_factors(omega, scfg.hop, scfg.channels)
    reliable = np.ones(Xc.data.shape[1], dtype=bool)
    reliable[zero] = False
    fixed, x_det = fixed_values(Xc, reliable)
    alpha = cfg.alpha_relax
    x, Z = state0.x.copy(), state0.Z.copy()
    x[fixed] = x_det
    for i in range(cfg.inner_iters):
        back = synthesize(time_variation_adjoint(Z) * np.conj(rot), w, scfg)
        x_half = x - cfg.tau * back
        x_half[fixed] = x_det
        A2 = analyze(2.0 * x_half - x, w, scfg).data
        Q = Z + cfg.sigma * time_variation(A2 * rot)
        Z_half = Q - cfg.thresholder(Q)
        x = x + alpha * (x_half - x)
        Z = Z + alpha * (Z_half - Z)
        trace(i + 1, *objective_and_feasibility(x, Xc, rot, reliable, cfg.lam))
    return SolverState(x, Z)


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
        Z = Q - cfg.thresholder(Q)
        x = x_new
    return x


def oracle_case(scfg, zero, warm=False, gap_left=0.0):
    """(state0, Xc, omega) for a gap in the three-tone signal on scfg.

    ``warm`` starts from a non-zero, conjugate-symmetric dual.  gap_left
    scales what the observation keeps on the gap columns; the solver must
    ignore it.
    """
    w = default_window(scfg)
    X = analyze(three_tone(scfg.signal_len), w, scfg).data.copy()
    X[:, zero] *= gap_left
    Xc = Spectrogram(X, scfg)
    st = initial_state(Xc)
    if warm:
        rng = np.random.default_rng(5)
        V = time_variation(analyze(rng.standard_normal(scfg.signal_len), w, scfg).data)
        st.Z = 0.01 * V / np.max(np.abs(V))
    omega = estimate_if(st.x, make_hann(scfg.window_len),
                        make_hann_derivative(scfg.window_len), scfg)
    return st, Xc, omega


SHORT = StftConfig(window_len=1024, hop=256, channels=2048, signal_len=8192)
ODD = StftConfig(window_len=992, hop=248, channels=1023, signal_len=8184)


@pytest.mark.parametrize(
    "scfg, alpha, warm, gap_left, kind",
    [
        (SEG, 1.0, False, 0.0, "soft"),
        (SEG, 1.5, False, 0.0, "soft"),
        (SEG, 1.5, True, 0.0, "soft"),
        (SEG, 1.0, False, 0.5, "soft"),
        # a block norm must count the mirrored rows the solver does not store
        (SEG, 1.0, True, 0.0, "l2_block"),
        (SHORT, 1.5, True, 0.0, "soft"),
        (ODD, 1.0, True, 0.0, "soft"),
    ],
    ids=["alpha1", "alpha1.5", "warm-dual", "stale-gap", "l2-block",
         "short-window", "odd-channels"],
)
def test_gcpa_matches_free_sample_reference(scfg, alpha, warm, gap_left, kind):
    zero = np.arange(6, 10) if scfg is SEG else np.arange(14, 18)
    st0, Xc, omega = oracle_case(scfg, zero, warm, gap_left)
    cfg = SolverConfig(inner_iters=30, alpha_relax=alpha,
                       thresholder=default_thresholder(kind))
    got_log, ref_log = [], []
    got = gcpa_inner(st0, zero, Xc, omega, cfg, trace=lambda *r: got_log.append(r))
    ref = free_sample_reference(st0, zero, Xc, omega, cfg, trace=lambda *r: ref_log.append(r))
    assert not np.array_equal(got.x, st0.x)  # the free samples moved
    for a, b in ((got.x, ref.x), (got.Z, ref.Z)):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))
    assert len(got_log) == len(ref_log) == cfg.inner_iters
    for (i1, o1, f1), (i2, o2, f2) in zip(got_log, ref_log):
        assert i1 == i2
        assert abs(o1 - o2) <= 1e-10 * max(1.0, o2)
        assert abs(f1 - f2) <= 1e-10 * max(1.0, f2)


def test_free_sample_fixed_point_is_feasible_and_no_worse_than_two_duals():
    # both formulations, 3000 iterations on a small geometry (6 of 32
    # columns missing, 49 free samples): the free-sample iterate meets the
    # constraint to round-off, and its objective is no higher than the
    # two-dual iterate's once that is made feasible.  (The two-dual iterate
    # itself still misses the constraint by ~3e-4 here, which lets it sit
    # below the constrained minimum.)
    scfg = StftConfig(window_len=64, hop=16, channels=64, signal_len=512)
    zero = np.arange(10, 16)
    st0, Xc, omega = oracle_case(scfg, zero)
    cfg = SolverConfig(inner_iters=3000)
    rot = correction_factors(omega, scfg.hop, scfg.channels)
    reliable = np.ones(scfg.n_frames, dtype=bool)
    reliable[zero] = False

    free = gcpa_inner(st0, zero, Xc, omega, cfg).x
    two = two_dual_reference(st0.x, zero, Xc, omega, cfg, eta=4.0, iters=3000)
    fixed, x_det = fixed_values(Xc, reliable)
    two[fixed] = x_det
    obj_free, feas_free = objective_and_feasibility(free, Xc, rot, reliable, cfg.lam)
    obj_two, feas_two = objective_and_feasibility(two, Xc, rot, reliable, cfg.lam)
    assert feas_free <= 1e-12 * np.linalg.norm(Xc.data)
    assert feas_two <= 1e-12 * np.linalg.norm(Xc.data)
    assert obj_free <= obj_two


def run_case(scfg, zero, warm=False):
    """(state0, X_corr, omega, k, moving frames) for the gap columns ``zero``
    of the three-tone signal, where X_corr is the whole Spectrogram when
    scfg is SEG, else the one frame run ``frame_runs`` makes, as
    ``solve_run`` sets it up."""
    w = default_window(scfg)
    X = analyze(three_tone(scfg.signal_len), w, scfg).data.copy()
    X[:, zero] = 0.0
    run = None if scfg is SEG else frame_runs(zero, scfg)[0]
    obs = _observe(Spectrogram(X, scfg), zero, run)
    x0 = initial_state(Spectrogram(X, scfg)).x if run is None else obs.x0
    k = len(obs.reliable)
    Z0 = np.zeros((scfg.channels, k - 1), complex)
    if warm:
        rng = np.random.default_rng(5)
        frames = np.arange(k) if run is None else (run.start + np.arange(k)) % scfg.n_frames
        V = time_variation(analyze(rng.standard_normal(scfg.signal_len), w, scfg).data[:, frames])
        Z0 = 0.01 * V / np.max(np.abs(V))
    omega = estimate_if(x0, make_hann(scfg.window_len), make_hann_derivative(scfg.window_len),
                        scfg, circular=run is None)
    target = Spectrogram(X, scfg) if run is None else obs
    return SolverState(x0, Z0), target, omega, k, obs.moving.stop - obs.moving.start


@pytest.mark.parametrize("warm", [False, True], ids=["zero", "warm"])
def test_gcpa_two_transforms_per_iteration(monkeypatch, warm):
    # counts transformed frames, the rows of each rfft/irfft input: an
    # iteration analyses and synthesizes the moving frames once each, and
    # the set-up is at most one analysis (the fixed frames at x_det) and one
    # synthesis (x_det itself, when handed a whole Spectrogram) of the run's
    # frames
    rows = {"rfft": [], "irfft": []}
    for name in rows:
        def counted(a, *args, _f=getattr(np.fft, name), _log=rows[name], **kw):
            a = np.asarray(a)
            assert a.strides[-1] == a.itemsize  # contiguous along the FFT axis
            _log.append(a.shape[0] if a.ndim == 2 else 1)
            return _f(a, *args, **kw)
        monkeypatch.setattr(np.fft, name, counted)

    def count(case, zero, iters, alpha, trace=None):
        for log in rows.values():
            log.clear()
        st0, X_corr, omega = case
        cfg = SolverConfig(inner_iters=iters, alpha_relax=alpha)
        gcpa_inner(st0, zero, X_corr, omega, cfg, trace=trace)
        return {name: (len(log), sum(log)) for name, log in rows.items()}

    # a whole Spectrogram (every frame moves), a 4-column frame run (8
    # frames, 6 moving) and a 1-column frame run at the default geometry (3
    # frames, none moving)
    for scfg, zero, n_moving in ((SEG, np.arange(6, 10), SEG.n_frames),
                                 (RUNS, np.arange(14, 18), 6),
                                 (RUNS, np.array([14]), 0)):
        *case, k, moving = run_case(scfg, zero, warm)
        assert moving == n_moving
        for alpha in (1.0, 1.5):
            few, many = count(case, zero, 5, alpha), count(case, zero, 15, alpha)
            for name in rows:
                assert many[name][1] - few[name][1] == 10 * moving
                assert few[name][0] - (5 if moving else 0) <= 1
                assert few[name][1] - 5 * moving <= k
        # tracing adds one analysis of the moving frames per iteration
        log = []
        few = count(case, zero, 5, 1.0, trace=lambda *r: log.append(r))
        many = count(case, zero, 15, 1.0, trace=lambda *r: log.append(r))
        assert many["rfft"][1] - few["rfft"][1] == 2 * 10 * moving
        assert many["irfft"][1] - few["irfft"][1] == 10 * moving
        assert [r[0] for r in log] == [*range(1, 6), *range(1, 16)]
        assert np.all(np.isfinite(np.array(log)))


# ------------------------------------------------------- free-sample threshold


@pytest.mark.parametrize("width, n_free", [(1, 0), (2, 0), (3, 15), (4, 527),
                                           (5, 1039), (6, 1551)])
def test_free_sample_counts_at_quarter_hop(width, n_free):
    # exact zeros of d_rel alone leave 0, 0, 1, 513, 1025, 1537; the
    # threshold frees the 7 samples either side whose d_rel is below it
    reliable = np.ones(SEG.n_frames, dtype=bool)
    reliable[5 : 5 + width] = False
    free, _ = _free_samples(np.zeros((SEG.n_frames, SEG.channels // 2 + 1), complex),
                            reliable, default_window(SEG).samples, SEG)
    assert int(np.sum(free)) == n_free
    assert np.array_equal(free, reliable_energy(SEG, reliable) <= FREE_DREL)


@pytest.mark.parametrize("zero", [[8], [7, 8]])
def test_narrow_gap_restores_to_round_off(zero):
    zero = np.array(zero)
    x = three_tone()
    Xc = corrupted(x, zero)
    out, info = uphain_tf(Xc, zero, SolverConfig(inner_iters=20), return_info=True)
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
    w = default_window(SEG).samples
    H = _hermitian_half(corrupted(three_tone(), zero).data)
    rng = np.random.default_rng(11)
    E = rng.standard_normal(H.shape) + 1j * rng.standard_normal(H.shape)
    E *= 1e-9 * np.max(np.abs(H)) / np.max(np.abs(E)) * reliable[:, None]
    free, x_det = _free_samples(H, reliable, w, SEG)
    free_n, x_noisy = _free_samples(H + E, reliable, w, SEG)
    assert np.array_equal(free, free_n)
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


def test_run_peak_matches_synthesis():
    # a run is scaled by the peak of the synthesized observation over its
    # span, and starts from that synthesis
    zero = np.arange(14, 18)
    X = analyze(three_tone(RUNS.signal_len), default_window(RUNS), RUNS).data.copy()
    X[:, zero] = 0.0
    (run,) = frame_runs(zero, RUNS)
    obs = _observe(Spectrogram(X, RUNS), zero, run)
    span = RUNS.hop * run.start + np.arange(len(obs.x0))
    syn = synthesize(X, default_window(RUNS), RUNS)[span]
    assert abs(obs.peak - np.max(np.abs(syn))) <= 1e-12
    assert np.max(np.abs(obs.x0 * obs.peak - syn)) <= 1e-12
    assert obs.peak < 0.9  # three_tone peaks at 0.9; the span sees less


def two_gaps(apart):
    # a 4-column gap (run 6..13) and a 1-column gap whose run starts
    # `apart` frames after it; at apart = 1 the second gap lies among the
    # frames that fix the first run's samples
    return np.concatenate((np.arange(8, 12), [15 + apart]))


@pytest.mark.parametrize("zero", [np.arange(14, 18), np.arange(0, 4), np.arange(28, 32),
                                  two_gaps(1), two_gaps(2), two_gaps(3)],
                         ids=["interior", "first-column", "last-column",
                              "apart-1", "apart-2", "apart-3"])
def test_run_solve_matches_whole_spectrogram_reference(zero):
    N = RUNS.n_frames
    X = analyze(three_tone(RUNS.signal_len), default_window(RUNS), RUNS).data.copy()
    X[:, zero] = 0.0
    x0 = synthesize(X, default_window(RUNS), RUNS)
    omega = estimate_if(x0, make_hann(2048), make_hann_derivative(2048), RUNS).omega
    cfg = SolverConfig(inner_iters=30)
    runs = frame_runs(zero, RUNS)
    if len(zero) == 5:
        assert runs[1].start - (runs[0].start + runs[0].count) == zero[-1] - 15
    for run in runs:
        obs = _observe(Spectrogram(X, RUNS), zero, run)
        # the reference solves the whole spectrogram at the run's scale
        whole = Spectrogram(X / obs.peak, RUNS)
        st0 = SolverState(x0 / obs.peak, np.zeros((RUNS.channels, N - 1), complex))
        ref = free_sample_reference(st0, zero, whole, omega, cfg, trace=lambda *r: None)
        frames = (run.start + np.arange(run.count)) % N
        span = (RUNS.hop * run.start + np.arange(len(obs.x0))) % RUNS.signal_len
        Z0 = np.zeros((RUNS.channels, run.count - 1), complex)
        got = gcpa_inner(SolverState(obs.x0, Z0), None, obs, omega[:, frames], cfg)
        assert got.x.shape == (RUNS.hop * (run.count - 1) + RUNS.window_len,)
        assert np.max(np.abs(got.x - ref.x[span])) <= 1e-12 * np.max(np.abs(ref.x))
        if len(run.gaps[0]) == 4:  # the free samples moved
            assert not np.array_equal(got.x[obs.free], obs.x0[obs.free])


RUN_ARRAYS = ("x0", "x_det", "free", "Xc", "ramp")


@pytest.mark.parametrize("alpha, kind", [(1.0, "soft"), (1.5, "soft"), (1.0, "l2_block")],
                         ids=["alpha1", "alpha1.5", "l2-block"])
@pytest.mark.parametrize("zero", [np.arange(14, 18), np.array([30, 31, 0, 1])],
                         ids=["interior", "file-end"])
def test_solvers_leave_their_inputs_unchanged(monkeypatch, zero, alpha, kind):
    # the outer loop hands one _Run to up to outer_iters + 1 inner runs, and
    # its ramp is frame_plan's cached array: an in-place write to any of
    # them, or a fixed-frame analysis kept from an earlier call, would leak
    # into the next round
    import tfpaint.solver as solver_mod

    cfg = SolverConfig(inner_iters=10, outer_iters=2, alpha_relax=alpha,
                       thresholder=default_thresholder(kind))
    st0, obs, omega, k, moving = run_case(RUNS, zero, warm=True)
    assert 0 < moving < k
    # the file-end run crosses the pair N-1 -> 0
    assert isinstance(obs.cut, slice) == (zero[0] != 30)
    kept = {name: getattr(obs, name).copy() for name in RUN_ARRAYS}
    inputs = (st0.x.copy(), st0.Z.copy(), omega.omega.copy())
    # a round at another omega between two equal ones, as the outer loop
    # runs them, and that round again on a freshly set-up run
    other = 0.5 * omega.omega
    first = gcpa_inner(st0, None, obs, omega, cfg)
    between = gcpa_inner(st0, None, obs, other, cfg)
    second = gcpa_inner(st0, None, obs, omega, cfg)
    fresh = gcpa_inner(st0, None, run_case(RUNS, zero)[1], other, cfg)
    assert not np.array_equal(first.x, st0.x)
    assert not np.array_equal(first.x, between.x)
    assert np.array_equal(first.x, second.x) and np.array_equal(first.Z, second.Z)
    assert np.array_equal(between.x, fresh.x) and np.array_equal(between.Z, fresh.Z)
    for name in RUN_ARRAYS:
        assert np.array_equal(getattr(obs, name), kept[name]), name
    for now, before in zip((st0.x, st0.Z, omega.omega), inputs):
        assert np.array_equal(now, before)

    made = []

    def observe(*args, _real=solver_mod._observe):
        run = _real(*args)
        made.append((run, {name: getattr(run, name).copy() for name in RUN_ARRAYS}))
        return run

    monkeypatch.setattr(solver_mod, "_observe", observe)
    X = analyze(three_tone(RUNS.signal_len), default_window(RUNS), RUNS).data.copy()
    X[:, zero] = 0.0
    X_corr = Spectrogram(X.copy(), RUNS)
    (run,) = frame_runs(zero, RUNS)
    for method in ("uphain", "tf_only"):
        made.clear()
        got = [solve_run(X_corr, zero, run, cfg, method) for _ in range(2)]
        assert len(made) == 2
        assert np.array_equal(got[0][1], got[1][1])
        assert np.array_equal(X_corr.data, X)
        for made_run, snap in made:
            for name in RUN_ARRAYS:
                assert np.array_equal(getattr(made_run, name), snap[name]), (method, name)


# ------------------------------------------------ full-spectrum tf_only oracle


def reference_tf_only(Xc, zero, cfg, trace):
    """Textbook TF-domain Chambolle-Pock on all M rows."""
    X = Xc.data.astype(complex)
    X_bar = X.copy()
    Z = np.zeros((X.shape[0], X.shape[1] - 1), dtype=complex)
    reliable = np.ones(X.shape[1], dtype=bool)
    reliable[zero] = False
    for i in range(cfg.inner_iters):
        Q = Z + cfg.sigma * time_variation(X_bar)
        Z = Q - cfg.thresholder(Q)
        X_new = project_feasible(X - cfg.tau * time_variation_adjoint(Z), zero, Xc.data)
        X_bar = 2.0 * X_new - X
        X = X_new
        trace(i + 1, cfg.lam * float(np.sum(np.abs(time_variation(X)))),
              float(np.linalg.norm((X - Xc.data)[:, reliable])))
    return project_feasible(X, zero, Xc.data)


@pytest.mark.parametrize("kind", ["soft", "l2_block"])
def test_cpa_tf_only_matches_full_spectrum_reference(kind):
    zero = np.array([7, 8])
    Xc = corrupted(three_tone(), zero)
    cfg = SolverConfig(inner_iters=40, thresholder=default_thresholder(kind))
    got_log, ref_log = [], []
    got = cpa_tf_only(Xc, zero, cfg, trace=lambda *r: got_log.append(r)).data
    ref = reference_tf_only(Xc, zero, cfg, trace=lambda *r: ref_log.append(r))
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert not np.allclose(got[:, zero], 0.0)  # the gap was filled, not left empty
    assert len(got_log) == len(ref_log) == cfg.inner_iters
    for (i1, o1, f1), (i2, o2, f2) in zip(got_log, ref_log):
        assert i1 == i2
        assert abs(o1 - o2) <= 1e-10 * max(1.0, o2)
        assert abs(f1 - f2) <= 1e-10 * max(1.0, f2)

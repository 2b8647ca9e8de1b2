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
    DivergenceError,
    SolverConfig,
    SolverState,
    bphain_tf,
    cpa_tf_only,
    default_window,
    gcpa_inner,
    initial_state,
    operator_norm_estimate,
    uphain_tf,
)
from tfpaint.stft import (
    Spectrogram,
    StftConfig,
    _hermitian_half,
    analyze,
    make_hann,
    make_hann_derivative,
    synthesize,
)

SEG = StftConfig(window_len=2048, hop=512, channels=2048, signal_len=8192)
EMPTY = np.array([], dtype=int)


def three_tone():
    t = np.arange(SEG.signal_len)
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
    assert (cfg.tau, cfg.sigma, cfg.eta) == (0.25, 1.0, 4.0)
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
    with pytest.raises(ValueError):
        SolverConfig(tau=0.3, eta=4.0)  # tau*eta = 1.2
    # the defaults sit exactly on both bounds
    SolverConfig(tau=0.25, sigma=1.0, eta=4.0)
    # explicit override lets unsafe steps through
    cfg = SolverConfig(tau=0.5, sigma=1.0, allow_unsafe=True)
    assert cfg.tau == 0.5


def test_config_rejects_bad_fields():
    for kwargs in (
        dict(tau=0.0),
        dict(eta=-1.0),
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
        np.zeros((SEG.channels, SEG.n_frames), complex),
        np.zeros((SEG.channels, SEG.n_frames - 1), complex),
    )
    omega = np.zeros((SEG.channels, SEG.n_frames))
    out = gcpa_inner(state0, np.array([3]), X0, omega, SolverConfig(inner_iters=25))
    assert not np.any(out.x)
    assert not np.any(out.Y)
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


def test_single_gap_objective_trend():
    t = np.arange(SEG.signal_len)
    x = 0.9 * np.cos(2 * np.pi * (440.3 / 16000.0) * t)
    Xc = corrupted(x, np.array([8]))
    state0 = initial_state(Xc)
    rows = []
    gcpa_inner(
        state0,
        np.array([8]),
        Xc,
        omega_for(state0.x),
        SolverConfig(),
        trace=lambda i, o, f: rows.append((o, f)),
    )
    obj = np.array([r[0] for r in rows])
    feas = np.array([r[1] for r in rows])
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


def test_divergence_detected():
    Xc = corrupted(three_tone(), np.array([8]))
    state0 = initial_state(Xc)
    bad = SolverConfig(tau=5.0, sigma=5.0, eta=5.0, inner_iters=400, allow_unsafe=True)
    with pytest.raises(DivergenceError) as err:
        gcpa_inner(state0, np.array([8]), Xc, omega_for(state0.x), bad)
    assert err.value.iteration >= 1


def test_inner_does_not_mutate_input_state():
    Xc = corrupted(three_tone(), np.array([8]))
    state0 = initial_state(Xc)
    x0 = state0.x.copy()
    gcpa_inner(state0, np.array([8]), Xc, omega_for(state0.x), SolverConfig(inner_iters=3))
    assert np.array_equal(state0.x, x0)
    assert not np.any(state0.Y)


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
    X[:, 7] = 0.0
    out = uphain_tf(Spectrogram(X, scfg), np.array([7]), SolverConfig(inner_iters=20, outer_iters=1))
    keep = np.ones(15, dtype=bool)
    keep[7] = False
    assert np.array_equal(out.data[:, keep], X[:, keep])
    assert np.all(np.isfinite(out.data))


# ------------------------------------------------- four-transform oracle


def reference_inner(state0, zero, Xc, omega, cfg, trace):
    """Textbook iteration: every dual step analysed and synthesised in full."""
    scfg = Xc.config
    w = default_window(scfg)
    rot = correction_factors(omega, scfg.hop, scfg.channels)
    reliable = np.ones(Xc.data.shape[1], dtype=bool)
    reliable[zero] = False
    tau, sigma, eta, alpha = cfg.tau, cfg.sigma, cfg.eta, cfg.alpha_relax
    x, Y, Z = state0.x.copy(), state0.Y.copy(), state0.Z.copy()
    for i in range(cfg.inner_iters):
        back = synthesize(time_variation_adjoint(Z) * np.conj(rot), w, scfg)
        R = Y + eta * analyze(x - tau * (back + synthesize(Y, w, scfg)), w, scfg).data
        Y_half = R - eta * project_feasible(R / eta, zero, Xc.data)
        x_half = x - tau * (back + synthesize(Y_half, w, scfg))
        A2 = analyze(2.0 * x_half - x, w, scfg).data
        Q = Z + sigma * time_variation(A2 * rot)
        Z_half = Q - cfg.thresholder(Q)
        x = x + alpha * (x_half - x)
        Y = Y + alpha * (Y_half - Y)
        Z = Z + alpha * (Z_half - Z)
        A = analyze(x, w, scfg).data
        obj = cfg.lam * float(np.sum(np.abs(time_variation(A * rot))))
        trace(i + 1, obj, float(np.linalg.norm((A - Xc.data)[:, reliable])))
    return SolverState(x, Y, Z)


def oracle_case(scfg, zero, Y0_kind, gap_left=0.0):
    """(state0, Xc, omega) for a gap in the three-tone signal on scfg.

    scfg must keep SEG's signal length.  gap_left scales what the
    observation keeps on the gap columns; the solver must ignore it.
    """
    w = default_window(scfg)
    X = analyze(three_tone(), w, scfg).data.copy()
    X[:, zero] *= gap_left
    Xc = Spectrogram(X, scfg)
    st = initial_state(Xc)
    rng = np.random.default_rng(5)
    if Y0_kind == "hermitian":
        # a real signal's analysis: conjugate-symmetric and non-zero on the gap
        st.Y = analyze(rng.standard_normal(scfg.signal_len), w, scfg).data
    elif Y0_kind == "complex":
        # no row symmetry: only the conjugate-symmetric part reaches x
        st.Y = rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape)
    omega = estimate_if(st.x, make_hann(scfg.window_len),
                        make_hann_derivative(scfg.window_len), scfg)
    return st, Xc, omega


@pytest.mark.parametrize(
    "scfg, alpha, Y0_kind, gap_left, kind",
    [
        (SEG, 1.0, "zero", 0.0, "soft"),
        (SEG, 1.5, "zero", 0.0, "soft"),
        (SEG, 1.0, "hermitian", 0.0, "soft"),
        (SEG, 1.5, "hermitian", 0.0, "soft"),
        (SEG, 1.0, "zero", 0.5, "soft"),
        (SEG, 1.5, "complex", 0.0, "soft"),
        (StftConfig(window_len=1024, hop=256, channels=2048, signal_len=8192),
         1.5, "hermitian", 0.0, "soft"),
        # a block norm must count the mirrored rows the solver does not store
        (SEG, 1.0, "hermitian", 0.0, "l2_block"),
    ],
    ids=["alpha1", "alpha1.5", "gap-dual", "gap-dual-alpha1.5", "stale-gap",
         "complex-dual", "short-window", "l2-block"],
)
def test_gcpa_matches_four_transform_reference(scfg, alpha, Y0_kind, gap_left, kind):
    zero = np.array([7, 8]) if scfg.window_len == scfg.channels else np.array([14, 15, 16])
    st0, Xc, omega = oracle_case(scfg, zero, Y0_kind, gap_left)
    cfg = SolverConfig(inner_iters=30, alpha_relax=alpha,
                       thresholder=default_thresholder(kind))
    got_log, ref_log = [], []
    got = gcpa_inner(st0, zero, Xc, omega, cfg, trace=lambda *r: got_log.append(r))
    ref = reference_inner(st0, zero, Xc, omega, cfg, trace=lambda *r: ref_log.append(r))
    # the reference carries the anti-symmetric part of a complex Y0 along;
    # the solver drops it, since no real x sees it
    pairs = [(got.x, ref.x), (got.Z, ref.Z),
             (_hermitian_half(got.Y), _hermitian_half(ref.Y))]
    if Y0_kind != "complex":
        pairs.append((got.Y, ref.Y))
    for a, b in pairs:
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))
    assert len(got_log) == len(ref_log) == cfg.inner_iters
    for (i1, o1, f1), (i2, o2, f2) in zip(got_log, ref_log):
        assert i1 == i2
        assert abs(o1 - o2) <= 1e-8 * max(1.0, o2)
        assert abs(f1 - f2) <= 1e-8 * max(1.0, f2)


@pytest.mark.parametrize("Y0_kind, names", [("zero", ("rfft", "irfft")),
                                            ("complex", ("rfft", "irfft"))])
def test_gcpa_two_transforms_per_iteration(monkeypatch, Y0_kind, names):
    zero = np.array([8])
    st0, Xc, omega = oracle_case(SEG, zero, Y0_kind)
    calls = {"n": 0}
    for name in names:
        def counted(*a, _f=getattr(np.fft, name), **k):
            calls["n"] += 1
            return _f(*a, **k)
        monkeypatch.setattr(np.fft, name, counted)

    def count(iters, alpha):
        calls["n"] = 0
        gcpa_inner(st0, zero, Xc, omega, SolverConfig(inner_iters=iters, alpha_relax=alpha))
        return calls["n"]

    for alpha in (1.0, 1.5):
        few, many = count(5, alpha), count(15, alpha)
        assert many - few == 2 * 10
        assert few - 2 * 5 <= 6  # fixed set-up and end-of-call work


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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfpaint.phase_prior import (
    correction_factors,
    estimate_if,
    ipctv_value,
    phase_correct,
    phase_correct_adjoint,
    time_variation,
    time_variation_adjoint,
)
from tfpaint.stft import (
    Spectrogram,
    StftConfig,
    analyze,
    make_hann,
    make_hann_derivative,
    tight_window,
)

CFG = StftConfig(signal_len=8192)  # 2048/512/2048 preset, N = 16
HANN = make_hann(CFG.window_len)
HANND = make_hann_derivative(CFG.window_len)


def tone(mu, delta, cfg, phase=0.3):
    l = np.arange(cfg.signal_len)
    return np.cos(2 * np.pi * (mu + delta) * l / cfg.channels + phase)


def interior_columns(cfg):
    # frames whose window support does not wrap circularly
    return cfg.n_frames - cfg.window_len // cfg.hop + 1


def oracle_phase_advance_bins(x, cfg, row):
    """Measured per-frame phase advance at one row, in bins."""
    X = analyze(x, HANN, cfg).data
    ni = interior_columns(cfg)
    d = X[row, 1:ni] * np.conj(X[row, : ni - 1])
    return np.angle(d) / (2 * np.pi * cfg.hop / cfg.channels)


def test_estimate_if_exact_bin_tone():
    x = tone(300, 0.0, CFG)
    om = estimate_if(x, CFG)
    ni = interior_columns(CFG)
    assert np.max(np.abs(om[300, :ni])) < 1e-6


def test_estimate_if_fractional_tone_matches_phase_oracle():
    x = tone(300, 0.25, CFG)
    om = estimate_if(x, CFG)
    ni = interior_columns(CFG)
    est = om[300, : ni - 1]
    assert np.max(np.abs(est - 0.25)) < 1e-3
    measured = oracle_phase_advance_bins(x, CFG, 300)
    assert np.max(np.abs(est - measured)) < 1e-3


def test_estimate_if_negative_offset():
    x = tone(417, -0.4, CFG)
    om = estimate_if(x, CFG)
    ni = interior_columns(CFG)
    measured = oracle_phase_advance_bins(x, CFG, 417)
    assert np.max(np.abs(om[417, : ni - 1] - measured)) < 1e-3


def test_estimate_if_scale_invariance():
    # The estimate takes the plain Hann pair.  A common rescaling of the pair
    # leaves the ratio untouched, so the tight-window pair of the analysis
    # gives the same offsets.
    x = tone(250, 0.1, CFG) + 0.3 * tone(700, -0.2, CFG)
    gt = tight_window(HANN, CFG)
    gdt = HANND / np.sqrt(1.5 * CFG.channels)
    a = estimate_if(x, CFG)
    Xg, Xd = analyze(x, gt, CFG).data, analyze(x, gdt, CFG).data
    # compare well above the magnitude floor, where the guard cannot flip
    # between the two scalings on floating-point ties
    mag = np.abs(analyze(x, HANN, CFG).data)
    solid = mag > 1e-6 * np.max(mag)
    b = -np.imag(Xd[solid] / Xg[solid]) * (CFG.channels / (2 * np.pi))
    diff = np.abs(a[solid] - b)
    assert np.max(diff) < 1e-8 * (1 + np.max(np.abs(a[solid])))


def test_estimate_if_zero_signal():
    om = estimate_if(np.zeros(CFG.signal_len), CFG)
    assert np.all(om == 0.0)
    assert np.all(np.isfinite(om))


def test_estimate_if_magnitude_guard():
    om = estimate_if(tone(300, 0.25, CFG), CFG)
    assert np.all(np.isfinite(om))


def test_phase_correct_identity_for_zero_omega():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    out = phase_correct(X, np.zeros((8, 5)), hop=4, channels=8)
    assert np.array_equal(out, X)


def test_phase_correct_unitary_and_inverse():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    om = rng.standard_normal((8, 5))
    Y = phase_correct(X, om, hop=4, channels=8)
    assert abs(np.linalg.norm(Y) - np.linalg.norm(X)) < 1e-12 * np.linalg.norm(X)
    back = phase_correct_adjoint(Y, om, hop=4, channels=8)
    assert np.max(np.abs(back - X)) < 1e-12 * np.max(np.abs(X))


def test_phase_correct_first_column_unchanged():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    om = rng.standard_normal((8, 5))
    out = phase_correct(X, om, hop=4, channels=8)
    assert np.array_equal(out[:, 0], X[:, 0])


@settings(max_examples=30, derandomize=True)
@given(st.integers(2, 12), st.integers(2, 9), st.integers(0, 2**31 - 1))
def test_phase_correct_adjoint_identity(m, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    Y = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    om = rng.standard_normal((m, n))
    lhs = np.vdot(Y, phase_correct(X, om, hop=3, channels=m))
    rhs = np.vdot(phase_correct_adjoint(Y, om, hop=3, channels=m), X)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("hop, channels", [(3, 16), (512, 2048)])
def test_phase_correct_adjoint_is_the_conjugate_rotation(hop, channels):
    # the rotation of the negated offsets gives the conjugate's bits
    rng = np.random.default_rng(hop)
    X = rng.standard_normal((channels, 48)) + 1j * rng.standard_normal((channels, 48))
    om = rng.standard_normal((channels, 48))
    want = X * np.conj(correction_factors(om, hop, channels))
    got = phase_correct_adjoint(X, om, hop, channels)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    cfg = StftConfig(window_len=channels, hop=hop, channels=channels, signal_len=48 * hop)
    spec = phase_correct_adjoint(Spectrogram(X, cfg), om)
    assert isinstance(spec, Spectrogram)
    assert np.array_equal(spec.data.view(np.uint64), want.view(np.uint64))


def test_time_variation_stencil():
    X = np.zeros((4, 6), dtype=complex)
    X[2, 3] = 5.0 - 1.0j
    V = time_variation(X)
    expect = np.zeros((4, 5), dtype=complex)
    expect[2, 3] = 5.0 - 1.0j
    expect[2, 2] = -(5.0 - 1.0j)
    assert np.array_equal(V, expect)


def test_time_variation_constant_in_time():
    X = np.tile((np.arange(6) + 1j)[:, None], (1, 9))
    assert np.all(time_variation(X) == 0.0)


def test_time_variation_shapes_and_validation():
    assert time_variation(np.zeros((7, 4))).shape == (7, 3)
    with pytest.raises(ValueError):
        time_variation(np.zeros((7, 1)))


def test_time_variation_adjoint_brute_force_matrix():
    # Explicit matrix representation at 4x5: apply to a basis, then compare
    # the adjoint op against the conjugate transpose.
    M, N = 4, 5
    fwd = np.zeros((M * (N - 1), M * N), dtype=complex)
    for j in range(M * N):
        e = np.zeros(M * N)
        e[j] = 1.0
        fwd[:, j] = time_variation(e.reshape(M, N)).ravel()
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((M, N - 1)) + 1j * rng.standard_normal((M, N - 1))
    want = (fwd.conj().T @ Y.ravel()).reshape(M, N)
    got = time_variation_adjoint(Y)
    assert np.max(np.abs(got - want)) < 1e-13


@settings(max_examples=30, derandomize=True)
@given(st.integers(2, 12), st.integers(2, 9), st.integers(0, 2**31 - 1))
def test_time_variation_adjoint_identity(m, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    Y = rng.standard_normal((m, n - 1)) + 1j * rng.standard_normal((m, n - 1))
    lhs = np.vdot(Y, time_variation(X))
    rhs = np.vdot(time_variation_adjoint(Y), X)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_time_variation_adjoint_column_sums_vanish():
    rng = np.random.default_rng(4)
    Y = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
    out = time_variation_adjoint(Y)
    assert np.max(np.abs(out.sum(axis=1))) < 1e-12
    assert np.all(time_variation_adjoint(np.zeros((6, 7))) == 0.0)


def test_ipctv_zero_signal():
    om = np.zeros((CFG.channels, CFG.n_frames))
    assert ipctv_value(np.zeros(CFG.signal_len), om, HANN, CFG) == 0.0


@pytest.mark.parametrize("mu,delta", [(300, 0.0), (300, 0.25), (417, -0.4)])
def test_pure_tone_annihilation(mu, delta):
    # With self-estimated omega the corrected spectrogram of a sinusoid is
    # constant along time, so the interior variation mass nearly vanishes.
    x = tone(mu, delta, CFG)
    om = estimate_if(x, CFG)
    X = analyze(x, HANN, CFG).data
    V = time_variation(phase_correct(X, om, CFG.hop, CFG.channels))
    ni = interior_columns(CFG)
    penalty = np.sum(np.abs(V[:, : ni - 1]))
    mass = np.sum(np.abs(X[:, :ni]))
    assert penalty <= 1e-4 * mass


def test_noise_pays_more_than_tone():
    rng = np.random.default_rng(5)
    xt = tone(300, 0.25, CFG)
    xn = rng.standard_normal(CFG.signal_len)
    xn *= np.linalg.norm(xt) / np.linalg.norm(xn)
    pt = ipctv_value(xt, estimate_if(xt, CFG), HANN, CFG)
    pn = ipctv_value(xn, estimate_if(xn, CFG), HANN, CFG)
    assert pn > 10 * pt


def test_wrapper_types():
    x = tone(100, 0.1, CFG)
    # estimate_if and time_variation give plain arrays; a Spectrogram passes
    # through phase_correct, its config with it
    om = estimate_if(x, CFG)
    assert type(om) is np.ndarray and om.shape == (CFG.channels, CFG.n_frames)
    assert om.T.flags.c_contiguous  # frames-major underneath
    X = analyze(x, HANN, CFG)
    rotated = phase_correct(X, om)
    assert isinstance(rotated, Spectrogram) and rotated.config is CFG
    assert np.array_equal(rotated.data, phase_correct(X.data, om, CFG.hop, CFG.channels))
    # a signal of another length, or offsets of another shape, are refused
    with pytest.raises(ValueError, match="signal length does not match config"):
        estimate_if(x[:-1], CFG)
    with pytest.raises(ValueError, match="omega shapes differ"):
        phase_correct(X, om[:, 1:])
    V = time_variation(rotated)
    assert type(V) is np.ndarray and V.shape == (CFG.channels, CFG.n_frames - 1)

import numpy as np
import pytest

from tfpaint.stft import (
    StftConfig,
    Window,
    _frame_plan,
    _irfft_frames,
    _rfft_frames,
    analyze,
    make_hann,
    make_hann_derivative,
    symmetry_residual,
    synthesize,
    tight_window,
)

# Small geometry where the O(L*M*N) reference sums are cheap.
SMALL = StftConfig(window_len=16, hop=8, channels=16, signal_len=64)
DEFAULT = StftConfig(signal_len=8192)  # paper-preset window/hop/channels
# frame geometries off the hop-divides-window path: a hop that does not
# divide window_len (the last hop-sized chunk of a frame is partial, and the
# overhang spans two blocks), and a hop equal to window_len (no overlap)
UNEVEN = StftConfig(window_len=6, hop=4, channels=8, signal_len=16)
NO_OVERLAP = StftConfig(window_len=8, hop=8, channels=8, signal_len=32)


def geometries():
    """(cfg, window) pairs: Hann where it covers every sample, else a
    window without zeros (Hann leaves gaps when hop == window_len)."""
    rect = Window(1.0 + make_hann(NO_OVERLAP.window_len).samples)
    return [(SMALL, make_hann(SMALL.window_len)),
            (UNEVEN, make_hann(UNEVEN.window_len)), (NO_OVERLAP, rect)]


def random_coeffs(rng, cfg):
    shape = (cfg.channels, cfg.n_frames)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def oracle_analyze(x, w, cfg):
    """Direct summation over the defining formula; no FFT tricks."""
    L, W, a, M = cfg.signal_len, cfg.window_len, cfg.hop, cfg.channels
    N = cfg.n_frames
    X = np.zeros((M, N), dtype=complex)
    for n in range(N):
        for m in range(M):
            acc = 0.0 + 0.0j
            for k in range(W):
                l = (a * n + k) % L
                acc += x[l] * w[k] * np.exp(-2j * np.pi * m * l / M)
            X[m, n] = acc
    return X


def oracle_synthesize(X, w, cfg):
    L, W, a, M = cfg.signal_len, cfg.window_len, cfg.hop, cfg.channels
    N = cfg.n_frames
    x = np.zeros(L, dtype=complex)
    for n in range(N):
        for m in range(M):
            for k in range(W):
                l = (a * n + k) % L
                x[l] += X[m, n] * w[k] * np.exp(2j * np.pi * m * l / M)
    return x.real


def test_analyze_matches_direct_summation():
    rng = np.random.default_rng(0)
    for cfg, g in geometries():
        x = rng.standard_normal(cfg.signal_len)
        got = analyze(x, g, cfg).data
        want = oracle_analyze(x, g.samples, cfg)
        assert np.max(np.abs(got - want)) < 1e-11 * np.max(np.abs(want))


def test_synthesize_matches_direct_summation():
    rng = np.random.default_rng(1)
    for cfg, g in geometries():
        Y = random_coeffs(rng, cfg)
        got = synthesize(Y, g, cfg)
        want = oracle_synthesize(Y, g.samples, cfg)
        assert np.max(np.abs(got - want)) < 1e-11 * np.max(np.abs(want))


def test_hann_values():
    w = make_hann(4).samples
    assert w[0] == 0.0
    assert w[2] == 1.0
    assert abs(np.sum(make_hann(2048).samples) - 1024.0) < 1e-9
    assert np.all(w >= 0.0) and np.all(w <= 1.0)


def test_hann_derivative_values():
    w = make_hann_derivative(4).samples
    assert w[0] == 0.0
    assert abs(w[1] - np.pi / 4) < 1e-15
    assert abs(np.sum(make_hann_derivative(2048).samples)) < 1e-12


def test_window_length_validation():
    with pytest.raises(ValueError):
        make_hann(1)
    with pytest.raises(ValueError):
        make_hann_derivative(0)


def test_tight_window_idempotent():
    g = make_hann(DEFAULT.window_len)
    gt = tight_window(g, DEFAULT)
    gtt = tight_window(gt, DEFAULT)
    assert np.max(np.abs(gtt.samples - gt.samples)) < 1e-12 * np.max(gt.samples)


def test_tight_window_constant_overlap_case():
    # Periodic Hann at 75% overlap has constant overlap energy 1.5, so the
    # tight window is just a rescaled Hann.
    g = make_hann(DEFAULT.window_len)
    gt = tight_window(g, DEFAULT)
    expect = g.samples / np.sqrt(1.5 * DEFAULT.channels)
    assert np.max(np.abs(gt.samples - expect)) < 1e-15


def test_tight_window_degenerate():
    # Hann with hop == window_len leaves positions with zero coverage.
    cfg = StftConfig(window_len=16, hop=16, channels=16, signal_len=64)
    with pytest.raises(ValueError):
        tight_window(make_hann(16), cfg)


def test_round_trip_and_parseval_default_config():
    rng = np.random.default_rng(2)
    gt = tight_window(make_hann(DEFAULT.window_len), DEFAULT)
    for _ in range(5):
        x = rng.standard_normal(DEFAULT.signal_len)
        X = analyze(x, gt, DEFAULT)
        err = np.linalg.norm(x - synthesize(X, gt, DEFAULT))
        assert err <= 1e-10 * np.linalg.norm(x)
        assert abs(np.linalg.norm(X.data) - np.linalg.norm(x)) <= 1e-10 * np.linalg.norm(x)


def test_round_trip_small_config():
    rng = np.random.default_rng(3)
    for cfg, g in geometries():
        gt = tight_window(g, cfg)
        x = rng.standard_normal(cfg.signal_len)
        assert np.linalg.norm(x - synthesize(analyze(x, gt, cfg), gt, cfg)) <= 1e-10 * np.linalg.norm(x)


def test_adjoint_identity():
    rng = np.random.default_rng(4)
    for cfg, g in geometries():
        gt = tight_window(g, cfg)
        for _ in range(20):
            x = rng.standard_normal(cfg.signal_len)
            Y = random_coeffs(rng, cfg)
            lhs = np.sum(analyze(x, gt, cfg).data * np.conj(Y)).real
            rhs = np.dot(x, synthesize(Y, gt, cfg))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_analyze_zero_signal():
    g = make_hann(SMALL.window_len)
    X = analyze(np.zeros(SMALL.signal_len), g, SMALL)
    assert np.all(X.data == 0.0)


def test_analyze_constant_signal_dc_structure():
    # With window_len == channels and 75% overlap the tight window is a
    # rescaled periodic Hann, whose length-M DFT is supported exactly on
    # rows {0, 1, M-1}.  A constant signal therefore fills only those rows,
    # and X[0, n] equals the window sum for every frame.
    cfg = StftConfig(window_len=16, hop=4, channels=16, signal_len=64)
    gt = tight_window(make_hann(cfg.window_len), cfg)
    X = analyze(np.ones(cfg.signal_len), gt, cfg).data
    assert np.max(np.abs(X[0] - np.sum(gt.samples))) < 1e-12
    assert np.max(np.abs(X[2:-1])) < 1e-10 * abs(X[0, 0])
    # the Hann spectral side rows carry exactly a quarter of the DC weight
    assert np.allclose(np.abs(X[1]), 0.5 * abs(X[0, 0]), rtol=1e-12)


def test_conjugate_symmetry_of_real_analysis():
    rng = np.random.default_rng(5)
    g = make_hann(SMALL.window_len)
    X = analyze(rng.standard_normal(SMALL.signal_len), g, SMALL)
    assert symmetry_residual(X) < 1e-13
    # and a deliberately asymmetric matrix is flagged
    bad = X.data.copy()
    bad[3, 0] += 1j * np.max(np.abs(bad))
    assert symmetry_residual(bad) > 1e-3


def test_real_analysis_is_exactly_conjugate_symmetric():
    # the mirrored rows are copies, and the phase ramp of the Nyquist row is
    # exactly 1 at an even hop, so no round-off separates X[M-m] from conj(X[m])
    x = np.random.default_rng(8).standard_normal(DEFAULT.signal_len)
    X = analyze(x, tight_window(make_hann(DEFAULT.window_len), DEFAULT), DEFAULT)
    assert symmetry_residual(X) == 0.0


def test_phase_convention_column_shift():
    # Delaying the signal by exactly M samples shifts the spectrogram by
    # M/a columns with *identical* phase factors (holds circularly because
    # channels divides signal_len).
    rng = np.random.default_rng(6)
    g = make_hann(SMALL.window_len)
    x = rng.standard_normal(SMALL.signal_len)
    cols = SMALL.channels // SMALL.hop
    X = analyze(x, g, SMALL).data
    Xs = analyze(np.roll(x, SMALL.channels), g, SMALL).data
    assert np.max(np.abs(Xs - np.roll(X, cols, axis=1))) < 1e-12 * np.max(np.abs(X))


def test_synthesize_zero():
    g = make_hann(SMALL.window_len)
    assert np.all(synthesize(np.zeros((16, 8), dtype=complex), g, SMALL) == 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        StftConfig(window_len=16, hop=8, channels=8, signal_len=64)  # M < W
    with pytest.raises(ValueError):
        StftConfig(window_len=16, hop=24, channels=32, signal_len=96)  # hop > W
    with pytest.raises(ValueError):
        StftConfig(window_len=16, hop=8, channels=16, signal_len=60)  # hop !| L
    with pytest.raises(ValueError):
        StftConfig(window_len=16, hop=8, channels=16, signal_len=40)  # M !| L
    with pytest.raises(ValueError):
        StftConfig(window_len=16, hop=8, channels=16, signal_len=8)  # L < W


def test_shape_validation():
    g = make_hann(SMALL.window_len)
    with pytest.raises(ValueError):
        analyze(np.zeros(10), g, SMALL)
    with pytest.raises(ValueError):
        synthesize(np.zeros((4, 4), dtype=complex), g, SMALL)
    with pytest.raises(ValueError):
        analyze(np.zeros(SMALL.signal_len), make_hann(8), SMALL)


@pytest.mark.parametrize("start, count", [(3, 2), (0, 4), (5, 3)])
def test_frame_run_matches_full_signal_analysis(start, count):
    # frames start..start+count-1 (modulo N) read from their span buffer and
    # overlap-added back without a fold: the columns of the full analysis
    # (the helpers are frames-major: one row per frame), and the real
    # adjoint of that restricted analysis, for every geometry
    rng = np.random.default_rng(start)
    for cfg, g in geometries():
        a, W, M, N = cfg.hop, cfg.window_len, cfg.channels, cfg.n_frames
        w = tight_window(g, cfg).samples
        x = rng.standard_normal(cfg.signal_len)
        span = (a * start + np.arange(a * (count - 1) + W)) % cfg.signal_len
        got = _rfft_frames(x[span], w, cfg, circular=False) * _frame_plan(cfg, start, count)
        assert got.shape == (count, M // 2 + 1)
        want = analyze(x, w, cfg).data[: M // 2 + 1, (start + np.arange(count)) % N].T
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        V = rng.standard_normal(got.shape) + 1j * rng.standard_normal(got.shape)
        V[:, 0].imag = 0.0  # the DC row of a real signal's analysis is real
        if M % 2 == 0:
            V[:, -1].imag = 0.0
        back = _irfft_frames(V, w, cfg, circular=False)
        assert back.shape == (len(span),)
        A = _rfft_frames(x[span], w, cfg, circular=False)
        weight = np.full(V.shape[1], 2.0)
        weight[0] = 1.0
        if M % 2 == 0:
            weight[-1] = 1.0
        lhs = np.sum(weight * np.real(np.conj(V) * A))
        assert abs(lhs - np.dot(x[span], back)) <= 1e-10 * max(1.0, abs(lhs))

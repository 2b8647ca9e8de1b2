import tracemalloc

import numpy as np
import pytest

from tfpaint.stft import (
    Spectrogram,
    StftConfig,
    _blocks,
    _expand,
    _frame_plan,
    _hermitian_half,
    _irfft_frames,
    _rfft_frames,
    analyze,
    default_window,
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
    rect = 1.0 + make_hann(NO_OVERLAP.window_len)
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
        want = oracle_analyze(x, g, cfg)
        assert np.max(np.abs(got - want)) < 1e-11 * np.max(np.abs(want))


def test_synthesize_matches_direct_summation():
    rng = np.random.default_rng(1)
    for cfg, g in geometries():
        Y = random_coeffs(rng, cfg)
        got = synthesize(Y, g, cfg)
        want = oracle_synthesize(Y, g, cfg)
        assert np.max(np.abs(got - want)) < 1e-11 * np.max(np.abs(want))


def test_hann_values():
    w = make_hann(4)
    assert w[0] == 0.0
    assert w[2] == 1.0
    assert abs(np.sum(make_hann(2048)) - 1024.0) < 1e-9
    assert np.all(w >= 0.0) and np.all(w <= 1.0)


def test_hann_derivative_values():
    w = make_hann_derivative(4)
    assert w[0] == 0.0
    assert abs(w[1] - np.pi / 4) < 1e-15
    assert abs(np.sum(make_hann_derivative(2048))) < 1e-12


def test_window_length_validation():
    with pytest.raises(ValueError):
        make_hann(1)
    with pytest.raises(ValueError):
        make_hann_derivative(0)


def test_tight_window_idempotent():
    g = make_hann(DEFAULT.window_len)
    gt = tight_window(g, DEFAULT)
    gtt = tight_window(gt, DEFAULT)
    assert np.max(np.abs(gtt - gt)) < 1e-12 * np.max(gt)


def test_tight_window_constant_overlap_case():
    # Periodic Hann at 75% overlap has constant overlap energy 1.5, so the
    # tight window is just a rescaled Hann.
    g = make_hann(DEFAULT.window_len)
    gt = tight_window(g, DEFAULT)
    expect = g / np.sqrt(1.5 * DEFAULT.channels)
    assert np.max(np.abs(gt - expect)) < 1e-15


def test_default_window_is_read_only():
    # the cached window is shared by every caller: a write into it would
    # change every later transform at that geometry
    w = default_window(DEFAULT)
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert default_window(DEFAULT) is w
    assert np.array_equal(w, tight_window(make_hann(DEFAULT.window_len), DEFAULT))


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
    assert np.max(np.abs(X[0] - np.sum(gt))) < 1e-12
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


@pytest.mark.parametrize("M", [8, 9])
def test_symmetry_residual_matches_full_mirror_formula(M):
    # the column blocks give the bits of the one-shot formula: |X[M-m] -
    # conj(X[m])| equals |X[m] - conj(X[M-m])| exactly
    rng = np.random.default_rng(M)
    N = 3 * (2**16 // M) + 5  # several blocks and a partial one
    half = rng.standard_normal((M // 2 + 1, N)) + 1j * rng.standard_normal((M // 2 + 1, N))
    X = np.empty((M, N), complex)
    X[: M // 2 + 1] = half
    X[M // 2 + 1 :] = np.conj(half[(M - 1) // 2 : 0 : -1])
    X[0] = X[0].real
    if M % 2 == 0:
        X[M // 2] = X[M // 2].real
    for row, col, dz in ((0, 0, 0.0), (M - 2, N - 1, 1e-9j), (1, N // 2, 1e-6), (M // 2, 3, 2e-7j)):
        X[row, col] += dz
        mirrored = np.conj(X[(-np.arange(M)) % M])
        old = float(np.max(np.abs(X - mirrored)) / np.max(np.abs(X)))
        assert symmetry_residual(X) == old
        assert symmetry_residual(Spectrogram(X, None)) == old
    assert symmetry_residual(np.zeros((M, N), complex)) == 0.0


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
    with pytest.raises(ValueError, match="window_len must be >= 2"):
        StftConfig(window_len=1, hop=1, channels=16, signal_len=16)
    # integers only: a float or bool field fails here, not in analyze's slicing
    for field, value in (("window_len", 16.0), ("hop", 8.0), ("channels", 16.0),
                         ("signal_len", 64.0), ("hop", True)):
        with pytest.raises(ValueError, match=field):
            StftConfig(**{**vars(SMALL), field: value})
    assert StftConfig(np.int64(16), np.uint32(8), 16, 64) == SMALL


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
        w = tight_window(g, cfg)
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


# Geometries of the frame-block tests, each with how its blocks must fall.
BLOCKED = {
    # several blocks, the last one partial
    "several-blocks": StftConfig(window_len=16, hop=4, channels=16, signal_len=4 * 16484),
    # fewer frames than one block, at the paper's window, hop and channels
    "one-block": StftConfig(signal_len=40 * 512),
    # a hop that does not divide the window (partial last hop chunk)
    "uneven-hop": StftConfig(window_len=6, hop=4, channels=8, signal_len=4 * 32780),
    "odd-M": StftConfig(window_len=9, hop=3, channels=9, signal_len=3 * 30000),
    # q - 1 = 511 frames carried, more than a block of 256
    "long-carry": StftConfig(window_len=512, hop=1, channels=512, signal_len=1024),
}


def direct_ramp(cfg, start, count):
    """exp(-2*pi*i*((a*n mod M)*m mod M)/M) for frames n = start.. and rows
    m = 0..M//2, straight from the formula; at even M the Nyquist row
    m = M/2 is (-1)^(a*n) exactly, where exp(-i*pi) would round."""
    a, M = cfg.hop, cfg.channels
    n = start + np.arange(count)
    k = (((a * n) % M)[:, None] * np.arange(M // 2 + 1)[None, :]) % M
    ramp = np.exp(-2j * np.pi * k / M)
    if M % 2 == 0:
        ramp[:, M // 2] = np.where((a * n) % 2, -1.0, ramp[:, M // 2])
    return ramp


def one_pass_analyze(x, w, cfg):
    """All frames at once: rFFT of the circularly read frames, the
    whole-file ramp, the mirrored rows."""
    A = _rfft_frames(x, w, cfg) * direct_ramp(cfg, 0, cfg.n_frames)
    return _expand(A, cfg.channels)


def one_pass_synthesize(X, w, cfg):
    """All frames at once: the whole-file ramp times the Hermitian half,
    irFFT, window, one overlap-add with the overhang folded."""
    V = np.conj(direct_ramp(cfg, 0, cfg.n_frames)) * _hermitian_half(X)
    return _irfft_frames(V, w, cfg)


def test_nyquist_row_of_a_real_signal_is_real_at_an_odd_hop():
    # an odd a*n puts exp(-i*pi) on the Nyquist row; its rounding would
    # leave an imaginary part that no real signal's coefficient has
    cfg = StftConfig(window_len=12, hop=3, channels=16, signal_len=192)
    x = np.random.default_rng(3).standard_normal(cfg.signal_len)
    X = analyze(x, default_window(cfg), cfg).data
    assert np.all(X[cfg.channels // 2].imag == 0.0)
    assert np.any(X[cfg.channels // 2].real != 0.0)


def test_block_geometries_fall_as_named():
    step = {name: _blocks(cfg)[0][1] for name, cfg in BLOCKED.items()}
    cfg = BLOCKED["several-blocks"]
    assert len(_blocks(cfg)) >= 3 and cfg.n_frames % step["several-blocks"]
    assert _blocks(BLOCKED["one-block"]) == [(0, 40)]
    for name in ("uneven-hop", "odd-M"):
        assert len(_blocks(BLOCKED[name])) >= 2 and BLOCKED[name].n_frames % step[name]
    cfg = BLOCKED["long-carry"]
    assert -(-cfg.window_len // cfg.hop) - 1 > step["long-carry"]


@pytest.mark.parametrize("name", sorted(BLOCKED))
def test_blocked_transforms_equal_one_pass(name):
    # analyze and synthesize run a block of frames at a time; the blocks
    # give the bits of the one-pass transforms
    cfg = BLOCKED[name]
    rng = np.random.default_rng(len(name))
    w = default_window(cfg)
    x = rng.standard_normal(cfg.signal_len)
    X = analyze(x, w, cfg)
    assert np.array_equal(X.data, one_pass_analyze(x, w, cfg))
    Y = random_coeffs(rng, cfg)
    for Z in (X.data, Y, Y.real):
        assert np.array_equal(synthesize(Z, w, cfg), one_pass_synthesize(Z, w, cfg))


@pytest.mark.parametrize("cfg", [DEFAULT, UNEVEN, BLOCKED["odd-M"], BLOCKED["long-carry"],
                                 StftConfig(window_len=2048, hop=384, channels=2048,
                                            signal_len=2048 * 3 * 5)],
                         ids=["default", "uneven", "odd-M", "hop-1", "hop-384"])
def test_frame_plan_equals_direct_ramp(cfg):
    # the table lookup gives the formula's bits for any start: negative
    # ones (a run's reach before frame 0) and ones past N
    N = cfg.n_frames
    for start in (-2 * N - 3, -5, -1, 0, 7, N - 2, N, N + 3, 3 * N + 1):
        assert np.array_equal(_frame_plan(cfg, start, 9), direct_ramp(cfg, start, 9))
    assert np.array_equal(_frame_plan(cfg, 0, N), direct_ramp(cfg, 0, N))


def test_full_length_transforms_stay_within_memory_bounds():
    # the 60 s geometry of the CLI benchmark: 1872 frames, 61.3 MB of
    # coefficients; a whole-file ramp alone would take 31 MB
    cfg = StftConfig(signal_len=1872 * 512)
    w = default_window(cfg)
    x = np.random.default_rng(60).standard_normal(cfg.signal_len)
    tracemalloc.start()
    try:
        X = analyze(x, w, cfg)
        analyze_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        synthesize(X, w, cfg)
        synthesize_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert analyze_peak <= X.data.nbytes + 25e6
    assert synthesize_peak <= 25e6

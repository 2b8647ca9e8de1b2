import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tfpaint.pipeline import (
    METHODS,
    ColumnMask,
    apply_mask,
    find_gaps,
    inpaint_spectrogram,
    make_mask,
)
from tfpaint.prox import default_thresholder
from tfpaint.solver import (
    DivergenceError,
    FrameRun,
    SolverConfig,
    _observe,
    default_window,
    frame_runs,
)
from tfpaint.stft import Spectrogram, StftConfig, analyze, symmetry_residual, synthesize

SR, HOP, M, W = 16000, 512, 2048, 2048


def cfg_for(n_cols):
    return StftConfig(window_len=W, hop=HOP, channels=M, signal_len=n_cols * HOP)


def tones(n, freqs=(440.0, 554.37, 659.25)):
    t = np.arange(n)
    x = sum(0.3 * np.cos(2 * np.pi * (f / SR) * t + 0.7 * k) for k, f in enumerate(freqs))
    return 0.9 * x / np.max(np.abs(x))


def corrupted(n_cols, mask, freqs=(440.0, 554.37, 659.25)):
    cfg = cfg_for(n_cols)
    X = analyze(tones(cfg.signal_len, freqs), default_window(cfg), cfg)
    return apply_mask(X, mask), X


# -------------------------------------------------------------------- masks


def test_mask_five_second_reference_layout():
    mask = make_mask(5.0, SR, HOP, gap_cols=3)
    assert isinstance(mask, ColumnMask)
    assert mask.n_cols == 156  # floor(5*16000/512)=156, already a multiple of 4
    gaps = find_gaps(mask)
    assert len(gaps) == 5
    assert all(len(g) == 3 for g in gaps)
    # one centered gap inside each second's column span
    for sec, g in enumerate(gaps):
        lo = sec * SR // HOP
        hi = min((sec + 1) * SR // HOP, 156)
        assert g.start == lo + (hi - lo - 3) // 2


def test_mask_one_second_single_gap():
    mask = make_mask(1, SR, HOP, gap_cols=1)
    assert mask.n_cols == 28  # floor(16000/512)=31 truncated to a multiple of 4
    assert list(mask.zero_cols) == [13]
    assert len(mask.reliable_cols) == 27


def test_mask_validation():
    with pytest.raises(ValueError):
        make_mask(0.5, SR, HOP, 1)
    with pytest.raises(ValueError):
        make_mask(1, SR, HOP, 0)
    with pytest.raises(ValueError):
        make_mask(1, SR, HOP, 7)
    with pytest.raises(ValueError):
        make_mask(1, SR, HOP, 1, placement="sprinkled")
    # an 8-column second cannot hold a gap plus margins
    with pytest.raises(ValueError):
        make_mask(1, 4096, HOP, 1)


def test_mask_seeded_random_is_deterministic_and_keeps_margins():
    a = make_mask(3, SR, HOP, 2, placement="seeded-random", seed=5)
    b = make_mask(3, SR, HOP, 2, placement="seeded-random", seed=5)
    assert np.array_equal(a.zero_cols, b.zero_cols)

    margin = 4 + 4  # pad + alignment quantum
    seen_different = False
    for seed in range(12):
        m = make_mask(3, SR, HOP, 2, placement="seeded-random", seed=seed)
        gaps = find_gaps(m)
        assert len(gaps) == 3
        for sec, g in enumerate(gaps):
            lo = sec * SR // HOP
            hi = min((sec + 1) * SR // HOP, m.n_cols)
            assert g.start >= lo + margin
            assert g.stop <= hi - margin
        if not np.array_equal(m.zero_cols, a.zero_cols):
            seen_different = True
    assert seen_different


def test_column_mask_contract():
    m = ColumnMask(10, np.array([7, 2, 7]))
    assert list(m.zero_cols) == [2, 7]  # sorted, deduplicated
    assert list(m.reliable_cols) == [0, 1, 3, 4, 5, 6, 8, 9]
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.n_cols = 5
    with pytest.raises(ValueError):
        ColumnMask(0, [])
    with pytest.raises(ValueError):
        ColumnMask(5, [5])
    with pytest.raises(ValueError):
        ColumnMask(5, [-1])


def test_apply_mask_zeroes_and_preserves():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
    mask = ColumnMask(12, [3, 4])
    out = apply_mask(data, mask)
    assert np.all(out[:, [3, 4]] == 0.0)
    keep = [c for c in range(12) if c not in (3, 4)]
    assert np.array_equal(out[:, keep], data[:, keep])
    # idempotent, input untouched
    assert np.array_equal(apply_mask(out, mask), out)
    assert not np.any(data[:, 3] == 0.0)

    empty = apply_mask(data, ColumnMask(12, []))
    assert np.array_equal(empty, data)
    assert empty is not data

    X = Spectrogram(np.ones((M, 16), complex), StftConfig(W, HOP, M, 16 * HOP))
    Xm = apply_mask(X, ColumnMask(16, [5]))
    assert isinstance(Xm, Spectrogram) and Xm.config is X.config
    with pytest.raises(ValueError):
        apply_mask(data, ColumnMask(9, [1]))


def test_find_gaps_runs():
    assert find_gaps(ColumnMask(50, [10, 11, 12, 40])) == [range(10, 13), range(40, 41)]
    assert find_gaps(ColumnMask(50, [])) == []
    assert find_gaps(ColumnMask(4, [0, 1])) == [range(0, 2)]
    # bare arrays work too, order does not matter
    assert find_gaps(np.array([12, 10, 11, 40])) == [range(10, 13), range(40, 41)]


# ------------------------------------------------------------ normalization


def observed_run(X, zero):
    # the run covering the masked columns `zero`, set up as the solvers see it
    Xm = Spectrogram(X.data.copy(), X.config)
    Xm.data[:, zero] = 0.0
    (run,) = frame_runs(zero, X.config)
    return _observe(Xm, zero, run), run, Xm


def test_peak_normalize_basics():
    # a run is divided by the peak of its synthesized observation over its
    # span: the scaled start peaks at 1, and scaling back restores the data
    cfg = cfg_for(32)
    X = analyze(tones(cfg.signal_len), default_window(cfg), cfg)
    obs, run, Xm = observed_run(X, np.arange(14, 18))
    span = cfg.hop * run.start + np.arange(len(obs.x0))
    syn = synthesize(Xm, default_window(cfg), cfg)[span]
    assert abs(np.max(np.abs(obs.x0)) - 1.0) <= 1e-12
    assert abs(obs.peak - np.max(np.abs(syn))) <= 1e-15
    # round trip, rows 0..M/2 of the run's frames (frames-major)
    frames = run.start + np.arange(run.count)
    ref = Xm.data[: M // 2 + 1, frames].T
    assert np.max(np.abs(obs.Xc * obs.peak - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_peak_normalize_scale_invariance_power_of_two():
    cfg = cfg_for(32)
    X = analyze(tones(cfg.signal_len), default_window(cfg), cfg)
    obs1, _, _ = observed_run(X, np.arange(14, 18))
    obs4, _, _ = observed_run(Spectrogram(4.0 * X.data, cfg), np.arange(14, 18))
    assert obs4.peak == 4.0 * obs1.peak
    assert np.array_equal(obs4.Xc, obs1.Xc)
    assert np.array_equal(obs4.x0, obs1.x0)


# ------------------------------------------------------------- inpainting


FAST = SolverConfig(inner_iters=15, outer_iters=1)


def test_inpaint_empty_mask_is_identity():
    mask = ColumnMask(28, [])
    Xc, _ = corrupted(28, mask)
    out, info = inpaint_spectrogram(Xc, mask, scfg=FAST, return_info=True)
    assert np.array_equal(out.data, Xc.data)
    assert info["gaps"] == [] and info["outer_iters_used"] == []
    plain = inpaint_spectrogram(Xc, mask, scfg=FAST)
    assert isinstance(plain, Spectrogram)


@pytest.mark.parametrize("method", METHODS)
def test_inpaint_dispatch_preserves_reliable_columns(method):
    mask = make_mask(1, SR, HOP, 2)
    Xc, X = corrupted(28, mask)
    x_true = tones(cfg_for(28).signal_len) if method == "bphain_oracle" else None
    out, info = inpaint_spectrogram(
        Xc, mask, method=method, scfg=FAST, x_true=x_true, return_info=True
    )
    keep = mask.reliable_cols
    assert np.array_equal(out.data[:, keep], Xc.data[:, keep])
    gap = np.asarray(mask.zero_cols)
    assert np.all(np.isfinite(out.data[:, gap]))
    assert np.any(out.data[:, gap] != 0.0)
    assert len(info["gaps"]) == 1 and isinstance(info["gaps"][0], FrameRun)
    assert info["gaps"][0].gaps == (range(13, 15),)
    assert len(info["outer_iters_used"]) == 1


def test_inpaint_job_count_does_not_change_bits():
    mask = make_mask(2, SR, HOP, 2)
    Xc, _ = corrupted(60, mask)
    assert len(find_gaps(mask)) == 2
    seq, info1 = inpaint_spectrogram(Xc, mask, scfg=FAST, return_info=True)
    par, info8 = inpaint_spectrogram(Xc, mask, scfg=FAST, jobs=8, return_info=True)
    assert np.array_equal(seq.data, par.data)
    assert info1["outer_iters_used"] == info8["outer_iters_used"]


def test_inpaint_normalization_invariance():
    # scaling the observation by a power of two scales the answer exactly
    mask = make_mask(1, SR, HOP, 2)
    Xc, _ = corrupted(28, mask)
    base = inpaint_spectrogram(Xc, mask, scfg=FAST)
    scaled = inpaint_spectrogram(
        Spectrogram(4.0 * Xc.data, Xc.config), mask, scfg=FAST
    )
    assert np.array_equal(scaled.data, 4.0 * base.data)


def test_inpaint_silent_input_restores_silence():
    # a silent run keeps peak 1 instead of dividing by zero
    mask = make_mask(1, SR, HOP, 4)
    Xc = Spectrogram(np.zeros((M, 28), complex), cfg_for(28))
    for method in ("uphain", "tf_only"):
        out = inpaint_spectrogram(Xc, mask, method=method, scfg=FAST)
        assert not np.any(out.data)


def test_inpaint_nearby_gaps_restore_as_one_run():
    # two gaps two columns apart share frames, so they are solved together
    mask = ColumnMask(28, [16, 18])
    Xc, X = corrupted(28, mask)
    out, info = inpaint_spectrogram(Xc, mask, scfg=FAST, return_info=True)
    assert info["gaps"] == [FrameRun(15, 5, (range(16, 17), range(18, 19)))]
    # one-column gaps leave no free sample: the reliable columns fix the answer
    assert np.max(np.abs(out.data - X.data)) <= 1e-12 * np.max(np.abs(X.data))


def test_inpaint_validation():
    mask = make_mask(1, SR, HOP, 1)
    Xc, _ = corrupted(28, mask)
    with pytest.raises(ValueError):
        inpaint_spectrogram(Xc, mask, method="magic", scfg=FAST)
    with pytest.raises(ValueError):
        inpaint_spectrogram(Xc, mask, method="bphain_oracle", scfg=FAST)
    with pytest.raises(ValueError):
        inpaint_spectrogram(
            Xc, mask, method="bphain_oracle", scfg=FAST, x_true=np.zeros(100)
        )
    with pytest.raises(ValueError):
        inpaint_spectrogram(Xc, ColumnMask(30, [13]), scfg=FAST)


# unsafe steps with an unbounded dual step (soft's clip keeps the dual in
# the lam-ball, which bounds the iterates at any step size)
WILD = SolverConfig(tau=5.0, sigma=5.0, inner_iters=400, outer_iters=1, allow_unsafe=True,
                    thresholder=default_thresholder("l2_squared"))


def test_inpaint_divergence_propagates():
    mask = make_mask(1, SR, HOP, 4)  # four columns leave samples free
    Xc, _ = corrupted(28, mask)
    with pytest.raises(DivergenceError):
        inpaint_spectrogram(Xc, mask, scfg=WILD)


def test_inpaint_one_column_gap_has_nothing_to_diverge():
    # the reliable columns fix every sample, so the unsafe steps never act
    mask = make_mask(1, SR, HOP, 1)
    Xc, X = corrupted(28, mask)
    out = inpaint_spectrogram(Xc, mask, scfg=WILD)
    assert np.max(np.abs(out.data - X.data)) <= 1e-12 * np.max(np.abs(X.data))


# ------------------------------------------------------------- gate corpus

# (window, hop, channels): the default quarter-window hop scaled down, a hop
# that does not divide the window, an odd FFT length at hop 1, and a window
# shorter than the FFT
GEOMETRIES = [(64, 16, 64), (6, 4, 8), (5, 1, 5), (10, 4, 12)]
CORPUS = SolverConfig(inner_iters=5, outer_iters=1)


@st.composite
def corpus_cases(draw):
    W, a, M = draw(st.sampled_from(GEOMETRIES))
    cfg = StftConfig(window_len=W, hop=a, channels=M, signal_len=M * draw(st.integers(1, 8)))
    N = cfg.n_frames
    layout = draw(st.sampled_from(["random", "edges", "close", "long", "near-total", "all"]))
    zero = set(draw(st.lists(st.integers(0, N - 1), max_size=N)))
    c = draw(st.integers(0, N - 1))
    if layout == "edges":
        zero |= {0, N - 1}
    elif layout == "close":  # two gaps 1 or 2 reliable columns apart
        zero = {c, (c + draw(st.integers(2, 3))) % N}
    elif layout == "long":
        zero = {(c + k) % N for k in range(N // 2 + 1)}
    elif layout == "near-total":
        zero = set(range(N)) - {draw(st.integers(0, N - 1))}
    elif layout == "all":
        zero = set(range(N))
    method = draw(st.sampled_from(METHODS))
    seed = draw(st.integers(0, 2**16))
    return cfg, ColumnMask(N, sorted(zero)), method, seed


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpus_cases())
def test_every_mask_restores(case):
    cfg, mask, method, seed = case
    x = np.random.default_rng(seed).standard_normal(cfg.signal_len)
    Xc = apply_mask(analyze(x, default_window(cfg), cfg), mask)
    kw = dict(method=method, scfg=CORPUS, x_true=x if method == "bphain_oracle" else None,
              return_info=True)
    out, info = inpaint_spectrogram(Xc, mask, **kw)
    par, info2 = inpaint_spectrogram(Xc, mask, jobs=2, **kw)
    assert np.array_equal(out.data, par.data)
    assert info["outer_iters_used"] == info2["outer_iters_used"]
    keep = mask.reliable_cols
    assert np.array_equal(out.data[:, keep], Xc.data[:, keep])
    assert np.all(np.isfinite(out.data))
    assert symmetry_residual(out) <= 1e-12
    # every gap is restored by exactly one run
    restored = sorted(c for run in info["gaps"] for g in run.gaps for c in g)
    assert restored == list(mask.zero_cols)

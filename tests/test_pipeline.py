import dataclasses
import math

import numpy as np
import pytest

from tfpaint.pipeline import (
    METHODS,
    ColumnMask,
    ContextError,
    GapSegment,
    apply_mask,
    extract_segment,
    find_gaps,
    inpaint_spectrogram,
    make_mask,
    peak_normalize,
)
from tfpaint.prox import default_thresholder
from tfpaint.solver import DivergenceError, SolverConfig, default_window
from tfpaint.stft import Spectrogram, StftConfig, analyze, synthesize

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


# ----------------------------------------------------------------- segments


def test_extract_segment_known_cases():
    cfg = cfg_for(64)
    rng = np.random.default_rng(1)
    X = Spectrogram(rng.standard_normal((M, 64)) + 0j, cfg)

    gap_seg, seg = extract_segment(X, range(50, 53), pad=4, cfg=cfg)
    assert gap_seg.segment_cols == (44, 16)
    assert seg.data.shape == (M, 16)
    assert seg.config.signal_len == 16 * HOP
    assert np.array_equal(seg.data, X.data[:, 44:60])
    assert gap_seg.local_mask.n_cols == 16
    assert list(gap_seg.local_mask.zero_cols) == [6, 7, 8]
    assert gap_seg.gap_cols == range(50, 53)

    gap_seg, seg = extract_segment(X, range(4, 5), pad=4, cfg=cfg)
    assert gap_seg.segment_cols == (0, 12)
    assert list(gap_seg.local_mask.zero_cols) == [4]


def test_extract_segment_is_minimal_aligned_cover():
    # brute force over every aligned candidate: answer must be the shortest
    # cover, and at the largest admissible start among those
    cfg = cfg_for(64)
    X = Spectrogram(np.zeros((M, 64), complex), cfg)
    q, pad = 4, 4
    for gap_len in range(1, 7):
        for start in range(pad, 64 - gap_len - pad + 1):
            gap = range(start, start + gap_len)
            got, _ = extract_segment(X, gap, pad, cfg)
            cover = gap.stop + pad
            cands = [
                (s, q * math.ceil((cover - s) / q))
                for s in range(0, gap.start - pad + 1, q)
            ]
            cands = [(s, ln) for s, ln in cands if s + ln <= 64]
            best_len = min(ln for _, ln in cands)
            best_s = max(s for s, ln in cands if ln == best_len)
            assert got.segment_cols == (best_s, best_len), (gap, got.segment_cols)


def test_extract_segment_boundary_and_validation():
    cfg = cfg_for(64)
    X = Spectrogram(np.zeros((M, 64), complex), cfg)
    with pytest.raises(ContextError) as err:
        extract_segment(X, range(1, 2), 4, cfg)
    assert err.value.gap == range(1, 2)
    with pytest.raises(ContextError) as err:
        extract_segment(X, range(61, 64), 4, cfg)
    assert err.value.gap == range(61, 64)
    with pytest.raises(ValueError):
        extract_segment(X, range(20, 22), 0, cfg)
    odd = StftConfig(window_len=6, hop=4, channels=8, signal_len=16)
    with pytest.raises(ValueError):
        extract_segment(Spectrogram(np.zeros((8, 4), complex), odd), range(1, 2), 1, odd)


def test_segment_columns_match_full_signal_analysis():
    # aligned start means segment-local analysis reproduces the full-signal
    # columns bit for bit wherever no frame wraps around an edge
    cfg = cfg_for(64)
    x = tones(cfg.signal_len)
    X = analyze(x, default_window(cfg), cfg)
    gap_seg, seg = extract_segment(X, range(20, 22), pad=4, cfg=cfg)
    s, seg_len = gap_seg.segment_cols
    scfg = seg.config
    local = analyze(x[s * HOP : (s + seg_len) * HOP], default_window(scfg), scfg)
    interior = seg_len - (W // HOP) + 1
    assert np.array_equal(local.data[:, :interior], X.data[:, s : s + interior])


def test_extract_segment_peak_matches_synthesis():
    cfg = cfg_for(64)
    x = tones(cfg.signal_len)
    X = analyze(x, default_window(cfg), cfg)
    gap_seg, seg = extract_segment(X, range(30, 32), pad=4, cfg=cfg)
    want = np.max(np.abs(synthesize(seg, default_window(seg.config), seg.config)))
    assert gap_seg.peak == want
    assert gap_seg.peak > 0.5  # a loud tone stays loud after windowing


# ------------------------------------------------------------ normalization


def test_peak_normalize_basics():
    cfg = cfg_for(16)
    x = tones(cfg.signal_len)
    X = analyze(x, default_window(cfg), cfg)
    norm, peak = peak_normalize(X)
    resynth = synthesize(norm, default_window(cfg), cfg)
    assert abs(np.max(np.abs(resynth)) - 1.0) <= 1e-12
    assert abs(peak - np.max(np.abs(synthesize(X, default_window(cfg), cfg)))) <= 1e-15
    # round trip
    assert np.max(np.abs(norm.data * peak - X.data)) <= 1e-12 * np.max(np.abs(X.data))


def test_peak_normalize_scale_invariance_power_of_two():
    cfg = cfg_for(16)
    X = analyze(tones(cfg.signal_len), default_window(cfg), cfg)
    norm1, peak1 = peak_normalize(X)
    norm4, peak4 = peak_normalize(Spectrogram(4.0 * X.data, cfg))
    assert peak4 == 4.0 * peak1
    assert np.array_equal(norm4.data, norm1.data)


def test_peak_normalize_zero_segment():
    cfg = cfg_for(16)
    Z = Spectrogram(np.zeros((M, 16), complex), cfg)
    norm, peak = peak_normalize(Z)
    assert peak == 1.0
    assert np.array_equal(norm.data, Z.data)
    assert norm.data is not Z.data


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
    assert len(info["gaps"]) == 1 and isinstance(info["gaps"][0], GapSegment)
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


def test_inpaint_rejects_foreign_masked_columns_in_segment():
    mask = ColumnMask(28, [16, 18])  # two gaps two columns apart share context
    Xc, _ = corrupted(28, mask)
    with pytest.raises(ContextError) as err:
        inpaint_spectrogram(Xc, mask, scfg=FAST)
    assert err.value.gap in (range(16, 17), range(18, 19))


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

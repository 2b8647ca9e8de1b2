import math

import numpy as np
import pytest

from tfpaint.evaluate import (
    DEFAULT_LAMBDA_GRID,
    EvalRecord,
    _with_lambda,
    compare_methods,
    make_test_signal,
    snr,
    sweep_iterations,
    sweep_lambda,
    synthetic_suite,
)
from tfpaint.pipeline import apply_mask, make_mask
from tfpaint.prox import Thresholder
from tfpaint.solver import SolverConfig, default_window
from tfpaint.stft import StftConfig, analyze, synthesize

SR, HOP, M = 16000, 512, 2048
FAST = SolverConfig(inner_iters=15, outer_iters=1)


# ---------------------------------------------------------------------- snr


def test_snr_analytic_values():
    x = np.sin(np.arange(1000) * 0.1)
    assert snr(x, x) == math.inf
    assert abs(snr(x, 0.5 * x) - 10 * math.log10(4.0)) <= 1e-12
    assert snr(x, np.zeros_like(x)) == 0.0


def test_snr_validation():
    x = np.ones(8)
    with pytest.raises(ValueError):
        snr(x, np.ones(9))
    with pytest.raises(ValueError):
        snr(np.zeros(8), x)


def test_snr_scale_invariance():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(500)
    y = x + 0.01 * rng.standard_normal(500)
    base = snr(x, y)
    # powers of two rescale both energies exactly
    assert snr(4.0 * x, 4.0 * y) == base
    assert snr(0.125 * x, 0.125 * y) == base
    assert abs(snr(3.7 * x, 3.7 * y) - base) <= 1e-12 * abs(base)


# ------------------------------------------------------------ test signals


def test_tone_at_bin_center_concentrates():
    x = make_test_signal("tone", 1.0, SR, f=440.0)[: 7 * M]
    cfg = StftConfig(M, HOP, M, 7 * M)
    X = analyze(x, default_window(cfg), cfg).data
    row_energy = np.sum(np.abs(X) ** 2, axis=1)
    b = round(440.0 * M / SR)
    keep = np.zeros(M, dtype=bool)
    for r in (b - 1, b, b + 1, M - b - 1, M - b, M - b + 1):
        keep[r] = True
    # a Hann-windowed grid tone lives in three bins and their mirrors
    assert np.sum(row_energy[~keep]) <= 1e-20 * np.sum(row_energy)


def test_chirp_with_equal_endpoints_is_a_tone():
    tone = make_test_signal("tone", 1.0, SR, f=437.5)  # 437.5 Hz = bin 56 exactly
    flat = make_test_signal("chirp", 1.0, SR, f0=437.5, f1=437.5)
    assert np.array_equal(tone, flat)


def test_chirp_moves():
    x = make_test_signal("chirp", 1.0, SR, f0=400.0, f1=3000.0)
    assert len(x) == SR
    cfg = StftConfig(M, HOP, M, 7 * M)
    X = np.abs(analyze(x[: 7 * M], default_window(cfg), cfg).data[: M // 2])
    first, last = np.argmax(X[:, 1]), np.argmax(X[:, 25])
    assert last > first + 10  # the ridge climbs


def test_noise_is_seeded():
    a = make_test_signal("noise", 0.5, SR, seed=11)
    b = make_test_signal("noise", 0.5, SR, seed=11)
    c = make_test_signal("noise", 0.5, SR, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.max(np.abs(a)) == 0.9


def test_multitone_peak_and_determinism():
    a = make_test_signal("multitone", 1.0, SR, k=4, seed=3)
    b = make_test_signal("multitone", 1.0, SR, k=4, seed=3)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) == 0.9


def test_make_test_signal_validation():
    with pytest.raises(ValueError):
        make_test_signal("tone", 1.0, SR, f=9000.0)
    with pytest.raises(ValueError):
        make_test_signal("chirp", 1.0, SR, f0=440.0, f1=8000.0)
    with pytest.raises(ValueError):
        make_test_signal("multitone", 1.0, SR, k=0)
    with pytest.raises(ValueError):
        make_test_signal("square", 1.0, SR)
    with pytest.raises(ValueError):
        make_test_signal("tone", 0.0, SR)


def test_synthetic_suite_composition():
    suite = synthetic_suite(duration_s=1.0)
    ids = [sid for sid, _ in suite]
    assert len(suite) == 24
    assert len(set(ids)) == 24
    assert sum(i.startswith("multitone") for i in ids) == 10
    assert sum(i.startswith("chirp") for i in ids) == 10
    assert sum(i.startswith("tone") for i in ids) == 4
    assert all(len(x) == SR for _, x in suite)
    chirps = synthetic_suite(duration_s=1.0, kinds=("chirp",))
    assert len(chirps) == 10
    again = synthetic_suite(duration_s=1.0)
    assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(suite, again))


# ------------------------------------------------------------------ sweeps


def signals_one():
    return [("multitone-00", make_test_signal("multitone", 1.0, SR, seed=0))]


def test_sweep_lambda_single_value():
    mask = make_mask(1, SR, HOP, 1)
    recs = sweep_lambda(signals_one(), mask, [1e-2], scfg=FAST)
    assert len(recs) == 1
    r = recs[0]
    assert isinstance(r, EvalRecord)
    assert r.lambda_ == 1e-2
    assert r.method == "uphain"
    assert r.mask_gap_cols == 1
    assert r.iters_inner == FAST.inner_iters
    assert np.isfinite(r.snr_db) and r.runtime_s >= 0.0
    with pytest.raises(ValueError):
        sweep_lambda(signals_one(), mask, [])


def test_sweep_lambda_matches_direct_run():
    mask = make_mask(1, SR, HOP, 2)
    (sid, x), = signals_one()
    recs = sweep_lambda([(sid, x)], mask, [1e-2], scfg=FAST)

    n = mask.n_cols * HOP
    cfg = StftConfig(M, HOP, M, n)
    X = analyze(x[:n], default_window(cfg), cfg)
    from tfpaint.pipeline import inpaint_spectrogram

    out = inpaint_spectrogram(apply_mask(X, mask), mask, scfg=_with_lambda(FAST, 1e-2))
    want = snr(x[:n], synthesize(out, default_window(cfg), cfg))
    assert recs[0].snr_db == want


def test_with_lambda_updates_thresholder():
    base = SolverConfig(thresholder=Thresholder("p_shrinkage", lam=0.5, p=0.7))
    out = _with_lambda(base, 1e-3)
    assert out.lam == 1e-3
    assert out.thresholder.kind == "p_shrinkage"
    assert out.thresholder.lam == 1e-3
    assert out.thresholder.p == 0.7
    plain = _with_lambda(SolverConfig(), 2e-2)
    assert plain.thresholder.lam == 2e-2


def test_sweep_iterations_runs():
    mask = make_mask(1, SR, HOP, 1)
    recs = sweep_iterations(signals_one(), mask, [5, 15], scfg=FAST)
    assert [r.iters_inner for r in recs] == [5, 15]
    assert all(np.isfinite(r.snr_db) for r in recs)
    with pytest.raises(ValueError):
        sweep_iterations(signals_one(), mask, [])


def test_default_lambda_grid():
    g = np.asarray(DEFAULT_LAMBDA_GRID)
    assert len(g) == 10
    assert abs(g[0] - 1e-7) <= 1e-19 and abs(g[-1] - 1e2) <= 1e-12
    assert np.allclose(np.diff(np.log10(g)), 1.0)


# ----------------------------------------------------------------- compare


def test_compare_methods_single_cell():
    mask = make_mask(1, SR, HOP, 1)
    recs, summary = compare_methods(signals_one(), [mask], ["uphain"], scfg=FAST)
    assert len(recs) == 1 and len(summary) == 1
    assert summary[0]["method"] == "uphain"
    assert summary[0]["gap_cols"] == 1
    assert summary[0]["mean_snr_db"] == recs[0].snr_db
    assert summary[0]["signals"] == 1
    assert recs[0].signal_id == "multitone-00"


def test_compare_methods_grid_shape_and_means():
    sigs = [(f"s{i}", make_test_signal("multitone", 1.0, SR, seed=i)) for i in range(2)]
    masks = [make_mask(1, SR, HOP, g) for g in (1, 2)]
    recs, summary = compare_methods(sigs, masks, ["uphain", "bphain"], scfg=FAST)
    assert len(recs) == 2 * 2 * 2
    assert len(summary) == 4
    for row in summary:
        cell = [r.snr_db for r in recs
                if r.method == row["method"] and r.mask_gap_cols == row["gap_cols"]]
        assert row["mean_snr_db"] == float(np.mean(cell))


def test_compare_methods_oracle_gets_truth():
    mask = make_mask(1, SR, HOP, 1)
    recs, _ = compare_methods(signals_one(), [mask], ["bphain_oracle"], scfg=FAST)
    assert np.isfinite(recs[0].snr_db)


def test_harness_snr_deterministic():
    mask = make_mask(1, SR, HOP, 1)
    a = sweep_lambda(signals_one(), mask, [1e-2], scfg=FAST)[0].snr_db
    b = sweep_lambda(signals_one(), mask, [1e-2], scfg=FAST)[0].snr_db
    assert a == b


def test_short_signal_rejected():
    mask = make_mask(1, SR, HOP, 1)
    with pytest.raises(ValueError):
        sweep_lambda([("short", np.ones(100))], mask, [1e-2], scfg=FAST)


def restoration_error(gap_cols):
    from tfpaint.pipeline import inpaint_spectrogram

    mask = make_mask(1, SR, HOP, gap_cols)
    x = make_test_signal("multitone", 1.0, SR, seed=4)[: mask.n_cols * HOP]
    cfg = StftConfig(M, HOP, M, len(x))
    X = analyze(x, default_window(cfg), cfg)
    out = inpaint_spectrogram(apply_mask(X, mask), mask, scfg=FAST)
    return mask, x - synthesize(out, default_window(cfg), cfg)


def test_error_energy_lives_in_gap_affected_samples():
    # feasible outputs only alter gap columns, so after synthesis the error
    # against the ground truth is confined to samples those columns touch
    from tfpaint.pipeline import find_gaps

    mask, err = restoration_error(4)  # four columns leave samples free

    affected = np.zeros(len(err), dtype=bool)
    for gap in find_gaps(mask):
        for n in gap:
            idx = (n * HOP + np.arange(M)) % len(err)
            affected[idx] = True
    outside = float(np.sum(err[~affected] ** 2))
    total = float(np.sum(err**2))
    assert total > 0.0
    assert outside <= 1e-9 * total


def test_two_column_gap_restores_to_round_off():
    # its reliable columns fix every sample the gap touches
    _, err = restoration_error(2)
    assert float(np.sum(err**2)) <= 1e-20

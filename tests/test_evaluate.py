import dataclasses
import math
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from tfpaint import evaluate, solver
from tfpaint.evaluate import (
    DEFAULT_LAMBDA_GRID,
    EvalRecord,
    compare_methods,
    make_test_signal,
    snr,
    sweep_iterations,
    sweep_lambda,
    synthetic_suite,
)
from tfpaint.pipeline import _fan_out, apply_mask, inpaint_spectrogram, make_mask
from tfpaint.prox import Thresholder
from tfpaint.solver import DivergenceError, SolverConfig, default_window
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
    with pytest.raises(ValueError, match="no samples"):
        make_test_signal("tone", 1e-5, SR)  # 0.16 samples round to none


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
    # a misspelt or missing kind is refused, not dropped
    for kinds in (("multitone", "chrip"), ()):
        with pytest.raises(ValueError, match="multitone, chirp, tone"):
            synthetic_suite(duration_s=1.0, kinds=kinds)
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


def direct_snr(x, mask, scfg):
    """SNR of one inpaint_spectrogram restoration of x's span at scfg."""
    n = mask.n_cols * HOP
    cfg = StftConfig(M, HOP, M, n)
    X = analyze(x[:n], default_window(cfg), cfg)
    out = inpaint_spectrogram(apply_mask(X, mask), mask, scfg=scfg)
    return snr(x[:n], synthesize(out, default_window(cfg), cfg))


def test_sweep_lambda_matches_direct_run():
    mask = make_mask(1, SR, HOP, 2)
    (sid, x), = signals_one()
    recs = sweep_lambda([(sid, x)], mask, [1e-2], scfg=FAST)
    assert recs[0].snr_db == direct_snr(x, mask, dataclasses.replace(FAST, lam=1e-2))


def test_sweep_lambda_keeps_the_thresholder():
    # each grid value replaces lam alone: the kind and p go with it, and
    # every record is a direct solve at that level
    mask = make_mask(1, SR, HOP, 4)  # four columns leave samples free
    sigs = signals_one()
    base = dataclasses.replace(FAST, thresholder=Thresholder("p_shrinkage", p=0.7))
    grid = [1e-3, 1e-1]
    recs = sweep_lambda(sigs, mask, grid, scfg=base, jobs=1)
    for rec, lam in zip(recs, grid):
        assert rec.lambda_ == lam
        assert rec.snr_db == direct_snr(sigs[0][1], mask, dataclasses.replace(base, lam=lam))
    soft = sweep_lambda(sigs, mask, grid, scfg=FAST, jobs=1)
    assert [r.snr_db for r in soft] != [r.snr_db for r in recs]


def test_compare_records_the_level_the_dual_step_used():
    # lam is SolverConfig's alone, so the record's lambda is the one every
    # thresholder kind is applied at
    mask = make_mask(1, SR, HOP, 4)
    sigs = signals_one()
    scfg = dataclasses.replace(FAST, lam=0.2, thresholder=Thresholder("l2_squared"))
    recs, _ = compare_methods(sigs, [mask], ["uphain"], scfg=scfg, jobs=1)
    assert recs[0].lambda_ == 0.2
    assert recs[0].snr_db == direct_snr(sigs[0][1], mask, scfg)
    assert recs[0].snr_db != direct_snr(sigs[0][1], mask, dataclasses.replace(scfg, lam=0.01))


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


def test_unknown_method_rejected_before_any_solve(monkeypatch):
    def solve(*a, **kw):
        raise AssertionError("solved before the method check")

    monkeypatch.setattr(evaluate, "inpaint_spectrogram", solve)
    mask = make_mask(1, SR, HOP, 1)
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="bogus"):
            compare_methods(signals_one(), [mask], ["uphain", "bogus"], scfg=FAST, jobs=jobs)
        with pytest.raises(ValueError, match="bogus"):
            sweep_lambda(signals_one(), mask, [1e-2], scfg=FAST, method="bogus", jobs=jobs)


def test_harness_snr_deterministic():
    mask = make_mask(1, SR, HOP, 1)
    a = sweep_lambda(signals_one(), mask, [1e-2], scfg=FAST)[0].snr_db
    b = sweep_lambda(signals_one(), mask, [1e-2], scfg=FAST)[0].snr_db
    assert a == b


def test_short_signal_rejected(pools):
    mask = make_mask(1, SR, HOP, 1)
    with pytest.raises(ValueError):
        sweep_lambda([("short", np.ones(100))], mask, [1e-2], scfg=FAST)
    # every length is checked here before a pool starts
    sigs = signals_one() + [("short", np.ones(100))]
    with pytest.raises(ValueError, match="shorter"):
        compare_methods(sigs, [mask], ["uphain", "bphain"], scfg=FAST, jobs=2)
    with pytest.raises(ValueError, match="no signals"):
        compare_methods([], [mask], ["uphain"], scfg=FAST, jobs=2)
    assert pools == []


# -------------------------------------------------------------------- pool


def multitones(n, seconds=1.0):
    return [(f"m{i}", make_test_signal("multitone", seconds, SR, seed=i)) for i in range(n)]


def fixed(records):
    # every field but the solve's wall time
    return [dataclasses.replace(r, runtime_s=0.0) for r in records]


def test_harness_gives_the_same_records_for_any_jobs(pools):
    # 2 signals x 2 moving widths x 2 methods = 8 records; 2 values x 2 = 4
    sigs = multitones(2)
    masks = [make_mask(1, SR, HOP, g) for g in (3, 4)]
    compared = {jobs: compare_methods(sigs, masks, ["uphain", "tf_only"], scfg=FAST, jobs=jobs)
                for jobs in (1, 2, 8)}
    swept = {jobs: sweep_lambda(sigs, masks[1], [1e-3, 1e-2], scfg=FAST, jobs=jobs)
             for jobs in (1, 2, 8)}
    assert pools == [2, 8, 2, 4]  # one per call, a worker per record at most
    for jobs in (2, 8):
        assert fixed(compared[jobs][0]) == fixed(compared[1][0])
        assert compared[jobs][1] == compared[1][1]
        assert fixed(swept[jobs]) == fixed(swept[1])
    assert all(r.runtime_s > 0.0 for r in compared[2][0] + swept[8])


def test_fan_out_runs_a_closure_in_item_order(pools):
    # fork pickles nothing: the workers inherit fn, a closure over a local
    # lambda that pickle refuses; only the items and results cross
    triple = lambda v: 3 * v
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(triple)
    items = list(range(7))
    pooled = list(_fan_out(lambda i: (triple(i), os.getpid()), items, 2))
    assert pools == [2]
    assert [v for v, _ in pooled] == [3 * i for i in items]
    assert os.getpid() not in {pid for _, pid in pooled}
    assert list(_fan_out(triple, items, 1)) == [v for v, _ in pooled]


def test_harness_oracle_gives_the_same_records_for_any_jobs(pools):
    # the records carry signal indices: x_true reaches a worker only
    # through the closure it inherits
    sigs = multitones(2)
    masks = [make_mask(1, SR, HOP, 4)]
    got = {jobs: compare_methods(sigs, masks, ["bphain_oracle", "uphain"], scfg=FAST, jobs=jobs)
           for jobs in (1, 2)}
    assert pools == [2]
    assert fixed(got[2][0]) == fixed(got[1][0])
    assert got[2][1] == got[1][1]


def test_harness_pools_one_level_deep(pools):
    one_gap = make_mask(1, SR, HOP, 4)
    compare_methods(multitones(2), [one_gap], ["uphain"], scfg=FAST, jobs=1)
    compare_methods(multitones(1), [one_gap], ["uphain"], scfg=FAST, jobs=2)
    assert pools == []  # jobs=1, and one record with one run to step
    # records of two moving runs each: a worker solves both of its runs
    # itself (the fixture fails a pool started in a worker) ...
    two_gaps = make_mask(2, SR, HOP, 4)
    sweep_iterations(multitones(2, 2.0), two_gaps, [5], scfg=FAST, jobs=2)
    assert pools == [2]
    # ... while a single record hands the jobs to its runs
    sweep_iterations(multitones(1, 2.0), two_gaps, [5], scfg=FAST, jobs=2)
    assert pools == [2, 2]


def test_harness_takes_each_snr_in_the_caller(monkeypatch):
    # patched as the benchmark patches it, to keep every compared pair
    calls, program_snr = [], evaluate.snr

    def keep(x_ref, x_test):
        calls.append((os.getpid(), x_ref, x_test))
        return program_snr(x_ref, x_test)

    monkeypatch.setattr(evaluate, "snr", keep)
    sigs = multitones(2)
    mask = make_mask(1, SR, HOP, 4)
    records, _ = compare_methods(sigs, [mask], ["uphain", "bphain"], scfg=FAST, jobs=2)
    assert len(calls) == len(records) == 4
    n = mask.n_cols * HOP
    for (pid, x_ref, x_test), r in zip(calls, records):
        assert pid == os.getpid()
        assert np.array_equal(x_ref, dict(sigs)[r.signal_id][:n])
        assert x_test.shape == (n,) and program_snr(x_ref, x_test) == r.snr_db


def test_worker_error_reaches_the_caller(monkeypatch, pools):
    def diverge(*args, **kwargs):
        raise DivergenceError(7)

    monkeypatch.setattr(solver, "gcpa_inner", diverge)  # fork carries it over
    mask = make_mask(1, SR, HOP, 4)
    with pytest.raises(DivergenceError) as err:
        compare_methods(multitones(2), [mask], ["uphain", "tf_only"], scfg=FAST, jobs=2)
    assert err.value.iteration == 7
    assert pools == [2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [0, -1, 2.0, "2", True])
def test_harness_rejects_bad_job_counts(jobs):
    mask = make_mask(1, SR, HOP, 1)
    with pytest.raises(ValueError, match="jobs"):
        compare_methods(signals_one(), [mask], ["uphain"], scfg=FAST, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        sweep_lambda(signals_one(), mask, [1e-2], scfg=FAST, jobs=jobs)


def restoration_error(gap_cols):
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


# uphain at the default SolverConfig on the seeded 3-tone multitone, one
# centred gap per width, measured 116.3, 85.5, 79.2, 73.5 and 65.5 dB at
# widths 3-7; each floor sits 15 dB under, as round-off moves such figures
# by up to 4.6 dB from seed to seed
UPHAIN_FLOORS_DB = {3: 101.0, 4: 70.0, 5: 64.0, 6: 58.0, 7: 50.0}


def test_uphain_keeps_a_floor_at_each_width():
    # width 8 is unconverged at sigma = 1 (9.7 dB against 5.8 dB zero fill):
    # its floor is zero fill + 2 dB
    x = make_test_signal("multitone", 1.0, SR, k=3, seed=0)
    masks = [make_mask(1, SR, HOP, g) for g in range(3, 9)]
    recs, _ = compare_methods([("multitone", x)], masks, ["uphain"], jobs=2)
    assert [r.mask_gap_cols for r in recs] == list(range(3, 9))
    for rec, mask in zip(recs, masks):
        cfg = StftConfig(M, HOP, M, mask.n_cols * HOP)
        w, xs = default_window(cfg), x[: cfg.signal_len]
        zero_fill = snr(xs, synthesize(apply_mask(analyze(xs, w, cfg), mask), w, cfg))
        floor = UPHAIN_FLOORS_DB.get(rec.mask_gap_cols, zero_fill + 2.0)
        assert rec.snr_db >= floor, (rec.mask_gap_cols, rec.snr_db, floor)

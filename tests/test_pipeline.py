import dataclasses
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tfpaint
from tfpaint.pipeline import (
    METHODS,
    ColumnMask,
    apply_mask,
    find_gaps,
    inpaint_spectrogram,
    make_mask,
)
from tfpaint.solver import (
    DivergenceError,
    FrameRun,
    SolverConfig,
    _observe,
    _reliable,
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
    # a ValueError, not a ZeroDivisionError, OverflowError or TypeError;
    # True is no one-column gap
    for args in ((1, SR, 0, 1), (1, SR, -512, 1), (1, SR, 512.0, 1), (2.0, SR, HOP, 2.5),
                 (1, SR, HOP, True), (math.inf, SR, HOP, 1), (math.nan, SR, HOP, 1)):
        with pytest.raises(ValueError, match="hop|gap_cols|duration"):
            make_mask(*args)
    # any width that fits with a one-column margin each side
    assert len(make_mask(1, SR, HOP, 7).zero_cols) == 7
    with pytest.raises(ValueError):
        make_mask(1, SR, HOP, 1, placement="sprinkled")
    # an 8-column second cannot hold a 7-column gap plus margins
    make_mask(1, 4096, HOP, 6)
    with pytest.raises(ValueError):
        make_mask(1, 4096, HOP, 7)


def test_mask_seeded_random_is_deterministic_and_keeps_margins():
    a = make_mask(3, SR, HOP, 2, placement="seeded-random", seed=5)
    b = make_mask(3, SR, HOP, 2, placement="seeded-random", seed=5)
    assert np.array_equal(a.zero_cols, b.zero_cols)

    margin = 1  # so that gaps in neighbouring seconds never touch
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
    # refused, not an OverflowError from the int64 conversion
    for zero in ([10**30], [-10**30], np.array([60]), np.array([-1])):
        with pytest.raises(ValueError, match="zero_cols out of range"):
            ColumnMask(60, zero)
    # integers only, not truncated: 1.7 is no column 1, True no column 1
    for n_cols, zero in ((60, [1.7, 2.2]), (60, [1.0]), (60.9, [1]), (True, []),
                         (60, [True, 3]), (60, np.array([True])), (60, [13.0])):
        with pytest.raises(ValueError, match="integer"):
            ColumnMask(n_cols, zero)
    assert list(ColumnMask(60, [3, np.int64(2)]).zero_cols) == [2, 3]
    assert ColumnMask(np.int64(5), np.array([], dtype=float)).zero_cols.size == 0


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
    return _observe(Xm, _reliable(zero, X.config.n_frames), run), run, Xm


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
    seq, info1 = inpaint_spectrogram(Xc, mask, scfg=FAST, jobs=1, return_info=True)
    par, info8 = inpaint_spectrogram(Xc, mask, scfg=FAST, jobs=8, return_info=True)
    assert np.array_equal(seq.data, par.data)
    assert info1["outer_iters_used"] == info8["outer_iters_used"]


@pytest.mark.parametrize("method", METHODS)
def test_pool_gives_serial_output_and_trace(method, pools):
    # two 4-column gaps: two runs with moving frames, solved in the pool
    mask = make_mask(2, SR, HOP, 4)
    Xc, _ = corrupted(60, mask)
    x_true = tones(cfg_for(60).signal_len) if method == "bphain_oracle" else None
    solved = {}
    for jobs in (1, 2, 8):
        out, info = inpaint_spectrogram(Xc, mask, method, scfg=FAST, x_true=x_true, jobs=jobs,
                                        return_info=True, trace=True)
        solved[jobs] = out.data, info["outer_iters_used"], info["trace"]
    assert pools == [2, 2]  # jobs=1 starts none; a worker per run at most
    rounds = 2 if method == "uphain" else 1
    seq = solved[1]
    # one array of rows per run, in run order, the same bits for any jobs
    assert [len(t) for t in seq[2]] == [rounds * FAST.inner_iters] * 2
    for par in (solved[2], solved[8]):
        assert np.array_equal(par[0], seq[0])
        assert par[1] == seq[1]
        assert [t.tobytes() for t in par[2]] == [t.tobytes() for t in seq[2]]


@pytest.mark.parametrize("method", METHODS)
def test_trace_leaves_output_and_info_unchanged(method, pools):
    # two runs that move (so jobs=2 forks) and a 1-column gap that cannot:
    # tracing changes no bit of the output or info, at any job count
    mask = ColumnMask(60, [*range(10, 14), 30, *range(45, 49)])
    Xc, _ = corrupted(60, mask)
    x_true = tones(cfg_for(60).signal_len) if method == "bphain_oracle" else None
    solved = []
    for jobs in (1, 2):
        for traced in (False, True):
            out, info = inpaint_spectrogram(Xc, mask, method, scfg=FAST, x_true=x_true,
                                            jobs=jobs, return_info=True, trace=traced)
            if traced:
                rows = info.pop("trace")
                # a row per inner iteration of every round, for each run
                assert [len(r) for r in rows] == [FAST.inner_iters * used
                                                  for used in info["outer_iters_used"]]
                assert info["gaps"][1].gaps == (range(30, 31),)
                # one block of rows per round, each repeating the terms at x_det
                still = rows[1].tolist()
                for j in range(0, len(still), FAST.inner_iters):
                    assert all(r == still[j] for r in still[j : j + FAST.inner_iters])
            solved.append((out.data.tobytes(), info))
    assert pools == [2, 2]
    assert all(s == solved[0] for s in solved)


def test_trace_comes_back_in_info_alone():
    # the rows are returned in info: a traced call must ask for it, and an
    # untraced one carries no trace
    mask = make_mask(1, SR, HOP, 4)
    Xc, _ = corrupted(28, mask)
    with pytest.raises(ValueError, match="return_info"):
        inpaint_spectrogram(Xc, mask, scfg=FAST, trace=True)
    _, info = inpaint_spectrogram(Xc, mask, scfg=FAST, return_info=True)
    assert set(info) == {"gaps", "outer_iters_used"}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("zero", [range(20, 24), [58, 59, 0]], ids=["interior", "file-end"])
def test_gap_columns_are_not_read(method, zero):
    # what the masked columns hold changes no bit of the output or the
    # trace, and raises no warning: the clean analysis and a copy with
    # non-finite gap columns restore as the masked copy does
    mask = ColumnMask(60, zero)
    Xc, X = corrupted(60, mask)
    junk = Spectrogram(Xc.data.copy(), Xc.config)
    junk.data[:, mask.zero_cols] = np.inf
    junk.data[:2, mask.zero_cols[0]] = complex(np.inf, np.inf), np.nan
    x_true = tones(cfg_for(60).signal_len) if method == "bphain_oracle" else None
    (masked, info_m), *others = [
        inpaint_spectrogram(Y, mask, method, scfg=FAST, x_true=x_true, jobs=1,
                            return_info=True, trace=True) for Y in (Xc, X, junk)]
    trace_m = [t.tobytes() for t in info_m.pop("trace")]
    for out, info in others:
        assert out.data.tobytes() == masked.data.tobytes()
        assert [t.tobytes() for t in info.pop("trace")] == trace_m
        assert info == info_m


def test_runs_that_cannot_move_start_no_pool(pools):
    # width-1 gaps leave no free sample: nothing to step, so nothing to fork
    mask = make_mask(3, SR, HOP, 1)
    Xc, _ = corrupted(92, mask)
    inpaint_spectrogram(Xc, mask, scfg=FAST, jobs=2)
    # one run to step is solved in this process too
    mask = make_mask(1, SR, HOP, 4)
    Xc, _ = corrupted(28, mask)
    inpaint_spectrogram(Xc, mask, scfg=FAST, jobs=2)
    assert pools == []


def test_threaded_caller_solves_in_process(pools):
    # fork is unsafe with other threads running: a call from a second
    # thread solves in-process, with the same output
    mask = make_mask(2, SR, HOP, 4)
    Xc, _ = corrupted(60, mask)
    got = []
    worker = threading.Thread(
        target=lambda: got.append(inpaint_spectrogram(Xc, mask, scfg=FAST, jobs=2)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and pools == []
    assert np.array_equal(got[0].data, inpaint_spectrogram(Xc, mask, scfg=FAST, jobs=1).data)


@pytest.mark.parametrize("jobs", [0, -1, 2.0, "2", True])
def test_inpaint_rejects_bad_job_counts(jobs):
    mask = make_mask(1, SR, HOP, 1)
    Xc, _ = corrupted(28, mask)
    with pytest.raises(ValueError, match="jobs"):
        inpaint_spectrogram(Xc, mask, scfg=FAST, jobs=jobs)


def test_import_starts_no_pool_machinery():
    # the pool's modules are imported on first use, not with the package,
    # and nothing needs scipy (the CLI reads WAV files with the stdlib)
    src = os.path.dirname(os.path.dirname(tfpaint.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for module in ("tfpaint", "tfpaint.cli"):
        code = (f"import sys, {module}; "
                "print(sorted(m for m in ('scipy', 'multiprocessing', 'concurrent.futures') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "[]", module


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


def test_inpaint_validation(monkeypatch):
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
    # a non-finite coefficient in a reliable column a run reads fails before any solve
    def must_not_solve(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(tfpaint.pipeline, "solve_observed", must_not_solve)
    # so do coefficients of another shape than their config's (2048, 28)
    for rows in (np.vstack([Xc.data, Xc.data[:1]]), Xc.data[:1024]):
        with pytest.raises(ValueError, match=rf"shape \({len(rows)}, 28\) .* \(2048, 28\)"):
            inpaint_spectrogram(Spectrogram(rows, Xc.config), mask, scfg=FAST)
    Xc.data[7, mask.zero_cols[0] - 1] = np.nan
    with pytest.raises(ValueError, match=r"column\(s\) \[12\] .* non-finite"):
        inpaint_spectrogram(Xc, mask, scfg=FAST)


# run with the ``diverging`` fixture: every dual step overflows
WILD = SolverConfig(inner_iters=400, outer_iters=1)


def test_inpaint_divergence_propagates(diverging):
    mask = make_mask(1, SR, HOP, 4)  # four columns leave samples free
    Xc, _ = corrupted(28, mask)
    with pytest.raises(DivergenceError):
        inpaint_spectrogram(Xc, mask, scfg=WILD)


def test_divergence_is_the_same_in_the_pool(pools, diverging):
    # two 4-column gaps diverge in their runs; a pool worker's error reaches
    # the caller as the serial one does, from the first run in run order
    mask = make_mask(2, SR, HOP, 4)
    Xc, _ = corrupted(60, mask)
    errors = []
    for jobs in (1, 2):
        with pytest.raises(DivergenceError) as err:
            inpaint_spectrogram(Xc, mask, scfg=WILD, jobs=jobs)
        errors.append((err.value.iteration, str(err.value)))
    assert pools == [2]
    assert errors[0] == errors[1]
    assert errors[0][1] == f"solver diverged at iteration {errors[0][0]}"


def test_inpaint_one_column_gap_has_nothing_to_diverge(diverging):
    # the reliable columns fix every sample, so the overflowing steps never act
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
    out, info = inpaint_spectrogram(Xc, mask, jobs=1, **kw)
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

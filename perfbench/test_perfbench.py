"""The benchmark's own tests, on small inputs.

    python3 -m pytest perfbench -q

They show that the output checks reject known-bad outputs, that the
independent frame agrees with the program's, and that tracing does not
change what the program computes.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tfpaint  # noqa: E402
from tfpaint import pipeline, solver  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
from reference import HOP, SR, CheckFailed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, long_recording, reference_multitone  # noqa: E402


def corrupted(seconds, gap_cols):
    x = reference_multitone(seconds, 0)
    mask = tfpaint.make_mask(seconds, SR, HOP, gap_cols)
    cfg = tfpaint.StftConfig(signal_len=mask.n_cols * HOP)
    x = x[: cfg.signal_len]
    X = tfpaint.analyze(x, tfpaint.default_window(cfg), cfg)
    return x, mask, X, tfpaint.apply_mask(X, mask)


def test_seed_zero_is_criterion_six_signal():
    expect = tfpaint.make_test_signal("multitone", duration_s=5.0, sample_rate=SR, k=3, seed=0)
    assert np.array_equal(reference_multitone(5.0, 0), expect)


def test_reference_frame_matches_program():
    x, _, X, _ = corrupted(1.0, 2)
    own = ref.analysis(x)
    assert np.max(np.abs(own - X.data)) <= 1e-12 * np.max(np.abs(X.data))
    cfg = X.config
    prog = tfpaint.synthesize(X, tfpaint.default_window(cfg), cfg)
    assert np.max(np.abs(ref.synthesis(X.data) - prog)) <= 1e-12


def test_segment_lengths_match_pipeline():
    _, mask, _, Xc = corrupted(2.0, 6)
    got = [tfpaint.extract_segment(Xc, gap, 4, Xc.config)[0].segment_cols[1]
           for gap in tfpaint.find_gaps(mask)]
    assert ref.segment_lengths(mask.zero_cols) == got == [16, 16]


def test_restoration_check_rejects_altered_reliable_coefficient():
    x, mask, X, Xc = corrupted(1.0, 2)
    # the clean analysis is a perfect restoration
    ref.check_restoration(X.data, Xc.data, x, mask.zero_cols, floor_db=40.0)
    bad = X.data.copy()
    col = int(mask.reliable_cols[3])
    bad[7, col] += 1e-9
    bad[-7, col] = np.conj(bad[7, col])   # stay conjugate-symmetric
    with pytest.raises(CheckFailed, match="reliable column"):
        ref.check_restoration(bad, Xc.data, x, mask.zero_cols, floor_db=40.0)


def test_restoration_check_rejects_zero_filled_output():
    x, mask, _, Xc = corrupted(1.0, 2)
    with pytest.raises(CheckFailed, match="SNR"):
        ref.check_restoration(Xc.data, Xc.data, x, mask.zero_cols, floor_db=0.0)


@pytest.fixture
def cli_case(tmp_path):
    """Perfect outputs of a 4 s, two-gap CLI run, written by hand."""
    clean_path = tmp_path / "clean.wav"
    ref.write_wav(clean_path, long_recording(0, 4))
    clean = ref.read_wav(clean_path)
    n_cols = 4 * SR // HOP
    n_cols -= n_cols % 4
    zero = [40, 41, 92, 93, 94]
    mask = tfpaint.ColumnMask(n_cols, np.array(zero))
    cfg = tfpaint.StftConfig(signal_len=n_cols * HOP)
    X = tfpaint.analyze(clean[: cfg.signal_len], tfpaint.default_window(cfg), cfg).data
    Xc = tfpaint.apply_mask(X, mask)
    inner = 5
    paths = {k: tmp_path / k for k in ("restored.wav", "restored.spgm", "trace.csv")}
    ref.write_wav(paths["restored.wav"], clean[: cfg.signal_len])
    ref.write_spgm(paths["restored.spgm"], X)
    rows = [ref.TRACE_HEADER] + [[g, i, 0.5, 0.25] for g in (40, 92) for i in range(1, inner + 1)]
    paths["trace.csv"].write_text("".join(",".join(map(str, r)) + "\n" for r in rows))

    def check():
        return ref.check_cli_outputs(paths["restored.wav"], paths["restored.spgm"],
                                     paths["trace.csv"], Xc, clean, zero, 2, inner)

    return paths, check


def test_cli_check_accepts_perfect_outputs(cli_case):
    _, check = cli_case
    got, base, rows = check()
    assert got > base and rows == 10


def test_cli_check_rejects_all_zero_wav(cli_case):
    paths, check = cli_case
    n = len(ref.read_wav(paths["restored.wav"]))
    ref.write_wav(paths["restored.wav"], np.zeros(n))
    with pytest.raises(CheckFailed, match="does not beat"):
        check()


def test_cli_check_rejects_trace_short_one_row(cli_case):
    paths, check = cli_case
    lines = paths["trace.csv"].read_text().splitlines(keepends=True)
    paths["trace.csv"].write_text("".join(lines[:-1]))
    with pytest.raises(CheckFailed, match="rows"):
        check()


def compare_outputs(ctx, zero_filled_uphain_width=None):
    """Records and (clean, restored) pairs in compare_methods' order: every
    restoration is the clean signal plus a little noise (about 40 dB), but
    uphain's at ``zero_filled_uphain_width`` is the zero-filled observation."""
    from tfpaint.evaluate import EvalRecord
    from workloads import METHODS
    rng = np.random.default_rng(1)
    records, pairs = [], []
    for method in METHODS:
        for mask in ctx["masks"]:
            start, stop = ref.find_runs(mask.zero_cols)[0]
            for sid, x in ctx["signals"]:
                x = np.asarray(x)[: mask.n_cols * HOP]
                if method == "uphain" and stop - start == zero_filled_uphain_width:
                    y = ref.synthesis(ref.zero_columns(ref.analysis(x), mask.zero_cols))
                else:
                    y = x + 0.01 * np.std(x) * rng.standard_normal(x.size)
                pairs.append((x, y))
                records.append(EvalRecord(method, stop - start, sid, ref.snr_db(x, y),
                                          0.0, 0.0, 80, 1))
    return records, pairs


def test_compare_check_accepts_good_records(tmp_path):
    wl = WORKLOADS["compare_suite"]
    ctx = wl.prepare(0, str(tmp_path))
    assert wl.check(ctx, compare_outputs(ctx)) > 35.0


@pytest.mark.parametrize("width", [2, 3, 6])
def test_compare_check_rejects_zero_filled_uphain_at_each_width(tmp_path, width):
    wl = WORKLOADS["compare_suite"]
    ctx = wl.prepare(0, str(tmp_path))
    with pytest.raises(CheckFailed, match=f"at width {width}$"):
        wl.check(ctx, compare_outputs(ctx, zero_filled_uphain_width=width))


def test_per_layer_rejects_negative_self_time():
    summary = {"incl": {"solver.gcpa_inner": 2.0}, "calls": {"solver.gcpa_inner": 1},
               "self": {"solver.gcpa_inner": 2.0}, "counts": {}}
    with pytest.raises(RuntimeError, match="negative self times"):
        run.per_layer(summary, 1.0, 1.0, 0.0, {})


@pytest.mark.parametrize("method", ["uphain", "tf_only"])
def test_traced_run_is_bit_identical(method):
    _, mask, _, Xc = corrupted(1.0, 3)
    scfg = tfpaint.SolverConfig(inner_iters=20, outer_iters=2)
    plain = pipeline.inpaint_spectrogram(Xc, mask, method, scfg=scfg)
    originals = (solver.gcpa_inner, np.fft.rfft, pipeline.uphain_tf)
    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.body"):
        traced = pipeline.inpaint_spectrogram(Xc, mask, method, scfg=scfg)
    assert np.array_equal(plain.data, traced.data)
    assert (solver.gcpa_inner, np.fft.rfft, pipeline.uphain_tf) == originals

    s = tracer.summary()
    assert s["calls"]["pipeline.inpaint_spectrogram"] == 1
    assert s["counts"]["segments"] == 1
    root = s["incl"]["bench.body"]
    assert abs(sum(s["self"].values()) - root) <= 1e-9 * root
    assert all(v >= -1e-9 for v in s["self"].values())
    metrics = run.per_layer(s, root, root, 0.0, {})
    if method == "uphain":
        assert metrics["solver.outer_rounds"] == 3
        assert metrics["solver.inner_iters"] == 3 * 20
        assert metrics["fft.calls"] > 4 * 60
    else:
        assert metrics["solver.tf_only_self_s"] > 0.0
        assert metrics["prox.threshold_s"] > 0.0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_run_refuses_a_tree_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "reference.py", "tracer.py", "workloads.py", "cli_child.py"):
        shutil.copy(os.path.join(HERE, name), bench / name)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "restore_gap1",
                           "--seed", "0", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

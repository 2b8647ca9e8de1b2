"""tfpaint benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``
(no install).  With ``--trace 0`` the workload's body repeats, untraced,
while a further body is expected to end within S seconds, and the run
reports the end-to-end metrics.  With ``--trace 1`` the body runs once
untraced and once traced, and the run reports the per-layer metrics.
Either way every output is checked, and the last line of standard output
is one JSON object: correct, attempted, failed, metrics.  The full result,
with the machine and commit it ran on, goes to perfbench/results/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
IMPORT_PROBES = 5
IMPORT_PROBE = ("import numpy, time; t = time.perf_counter(); import tfpaint; "
                "print(time.perf_counter() - t)")

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("snr_db", "dB")]
LAYERS = ("bench", "import", "stft", "phase_prior", "prox", "solver", "pipeline",
          "evaluate", "cli")
PER_LAYER = [
    ("solver.inner_iters", "count"), ("solver.outer_rounds", "count"),
    ("solver.inner_s", "s"), ("solver.us_per_iter", "us"),
    ("solver.inner_self_s", "s"), ("solver.tf_only_self_s", "s"),
    ("fft.calls", "count"), ("fft.s", "s"), ("fft.mb", "MB-computed"),
    ("stft.overlap_add_calls", "count"), ("stft.overlap_add_s", "s"),
    ("stft.analyze_calls", "count"), ("stft.analyze_s", "s"),
    ("stft.synthesize_calls", "count"), ("stft.synthesize_s", "s"),
    ("phase_prior.estimate_if_calls", "count"), ("phase_prior.estimate_if_s", "s"),
    ("phase_prior.correction_factors_s", "s"),
    ("prox.project_feasible_s", "s"), ("prox.threshold_s", "s"),
    ("pipeline.segments", "count"), ("pipeline.segment_cols", "count"),
    ("pipeline.extract_s", "s"), ("pipeline.normalize_s", "s"),
    ("evaluate.records", "count"),
    ("cli.read_s", "s"), ("cli.write_s", "s"), ("cli.bytes_read", "bytes"),
    ("cli.bytes_written", "bytes"), ("cli.trace_rows", "count"),
    ("process.cpu_s", "s"), ("trace.overhead_s", "s"), ("trace.wall_s", "s"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
]
FFT_SPANS = ("fft.fft", "fft.ifft", "fft.rfft", "fft.irfft")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
             "python": platform.python_version(), "commit": git_commit()}
    for pkg in ("numpy", "scipy"):
        try:
            facts[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            facts[pkg] = "absent"
    return facts


def git_commit():
    """HEAD of the checkout, or "unknown" where it is not a git work tree."""
    try:
        # the ceiling keeps git from reporting a repository that merely
        # contains the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def import_seconds():
    """Import time of tfpaint in fresh interpreters, one per probe.

    Imports are paid once per process, so the run measures them in
    ``IMPORT_PROBES`` child interpreters and keeps the median.  numpy is
    imported before the clock starts: its own import swings between about
    0.09 and 0.2 s here with the start-up of its BLAS threads, which would
    drown the program's own 0.04 s.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return times


def per_layer(summary, wall_traced, wall_untraced, cpu_untraced, cli_io):
    incl, calls, own, counts = (summary[k] for k in ("incl", "calls", "self", "counts"))

    def t(*names):
        return sum(incl.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(k, 0) for k in names)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_self["fft"] = 0.0
    unknown = {name.split(".", 1)[0] for name in own} - set(layer_self)
    if unknown:
        raise RuntimeError(f"spans outside the known layers: {sorted(unknown)}")
    for name, value in own.items():
        layer_self[name.split(".", 1)[0]] += value
    # what no span covers (interpreter start-up of a CLI child, the
    # benchmark's own glue) is the remainder, and goes to bench; overlapping
    # or double-counted spans, or a child wall shorter than its spans, would
    # leave a negative self time
    layer_self["bench"] += wall_traced - sum(layer_self.values())
    negative = {k: v for k, v in layer_self.items() if v < -1e-6}
    if negative:
        raise RuntimeError(f"negative self times: {negative}")
    gcpa_iters = counts.get("gcpa_iters", 0)
    values = {
        "solver.inner_iters": gcpa_iters + counts.get("tf_only_iters", 0),
        "solver.outer_rounds": counts.get("outer_rounds", 0),
        "solver.inner_s": t("solver.gcpa_inner"),
        "solver.us_per_iter": 1e6 * t("solver.gcpa_inner") / gcpa_iters if gcpa_iters else 0.0,
        "solver.inner_self_s": own.get("solver.gcpa_inner", 0.0),
        "solver.tf_only_self_s": own.get("solver.cpa_tf_only", 0.0),
        "fft.calls": n(*FFT_SPANS),
        "fft.s": t(*FFT_SPANS),
        "fft.mb": counts.get("fft_bytes", 0) / 1e6,
        "stft.overlap_add_calls": n("stft._overlap_add"),
        "stft.overlap_add_s": t("stft._overlap_add"),
        "stft.analyze_calls": n("stft.analyze"),
        "stft.analyze_s": t("stft.analyze"),
        "stft.synthesize_calls": n("stft.synthesize"),
        "stft.synthesize_s": t("stft.synthesize"),
        "phase_prior.estimate_if_calls": n("phase_prior.estimate_if"),
        "phase_prior.estimate_if_s": t("phase_prior.estimate_if"),
        "phase_prior.correction_factors_s": t("phase_prior.correction_factors"),
        "prox.project_feasible_s": t("prox.project_feasible"),
        "prox.threshold_s": t("prox.threshold"),
        "pipeline.segments": counts.get("segments", 0),
        "pipeline.segment_cols": counts.get("segment_cols", 0),
        "pipeline.extract_s": t("pipeline.extract_segment"),
        "pipeline.normalize_s": t("pipeline.peak_normalize"),
        "evaluate.records": counts.get("records", 0),
        "cli.read_s": t("cli.read_mask", "cli.read_spectrogram", "cli.read_wav"),
        "cli.write_s": t("cli.write_wav", "cli.write_spectrogram"),
        "cli.bytes_read": cli_io.get("bytes_read", 0),
        "cli.bytes_written": cli_io.get("bytes_written", 0),
        "cli.trace_rows": cli_io.get("trace_rows", 0),
        "process.cpu_s": cpu_untraced,
        "trace.overhead_s": wall_traced - wall_untraced,
        "trace.wall_s": wall_traced,
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
    }
    return values


def metric_block(values, spec):
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tfpaint", "__init__.py")):
        print(f"error: no tfpaint sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tfpaint
    if not os.path.abspath(tfpaint.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"error: tfpaint imported from {tfpaint.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, HERE)
    from reference import CheckFailed
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = os.path.join(HERE, "work")
    os.makedirs(work, exist_ok=True)

    import_s = import_seconds()
    prep_s = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        ctx = wl.prepare(args.seed, work)
        prep_s.append(time.perf_counter() - t0)

    correct, attempted, failed = True, 0, 0
    walls, cpus, snrs, peaks = [], [], [], []

    def one_body(tag, trace_file=None, tracer=None):
        nonlocal correct, attempted, failed
        ops = wl.ops(ctx)
        attempted += ops
        try:
            if tracer is None:
                out, wall, cpu = wl.body(ctx, tag, trace_file)
            else:
                with tracer.installed(), tracer.span("bench.body"):
                    out, wall, cpu = wl.body(ctx, tag)
        except Exception:  # the program failed this operation: count it, go on
            traceback.print_exc()
            failed += ops
            return None
        if wl.subprocess and out["rc"] != 0:
            print(f"error: {tag}: exit code {out['rc']}\n{out['stderr'][-2000:]}",
                  file=sys.stderr)
            failed += ops
            return None
        # the peak so far, before the check allocates; the first body's is
        # reported, since later bodies add only allocator growth and their
        # number varies from run to run
        peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN if wl.subprocess
                                        else resource.RUSAGE_SELF).ru_maxrss)
        try:
            snrs.append(wl.check(ctx, out))
        except CheckFailed as e:
            print(f"check failed: {tag}: {e}", file=sys.stderr)
            correct = False
        return out, wall, cpu

    t_start = time.perf_counter()
    extra = {"layout_segment_cols": wl.layout(ctx)}
    if args.trace == 0:
        while True:
            res = one_body("timed")
            if res is not None:
                walls.append(res[1])
                cpus.append(res[2])
            elapsed = time.perf_counter() - t_start
            if not walls or elapsed + statistics.median(walls) > args.seconds:
                break
        values = {"wall_s": statistics.median(walls) if walls else 0.0,
                  "setup_s": statistics.median(import_s) + statistics.median(prep_s),
                  "peak_rss_mb": peaks[0] * 1024 / 1e6 if peaks else 0.0,
                  "snr_db": statistics.median(snrs) if snrs else 0.0}
        metrics = metric_block(values, END_TO_END)
        extra.update(walls=walls, cpus=cpus, snrs=snrs)
    else:
        plain = one_body("plain")
        if wl.subprocess:
            summary_path = os.path.join(work, "cli_trace_summary.json")
            traced = one_body("traced", summary_path)
            if traced is not None:
                with open(summary_path) as fh:
                    summary = json.load(fh)
                wall_traced = traced[1]
        else:
            tracer = Tracer()
            traced = one_body("traced", tracer=tracer)
            summary = tracer.summary()
            wall_traced = summary["incl"]["bench.body"]
        if plain is None or traced is None:
            print("error: a body failed; no per-layer metrics", file=sys.stderr)
            save_and_print(args, {"correct": correct, "attempted": attempted,
                                  "failed": failed, "metrics": {}}, {})
            return 1
        if not wl.same(plain[0], traced[0]):
            print("check failed: traced output differs from untraced output", file=sys.stderr)
            correct = False
        cli_io = {}
        if wl.subprocess:
            read, written = wl.file_bytes(ctx, plain[0])
            with open(plain[0]["trace.csv"]) as fh:
                rows = sum(1 for _ in fh) - 1
            cli_io = {"bytes_read": read, "bytes_written": written, "trace_rows": rows}
        values = per_layer(summary, wall_traced, plain[1], plain[2], cli_io)
        metrics = metric_block(values, PER_LAYER)
        extra.update(untraced_wall=plain[1], summary=summary)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    save_and_print(args, result, {"import_s": import_s, "prep_s": prep_s, **extra})
    return 0


def save_and_print(args, result, extra):
    """Write the full record to perfbench/results/ and print the result last."""
    facts = machine()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, **extra, **result}
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print("machine " + json.dumps(facts))
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())

"""Memory and time of the full-length transforms and of ``tfpaint inpaint``,
for two source trees on the same machine.

    python3 bench/memory.py --before OLD/src --after src --out BENCH.json

Each tree's ``src`` directory is put on PYTHONPATH of fresh processes:

* transforms: the 60 s geometry of the benchmark's ``cli_long`` workload
  (1872 frames, M = 2048).  The tracemalloc peak of the first ``analyze``
  and of the first ``synthesize`` in a fresh process, then the min-of-N
  wall time of each, warm.
* CLI: ``tfpaint inpaint`` with the ``cli_long`` arguments (bphain, --trace,
  --spec-out) on the ``cli_long`` inputs, run N times.  A small launcher
  process starts it and reports the CLI's own ``ru_maxrss`` (with its pool
  workers) and wall time, so no large parent's memory reaches the figure.

The inputs are written once, by a separate process running the
benchmark's own ``cli_long`` preparation (``perfbench/workloads.py``) with
the ``--after`` tree.  The report also says whether the two trees' CLI
outputs (restored WAV, restored .spgm, trace CSV) are byte-identical.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PREPARE = """
import sys
sys.path.insert(0, {perfbench!r})
from workloads import WORKLOADS
WORKLOADS["cli_long"].prepare({seed}, {work!r})
"""

TRANSFORMS = """
import json, time, tracemalloc
import numpy as np
import tfpaint
cfg = tfpaint.StftConfig(signal_len=1872 * 512)
w = tfpaint.default_window(cfg)
x = np.random.default_rng(1).standard_normal(cfg.signal_len)
tracemalloc.start()
X = tfpaint.analyze(x, w, cfg)
analyze_peak = tracemalloc.get_traced_memory()[1]
tracemalloc.reset_peak()
held = tracemalloc.get_traced_memory()[0]
tfpaint.synthesize(X, w, cfg)
synthesize_peak = tracemalloc.get_traced_memory()[1] - held
tracemalloc.stop()

def best(f):
    times = []
    for _ in range({runs}):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return min(times)

print(json.dumps({{
    "coefficient_mb": X.data.nbytes / 1e6,
    "analyze_peak_mb": analyze_peak / 1e6,
    "synthesize_peak_mb": synthesize_peak / 1e6,
    "analyze_min_s": best(lambda: tfpaint.analyze(x, w, cfg)),
    "synthesize_min_s": best(lambda: tfpaint.synthesize(X, w, cfg)),
}}))
"""

LAUNCH = """
import json, resource, subprocess, sys, time
t0 = time.perf_counter()
rc = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
wall = time.perf_counter() - t0
print(json.dumps({"rc": rc, "wall_s": wall,
                  "maxrss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}))
"""


def run_python(code, src, *args):
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1]) if out.stdout.strip() else None


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def measure(src, work, tag, runs):
    result = run_python(TRANSFORMS.format(runs=runs), src)
    inputs = {k: os.path.join(work, f"cli_{k}") for k in ("mask.json", "corrupted.spgm")}
    outputs = {k: os.path.join(work, f"{tag}_{k}") for k in ("restored.wav", "restored.spgm", "trace.csv")}
    cli = []
    for _ in range(runs):
        for path in outputs.values():
            if os.path.exists(path):
                os.remove(path)
        cli.append(run_python(LAUNCH, src, sys.executable, "-m", "tfpaint.cli", "inpaint",
                              "--in", inputs["corrupted.spgm"], "--mask", inputs["mask.json"],
                              "--method", "bphain", "--out", outputs["restored.wav"],
                              "--spec-out", outputs["restored.spgm"], "--trace", outputs["trace.csv"]))
        if cli[-1]["rc"] != 0:
            raise SystemExit(f"{tag}: tfpaint inpaint exited with {cli[-1]['rc']}")
    result.update(cli_maxrss_mib=[c["maxrss_mib"] for c in cli],
                  cli_wall_s=[c["wall_s"] for c in cli],
                  cli_maxrss_min_mib=min(c["maxrss_mib"] for c in cli),
                  cli_wall_min_s=min(c["wall_s"] for c in cli),
                  outputs={k: sha256(p) for k, p in outputs.items()})
    return result


def git_commit(src):
    try:
        out = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--before", required=True, help="src directory of the tree before the change")
    p.add_argument("--after", default=os.path.join(ROOT, "src"), help="src directory after it")
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--runs", type=int, default=5, help="timed repeats (default 5)")
    p.add_argument("--seed", type=int, default=1, help="cli_long input seed (default 1)")
    args = p.parse_args(argv)
    import numpy

    with tempfile.TemporaryDirectory() as work:
        run_python(PREPARE.format(perfbench=os.path.join(ROOT, "perfbench"), seed=args.seed,
                                  work=work), os.path.abspath(args.after))
        trees = {tag: dict(src_commit=git_commit(src),
                           **measure(os.path.abspath(src), work, tag, args.runs))
                 for tag, src in (("before", args.before), ("after", args.after))}
    report = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "seed": args.seed,
        "runs": args.runs,
        "cli_outputs_identical": trees["before"]["outputs"] == trees["after"]["outputs"],
        **trees,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for tag, r in trees.items():
        print(f"{tag:>6}: analyze {r['analyze_min_s']:.4f} s, peak {r['analyze_peak_mb']:.1f} MB; "
              f"synthesize {r['synthesize_min_s']:.4f} s, peak {r['synthesize_peak_mb']:.1f} MB; "
              f"cli maxrss {r['cli_maxrss_min_mib']:.1f} MiB, {r['cli_wall_min_s']:.2f} s")
    print(f"cli outputs identical: {report['cli_outputs_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Wall time and memory of the evaluation harness (``compare_methods``) for
two source trees on the same machine.

    python3 bench/harness.py --before OLD/src --after src --out BENCH.json

The inputs are those of the benchmark's ``compare_suite`` workload
(``perfbench/workloads.py``): one multitone, one chirp and one tone, 1 s
each, gap widths 2, 3 and 6, all four methods, 80 inner iterations and 1
outer round, 36 records.  Each tree's ``src`` directory is put on
PYTHONPATH of fresh processes, one per setting and round:

* ``default``: ``compare_methods`` as the benchmark calls it (no ``jobs``);
* ``jobs1``: the same with ``jobs=1``, for a tree whose ``compare_methods``
  takes ``jobs`` (an older tree solves serially by default, so the setting
  is left out).

A process prepares the inputs, runs the call once to warm up, then N
timed times, and reports the wall times, its own ``ru_maxrss`` (pool
workers not included) and every record's SNR.  The processes run in R
rounds, each round running every (tree, setting) once, in the reverse
order of the round before, so a drift in the machine's load reaches both
trees alike.  Per (tree, setting) the report gives the min and the median
of the R x N wall times and the smallest ``ru_maxrss``, and it says whether
the SNRs are bit-identical across trees, settings and rounds.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from memory import cpu_model, git_commit  # bench/memory.py, beside this script

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MEASURE = """
import inspect, json, resource, sys, time
sys.path.insert(0, {perfbench!r})
from workloads import WORKLOADS
from tfpaint import METHODS, evaluate
ctx = WORKLOADS["compare_suite"].prepare({seed}, None)
kwargs = {kwargs}
if kwargs and "jobs" not in inspect.signature(evaluate.compare_methods).parameters:
    print(json.dumps(None))
    sys.exit()

def call():
    return evaluate.compare_methods(ctx["signals"], ctx["masks"], list(METHODS),
                                    scfg=ctx["scfg"], **kwargs)[0]

call()
walls = []
for _ in range({runs}):
    t0 = time.perf_counter()
    records = call()
    walls.append(time.perf_counter() - t0)
print(json.dumps({{"wall_s": walls,
                  "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "snr_db": [r.snr_db for r in records]}}))
"""

SETTINGS = {"default": {}, "jobs1": {"jobs": 1}}


def measure(src, setting, runs, seed):
    env = dict(os.environ, PYTHONPATH=src)
    code = MEASURE.format(perfbench=os.path.join(ROOT, "perfbench"), seed=seed,
                          kwargs=SETTINGS[setting], runs=runs)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(runs):
    walls = [w for r in runs for w in r["wall_s"]]
    return {"wall_s": walls, "wall_min_s": min(walls),
            "wall_median_s": statistics.median(walls),
            "maxrss_mib": min(r["maxrss_mib"] for r in runs),
            "snr_db": runs[0]["snr_db"],
            "snr_same_every_round": all(r["snr_db"] == runs[0]["snr_db"] for r in runs)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--before", required=True, help="src directory of the tree before the change")
    p.add_argument("--after", default=os.path.join(ROOT, "src"), help="src directory after it")
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--rounds", type=int, default=4, help="alternating rounds (default 4)")
    p.add_argument("--runs", type=int, default=3,
                   help="timed repeats per process (default 3)")
    p.add_argument("--seed", type=int, default=1, help="compare_suite input seed (default 1)")
    args = p.parse_args(argv)
    import numpy

    srcs = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    order = [(tag, setting) for tag in srcs for setting in SETTINGS]
    runs = {key: [] for key in order}
    for r in range(args.rounds):
        for tag, setting in order if r % 2 == 0 else order[::-1]:
            if r == 0 or runs[tag, setting]:  # a setting the tree lacks is asked once
                result = measure(srcs[tag], setting, args.runs, args.seed)
                if result is not None:
                    runs[tag, setting].append(result)
    trees = {tag: {"src_commit": git_commit(src),
                   **{s: summarize(runs[tag, s]) for s in SETTINGS if runs[tag, s]}}
             for tag, src in srcs.items()}
    results = [r for t in trees.values() for r in t.values() if isinstance(r, dict)]
    report = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "seed": args.seed,
        "rounds": args.rounds,
        "runs": args.runs,
        "snr_identical": all(r["snr_same_every_round"] and r["snr_db"] == results[0]["snr_db"]
                             for r in results),
        **trees,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for tag, tree in trees.items():
        for setting in SETTINGS:
            if setting in tree:
                r = tree[setting]
                print(f"{tag:>6} {setting:>7}: min {r['wall_min_s']:.3f} s, median "
                      f"{r['wall_median_s']:.3f} s, maxrss {r['maxrss_mib']:.1f} MiB")
    print(f"record SNRs identical: {report['snr_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

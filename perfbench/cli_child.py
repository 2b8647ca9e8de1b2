"""Run one ``tfpaint`` command with the benchmark's tracer installed.

    python3 perfbench/cli_child.py SUMMARY.json <tfpaint arguments...>

The CLI workload runs its traced invocation through this script so that
the spans are taken inside the process that runs the program.  It writes
the tracer's summary to SUMMARY.json (imports as the ``import.tfpaint``
span, the rest under the ``bench.child`` root) and exits with the
command's return code.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tfpaint.cli  # noqa: E402,F401

from tracer import Tracer  # noqa: E402


def main(argv):
    summary_path, args = argv[0], argv[1:]
    t_imported = time.perf_counter()
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("bench.child"):
            rc = tfpaint.cli.main(args)
    summary = tracer.summary()
    imports = t_imported - T_START
    for key, value in (("calls", 1), ("incl", imports), ("self", imports)):
        summary[key]["import.tfpaint"] = value
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

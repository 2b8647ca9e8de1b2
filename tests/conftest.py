"""Prints one PASS/FAIL line per acceptance criterion after the run, and
holds the fixtures that several test files share.

The criteria live in test_acceptance.py as test_criterion_NN_* functions;
everything else in tests/ is ordinary unit coverage and is not summarized.
"""

import concurrent.futures
import os

import pytest

ACCEPTANCE_LABELS = {
    1: "frame round-trip and energy preservation",
    2: "adjoint identities (analysis/synthesis, differences, rotation)",
    3: "operator norm bounds by power iteration",
    4: "proximal operators match brute-force minimization",
    5: "pure-tone annihilation by the phase-corrected prior",
    6: "end-to-end restoration quality and runtime",
    7: "lambda sweep peaks at the default setting",
    8: "method ordering on the synthetic suite",
    9: "feasibility and determinism",
    10: "early stopping on stationary inputs",
}


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools started while it is active.
    A pool started inside a pool worker fails the call that started it."""
    started, caller = [], os.getpid()

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            if os.getpid() != caller:
                raise AssertionError("a pool worker started a pool of its own")
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return started


@pytest.fixture
def diverging(monkeypatch):
    """Every dual step overflows to inf, so the next primal step is not
    finite and the solver's own divergence guard fires: with tau derived
    from sigma the steps sit on their bound, and no configuration diverges
    by itself.  Forked pool workers inherit the patch."""
    from tfpaint import solver

    def overflow(Q, *args):
        Q.fill(float("inf"))
        return Q

    monkeypatch.setattr(solver, "_dual_step", overflow)


def _criterion_of(nodeid):
    name = nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return None
    try:
        return int(name.split("_")[2])
    except (IndexError, ValueError):
        return None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tr = terminalreporter
    outcomes = {}
    for status, word in (("passed", "PASS"), ("failed", "FAIL"),
                         ("error", "FAIL"), ("skipped", "SKIPPED")):
        for rep in tr.stats.get(status, []):
            num = _criterion_of(getattr(rep, "nodeid", ""))
            if num is None:
                continue
            if outcomes.get(num) != "FAIL":
                outcomes[num] = word
    if not outcomes:
        return
    tr.ensure_newline()
    tr.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_LABELS):
        word = outcomes.get(num, "NOT RUN")
        tr.write_line(f"criterion {num:2d}: {word} - {ACCEPTANCE_LABELS[num]}")

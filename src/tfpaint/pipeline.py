"""End-to-end inpainting: masks, gap discovery, dispatch.

The driver groups the gaps of a mask into independent frame runs on the
full-length frame grid (``solver.frame_runs``), solves each run that moves
on its own sample span, normalized to unit peak there
(``solver.solve_observed``), restores each run that cannot move in closed
form (``solver._observe``), and writes the reconstructed gap columns back.
Reliable columns never pass through the solver, so they survive
bit-exactly.  The runs that take inner steps are solved in a pool of
forked processes.
"""

import math
import os
import threading
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .solver import (  # noqa: F401
    METHODS,
    SolverConfig,
    _frame_runs,
    _observe,
    _reliable,
    find_gaps,
    solve_observed,
)
from .stft import Spectrogram, StftConfig, _coeffs, _is_int


@dataclass(frozen=True)
class ColumnMask:
    """Which spectrogram columns were zeroed out.

    n_cols and zero_cols must be integers (a float or bool is rejected, not
    truncated; an integer array passes on its dtype); zero_cols is stored
    sorted and unique; everything else counts as reliable.
    """

    n_cols: int
    zero_cols: np.ndarray

    def __post_init__(self):
        if not _is_int(self.n_cols) or self.n_cols < 1:
            raise ValueError(f"n_cols must be an integer >= 1, not {self.n_cols!r}")
        cols = self.zero_cols
        if not np.issubdtype(getattr(cols, "dtype", object), np.integer):  # True is no column 1
            entries = np.asarray(cols, dtype=object).ravel()
            for c in filter(lambda c: not _is_int(c), entries):
                raise ValueError(f"zero_cols must be integers, not {c!r}")
            if not all(0 <= c < self.n_cols for c in entries):  # 10**30 overflows int64
                raise ValueError("zero_cols out of range")
        cols = np.unique(np.asarray(cols, dtype=int))
        if cols.size and (cols[0] < 0 or cols[-1] >= self.n_cols):
            raise ValueError("zero_cols out of range")
        object.__setattr__(self, "zero_cols", cols)

    @property
    def reliable_cols(self):
        keep = np.ones(self.n_cols, dtype=bool)
        keep[self.zero_cols] = False
        return np.flatnonzero(keep)


def make_mask(duration_s, sample_rate, hop, gap_cols, placement="per-second-center",
              seed=None, channels=StftConfig.channels):
    """One contiguous run of gap_cols zero columns per whole second.

    n_cols = floor(duration_s*sample_rate/hop) truncated down to a multiple
    of channels/gcd(channels, hop) (4 at the defaults 2048 and 512), so
    that the channels divide the signal length n_cols*hop.  Placement is
    either the central column of each second's span or a seeded uniform
    draw; either keeps one column clear at each edge of the span, so every
    gap sits inside its own second and no two gaps touch (``find_gaps``
    would merge them).
    """
    if not math.isfinite(duration_s) or duration_s < 1.0:
        raise ValueError(f"duration must be finite and at least one second, not {duration_s!r}")
    for name, n in (("hop", hop), ("gap_cols", gap_cols)):
        if not _is_int(n) or n < 1:
            raise ValueError(f"{name} must be an integer >= 1, not {n!r}")
    if placement not in ("per-second-center", "seeded-random"):
        raise ValueError(f"unknown placement {placement!r}")

    n_cols = int(duration_s * sample_rate) // hop
    n_cols -= n_cols % (channels // math.gcd(channels, hop))
    if n_cols < 1:
        raise ValueError("signal too short for even one spectrogram column")

    margin = 1
    rng = np.random.default_rng(seed)
    zeros = []
    for sec in range(int(duration_s)):
        lo = int(sec * sample_rate) // hop
        hi = min(int((sec + 1) * sample_rate) // hop, n_cols)
        span = hi - lo
        if gap_cols + 2 * margin > span:
            raise ValueError(
                f"gap of {gap_cols} columns plus its margins does not fit in a "
                f"{span}-column second"
            )
        if placement == "per-second-center":
            start = lo + (span - gap_cols) // 2
        else:
            start = int(rng.integers(lo + margin, hi - margin - gap_cols + 1))
        zeros.extend(range(start, start + gap_cols))
    return ColumnMask(n_cols, np.array(zeros, dtype=int))


def apply_mask(X, mask):
    """Zero the masked columns; reliable columns are copied bit-exactly."""
    data = _coeffs(X)
    if data.shape[1] != mask.n_cols:
        raise ValueError("mask length does not match spectrogram columns")
    out = data.copy()
    out[:, mask.zero_cols] = 0.0
    return Spectrogram(out, X.config) if isinstance(X, Spectrogram) else out


def _job_count(jobs):
    """jobs, checked, or by default the number of cores this process may
    run on."""
    if jobs is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity on this platform
            return os.cpu_count() or 1
    if not _is_int(jobs) or jobs < 1:
        raise ValueError(f"jobs must be None or an integer >= 1, not {jobs!r}")
    return int(jobs)


_WORK = None  # a pool worker's fn, inherited through fork


def _adopt(fn):
    global _WORK
    _WORK = fn


def _call(item):
    return _WORK(item)


def _fan_out(fn, items, jobs):
    """Yield fn(item) for every item, in item order.

    The calls run in a pool of min(jobs, len(items)) processes started with
    ``fork``, which inherit fn, so fn may be a closure: only items and
    results are pickled, and a result is not held here once yielded.  They
    run in this process instead with jobs=1, fewer than two items, no
    ``os.fork``, or other threads running (fork copies only the calling
    thread, so a worker could inherit a lock held).  A worker's exception is
    raised here.  Closing the generator stops the pool.
    """
    if jobs < 2 or len(items) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        for item in items:
            yield fn(item)
        return
    # imported here: they would add about 18 ms to a 28 ms package import
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(min(jobs, len(items)), get_context("fork"),
                               initializer=_adopt, initargs=(fn,))
    try:
        yield from pool.map(_call, items)
    finally:
        pool.shutdown(cancel_futures=True)


def inpaint_spectrogram(X_corr, mask, method="uphain", scfg=None, x_true=None,
                        jobs=None, return_info=False, trace=False):
    """Reconstruct every gap of a spectrogram, run by run, whatever its gap columns hold.

    x_true (time-domain ground truth) is required by method
    "bphain_oracle" only.  jobs (None or an integer >= 1) caps the worker
    processes; None means the cores this process may run on.  Runs that
    take inner steps (those with a moving frame, whatever the method) are
    solved in a pool of that many processes started with ``fork``, which
    inherit the set-up runs instead of receiving them; the rest are solved
    in this process.  No pool is started with jobs=1, with fewer than two
    runs to step, or in a process that runs other threads (where fork is
    unsafe).  Results are written back in run order, so the output is
    identical for any job count.  info["gaps"] lists the runs
    (``solver.FrameRun``) and info["outer_iters_used"] the outer rounds of
    each.  With trace=True (which needs return_info=True), info["trace"]
    lists each run's (objective, feasibility) rows, one per inner iteration
    (``solver.solve_observed``).
    """
    jobs = _job_count(jobs)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
    if scfg is None:
        scfg = SolverConfig()
    if method == "bphain_oracle":
        if x_true is None:
            raise ValueError("method 'bphain_oracle' requires x_true")
        x_true = np.asarray(x_true, dtype=float)
        if x_true.shape != (X_corr.config.signal_len,):
            raise ValueError("x_true length does not match the spectrogram config")
    cfg = X_corr.config
    if X_corr.data.shape != (cfg.channels, cfg.n_frames):
        raise ValueError(f"coefficients of shape {X_corr.data.shape} do not match their "
                         f"config's ({cfg.channels}, {cfg.n_frames})")
    if X_corr.data.shape[1] != mask.n_cols:
        raise ValueError("mask length does not match spectrogram columns")
    if trace and not return_info:
        raise ValueError("trace=True needs return_info=True: the rows come back in info")

    reliable = _reliable(mask.zero_cols, cfg.n_frames)
    runs = _frame_runs(reliable, cfg)
    observed = [_observe(X_corr, reliable, run) for run in runs]
    solve = lambda i: solve_observed(observed[i], scfg, method, x_true, trace)
    stepping = [i for i, run in enumerate(runs) if run.moves]

    # the stepping runs go to the pool; the rest are solved here meanwhile
    with closing(_fan_out(solve, stepping, jobs)) as stepped:
        results = [next(stepped) if run.moves else solve(i) for i, run in enumerate(runs)]

    out = X_corr.data.copy()
    for cols, values, _ in results:
        out[:, cols] = values
    result = Spectrogram(out, X_corr.config)
    info = {"gaps": runs, "outer_iters_used": [sub["outer_iters_used"] for *_, sub in results]}
    if trace:
        info["trace"] = [sub["trace"] for *_, sub in results]
    return (result, info) if return_info else result

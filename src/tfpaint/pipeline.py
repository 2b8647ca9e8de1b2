"""End-to-end inpainting: masks, gap discovery, dispatch.

The driver groups the gaps of a mask into independent frame runs on the
full-length frame grid (``solver.frame_runs``), solves each run on its own
sample span, normalized to unit peak there (``solver.solve_run``), and
writes the reconstructed gap columns back.  Reliable columns never pass
through the solver, so they survive bit-exactly.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .solver import METHODS, SolverConfig, find_gaps, frame_runs, solve_run  # noqa: F401
from .stft import Spectrogram


@dataclass(frozen=True)
class ColumnMask:
    """Which spectrogram columns were zeroed out.

    zero_cols is stored sorted and unique; everything else counts as
    reliable.
    """

    n_cols: int
    zero_cols: np.ndarray

    def __post_init__(self):
        if self.n_cols < 1:
            raise ValueError("n_cols must be positive")
        cols = np.unique(np.asarray(self.zero_cols, dtype=int))
        if cols.size and (cols[0] < 0 or cols[-1] >= self.n_cols):
            raise ValueError("zero_cols out of range")
        object.__setattr__(self, "zero_cols", cols)

    @property
    def reliable_cols(self):
        keep = np.ones(self.n_cols, dtype=bool)
        keep[self.zero_cols] = False
        return np.flatnonzero(keep)


def make_mask(duration_s, sample_rate, hop, gap_cols, placement="per-second-center",
              seed=None, cols_multiple=4):
    """One contiguous run of gap_cols zero columns per whole second.

    n_cols = floor(duration_s*sample_rate/hop) truncated down to a multiple
    of cols_multiple, so that channels = cols_multiple*hop (the default
    2048 at hop 512) divide the signal length.  Placement is either the
    central column of each second's span or a seeded uniform draw; either
    keeps one column clear at each edge of the span, so every gap sits
    inside its own second and no two gaps touch (``find_gaps`` would merge
    them).
    """
    if duration_s < 1.0:
        raise ValueError("duration must be at least one second")
    if gap_cols < 1:
        raise ValueError("gap_cols must be positive")
    if placement not in ("per-second-center", "seeded-random"):
        raise ValueError(f"unknown placement {placement!r}")

    n_cols = int(duration_s * sample_rate) // hop
    n_cols -= n_cols % cols_multiple
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
    data = X.data if isinstance(X, Spectrogram) else np.asarray(X)
    if data.shape[1] != mask.n_cols:
        raise ValueError("mask length does not match spectrogram columns")
    out = data.copy()
    out[:, mask.zero_cols] = 0.0
    if isinstance(X, Spectrogram):
        return Spectrogram(out, X.config)
    return out


def inpaint_spectrogram(X_corr, mask, method="uphain", scfg=None, x_true=None,
                        jobs=1, return_info=False, trace=None):
    """Reconstruct every gap of a corrupted spectrogram, run by run.

    x_true (time-domain ground truth) is required by method
    "bphain_oracle" only.  jobs > 1 solves the frame runs in a thread pool;
    results are written back in run order either way, so the output is
    identical for any job count.  trace, if given, is called with
    (gap, iteration, objective, feasibility) for every inner iteration of
    every run (concurrently when jobs > 1); gap is the run's first gap.
    info["gaps"] lists the runs (``solver.FrameRun``) and
    info["outer_iters_used"] the outer rounds of each.
    """
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
    if X_corr.data.shape[1] != mask.n_cols:
        raise ValueError("mask length does not match spectrogram columns")

    runs = frame_runs(mask.zero_cols, X_corr.config)

    def solve(run):
        cb = None if trace is None else lambda i, obj, feas: trace(run.gaps[0], i, obj, feas)
        return solve_run(X_corr, mask.zero_cols, run, scfg, method, x_true, trace=cb)

    with ThreadPoolExecutor(max_workers=max(jobs or 1, 1)) as pool:
        results = list(pool.map(solve, runs))

    out = X_corr.data.copy()
    for cols, values, _ in results:
        out[:, cols] = values
    result = Spectrogram(out, X_corr.config)
    info = {"gaps": runs, "outer_iters_used": [sub["outer_iters_used"] for *_, sub in results]}
    return (result, info) if return_info else result

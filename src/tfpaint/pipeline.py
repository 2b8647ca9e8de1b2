"""End-to-end inpainting: masks, gap discovery, segment handling, dispatch.

The driver cuts one aligned segment out of the corrupted spectrogram per gap,
peak-normalizes it, hands it to the requested solver, undoes the
normalization and writes the reconstructed gap columns back.  Reliable
columns never pass through the solver, so they survive bit-exactly.

Segment alignment: both the starting column and the column count of every
segment are multiples of window_len/hop.  That makes the segment's absolute
sample offset a multiple of the FFT length, so the frequency-invariant phase
convention of the extracted columns matches a fresh analysis of the extracted
samples and solutions can be transplanted back without phase surgery.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .solver import SolverConfig, bphain_tf, cpa_tf_only, uphain_tf
from .stft import Spectrogram, StftConfig, default_window, synthesize

# solvers are looked up by name at call time, so patching the module names works
_SOLVERS = {
    "uphain": lambda X, mask, scfg, x_true, **kw: uphain_tf(X, mask, scfg, **kw),
    "bphain": lambda X, mask, scfg, x_true, **kw: bphain_tf(X, mask, scfg, **kw),
    "bphain_oracle": lambda X, mask, scfg, x_true, **kw: bphain_tf(
        X, mask, scfg, omega_source="oracle", x_true=x_true, **kw),
    "tf_only": lambda X, mask, scfg, x_true, **kw: cpa_tf_only(X, mask, scfg, **kw),
}
METHODS = tuple(_SOLVERS)


class ContextError(ValueError):
    """A gap does not leave enough reliable context for a valid segment."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


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


@dataclass
class GapSegment:
    """One gap plus the aligned context extracted around it."""

    gap_cols: range
    segment_cols: tuple  # (start, length) in full-spectrogram columns
    peak: float
    local_mask: ColumnMask


def make_mask(duration_s, sample_rate, hop, gap_cols, placement="per-second-center",
              seed=None, pad=4, cols_multiple=4):
    """One contiguous run of gap_cols zero columns per whole second.

    n_cols = floor(duration_s*sample_rate/hop) truncated down to a multiple
    of cols_multiple (the segment alignment quantum, window_len/hop).
    Placement is either the central column of each second's span or a
    seeded uniform draw that keeps pad+cols_multiple columns clear of the
    span edges so every gap's segment stays inside its own second.
    """
    if duration_s < 1.0:
        raise ValueError("duration must be at least one second")
    if not 1 <= gap_cols <= 6:
        raise ValueError("gap_cols must lie in 1..6")
    if placement not in ("per-second-center", "seeded-random"):
        raise ValueError(f"unknown placement {placement!r}")

    n_cols = int(duration_s * sample_rate) // hop
    n_cols -= n_cols % cols_multiple
    if n_cols < 1:
        raise ValueError("signal too short for even one spectrogram column")

    margin = pad + cols_multiple
    rng = np.random.default_rng(seed)
    zeros = []
    for sec in range(int(duration_s)):
        lo = int(sec * sample_rate) // hop
        hi = min(int((sec + 1) * sample_rate) // hop, n_cols)
        span = hi - lo
        if gap_cols + 2 * margin > span:
            raise ValueError(
                f"gap of {gap_cols} columns plus context does not fit in a "
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


def find_gaps(mask):
    """Maximal runs of consecutive zero columns, ascending, as ranges."""
    cols = mask.zero_cols if isinstance(mask, ColumnMask) else np.unique(np.asarray(mask, int))
    if cols.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(cols) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [cols.size - 1]))
    return [range(int(cols[s]), int(cols[e]) + 1) for s, e in zip(starts, ends)]


def extract_segment(X_corr, gap, pad, cfg):
    """Smallest aligned segment containing the gap plus pad on both sides.

    Returns (GapSegment, segment Spectrogram).  The segment start and length
    in columns are the unique minimal values that are multiples of
    window_len/hop and cover [gap.start - pad, gap.stop + pad).
    """
    if cfg.window_len % cfg.hop != 0:
        raise ValueError("segment alignment requires hop to divide window_len")
    q = cfg.window_len // cfg.hop
    n_cols = X_corr.data.shape[1]
    if pad < 1:
        raise ValueError("pad must be at least 1")
    if gap.start - pad < 0:
        raise ContextError(
            f"gap at columns {gap.start}..{gap.stop - 1} has no room for "
            f"{pad} context columns on the left",
            gap=gap,
        )
    if gap.stop + pad > n_cols:
        raise ContextError(
            f"gap at columns {gap.start}..{gap.stop - 1} has no room for "
            f"{pad} context columns on the right",
            gap=gap,
        )
    s = q * ((gap.start - pad) // q)
    seg_len = q * (-((s - gap.stop - pad) // q))  # ceil((gap.stop+pad-s)/q) * q
    if s + seg_len > n_cols:
        raise ContextError(
            f"aligned segment for gap {gap.start}..{gap.stop - 1} overruns "
            f"the spectrogram ({s + seg_len} > {n_cols} columns)",
            gap=gap,
        )
    assert s % q == 0 and seg_len % q == 0

    seg_cfg = StftConfig(
        window_len=cfg.window_len,
        hop=cfg.hop,
        channels=cfg.channels,
        signal_len=seg_len * cfg.hop,
    )
    seg = Spectrogram(np.array(X_corr.data[:, s : s + seg_len]), seg_cfg)
    local = ColumnMask(seg_len, np.arange(gap.start - s, gap.stop - s))
    return GapSegment(gap, (s, seg_len), _peak(seg), local), seg


def _peak(segment):
    """Peak magnitude of the synthesized segment; 1 for a silent one."""
    cfg = segment.config
    return float(np.max(np.abs(synthesize(segment, default_window(cfg), cfg)))) or 1.0


def peak_normalize(segment):
    """Scale so the synthesized segment peaks at 1; returns (scaled, peak).

    An all-zero segment is returned unchanged (as a copy) with peak 1.
    """
    peak = _peak(segment)
    return Spectrogram(segment.data / peak, segment.config), peak


def _solve_segment(seg, gap_seg, method, scfg, x_true_seg, trace=None):
    peak = gap_seg.peak  # measured by extract_segment; 1 for a silent segment
    norm = Spectrogram(seg.data / peak, seg.config)
    out, info = _SOLVERS[method](norm, gap_seg.local_mask, scfg, x_true_seg,
                                 trace=trace, return_info=True)
    return out.data * peak, info


def inpaint_spectrogram(X_corr, mask, method="uphain", scfg=None, pad=4,
                        x_true=None, jobs=1, return_info=False, trace=None):
    """Reconstruct every gap of a corrupted spectrogram independently.

    x_true (time-domain ground truth) is required by method
    "bphain_oracle" only.  jobs > 1 solves gaps in a thread pool; results
    are written back in gap order either way, so the output is identical
    for any job count.  trace, if given, is called with
    (gap, iteration, objective, feasibility) for every inner iteration of
    every gap (concurrently when jobs > 1).
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

    cfg = X_corr.config
    if X_corr.data.shape[1] != mask.n_cols:
        raise ValueError("mask length does not match spectrogram columns")
    gaps = find_gaps(mask)
    out = X_corr.data.copy()
    info = {"gaps": [], "outer_iters_used": []}
    if not gaps:
        result = Spectrogram(out, cfg)
        return (result, info) if return_info else result

    zero_set = set(int(c) for c in mask.zero_cols)
    tasks = []
    for gap in gaps:
        gap_seg, seg = extract_segment(X_corr, gap, pad, cfg)
        s, seg_len = gap_seg.segment_cols
        foreign = [
            c for c in range(s, s + seg_len) if c in zero_set and c not in gap
        ]
        if foreign:
            raise ContextError(
                f"segment for gap {gap.start}..{gap.stop - 1} overlaps other "
                f"masked columns {foreign}",
                gap=gap,
            )
        x_true_seg = None
        if x_true is not None:
            x_true_seg = x_true[s * cfg.hop : (s + seg_len) * cfg.hop]
        tasks.append((gap, gap_seg, seg, x_true_seg))

    def run(task):
        gap, gap_seg, seg, xt = task
        cb = None
        if trace is not None:
            cb = lambda i, obj, feas, _g=gap: trace(_g, i, obj, feas)
        solved, sub = _solve_segment(seg, gap_seg, method, scfg, xt, trace=cb)
        return gap, gap_seg, solved, sub

    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(t) for t in tasks]

    for gap, gap_seg, solved, sub in results:
        s, _ = gap_seg.segment_cols
        local = np.arange(gap.start - s, gap.stop - s)
        out[:, gap.start : gap.stop] = solved[:, local]
        info["gaps"].append(gap_seg)
        info["outer_iters_used"].append(sub["outer_iters_used"])

    result = Spectrogram(out, cfg)
    return (result, info) if return_info else result

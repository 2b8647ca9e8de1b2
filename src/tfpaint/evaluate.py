"""Objective metrics, synthetic test signals, and evaluation harnesses."""

import dataclasses
import math
import time
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .pipeline import METHODS, _fan_out, _job_count, find_gaps, inpaint_spectrogram
from .solver import SolverConfig
from .stft import StftConfig, analyze, default_window, synthesize


@dataclass(frozen=True)
class EvalRecord:
    """One evaluation result row.

    The fields are the method, the gap length in columns (mask_gap_cols),
    the signal's id, the restoration's SNR, the solve's runtime_s, the
    regularization weight and the inner-iteration budget.  lambda is a
    reserved word, so the field is lambda_; file emission uses the plain
    name.  runtime_s is the wall time of the solve (``inpaint_spectrogram``),
    measured in the process that solved the record, and therefore the one
    field that is not reproducible bit-for-bit.
    """

    method: str
    mask_gap_cols: int
    signal_id: str
    snr_db: float
    runtime_s: float
    lambda_: float
    iters_inner: int


def snr(x_ref, x_test):
    """10 log10 of reference energy over error energy, in dB.

    Identical inputs return +inf.  Scaling both inputs by the same nonzero
    constant leaves the value unchanged.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    x_test = np.asarray(x_test, dtype=float)
    if x_ref.shape != x_test.shape:
        raise ValueError("signals must have equal length")
    ref = float(np.sum(x_ref * x_ref))
    if ref == 0.0:
        raise ValueError("reference signal is identically zero")
    diff = x_ref - x_test
    err = float(np.sum(diff * diff))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(ref / err)


def _sweep(phase):
    return 0.9 * np.sin(2.0 * np.pi * phase)


def make_test_signal(kind, duration_s=5.0, sample_rate=16000, *, f=440.0,
                     delta_bins=0.0, k=3, f0=440.0, f1=880.0, seed=0):
    """Deterministic synthetic signal of one of four kinds.

    tone       sinusoid placed delta_bins away from the nearest analysis bin
               of a StftConfig.channels transform (delta 0 = exact bin center)
    multitone  k random tones, seeded amplitudes/frequencies/phases
    chirp      linear frequency ramp f0 -> f1 (f0 = f1 reduces to a tone)
    noise      seeded white noise

    All kinds peak at 0.9 or just below.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration_s * sample_rate))
    if n < 1:
        raise ValueError("no samples in the requested duration")
    t = np.arange(n) / float(sample_rate)

    if kind == "tone":
        bin_idx = round(f * StftConfig.channels / sample_rate)
        f_exact = (bin_idx + delta_bins) * sample_rate / StftConfig.channels
        if not 0.0 < f_exact < sample_rate / 2.0:
            raise ValueError("tone frequency must lie below Nyquist")
        return _sweep(f_exact * t)
    if kind == "chirp":
        if not (0.0 < f0 < sample_rate / 2.0 and 0.0 < f1 < sample_rate / 2.0):
            raise ValueError("chirp endpoints must lie below Nyquist")
        rate = (f1 - f0) / (2.0 * duration_s)
        return _sweep(f0 * t + rate * t * t)
    if kind == "multitone":
        if k < 1:
            raise ValueError("need at least one tone")
        rng = np.random.default_rng(seed)
        freqs = rng.uniform(200.0, 3000.0, k)
        amps = rng.uniform(0.5, 1.0, k)
        phases = rng.uniform(0.0, 2.0 * np.pi, k)
        x = sum(a * np.sin(2.0 * np.pi * fq * t + p)
                for a, fq, p in zip(amps, freqs, phases))
        return 0.9 * (x / np.max(np.abs(x)))
    if kind == "noise":
        x = np.random.default_rng(seed).standard_normal(n)
        return 0.9 * (x / np.max(np.abs(x)))
    raise ValueError(f"unknown signal kind {kind!r}")


def synthetic_suite(duration_s=5.0, sample_rate=16000, seed=0,
                    kinds=("multitone", "chirp", "tone")):
    """The fixed evaluation corpus: 10 multitones, 10 chirps, 4 tones.

    Returns [(signal_id, samples)].  Multitones are the stationary regime
    the variation prior models exactly; chirps move and exercise the
    frequency re-estimation; tones cover exact- and fractional-bin offsets.
    """
    if not kinds or not set(kinds) <= {"multitone", "chirp", "tone"}:
        raise ValueError(f"kinds must name one or more of multitone, chirp, tone; not {kinds!r}")
    out = []
    if "multitone" in kinds:
        for i in range(10):
            out.append((f"multitone-{i:02d}",
                        make_test_signal("multitone", duration_s, sample_rate,
                                         k=3, seed=seed + i)))
    if "chirp" in kinds:
        rng = np.random.default_rng(seed + 100)
        for i in range(10):
            a = float(rng.uniform(300.0, 1500.0))
            b = float(rng.uniform(1800.0, 3500.0))
            out.append((f"chirp-{i:02d}",
                        make_test_signal("chirp", duration_s, sample_rate,
                                         f0=a, f1=b)))
    if "tone" in kinds:
        for i, (fq, d) in enumerate(
            [(440.0, 0.0), (554.37, 0.25), (880.0, -0.4), (1244.5, 0.5)]
        ):
            out.append((f"tone-{i:02d}",
                        make_test_signal("tone", duration_s, sample_rate,
                                         f=fq, delta_bins=d)))
    return out


DEFAULT_LAMBDA_GRID = tuple(np.logspace(-7, 2, 10))


def _span(x, mask, hop):
    n = mask.n_cols * hop
    if len(x) < n:
        raise ValueError("signal shorter than the mask span")
    return np.asarray(x, dtype=float)[:n]


def _records(signals, cells, window_len, hop, channels, jobs):
    """One EvalRecord per (method, scfg, mask) cell and signal, cell-major.

    Several restorations run in a pool of jobs forked processes
    (``pipeline._fan_out``), each solving its frame runs in-process; a
    single one gets the jobs for its runs instead.  The workers inherit the
    signals with the ``restore`` closure.  The SNR is taken here, as each
    restoration arrives, so only one is held at a time.
    """
    jobs = _job_count(jobs)
    if not signals:
        raise ValueError("no signals")
    # an unknown method or a short signal fails here, before any solve
    for method, _, mask in cells:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
        for _, x in signals:
            _span(x, mask, hop)
    items = [(method, scfg, mask, s) for method, scfg, mask in cells for s in range(len(signals))]

    def restore(record):
        """Restore record (method, scfg, mask, signal index): analysis,
        inpainting, synthesis.  Returns (the restored signal, the solve's
        wall time)."""
        method, scfg, mask, s = record
        x = _span(signals[s][1], mask, hop)
        cfg = StftConfig(window_len=window_len, hop=hop, channels=channels, signal_len=len(x))
        X = analyze(x, default_window(cfg), cfg)
        t0 = time.perf_counter()
        rec = inpaint_spectrogram(
            X, mask, method=method, scfg=scfg, x_true=x if method == "bphain_oracle" else None,
            jobs=jobs if len(items) == 1 else 1)
        dt = time.perf_counter() - t0
        return synthesize(rec, default_window(cfg), cfg), dt

    with closing(_fan_out(restore, items, jobs)) as restored:
        return [EvalRecord(
            method=method,
            mask_gap_cols=_gap_len(mask),
            signal_id=signals[s][0],
            snr_db=snr(_span(signals[s][1], mask, hop), x_hat),
            runtime_s=dt,
            lambda_=scfg.lam,
            iters_inner=scfg.inner_iters,
        ) for (method, scfg, mask, s), (x_hat, dt) in zip(items, restored)]


def _gap_len(mask):
    gaps = find_gaps(mask)
    return len(gaps[0]) if gaps else 0


def _mean_records(records, n):
    """Each cell's n records (one per signal, as ``_records`` lists them)
    as one: snr_db and runtime_s are means over the signals."""
    return [dataclasses.replace(
        group[0],
        signal_id=f"mean({n})",
        snr_db=float(np.mean([r.snr_db for r in group])),
        runtime_s=float(np.mean([r.runtime_s for r in group])),
    ) for group in (records[k:k + n] for k in range(0, len(records), n))]


def _per_value(signals, mask, field, grid, scfg, method, window_len, hop, channels, jobs):
    """One mean record (``_mean_records``) per value in grid of the
    SolverConfig field, set in scfg (default ``SolverConfig()``)."""
    if not grid:
        raise ValueError(f"empty {field} grid")
    if scfg is None:
        scfg = SolverConfig()
    signals = list(signals)
    cells = [(method, dataclasses.replace(scfg, **{field: value}), mask) for value in grid]
    return _mean_records(_records(signals, cells, window_len, hop, channels, jobs), len(signals))


def sweep_lambda(signals, mask, lambda_grid=DEFAULT_LAMBDA_GRID, scfg=None,
                 method="uphain", window_len=StftConfig.window_len, hop=StftConfig.hop,
                 channels=StftConfig.channels, jobs=None):
    """Mean reconstruction SNR per regularization weight.

    signals is [(signal_id, samples)].  One record per grid value: snr_db
    and runtime_s are means over the signals.  jobs is
    ``inpaint_spectrogram``'s: the (value, signal) restorations run in a
    pool of that many processes.
    """
    return _per_value(signals, mask, "lam", [float(lam) for lam in lambda_grid], scfg,
                      method, window_len, hop, channels, jobs)


def sweep_iterations(signals, mask, inner_grid, scfg=None, method="uphain",
                     window_len=StftConfig.window_len, hop=StftConfig.hop,
                     channels=StftConfig.channels, jobs=None):
    """Mean reconstruction SNR per inner-iteration budget, as ``sweep_lambda``."""
    return _per_value(signals, mask, "inner_iters", [int(i) for i in inner_grid], scfg,
                      method, window_len, hop, channels, jobs)


def compare_methods(signals, masks, methods, scfg=None, window_len=StftConfig.window_len,
                    hop=StftConfig.hop, channels=StftConfig.channels, jobs=None):
    """Every method on every (signal, mask); returns (records, summary).

    records has one EvalRecord per run.  summary has one dict per
    (method, gap length) with the mean SNR over the signals — the table
    the ordering claims are judged on.  jobs is ``inpaint_spectrogram``'s:
    the records are restored in a pool of that many processes, and
    everything but runtime_s is the same for any job count.
    """
    if scfg is None:
        scfg = SolverConfig()
    signals = list(signals)
    records = _records(signals, [(method, scfg, mask) for method in methods for mask in masks],
                       window_len, hop, channels, jobs)
    summary = [{
        "method": mean.method,
        "gap_cols": mean.mask_gap_cols,
        "mean_snr_db": mean.snr_db,
        "signals": len(signals),
    } for mean in _mean_records(records, len(signals))]
    return records, summary

"""Command-line front end: file formats, argument parsing, dispatch."""

import argparse
import csv
import json
import math
import os
import sys
import wave

import numpy as np

from .evaluate import (
    DEFAULT_LAMBDA_GRID,
    compare_methods,
    snr,
    sweep_lambda,
    synthetic_suite,
)
from .pipeline import (METHODS, ColumnMask, apply_mask, find_gaps,
                       inpaint_spectrogram, make_mask)
from .prox import Thresholder
from .solver import DivergenceError, SolverConfig
from .stft import (Spectrogram, StftConfig, _is_int, analyze, default_window, symmetry_residual,
                   synthesize)

SPGM_MAGIC = b"SPGM1"
CSV_HEADER = ["method", "gap_cols", "signal", "snr_db", "runtime_s", "lambda"]
THRESHOLDS = {
    "soft": "soft",
    "pshrink": "p_shrinkage",
    "smoothhard": "smooth_hard",
    "l2": "l2_block",
    "l2sq": "l2_squared",
}
METHOD_NAMES = [m.replace("_", "-") for m in METHODS]  # as the options spell them


# ------------------------------------------------------------- file formats


def _ensure_writable(force, *paths):
    """Refuse existing, unplaceable or repeated outputs (empty paths skipped): each command
    calls this once, before any work; its writers open them exclusively unless forced."""
    paths = [p for p in paths if p]
    if len({os.path.realpath(p) for p in paths}) < len(paths):
        raise ValueError(f"two outputs share one path: {', '.join(paths)}")
    for path in paths:
        if os.path.isdir(path):  # --force replaces a file, never a directory
            raise ValueError(f"{path} is a directory")
        if os.path.exists(path) and not force:
            raise ValueError(f"{path} exists; pass --force to overwrite")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"{folder}: no such directory")


def read_wav(path):
    """16-bit PCM mono -> (rate, float samples in [-1, 1))."""
    with open(path, "rb") as fh:
        try:
            with wave.open(fh) as wav:
                channels, width, rate = wav.getnchannels(), wav.getsampwidth(), wav.getframerate()
                n = wav.getnframes()
                raw = wav.readframes(n)
        except (wave.Error, EOFError) as e:
            raise ValueError(f"{path}: not a readable PCM WAV file ({str(e) or 'cut short'})")
    if channels != 1:
        raise ValueError(f"{path}: mono audio required")
    if width != 2:
        raise ValueError(f"{path}: 16-bit PCM required, got {8 * width}-bit")
    if len(raw) != n * width:
        raise ValueError(f"{path}: truncated sample data")
    if rate != 16000:
        print(f"warning: {path}: {rate} Hz (presets assume 16 kHz)",
              file=sys.stderr)
    return rate, np.frombuffer(raw, dtype="<i2") / 32768.0


def write_wav(path, rate, x, force=False):
    """Float samples -> 16-bit PCM mono, rounded and clipped."""
    q = np.clip(np.round(np.asarray(x) * 32768.0), -32768, 32767)
    with open(path, "wb" if force else "xb") as fh, wave.open(fh, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(int(rate))
        wav.writeframes(q.astype("<i2").tobytes())


def read_mask(path):
    with open(path) as fh:
        d = json.load(fh)
    try:
        n_cols, hop, zeros = d["n_cols"], d["hop"], list(d["zero_cols"])
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path}: malformed mask file ({e})")
    if not _is_int(hop) or hop < 1:  # "512" is no hop
        raise ValueError(f"{path}: hop must be an integer >= 1, not {hop!r}")
    try:
        return ColumnMask(n_cols, zeros), hop
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def write_mask(path, mask, hop, force=False):
    payload = {
        "n_cols": int(mask.n_cols),
        "hop": int(hop),
        "zero_cols": [int(c) for c in mask.zero_cols],
    }
    with open(path, "w" if force else "x") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_spectrogram(path, X, force=False):
    """magic, u32 LE M N hop window_len, then M*N little-endian c16 values."""
    M, N = X.data.shape
    with open(path, "wb" if force else "xb") as fh:
        fh.write(SPGM_MAGIC)
        fh.write(np.array([M, N, X.config.hop, X.config.window_len],
                          dtype="<u4").tobytes())
        # the array's own buffer; only a non-contiguous or big-endian one is copied
        np.ascontiguousarray(X.data, dtype="<c16").tofile(fh)


def read_spectrogram(path):
    """Inverse of write_spectrogram; the coefficients are read straight into
    the returned array."""
    with open(path, "rb") as fh:
        head = fh.read(21)
        if head[: len(SPGM_MAGIC)] != SPGM_MAGIC:
            raise ValueError(f"{path}: not a spectrogram file")
        if len(head) != 21:
            raise ValueError(f"{path}: truncated header")
        M, N, hop, window_len = (int(v) for v in np.frombuffer(head[5:], dtype="<u4"))
        size = os.fstat(fh.fileno()).st_size - len(head)
        data = np.empty((M, N), dtype="<c16") if size == 16 * M * N else None
        if data is None or fh.readinto(data) != size:
            extra = f" and {size % 16} byte(s)" if size % 16 else ""
            raise ValueError(f"{path}: expected {M * N} coefficients, found {size // 16}{extra}")
    bad = data.size - int(np.count_nonzero(np.isfinite(data)))
    if bad:
        raise ValueError(f"{path}: {bad} coefficient(s) are NaN or infinite")
    return Spectrogram(data, StftConfig(window_len, hop, M, N * hop))


def record_row(r):
    return {
        "method": r.method,
        "gap_cols": r.mask_gap_cols,
        "signal": r.signal_id,
        "snr_db": r.snr_db,
        "runtime_s": r.runtime_s,
        "lambda": r.lambda_,
    }


def write_results(csv_path, json_path, records, summary=None, force=False):
    rows = [record_row(r) for r in records]
    if csv_path:
        with open(csv_path, "w" if force else "x", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=CSV_HEADER)
            w.writeheader()
            w.writerows(rows)
    if json_path:
        payload = {"records": rows}
        if summary is not None:
            payload["summary"] = summary
        with open(json_path, "w" if force else "x") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


# ----------------------------------------------------------------- helpers


def solver_config(args):
    th = Thresholder(THRESHOLDS[args.threshold], p=args.p, alpha=args.alpha)
    return SolverConfig(lam=args.lam, inner_iters=args.inner,
                        outer_iters=args.outer, epsilon=args.eps,
                        thresholder=th)


def _jobs(flag):
    """--jobs, else None (``inpaint_spectrogram``'s default: the available
    cores); a job count must be an integer >= 1."""
    if flag is not None and flag < 1:
        raise ValueError(f"--jobs must be an integer >= 1, not {flag!r}")
    return flag


def _frame(args):
    """(window length, channels): --window and --channels, or StftConfig's
    where a flag was not given (its None default tells the two apart)."""
    return (StftConfig.window_len if args.window is None else args.window,
            StftConfig.channels if args.channels is None else args.channels)


def _wav_analysis(path, mask, hop, args):
    """(rate, the analysis of the WAV at path over the mask's span)."""
    rate, x = read_wav(path)
    n = mask.n_cols * hop
    if len(x) < n:
        raise ValueError(f"{path}: audio shorter than the mask span "
                         f"({len(x)} < {n} samples)")
    if len(x) > n:
        print(f"warning: {path}: truncating to {n} samples to match the mask",
              file=sys.stderr)
    window, channels = _frame(args)
    cfg = StftConfig(window, hop, channels, n)
    return rate, analyze(x[:n], default_window(cfg), cfg)


# ---------------------------------------------------------------- commands


def cmd_make_mask(args):
    _ensure_writable(args.force, args.out)
    mask = make_mask(args.seconds, args.sr, args.hop, args.gap_cols,
                     placement=args.placement, seed=args.seed)
    write_mask(args.out, mask, args.hop, args.force)
    print(f"{mask.n_cols} columns, {len(mask.zero_cols)} zeroed -> {args.out}")
    return 0


def cmd_corrupt(args):
    _ensure_writable(args.force, args.out, args.spec_out)
    mask, hop = read_mask(args.mask)
    rate, Xc = _wav_analysis(args.infile, mask, hop, args)
    Xc = apply_mask(Xc, mask)
    write_wav(args.out, rate, synthesize(Xc, default_window(Xc.config), Xc.config),
              args.force)
    if args.spec_out:
        write_spectrogram(args.spec_out, Xc, args.force)
    print(f"zeroed {len(mask.zero_cols)} columns -> {args.out}")
    return 0


def cmd_inpaint(args):
    jobs = _jobs(args.jobs)
    if not 0 < args.sr < 2**31:  # a 16-bit WAV header holds 2*rate in 32 bits
        raise ValueError(f"--sr must be a positive integer below 2**31, not {args.sr}")
    _ensure_writable(args.force, args.out, args.spec_out, args.trace)
    mask, hop = read_mask(args.mask)
    if args.infile.lower().endswith(".wav"):  # .wav in any case; anything else is .spgm
        rate, Xc = _wav_analysis(args.infile, mask, hop, args)
    else:
        rate = args.sr
        Xc = read_spectrogram(args.infile)
        # the header sets the frame: a flag that says otherwise would not take effect
        for flag, given, held in (("--window", args.window, Xc.config.window_len),
                                  ("--channels", args.channels, Xc.config.channels)):
            if given is not None and given != held:
                raise ValueError(f"{flag} {given} does not match the {held} of the "
                                 f"{args.infile} header")
        # the solver restores real audio: it would silently drop the part of
        # the coefficients that no real signal has
        residual = symmetry_residual(Xc)
        if residual > 1e-6:
            raise ValueError(f"{args.infile}: coefficients are not conjugate-symmetric "
                             f"(residual {residual:.1e} > 1e-6); not from real audio")
        if Xc.config.hop != hop:
            raise ValueError("mask hop does not match the spectrogram hop")

    method = args.method.replace("-", "_")
    x_true = None
    if method == "bphain_oracle":
        if not args.truth:
            raise ValueError("--truth is required for method bphain-oracle")
        truth_rate, xt = read_wav(args.truth)
        if truth_rate != rate:
            raise ValueError(f"--truth is {truth_rate} Hz, the restoration {rate} Hz")
        n = Xc.config.signal_len
        if len(xt) < n:
            raise ValueError("--truth audio shorter than the working span")
        x_true = xt[:n]

    out, info = inpaint_spectrogram(Xc, mask, method=method, scfg=solver_config(args),
                                    x_true=x_true, jobs=jobs, return_info=True,
                                    trace=bool(args.trace))
    del Xc  # the restoration holds every column: keep one coefficient array
    write_wav(args.out, rate,
              synthesize(out, default_window(out.config), out.config), args.force)
    if args.spec_out:
        write_spectrogram(args.spec_out, out, args.force)
    if args.trace:
        with open(args.trace, "w" if args.force else "x", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["gap_start", "iteration", "objective", "feasibility"])
            w.writerows(sorted((run.gaps[0].start, i, obj, feas)
                               for run, rows in zip(info["gaps"], info["trace"])
                               for i, (obj, feas) in enumerate(rows.tolist(), 1)))
    print(f"restored {len(find_gaps(mask))} gap(s) -> {args.out}")
    return 0


def cmd_snr(args):
    rate_a, ref = read_wav(args.ref)
    rate_b, test = read_wav(args.test)
    if rate_a != rate_b:
        print(f"warning: sample rates differ ({rate_a} vs {rate_b})",
              file=sys.stderr)
    if ref.size != test.size:
        # corrupt/inpaint truncate to the mask length, so a clean original
        # is routinely a few hundred samples longer than the restoration
        n = min(ref.size, test.size)
        print(f"warning: lengths differ ({ref.size} vs {test.size} samples); "
              f"comparing the first {n}", file=sys.stderr)
        ref, test = ref[:n], test[:n]
    value = snr(ref, test)
    print("inf" if math.isinf(value) else f"{value:.4f}")
    return 0


def _grid(args, widths):
    """(the synthetic suite, one mask per gap width, the harness keywords) of
    a sweep or comparison, its job count and outputs checked first."""
    jobs = _jobs(args.jobs)
    _ensure_writable(args.force, args.out, args.json)
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    window, channels = _frame(args)
    return (synthetic_suite(args.seconds, args.sr, seed=args.seed, kinds=kinds),
            [make_mask(args.seconds, args.sr, args.hop, g, placement=args.placement,
                       seed=args.seed, channels=channels) for g in widths],
            dict(scfg=solver_config(args), window_len=window, hop=args.hop,
                 channels=channels, jobs=jobs))


def cmd_sweep(args):
    suite, (mask,), harness = _grid(args, [args.gap_cols])
    if args.lambdas == "default":
        grid = DEFAULT_LAMBDA_GRID
    else:
        grid = [float(v) for v in args.lambdas.split(",")]
    records = sweep_lambda(suite, mask, grid, method=args.method.replace("-", "_"), **harness)
    write_results(args.out, args.json, records, force=args.force)
    best = max(records, key=lambda r: r.snr_db)
    print(f"best lambda {best.lambda_:g} with mean SNR {best.snr_db:.2f} dB "
          f"over {len(suite)} signal(s)")
    return 0


def cmd_compare(args):
    suite, masks, harness = _grid(args, [int(g) for g in args.gap_cols.split(",")])
    methods = [m.strip().replace("-", "_") for m in args.methods.split(",")]
    records, summary = compare_methods(suite, masks, methods, **harness)
    write_results(args.out, args.json, records, summary=summary,
                  force=args.force)
    for row in summary:
        print(f"{row['method']:>14}  gap {row['gap_cols']}: "
              f"{row['mean_snr_db']:8.2f} dB mean over {row['signals']} signal(s)")
    return 0


# ------------------------------------------------------------------ parser


def build_parser():
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--lambda", dest="lam", type=float, default=SolverConfig.lam,
                        help="regularization weight (default %(default)s)")
    solver.add_argument("--inner", type=int, default=SolverConfig.inner_iters,
                        help="inner iterations per frequency estimate (default %(default)s)")
    solver.add_argument("--outer", type=int, default=SolverConfig.outer_iters,
                        help="uphain's IF re-estimations: up to OUTER+1 inner runs "
                             "(default %(default)s); bphain and tf-only run once")
    solver.add_argument("--eps", type=float, default=SolverConfig.epsilon,
                        help="outer-loop stopping threshold (default %(default)s)")
    solver.add_argument("--threshold", choices=sorted(THRESHOLDS),
                        default="soft", help="thresholding rule (default soft)")
    solver.add_argument("--p", type=float, default=Thresholder.p,
                        help="p-shrinkage exponent (default %(default)s)")
    solver.add_argument("--alpha", type=float, default=Thresholder.alpha,
                        help="smooth-hard sharpness (default %(default)s)")
    solver.add_argument("--jobs", type=int, default=None,
                        help="worker processes: for the frame runs in inpaint, for "
                             "the records in sweep and compare (default: the "
                             "available cores)")

    # None: not given, so a .spgm input's header may set them (see _frame)
    frame = argparse.ArgumentParser(add_help=False)
    frame.add_argument("--window", type=int, default=None,
                       help=f"analysis window length (default {StftConfig.window_len})")
    frame.add_argument("--channels", type=int, default=None,
                       help=f"frequency channels (default {StftConfig.channels})")

    force = argparse.ArgumentParser(add_help=False)
    force.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")

    # the mask's grid, shared by make-mask and the sweep/compare suite
    span = argparse.ArgumentParser(add_help=False)
    span.add_argument("--sr", type=int, default=16000)
    span.add_argument("--hop", type=int, default=StftConfig.hop,
                      help="hop size in samples (default %(default)s)")
    span.add_argument("--placement", choices=["per-second-center", "seeded-random"],
                      default="per-second-center")

    grid = argparse.ArgumentParser(add_help=False, parents=[span, force])
    grid.add_argument("--seconds", type=float, default=5.0)
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument("--kinds", default="multitone,chirp,tone",
                      help="comma list of signal kinds for the suite")
    grid.add_argument("--out", required=True, help="CSV output path")
    grid.add_argument("--json", default=None, help="optional JSON mirror path")

    p = argparse.ArgumentParser(prog="tfpaint",
                                description="Reconstruct missing spectrogram "
                                            "columns of audio recordings.")
    sub = p.add_subparsers(dest="command", required=True)

    mm = sub.add_parser("make-mask", parents=[span, force],
                        help="write a gap mask as JSON")
    mm.add_argument("--seconds", type=float, required=True)
    mm.add_argument("--gap-cols", type=int, required=True,
                    help="gap width in spectrogram columns; with a one-column "
                         "margin each side it must fit in every second")
    mm.add_argument("--seed", type=int, default=None)
    mm.add_argument("--out", required=True)
    mm.set_defaults(func=cmd_make_mask)

    co = sub.add_parser("corrupt", parents=[frame, force],
                        help="zero masked columns of a recording")
    co.add_argument("--in", dest="infile", required=True, help="clean WAV")
    co.add_argument("--mask", required=True)
    co.add_argument("--out", required=True, help="corrupted WAV")
    co.add_argument("--spec-out", default=None,
                    help="also write the corrupted spectrogram (exact)")
    co.set_defaults(func=cmd_corrupt)

    ip = sub.add_parser("inpaint", parents=[solver, frame, force],
                        help="reconstruct masked columns")
    ip.add_argument("--in", dest="infile", required=True,
                    help="corrupted WAV or spectrogram file (whose header sets "
                         "the window and channels: a --window or --channels "
                         "that differs is refused)")
    ip.add_argument("--mask", required=True)
    ip.add_argument("--out", required=True, help="restored WAV")
    ip.add_argument("--spec-out", default=None,
                    help="also write the restored spectrogram")
    ip.add_argument("--method", choices=METHOD_NAMES, default="uphain")
    ip.add_argument("--truth", default=None,
                    help="clean WAV (required for bphain-oracle)")
    ip.add_argument("--trace", default=None,
                    help="write per-iteration objective/feasibility CSV here: "
                         "one block of rows per frame run, keyed by the start "
                         "column of its first gap")
    ip.add_argument("--sr", type=int, default=16000,
                    help="output rate when the input is a spectrogram file")
    ip.set_defaults(func=cmd_inpaint)

    sn = sub.add_parser("snr", help="SNR of a test WAV against a reference")
    sn.add_argument("--ref", required=True)
    sn.add_argument("--test", required=True)
    sn.set_defaults(func=cmd_snr)

    sw = sub.add_parser("sweep", parents=[solver, frame, grid],
                        help="mean SNR across a lambda grid")
    sw.add_argument("--gap-cols", type=int, default=3)
    sw.add_argument("--lambdas", default="default",
                    help='comma list of values, or "default" for the 10-point grid')
    sw.add_argument("--method", choices=[m for m in METHOD_NAMES if m != "bphain-oracle"],
                    default="uphain")
    sw.set_defaults(func=cmd_sweep)

    cp = sub.add_parser("compare", parents=[solver, frame, grid],
                        help="method-versus-method SNR table")
    cp.add_argument("--gap-cols", default="1,3,6",
                    help="comma list of gap widths (default 1,3,6)")
    cp.add_argument("--methods", default=",".join(METHOD_NAMES))
    cp.set_defaults(func=cmd_compare)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as e:
        print(f"error: solver diverged at iteration {e.iteration}; "
              "try another --threshold, --lambda, --p or --alpha", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

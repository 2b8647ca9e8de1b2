"""The four workloads: inputs made from the seed, the timed body, the checks.

Each workload has ``prepare(seed, work_dir)`` (the set-up: input synthesis,
analysis, masking and, for the CLI, the input files), ``body(ctx, tag,
trace_file)`` (the timed part; returns ``(output, wall_s, cpu_s)``) and
``check(ctx, output)`` (raises ``CheckFailed``; returns the workload's SNR).
``ops(ctx)`` is the number of operations one body attempts: gap solves,
compare records or CLI invocations.
"""

import os
import resource
import subprocess
import sys
import time

import numpy as np

import reference as ref
from reference import HOP, SR, require

HERE = os.path.dirname(os.path.abspath(__file__))
METHODS = ("uphain", "bphain", "bphain_oracle", "tf_only")


def reference_multitone(seconds, seed):
    """Criterion 6's 3-tone multitone with its tone phases drawn from ``seed``.

    The frequencies and amplitudes are those ``make_test_signal`` draws for
    seed 0, so every seed restores the same kind of input; seed 0 gives
    criterion 6's signal itself.  (Drawing the frequencies too would let two
    tones share a frequency bin -- seed 5 puts them 8 Hz apart -- and a
    beating pair is outside what the phase-corrected prior models.)
    """
    draw = np.random.default_rng(0)
    freqs, amps = draw.uniform(200.0, 3000.0, 3), draw.uniform(0.5, 1.0, 3)
    draw = np.random.default_rng(seed)
    draw.uniform(size=6)
    phases = draw.uniform(0.0, 2.0 * np.pi, 3)
    t = np.arange(int(round(seconds * SR))) / float(SR)
    x = sum(a * np.sin(2.0 * np.pi * f * t + p) for a, f, p in zip(amps, freqs, phases))
    return 0.9 * (x / np.max(np.abs(x)))


def _timed(fn):
    c0, t0 = time.process_time(), time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0, time.process_time() - c0


def _children_cpu():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class Restore:
    """``inpaint_spectrogram`` with uphain and the default SolverConfig on
    criterion 6's 3-tone multitone, one centred gap per second."""

    subprocess = False

    def __init__(self, gap_cols, seconds, floor_db):
        self.gap_cols, self.seconds, self.floor_db = gap_cols, seconds, floor_db

    def prepare(self, seed, work_dir):
        import tfpaint
        x = reference_multitone(self.seconds, seed)
        mask = tfpaint.make_mask(self.seconds, SR, HOP, self.gap_cols)
        cfg = tfpaint.StftConfig(signal_len=mask.n_cols * HOP)
        x = x[: cfg.signal_len]
        Xc = tfpaint.apply_mask(tfpaint.analyze(x, tfpaint.default_window(cfg), cfg), mask)
        return {"x": x, "mask": mask, "Xc": Xc}

    def ops(self, ctx):
        return len(ref.find_runs(ctx["mask"].zero_cols))

    def body(self, ctx, tag, trace_file=None):
        from tfpaint import pipeline
        return _timed(lambda: pipeline.inpaint_spectrogram(ctx["Xc"], ctx["mask"], "uphain"))

    def check(self, ctx, out):
        got, _ = ref.check_restoration(out.data, ctx["Xc"].data, ctx["x"],
                                       ctx["mask"].zero_cols, self.floor_db)
        return got

    def same(self, a, b):
        return np.array_equal(a.data, b.data)

    def layout(self, ctx):
        return ref.segment_lengths(ctx["mask"].zero_cols)


class CompareSuite:
    """``compare_methods`` (what ``tfpaint compare`` runs): one signal of
    each synthetic kind, 1 s long, gap widths 2, 3 and 6, all four methods,
    criterion 8's budget of 80 inner iterations and 1 outer round."""

    subprocess = False
    widths = (2, 3, 6)

    def prepare(self, seed, work_dir):
        import tfpaint
        # the chirp's endpoints are drawn as synthetic_suite draws them; the
        # tone sits a quarter bin off a seeded bin, so its difficulty is the
        # same for every seed
        rng = np.random.default_rng(seed + 100)
        f0, f1 = float(rng.uniform(300.0, 1500.0)), float(rng.uniform(1800.0, 3500.0))
        tone_bin = int(rng.integers(40, 380))
        signals = [
            ("multitone", reference_multitone(1.0, seed)),
            ("chirp", tfpaint.make_test_signal("chirp", 1.0, SR, f0=f0, f1=f1)),
            ("tone", tfpaint.make_test_signal("tone", 1.0, SR, f=tone_bin * SR / 2048,
                                              delta_bins=0.25)),
        ]
        masks = [tfpaint.make_mask(1.0, SR, HOP, w) for w in self.widths]
        scfg = tfpaint.SolverConfig(inner_iters=80, outer_iters=1)
        return {"signals": signals, "masks": masks, "scfg": scfg}

    def ops(self, ctx):
        return len(ctx["signals"]) * len(ctx["masks"]) * len(METHODS)

    def body(self, ctx, tag, trace_file=None):
        # evaluate.snr is the one place the restorations pass through; keep
        # each (clean, restored) pair so the SNR can be recomputed apart
        from tfpaint import evaluate
        pairs, program_snr = [], evaluate.snr

        def keep(x_ref, x_test):
            pairs.append((x_ref, x_test))
            return program_snr(x_ref, x_test)

        evaluate.snr = keep
        try:
            (records, _), wall, cpu = _timed(lambda: evaluate.compare_methods(
                ctx["signals"], ctx["masks"], list(METHODS), scfg=ctx["scfg"]))
        finally:
            evaluate.snr = program_snr
        return (records, pairs), wall, cpu

    def check(self, ctx, out):
        records, pairs = out
        require(len(records) == self.ops(ctx) == len(pairs),
                f"{len(records)} records, expected {self.ops(ctx)}")
        require(all(np.isfinite(r.snr_db) for r in records), "a record SNR is not finite")
        own = [ref.snr_db(a, b) for a, b in pairs]
        for r, s in zip(records, own):
            require(abs(r.snr_db - s) <= 1e-6 * max(1.0, abs(s)),
                    f"record SNR {r.snr_db} disagrees with {s}")
        n_sig = len(ctx["signals"])
        for mask in ctx["masks"]:
            start, stop = ref.find_runs(mask.zero_cols)[0]
            width = stop - start
            zero_filled = []
            for _, x in ctx["signals"]:
                x = np.asarray(x)[: mask.n_cols * HOP]
                X = ref.zero_columns(ref.analysis(x), mask.zero_cols)
                zero_filled.append(ref.snr_db(x, ref.synthesis(X)))
            up = [s for r, s in zip(records, own)
                  if r.method == "uphain" and r.mask_gap_cols == width]
            require(len(up) == n_sig, f"{len(up)} uphain records at width {width}")
            require(np.mean(up) > np.mean(zero_filled),
                    f"uphain {np.mean(up):.2f} dB does not beat zero-filled "
                    f"{np.mean(zero_filled):.2f} dB at width {width}")
        return float(np.mean([s for r, s in zip(records, own) if r.method == "uphain"]))

    def same(self, a, b):
        return [r.snr_db for r in a[0]] == [r.snr_db for r in b[0]]

    def layout(self, ctx):
        return [n for m in ctx["masks"] for n in ref.segment_lengths(m.zero_cols)]


def long_recording(seed, seconds):
    """A chirp across the whole file plus two slowly modulated tones."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * SR)) / SR
    f0, f1 = rng.uniform(300.0, 800.0), rng.uniform(1500.0, 3000.0)
    x = np.sin(2.0 * np.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * seconds)))
    for amp, f, fm, phase in zip(rng.uniform(0.3, 0.6, 2), rng.uniform(200.0, 3500.0, 2),
                                 rng.uniform(0.1, 0.5, 2), rng.uniform(0, 2 * np.pi, 2)):
        x += amp * (1.0 + 0.5 * np.sin(2.0 * np.pi * fm * t)) * np.sin(2.0 * np.pi * f * t + phase)
    return 0.9 * x / np.max(np.abs(x))


class CliLong:
    """``tfpaint inpaint`` on the saved .spgm of a 60 s recording with six
    gaps of widths 1..6, method bphain, with --trace and --spec-out."""

    subprocess = True
    seconds = 60
    inner_iters = 500          # the CLI default
    quantum = 4                # window_len / hop: the segment alignment

    def prepare(self, seed, work_dir):
        import tfpaint
        rng = np.random.default_rng(seed)
        paths = {k: os.path.join(work_dir, f"cli_{k}") for k in
                 ("clean.wav", "mask.json", "corrupted.spgm")}
        ref.write_wav(paths["clean.wav"], long_recording(seed, self.seconds))
        clean = ref.read_wav(paths["clean.wav"])

        n_cols = self.seconds * SR // HOP
        n_cols -= n_cols % self.quantum
        # six distinct seconds away from the file ends; each gap starts on
        # the alignment quantum so every seed gives the same segment lengths
        secs = np.sort(rng.choice(np.arange(2, self.seconds - 2), 6, replace=False))
        widths = rng.permutation(np.arange(1, 7))
        zero = []
        for sec, w in zip(secs, widths):
            start = self.quantum * ((int(sec) * SR // HOP + 12) // self.quantum)
            zero.extend(range(start, start + int(w)))
        mask = tfpaint.ColumnMask(n_cols, np.array(zero))
        cfg = tfpaint.StftConfig(signal_len=n_cols * HOP)
        X = tfpaint.analyze(clean[: cfg.signal_len], tfpaint.default_window(cfg), cfg)
        Xc = tfpaint.apply_mask(X, mask).data
        del X
        ref.write_mask(paths["mask.json"], n_cols, mask.zero_cols)
        ref.write_spgm(paths["corrupted.spgm"], Xc)
        return {"paths": paths, "clean": clean, "Xc": Xc, "zero": mask.zero_cols,
                "work": work_dir, "root": os.path.dirname(HERE)}

    def ops(self, ctx):
        return 1

    def body(self, ctx, tag, trace_file=None):
        out = {k: os.path.join(ctx["work"], f"cli_{tag}_{k}")
               for k in ("restored.wav", "restored.spgm", "trace.csv")}
        for path in out.values():
            if os.path.exists(path):
                os.remove(path)
        args = ["inpaint", "--in", ctx["paths"]["corrupted.spgm"],
                "--mask", ctx["paths"]["mask.json"], "--method", "bphain",
                "--out", out["restored.wav"], "--spec-out", out["restored.spgm"],
                "--trace", out["trace.csv"]]
        if trace_file is None:
            cmd = [sys.executable, "-m", "tfpaint.cli", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), trace_file, *args]
        env = dict(os.environ, PYTHONPATH=os.path.join(ctx["root"], "src"))
        env.pop("TFPAINT_JOBS", None)
        c0, t0 = _children_cpu(), time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ctx["root"], capture_output=True,
                              text=True, timeout=170)
        wall, cpu = time.perf_counter() - t0, _children_cpu() - c0
        return {"rc": proc.returncode, "stderr": proc.stderr, **out}, wall, cpu

    def check(self, ctx, out):
        got, _, _ = ref.check_cli_outputs(
            out["restored.wav"], out["restored.spgm"], out["trace.csv"], ctx["Xc"],
            ctx["clean"], ctx["zero"], len(ref.find_runs(ctx["zero"])), self.inner_iters)
        return got

    def same(self, a, b):
        keys = ("restored.wav", "restored.spgm", "trace.csv")
        return all(_read(a[k]) == _read(b[k]) for k in keys)

    def layout(self, ctx):
        return ref.segment_lengths(ctx["zero"])

    def file_bytes(self, ctx, out):
        read = sum(os.path.getsize(ctx["paths"][k]) for k in ("mask.json", "corrupted.spgm"))
        written = sum(os.path.getsize(out[k]) for k in ("restored.wav", "restored.spgm", "trace.csv"))
        return read, written


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


WORKLOADS = {
    "restore_gap6": Restore(gap_cols=6, seconds=2.0, floor_db=12.0),
    "restore_gap1": Restore(gap_cols=1, seconds=5.0, floor_db=40.0),
    "compare_suite": CompareSuite(),
    "cli_long": CliLong(),
}

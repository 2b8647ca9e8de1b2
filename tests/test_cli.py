import csv
import dataclasses
import json
import math
import os
import re
import tracemalloc
import wave

import numpy as np
import pytest
from scipy.io import wavfile

import tfpaint.cli as cli
from tfpaint.cli import (
    build_parser,
    main,
    read_mask,
    read_spectrogram,
    read_wav,
    solver_config,
    write_mask,
    write_results,
    write_spectrogram,
    write_wav,
)
from tfpaint.evaluate import EvalRecord, make_test_signal
from tfpaint.pipeline import ColumnMask, apply_mask
from tfpaint.solver import SolverConfig
from tfpaint.stft import Spectrogram, StftConfig, analyze, default_window

SR = 16000


def wav_path(tmp_path, name, x, rate=SR):
    p = tmp_path / name
    q = np.clip(np.round(np.asarray(x) * 32768.0), -32768, 32767).astype(np.int16)
    wavfile.write(p, rate, q)
    return str(p)


# ------------------------------------------------------------ file formats


def test_wav_round_trip(tmp_path):
    x = make_test_signal("multitone", 0.25, SR, seed=1)
    p = str(tmp_path / "a.wav")
    write_wav(p, SR, x)
    rate, back = read_wav(p)
    assert rate == SR
    assert np.max(np.abs(back - x)) <= 1.0 / 32768.0  # one quantization step
    # integers survive a second pass exactly
    p2 = str(tmp_path / "b.wav")
    write_wav(p2, SR, back)
    _, again = read_wav(p2)
    assert np.array_equal(again, back)
    # the file is the one scipy's writer makes, clipping at both ends
    x = np.random.default_rng(3).uniform(-1.1, 1.1, 1001)
    p3 = tmp_path / "c.wav"
    write_wav(str(p3), SR, x)
    theirs = open(wav_path(tmp_path, "theirs.wav", x), "rb").read()
    assert len(theirs) == 44 + 2 * 1001
    assert p3.read_bytes() == theirs


def test_wav_validation(tmp_path, capsys):
    stereo = tmp_path / "st.wav"
    wavfile.write(stereo, SR, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(ValueError):
        read_wav(str(stereo))
    fl = tmp_path / "fl.wav"
    wavfile.write(fl, SR, np.zeros(100, dtype=np.float32))
    with pytest.raises(ValueError):
        read_wav(str(fl))
    u8 = tmp_path / "u8.wav"
    with wave.open(str(u8), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(1)
        fh.setframerate(SR)
        fh.writeframes(bytes(100))
    junk = tmp_path / "junk.wav"
    junk.write_bytes(b"this is not a RIFF file" * 4)
    whole = open(wav_path(tmp_path, "whole.wav", np.zeros(100)), "rb").read()
    cut, cut_data = tmp_path / "cut.wav", tmp_path / "cut_data.wav"
    cut.write_bytes(whole[:30])  # inside the header
    cut_data.write_bytes(whole[:100])  # 28 of the 100 samples the header declares
    for bad in (u8, junk, cut, cut_data):
        with pytest.raises(ValueError, match="wav"):
            read_wav(str(bad))
    assert main(["snr", "--ref", str(cut), "--test", str(cut)]) == 2
    # audio shorter than the mask span stops corrupt and inpaint's WAV route
    mask, out = str(tmp_path / "m.json"), tmp_path / "o.wav"
    write_mask(mask, ColumnMask(28, [13]), 512)
    short = str(tmp_path / "whole.wav")  # 100 of the 28 * 512 samples
    for command in ("corrupt", "inpaint"):
        assert main([command, "--in", short, "--mask", mask, "--out", str(out)]) == 2
        assert "shorter than the mask span (100 < 14336 samples)" in capsys.readouterr().err
        assert not out.exists()


def test_mask_file_round_trip(tmp_path):
    p = str(tmp_path / "m.json")
    mask = ColumnMask(28, np.array([13, 14]))
    write_mask(p, mask, 512)
    back, hop = read_mask(p)
    assert hop == 512
    assert back.n_cols == 28
    assert np.array_equal(back.zero_cols, mask.zero_cols)
    d = json.loads(open(p).read())
    assert set(d) == {"n_cols", "hop", "zero_cols"}


def test_mask_file_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_cols": 28}')
    with pytest.raises(ValueError):
        read_mask(str(bad))
    # JSON integers only, not truncated: 13.7 is no column 13, true no column
    # 1; a column past int64 is out of range
    out = tmp_path / "r.wav"
    for field, value in (("zero_cols", [13.7, 14]), ("zero_cols", [True, 13]),
                         ("zero_cols", [13.0]), ("zero_cols", [10**30]), ("hop", "512"),
                         ("n_cols", 28.9)):
        bad.write_text(json.dumps({"n_cols": 28, "hop": 512, "zero_cols": [13], field: value}))
        with pytest.raises(ValueError, match=field):
            read_mask(str(bad))
        capsys.readouterr()
        # the mask is read before the input, which need not exist
        assert main(["inpaint", "--in", str(tmp_path / "in.spgm"), "--mask", str(bad),
                     "--out", str(out)]) == 2
        assert field in capsys.readouterr().err and not out.exists()
    bad.write_text('{"n_cols": 28, "hop": 512, "zero_cols": []}')
    assert read_mask(str(bad))[0].zero_cols.size == 0


def test_spectrogram_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    cfg = StftConfig(2048, 512, 2048, 16 * 512)
    data = rng.standard_normal((2048, 16)) * np.exp(2j * np.pi * rng.random((2048, 16)))
    X = Spectrogram(data, cfg)
    p = str(tmp_path / "x.spgm")
    write_spectrogram(p, X)
    back = read_spectrogram(p)
    assert np.array_equal(back.data, data)
    assert back.config == cfg
    # the coefficients go to the file straight from the array; the bytes
    # are the header and the array's own little-endian bytes
    header = cli.SPGM_MAGIC + np.array([2048, 16, 512, 2048], dtype="<u4").tobytes()
    with open(p, "rb") as fh:
        assert fh.read() == header + data.astype("<c16").tobytes()
    # a Fortran-ordered and a big-endian array write the same bytes
    q = str(tmp_path / "y.spgm")
    write_spectrogram(q, Spectrogram(np.asfortranarray(data), cfg))
    r = str(tmp_path / "z.spgm")
    write_spectrogram(r, Spectrogram(data.astype(">c16"), cfg))
    with open(p, "rb") as a, open(q, "rb") as b, open(r, "rb") as c:
        assert a.read() == b.read() == c.read()


@pytest.mark.parametrize("cfg", [StftConfig(2048, 512, 2048, 16 * 512), StftConfig(9, 3, 9, 27)],
                         ids=["even-M", "odd-M"])
def test_spectrogram_file_reader_matches_whole_file_formula(tmp_path, cfg):
    # the reader fills its array from the file directly; it gives the
    # bits and types of slicing the whole file
    rng = np.random.default_rng(cfg.channels)
    shape = (cfg.channels, cfg.n_frames)
    p = str(tmp_path / "x.spgm")
    write_spectrogram(p, Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg))
    with open(p, "rb") as fh:
        blob = fh.read()
    M, N, hop, window_len = (int(v) for v in np.frombuffer(blob[5:21], dtype="<u4"))
    old = np.frombuffer(blob[21:], dtype="<c16").reshape(M, N).copy()
    back = read_spectrogram(p)
    assert back.data.dtype == old.dtype and back.data.flags.c_contiguous
    assert back.data.tobytes() == old.tobytes()
    assert back.config == StftConfig(window_len, hop, M, N * hop) == cfg


def test_spectrogram_file_rejects_wrong_sizes(tmp_path):
    p = tmp_path / "x.spgm"
    write_spectrogram(str(p), Spectrogram(np.ones((9, 9), complex), StftConfig(9, 3, 9, 27)))
    blob = p.read_bytes()
    for cut, message in ((blob[:12], "truncated header"),
                         (blob[:-16], "expected 81 coefficients, found 80$"),
                         (blob[:-3], "found 80 and 13 byte"),
                         (blob + b"\x00", "found 81 and 1 byte")):
        p.write_bytes(cut)
        with pytest.raises(ValueError, match=message):
            read_spectrogram(str(p))


def test_spectrogram_file_rejects_garbage(tmp_path):
    p = tmp_path / "junk.spgm"
    p.write_bytes(b"NOPE!" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_spectrogram(str(p))
    q = tmp_path / "short.spgm"
    q.write_bytes(b"SPGM1" + np.array([8, 4, 2, 4], dtype="<u4").tobytes() + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_spectrogram(str(q))


# ---------------------------------------------------------------- defaults


def test_inpaint_defaults_are_reference_constants():
    args = build_parser().parse_args(
        ["inpaint", "--in", "a.wav", "--mask", "m.json", "--out", "b.wav"]
    )
    assert args.lam == 0.01
    assert args.inner == 500
    assert args.outer == 10
    assert args.eps == 0.001
    assert args.threshold == "soft"
    scfg = solver_config(args)
    assert scfg.thresholder.kind == "soft" and scfg.lam == 0.01


def test_pshrink_defaults():
    args = build_parser().parse_args(
        ["inpaint", "--in", "a", "--mask", "m", "--out", "b",
         "--threshold", "pshrink"]
    )
    scfg = solver_config(args)
    assert scfg.thresholder.kind == "p_shrinkage"
    assert scfg.thresholder.p == 0.9 and scfg.lam == 0.01


def test_option_defaults_are_the_library_defaults():
    # read from SolverConfig, Thresholder and StftConfig, not repeated
    parser = build_parser()
    args = parser.parse_args(["inpaint", "--in", "a", "--mask", "m", "--out", "b"])
    assert solver_config(args) == SolverConfig()
    frame = {f.name: f.default for f in dataclasses.fields(StftConfig)}
    # --window and --channels default to None, so a .spgm header can set them;
    # the WAV route and the suite read StftConfig's in their place
    assert (args.window, args.channels) == (None, None)
    assert cli._frame(args) == (frame["window_len"], frame["channels"])
    for command in (["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", "m"],
                    ["compare", "--out", "c"]):
        assert parser.parse_args(command).hop == frame["hop"]


# Each subcommand's options and their defaults, beside its required ones.
SOLVER_DEFAULTS = {"lam": 0.01, "inner": 500, "outer": 10, "eps": 0.001,
                   "threshold": "soft", "p": 0.9, "alpha": 0.01, "jobs": None,
                   "window": None, "channels": None, "force": False}
GRID_DEFAULTS = {**SOLVER_DEFAULTS, "seconds": 5.0, "sr": 16000, "hop": 512, "seed": 0,
                 "kinds": "multitone,chirp,tone", "placement": "per-second-center",
                 "json": None}
PARSER_INVENTORY = {
    "make-mask": (["--seconds", "1", "--gap-cols", "2", "--out", "m"],
                  {"seconds": 1.0, "gap_cols": 2, "out": "m", "sr": 16000, "hop": 512,
                   "placement": "per-second-center", "seed": None, "force": False}),
    "corrupt": (["--in", "a", "--mask", "m", "--out", "b"],
                {"infile": "a", "mask": "m", "out": "b", "spec_out": None,
                 "window": None, "channels": None, "force": False}),
    "inpaint": (["--in", "a", "--mask", "m", "--out", "b"],
                {**SOLVER_DEFAULTS, "infile": "a", "mask": "m", "out": "b", "spec_out": None,
                 "method": "uphain", "truth": None, "trace": None, "sr": 16000}),
    "snr": (["--ref", "a", "--test", "b"], {"ref": "a", "test": "b"}),
    "sweep": (["--out", "s"], {**GRID_DEFAULTS, "out": "s", "gap_cols": 3,
                               "lambdas": "default", "method": "uphain"}),
    "compare": (["--out", "c"], {**GRID_DEFAULTS, "out": "c", "gap_cols": "1,3,6",
                                 "methods": "uphain,bphain,bphain-oracle,tf-only"}),
}


@pytest.mark.parametrize("command", sorted(PARSER_INVENTORY))
def test_parser_inventory(command, capsys):
    # every subcommand takes the same options, with the same defaults,
    # however the parser shares them between subcommands
    required, defaults = PARSER_INVENTORY[command]
    args = vars(build_parser().parse_args([command, *required]))
    assert args.pop("command") == command and callable(args.pop("func"))
    assert args == defaults
    for i in range(0, len(required), 2):  # each required option is required
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, *required[:i], *required[i + 2:]])
    capsys.readouterr()


def test_method_choices():
    parser = build_parser()
    base = {"inpaint": ["--in", "a", "--mask", "m", "--out", "b"], "sweep": ["--out", "s"]}
    for command, methods in (("inpaint", ["uphain", "bphain", "bphain-oracle", "tf-only"]),
                             ("sweep", ["uphain", "bphain", "tf-only"])):
        for method in methods:
            assert parser.parse_args([command, *base[command], "--method", method]).method == method
    for command, method in (("inpaint", "tf_only"), ("sweep", "bphain-oracle")):
        with pytest.raises(SystemExit):
            parser.parse_args([command, *base[command], "--method", method])


def test_jobs_env_default(tmp_path, monkeypatch, capsys):
    # --jobs, else the library's default (None: the available cores),
    # resolved when the command runs; no environment variable is read
    x = make_test_signal("multitone", 1.0, SR, seed=12)
    clean = wav_path(tmp_path, "c.wav", x)
    mask = str(tmp_path / "m.json")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", mask]) == 0
    seen = []

    def spy(Xc, mask, **kw):
        seen.append(kw["jobs"])
        return Xc, {}

    monkeypatch.setattr(cli, "inpaint_spectrogram", spy)
    out = tmp_path / "r.wav"
    base = ["inpaint", "--in", clean, "--mask", mask, "--out", str(out), "--force"]
    assert build_parser().parse_args(base).jobs is None
    assert main(base) == 0
    assert main(base + ["--jobs", "3"]) == 0
    for env in ("4", "0"):
        monkeypatch.setenv("TFPAINT_JOBS", env)
        assert main(base) == 0
    assert seen == [None, 3, None, None]
    capsys.readouterr()

    # a job count that is not an integer >= 1 is an error, not 1
    out.unlink()
    for flag in ("0", "-1"):
        assert main(base + ["--jobs", flag]) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "integer >= 1" in err
    assert len(seen) == 4 and not out.exists()


# ---------------------------------------------------------------- commands


def test_make_mask_counts(tmp_path):
    out = str(tmp_path / "mask.json")
    assert main(["make-mask", "--seconds", "5", "--gap-cols", "6",
                 "--out", out]) == 0
    d = json.loads(open(out).read())
    assert len(d["zero_cols"]) == 30  # five seconds, six columns each
    assert d["n_cols"] == 156 and d["hop"] == 512


def test_hop_that_does_not_divide_the_channels(tmp_path):
    # at hop 384 the 2048 channels divide a span of n_cols*384 samples only
    # when n_cols is a multiple of 16: 3 s gives 125 columns, cut to 112, and
    # every command runs on the mask
    mask = str(tmp_path / "mask.json")
    clean = wav_path(tmp_path, "clean.wav", make_test_signal("multitone", 3.0, SR, seed=2))
    assert main(["make-mask", "--seconds", "3", "--hop", "384", "--gap-cols", "3",
                 "--out", mask]) == 0
    assert json.loads(open(mask).read())["n_cols"] == 112
    corrupted, restored = str(tmp_path / "corr.wav"), str(tmp_path / "rest.wav")
    assert main(["corrupt", "--in", clean, "--mask", mask, "--out", corrupted]) == 0
    assert main(["inpaint", "--in", corrupted, "--mask", mask, "--out", restored,
                 "--inner", "5", "--outer", "1", "--jobs", "1"]) == 0
    assert read_wav(restored)[1].size == 112 * 384
    grid = ["--seconds", "3", "--hop", "384", "--kinds", "tone", "--inner", "5",
            "--outer", "1", "--jobs", "1"]
    assert main(["sweep", *grid, "--gap-cols", "3", "--lambdas", "1e-2",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", *grid, "--gap-cols", "6", "--methods", "uphain",
                 "--threshold", "l2", "--lambda", "1.0", "--out", out]) == 0
    assert [row["lambda"] for row in csv.DictReader(open(out))] == ["1.0"] * 4


def test_force_required_to_overwrite(tmp_path, monkeypatch):
    out = str(tmp_path / "mask.json")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", out]) == 0

    def must_not_build(*a, **k):
        raise AssertionError("built a mask although the output exists")

    with monkeypatch.context() as m:
        m.setattr(cli, "make_mask", must_not_build)
        assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", out]) == 2
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", out,
                 "--force"]) == 0


def test_writers_open_exclusively_unless_forced(tmp_path):
    # the commands refuse an existing output up front; a writer refuses one
    # that appeared since, without touching its bytes
    cfg = StftConfig(9, 3, 9, 27)
    writes = [lambda p, force: write_wav(p, SR, np.zeros(10), force=force),
              lambda p, force: write_mask(p, ColumnMask(28, [13]), 512, force=force),
              lambda p, force: write_spectrogram(p, Spectrogram(np.ones((9, 9), complex), cfg),
                                                 force=force),
              lambda p, force: write_results(p, None, [], force=force),
              lambda p, force: write_results(None, p, [], force=force)]
    for i, write in enumerate(writes):
        p = tmp_path / f"out{i}"
        p.write_bytes(b"keep")
        with pytest.raises(FileExistsError):
            write(str(p), False)
        assert p.read_bytes() == b"keep"
        write(str(p), True)
        assert p.read_bytes() != b"keep"


def test_inpaint_keeps_an_output_that_appears_while_it_solves(tmp_path, monkeypatch, capsys):
    clean = wav_path(tmp_path, "c.wav", make_test_signal("multitone", 1.0, SR, seed=13))
    mask = str(tmp_path / "m.json")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", mask]) == 0
    out = tmp_path / "r.wav"
    solve = cli.inpaint_spectrogram

    def solve_then_race(*a, **k):
        out.write_bytes(b"keep")
        return solve(*a, **k)

    monkeypatch.setattr(cli, "inpaint_spectrogram", solve_then_race)
    assert main(["inpaint", "--in", clean, "--mask", mask, "--out", str(out),
                 "--inner", "2", "--outer", "0", "--jobs", "1"]) == 1
    assert "exists" in capsys.readouterr().err
    assert out.read_bytes() == b"keep"


def test_snr_command(tmp_path, capsys):
    x = make_test_signal("multitone", 0.25, SR, seed=2)
    a = wav_path(tmp_path, "a.wav", x)
    assert main(["snr", "--ref", a, "--test", a]) == 0
    assert capsys.readouterr().out.strip() == "inf"
    b = wav_path(tmp_path, "b.wav", 0.5 * x)
    assert main(["snr", "--ref", a, "--test", b]) == 0
    got = float(capsys.readouterr().out)
    assert abs(got - 10 * math.log10(4.0)) <= 0.01  # quantization wiggle


def test_snr_command_compares_common_prefix(tmp_path, capsys):
    # corrupt/inpaint truncate to the mask length, so the clean original is
    # usually a bit longer than the restoration; snr compares the overlap
    x = make_test_signal("multitone", 0.25, SR, seed=2)
    a = wav_path(tmp_path, "a.wav", x)
    b = wav_path(tmp_path, "b.wav", 0.5 * x[:-128])
    assert main(["snr", "--ref", a, "--test", b]) == 0
    out, err = capsys.readouterr()
    assert "lengths differ" in err
    assert abs(float(out) - 10 * math.log10(4.0)) <= 0.01


def test_missing_file_exits_1(tmp_path):
    assert main(["snr", "--ref", str(tmp_path / "no.wav"),
                 "--test", str(tmp_path / "no.wav")]) == 1


def test_corrupt_then_inpaint_end_to_end(tmp_path, capsys):
    clean = wav_path(tmp_path, "clean.wav", make_test_signal("multitone", 1.0, SR, seed=7))
    mask = str(tmp_path / "mask.json")
    corrupted = str(tmp_path / "corr.wav")
    spgm = str(tmp_path / "corr.spgm")
    restored = str(tmp_path / "rest.wav")

    assert main(["make-mask", "--seconds", "1", "--gap-cols", "2", "--out", mask]) == 0
    assert main(["corrupt", "--in", clean, "--mask", mask, "--out", corrupted,
                 "--spec-out", spgm]) == 0
    assert main(["inpaint", "--in", spgm, "--mask", mask, "--out", restored,
                 "--inner", "50", "--outer", "2"]) == 0

    n = 28 * 512
    _, ref = read_wav(clean)
    _, broken = read_wav(corrupted)
    _, fixed = read_wav(restored)
    capsys.readouterr()
    assert main(["snr", "--ref", wav_path(tmp_path, "ref.wav", ref[:n]),
                 "--test", restored]) == 0
    restored_snr = float(capsys.readouterr().out)
    from tfpaint.evaluate import snr as snr_of

    assert restored_snr > snr_of(ref[:n], broken) + 10.0
    assert restored_snr > 30.0


def wav_route(tmp_path, gap_cols):
    """(corrupted, restored) samples of the corrupt-then-inpaint WAV route."""
    clean = wav_path(tmp_path, "c.wav", make_test_signal("multitone", 1.0, SR, seed=8))
    mask = str(tmp_path / "m.json")
    corrupted = str(tmp_path / "cc.wav")
    restored = str(tmp_path / "r.wav")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", str(gap_cols),
                 "--out", mask]) == 0
    assert main(["corrupt", "--in", clean, "--mask", mask, "--out", corrupted]) == 0
    assert main(["inpaint", "--in", corrupted, "--mask", mask, "--out", restored,
                 "--inner", "20", "--outer", "1"]) == 0
    return read_wav(corrupted)[1], read_wav(restored)[1]


def test_inpaint_from_wav_route_runs(tmp_path):
    broken, fixed = wav_route(tmp_path, 4)  # four columns leave samples free
    assert not np.array_equal(broken, fixed)


def test_inpaint_from_wav_route_narrow_gap_comes_back_unchanged(tmp_path):
    # the re-analysed reliable columns fix every sample of a one-column gap,
    # at the values the corrupted WAV already holds
    broken, fixed = wav_route(tmp_path, 1)
    assert np.array_equal(broken, fixed)


def test_inpaint_empty_mask_round_trips(tmp_path):
    x = make_test_signal("multitone", 1.0, SR, seed=9)[: 28 * 512]
    clean = wav_path(tmp_path, "c.wav", x)
    mask = str(tmp_path / "m.json")
    write_mask(mask, ColumnMask(28, np.array([], dtype=int)), 512)
    restored = str(tmp_path / "r.wav")
    assert main(["inpaint", "--in", clean, "--mask", mask, "--out", restored,
                 "--inner", "5", "--outer", "1"]) == 0
    _, a = read_wav(clean)
    _, b = read_wav(restored)
    assert np.array_equal(a, b)  # synthesis round-trip inside one quantum


def test_inpaint_oracle_requires_truth(tmp_path, capsys):
    x = make_test_signal("multitone", 1.0, SR, seed=10)
    clean = wav_path(tmp_path, "c.wav", x)
    mask = str(tmp_path / "m.json")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", mask]) == 0
    out = str(tmp_path / "r.wav")
    assert main(["inpaint", "--in", clean, "--mask", mask, "--out", out,
                 "--method", "bphain-oracle", "--inner", "5", "--outer", "1"]) == 2
    # the truth must have the restoration's rate: the input WAV's, or --sr
    # for a spectrogram; a mismatch stops the command before the solve
    spgm = str(tmp_path / "c.spgm")
    assert main(["corrupt", "--in", clean, "--mask", mask, "--out", str(tmp_path / "cc.wav"),
                 "--spec-out", spgm]) == 0
    slow = wav_path(tmp_path, "t8k.wav", x, rate=8000)  # as many samples as clean
    capsys.readouterr()
    for infile, truth, extra, words in ((clean, slow, [], "8000 Hz, the restoration 16000"),
                                        (spgm, slow, [], "8000 Hz, the restoration 16000"),
                                        (spgm, clean, ["--sr", "8000"],
                                         "16000 Hz, the restoration 8000")):
        assert main(["inpaint", "--in", infile, "--mask", mask, "--out", out,
                     "--method", "bphain-oracle", "--truth", truth,
                     "--inner", "5", "--outer", "1", *extra]) == 2
        assert f"--truth is {words} Hz" in capsys.readouterr().err
        assert not os.path.exists(out)
    short = wav_path(tmp_path, "short.wav", x[:1000])
    assert main(["inpaint", "--in", spgm, "--mask", mask, "--out", out,
                 "--method", "bphain-oracle", "--truth", short, "--inner", "5", "--outer", "1"]) == 2
    assert "--truth audio shorter than the working span" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert main(["inpaint", "--in", clean, "--mask", mask, "--out", out,
                 "--method", "bphain-oracle", "--truth", clean,
                 "--inner", "5", "--outer", "1"]) == 0


def test_inpaint_checks_the_output_rate_first(tmp_path, monkeypatch, capsys):
    clean = wav_path(tmp_path, "c.wav", make_test_signal("multitone", 1.0, SR, seed=12))
    mask, spgm = str(tmp_path / "m.json"), str(tmp_path / "c.spgm")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", mask]) == 0
    assert main(["corrupt", "--in", clean, "--mask", mask, "--out", str(tmp_path / "cc.wav"),
                 "--spec-out", spgm]) == 0

    def must_not_solve(*a, **k):
        raise AssertionError("solved although --sr is unusable")

    monkeypatch.setattr(cli, "inpaint_spectrogram", must_not_solve)
    out = tmp_path / "r.wav"
    capsys.readouterr()
    for sr in ("0", "-16000", str(2**31)):  # a WAV header holds 2*rate in 32 bits
        assert main(["inpaint", "--in", spgm, "--mask", mask, "--out", str(out),
                     "--sr", sr]) == 2
        assert "--sr" in capsys.readouterr().err and not out.exists()


def test_mask_geometry_and_suite_kinds_are_checked_before_writing(tmp_path, capsys):
    # a ValueError (exit 2), not a ZeroDivisionError or OverflowError
    # traceback; a misspelt kind is refused, not dropped from the suite
    out = tmp_path / "o.json"
    kinds = "multitone, chirp, tone"
    for args, word in ((["make-mask", "--seconds", "1", "--gap-cols", "1", "--hop", "0"], "hop"),
                       (["make-mask", "--seconds", "inf", "--gap-cols", "1"], "duration"),
                       (["compare", "--seconds", "1", "--kinds", "tone", "--hop", "0"], "hop"),
                       (["compare", "--seconds", "1", "--kinds", "multitone,chrip"], kinds),
                       (["sweep", "--seconds", "1", "--kinds", ","], kinds)):
        assert main([*args, "--out", str(out)]) == 2, args
        assert word in capsys.readouterr().err and not out.exists()


def test_inpaint_trace_file(tmp_path):
    x = make_test_signal("multitone", 1.0, SR, seed=11)
    clean = wav_path(tmp_path, "c.wav", x)
    mask = str(tmp_path / "m.json")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", mask]) == 0
    out = str(tmp_path / "r.wav")
    trace = str(tmp_path / "trace.csv")
    assert main(["inpaint", "--in", clean, "--mask", mask, "--out", out,
                 "--inner", "8", "--outer", "1", "--trace", trace]) == 0
    rows = list(csv.reader(open(trace)))
    assert rows[0] == ["gap_start", "iteration", "objective", "feasibility"]
    assert len(rows) - 1 == 8 * 2  # one gap, eight iterations, two outer rounds
    assert float(rows[1][2]) >= 0.0


def test_divergence_exit_code(tmp_path, diverging, capsys):
    x = make_test_signal("multitone", 1.0, SR, seed=12)
    clean = wav_path(tmp_path, "c.wav", x)
    mask = str(tmp_path / "m.json")
    # four columns leave samples free, so the solver steps and its guard fires
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "4", "--out", mask]) == 0
    capsys.readouterr()
    out = tmp_path / "r.wav"
    assert main(["inpaint", "--in", clean, "--mask", mask, "--out", str(out),
                 "--inner", "20", "--outer", "1"]) == 3
    assert not out.exists()
    # the advice names options the command takes, and at least one
    named = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().err))
    with pytest.raises(SystemExit):
        main(["inpaint", "--help"])
    assert named and named <= set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))


def test_sweep_command_csv_and_json(tmp_path):
    out = str(tmp_path / "sweep.csv")
    js = str(tmp_path / "sweep.json")
    assert main(["sweep", "--seconds", "1", "--kinds", "tone", "--gap-cols", "1",
                 "--lambdas", "1e-2", "--inner", "10", "--outer", "1",
                 "--out", out, "--json", js]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "method,gap_cols,signal,snr_db,runtime_s,lambda"
    assert len(lines) == 2
    payload = json.loads(open(js).read())
    assert len(payload["records"]) == 1
    rec = payload["records"][0]
    assert rec["method"] == "uphain" and rec["lambda"] == 1e-2
    assert rec["snr_db"] == float(lines[1].split(",")[3])


def test_compare_command(tmp_path, capsys):
    out = str(tmp_path / "cmp.csv")
    js = str(tmp_path / "cmp.json")
    assert main(["compare", "--seconds", "1", "--kinds", "tone",
                 "--methods", "uphain,tf-only", "--gap-cols", "1",
                 "--inner", "10", "--outer", "1",
                 "--out", out, "--json", js]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 2 * 4  # two methods, four tone signals
    payload = json.loads(open(js).read())
    assert {s["method"] for s in payload["summary"]} == {"uphain", "tf_only"}
    assert "gap 1" in capsys.readouterr().out


def test_inpaint_checks_outputs_before_solving(tmp_path, monkeypatch, capsys):
    clean = wav_path(tmp_path, "c.wav", make_test_signal("multitone", 1.0, SR, seed=13))
    mask = str(tmp_path / "m.json")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", mask]) == 0

    def must_not_solve(*a, **k):
        raise AssertionError("solved although an output exists")

    monkeypatch.setattr(cli, "inpaint_spectrogram", must_not_solve)
    out = tmp_path / "r.wav"
    spec = tmp_path / "r.spgm"
    trace = tmp_path / "t.csv"
    args = ["inpaint", "--in", clean, "--mask", mask, "--out", str(out),
            "--spec-out", str(spec), "--trace", str(trace)]
    out.write_bytes(b"keep")
    assert main(args) == 2
    assert out.read_bytes() == b"keep"
    assert not spec.exists() and not trace.exists()
    # an existing later output keeps the earlier ones unwritten too
    out.unlink()
    spec.write_bytes(b"keep")
    assert main(args) == 2
    assert not out.exists() and not trace.exists()
    assert spec.read_bytes() == b"keep"
    # so does an output whose directory is missing (an I/O error, exit 1)
    spec.unlink()
    args[-1] = str(tmp_path / "missing" / "t.csv")
    assert main(args) == 1
    assert not out.exists() and not spec.exists()
    # a directory is no output, even with --force
    folder = tmp_path / "folder"
    folder.mkdir()
    (folder / "inside").write_bytes(b"keep")
    for paths in ((folder, trace), (out, folder)):
        assert main(["inpaint", "--in", clean, "--mask", mask, "--out", str(paths[0]),
                     "--trace", str(paths[1]), "--force"]) == 2
        assert f"{folder} is a directory" in capsys.readouterr().err
        assert not out.exists() and not trace.exists()
        assert os.listdir(folder) == ["inside"] and (folder / "inside").read_bytes() == b"keep"


def test_corrupt_checks_outputs_before_writing(tmp_path):
    clean = wav_path(tmp_path, "c.wav", make_test_signal("multitone", 1.0, SR, seed=14))
    mask = str(tmp_path / "m.json")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", mask]) == 0
    out = tmp_path / "cc.wav"
    spec = tmp_path / "cc.spgm"
    spec.write_bytes(b"keep")
    assert main(["corrupt", "--in", clean, "--mask", mask, "--out", str(out),
                 "--spec-out", str(spec)]) == 2
    assert not out.exists()
    assert spec.read_bytes() == b"keep"


def test_outputs_may_not_share_a_path(tmp_path, monkeypatch):
    # one file cannot hold two outputs: the second would overwrite the first
    clean = wav_path(tmp_path, "c.wav", make_test_signal("multitone", 1.0, SR, seed=14))
    mask = str(tmp_path / "m.json")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", mask]) == 0

    def must_not_run(*a, **k):
        raise AssertionError("ran although two outputs share a path")

    for target in ("inpaint_spectrogram", "compare_methods"):
        monkeypatch.setattr(cli, target, must_not_run)
    out = str(tmp_path / "r.wav")
    base = ["--in", clean, "--mask", mask, "--out", out]
    for args in (["inpaint", *base, "--trace", out],
                 ["inpaint", *base, "--spec-out", str(tmp_path / "." / "r.wav"), "--force"],
                 ["corrupt", *base, "--spec-out", out],
                 ["compare", "--out", out, "--json", out]):
        assert main(args) == 2, args
        assert not os.path.exists(out), args


def test_outputs_may_not_be_directories(tmp_path, monkeypatch, capsys):
    # --force replaces a file, never a directory: refused before any work
    clean = wav_path(tmp_path, "c.wav", make_test_signal("multitone", 1.0, SR, seed=14))
    mask = str(tmp_path / "m.json")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", mask]) == 0

    def must_not_run(*a, **k):
        raise AssertionError("ran although an output is a directory")

    monkeypatch.setattr(cli, "compare_methods", must_not_run)
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "r.wav"
    for args in (["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", str(folder)],
                 ["corrupt", "--in", clean, "--mask", mask, "--out", str(out),
                  "--spec-out", str(folder)],
                 ["compare", "--out", str(out), "--json", str(folder)]):
        assert main([*args, "--force"]) == 2, args
        assert f"{folder} is a directory" in capsys.readouterr().err
        assert not out.exists() and os.listdir(folder) == [], args


@pytest.mark.parametrize("flags", [["--lambda", "nan"], ["--lambda", "inf"], ["--eps", "nan"],
                                   ["--threshold", "pshrink", "--p", "nan"],
                                   ["--threshold", "smoothhard", "--alpha", "nan"]],
                         ids=["lambda-nan", "lambda-inf", "eps-nan", "p-nan", "alpha-nan"])
def test_inpaint_rejects_nonfinite_solver_options(tmp_path, capsys, flags):
    # a 4-column gap leaves samples free, so a NaN level would reach the iterate
    clean = wav_path(tmp_path, "c.wav", make_test_signal("multitone", 1.0, SR, seed=15))
    mask = str(tmp_path / "m.json")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "4", "--out", mask]) == 0
    out = tmp_path / "r.wav"
    assert main(["inpaint", "--in", clean, "--mask", mask, "--out", str(out),
                 "--inner", "5", "--outer", "1", *flags]) == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_inpaint_rejects_an_overflowing_pshrink_level(tmp_path, monkeypatch, capsys):
    # lambda**(2 - p) overflows a float: exit 2 before any solve, not a traceback
    clean = wav_path(tmp_path, "c.wav", make_test_signal("multitone", 1.0, SR, seed=15))
    mask = str(tmp_path / "m.json")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "4", "--out", mask]) == 0

    def must_not_solve(*a, **k):
        raise AssertionError("solved with a level that overflows")

    monkeypatch.setattr(cli, "inpaint_spectrogram", must_not_solve)
    out = tmp_path / "r.wav"
    assert main(["inpaint", "--in", clean, "--mask", mask, "--out", str(out),
                 "--threshold", "pshrink", "--lambda", "1e300"]) == 2
    assert not out.exists()
    assert "overflows" in capsys.readouterr().err


def test_inpaint_of_an_unmasked_spectrogram_writes_the_masked_bytes(tmp_path):
    # what a .spgm holds in the masked columns is ignored: the clean
    # analysis restores to the bytes of corrupt's masked one
    x = make_test_signal("multitone", 1.0, SR, seed=16)
    clean = wav_path(tmp_path, "c.wav", x)
    mask = str(tmp_path / "m.json")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "4", "--out", mask]) == 0
    masked = str(tmp_path / "masked.spgm")
    assert main(["corrupt", "--in", clean, "--mask", mask, "--out", str(tmp_path / "c2.wav"),
                 "--spec-out", masked]) == 0
    cfg = StftConfig(signal_len=28 * 512)
    _, q = read_wav(clean)
    unmasked = str(tmp_path / "unmasked.spgm")
    write_spectrogram(unmasked, analyze(q[: cfg.signal_len], default_window(cfg), cfg))
    outputs = []
    for name, spgm in (("m", masked), ("u", unmasked)):
        out, spec = tmp_path / f"{name}.wav", tmp_path / f"{name}_out.spgm"
        assert main(["inpaint", "--in", spgm, "--mask", mask, "--out", str(out),
                     "--spec-out", str(spec), "--method", "bphain", "--inner", "20"]) == 0
        outputs.append((out.read_bytes(), spec.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command, target", [("sweep", "sweep_lambda"),
                                             ("compare", "compare_methods")])
def test_sweep_and_compare_check_outputs_before_running(tmp_path, monkeypatch,
                                                        command, target):
    def must_not_run(*a, **k):
        raise AssertionError("ran although an output exists")

    monkeypatch.setattr(cli, target, must_not_run)
    out = tmp_path / "s.csv"
    js = tmp_path / "s.json"
    args = [command, "--seconds", "1", "--kinds", "tone", "--gap-cols", "1",
            "--inner", "2", "--outer", "1", "--out", str(out), "--json", str(js)]
    js.write_bytes(b"keep")
    assert main(args) == 2
    assert not out.exists()
    assert js.read_bytes() == b"keep"
    # an existing first output stops the run too
    js.unlink()
    out.write_bytes(b"keep")
    assert main(args) == 2
    assert out.read_bytes() == b"keep" and not js.exists()


@pytest.mark.parametrize("command, target", [("sweep", "sweep_lambda"),
                                             ("compare", "compare_methods")])
def test_sweep_and_compare_take_jobs(tmp_path, monkeypatch, capsys, command, target):
    # --jobs, else None, as inpaint takes them; no environment variable is read
    seen = []
    record = EvalRecord(method="uphain", mask_gap_cols=1, signal_id="tone-00", snr_db=0.0,
                        runtime_s=0.0, lambda_=0.01, iters_inner=1)

    def spy(*a, **kw):
        seen.append(kw["jobs"])
        return [record] if target == "sweep_lambda" else ([record], [])

    monkeypatch.setattr(cli, target, spy)
    out = tmp_path / "s.csv"
    args = [command, "--seconds", "1", "--kinds", "tone", "--gap-cols", "1",
            "--out", str(out), "--force"]
    assert main(args) == 0
    assert main(args + ["--jobs", "3"]) == 0
    for env in ("4", "0"):
        monkeypatch.setenv("TFPAINT_JOBS", env)
        assert main(args) == 0
    assert seen == [None, 3, None, None]
    capsys.readouterr()
    # a bad count stops the command before any work, with nothing written
    out.unlink()
    for flag in ("0", "-1"):
        assert main(args + ["--jobs", flag]) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "integer >= 1" in err
    assert len(seen) == 4 and not out.exists()


def test_inpaint_rejects_nonfinite_spectrogram(tmp_path, capsys):
    clean = wav_path(tmp_path, "c.wav", make_test_signal("multitone", 1.0, SR, seed=14))
    mask = str(tmp_path / "m.json")
    spgm = str(tmp_path / "c.spgm")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", mask]) == 0
    assert main(["corrupt", "--in", clean, "--mask", mask,
                 "--out", str(tmp_path / "cc.wav"), "--spec-out", spgm]) == 0
    X = read_spectrogram(spgm)
    # column 1 lies well outside the segment cut around the central gap
    assert 1 not in read_mask(mask)[0].zero_cols
    X.data[100, 1] = np.nan
    write_spectrogram(spgm, X, force=True)
    with pytest.raises(ValueError, match="NaN or infinite"):
        read_spectrogram(spgm)
    capsys.readouterr()
    out = tmp_path / "r.wav"
    assert main(["inpaint", "--in", spgm, "--mask", mask, "--out", str(out),
                 "--inner", "5", "--outer", "1"]) == 2
    assert "NaN or infinite" in capsys.readouterr().err
    assert not out.exists()


def test_inpaint_refuses_frame_flags_that_differ_from_the_spectrogram(tmp_path, capsys):
    # a .spgm header sets the window and channels: a flag that says otherwise
    # exits 2 before any work, naming the flag and both values, and writes
    # nothing; the header's own values run
    clean = wav_path(tmp_path, "c.wav", make_test_signal("multitone", 1.0, SR, seed=16))
    mask = str(tmp_path / "m.json")
    spgm = str(tmp_path / "c.spgm")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", mask]) == 0
    assert main(["corrupt", "--in", clean, "--mask", mask,
                 "--out", str(tmp_path / "cc.wav"), "--spec-out", spgm]) == 0
    capsys.readouterr()
    out, spec, trace = (tmp_path / name for name in ("r.wav", "r.spgm", "t.csv"))
    base = ["inpaint", "--in", spgm, "--mask", mask, "--out", str(out),
            "--spec-out", str(spec), "--trace", str(trace), "--inner", "5", "--outer", "1"]
    for flags, named in ((["--window", "1024"], "--window 1024 .* 2048"),
                         (["--channels", "4096"], "--channels 4096 .* 2048"),
                         (["--window", "2048", "--channels", "1024"], "--channels 1024 .* 2048")):
        assert main(base + flags) == 2
        assert re.search(named, capsys.readouterr().err)
        assert not any(p.exists() for p in (out, spec, trace))
    assert main(base + ["--window", "2048", "--channels", "2048"]) == 0
    assert out.exists()


def test_inpaint_rejects_nonsymmetric_spectrogram(tmp_path, capsys):
    clean = wav_path(tmp_path, "c.wav", make_test_signal("multitone", 1.0, SR, seed=15))
    mask = str(tmp_path / "m.json")
    spgm = str(tmp_path / "c.spgm")
    assert main(["make-mask", "--seconds", "1", "--gap-cols", "1", "--out", mask]) == 0
    assert main(["corrupt", "--in", clean, "--mask", mask,
                 "--out", str(tmp_path / "cc.wav"), "--spec-out", spgm]) == 0
    X = read_spectrogram(spgm)
    X.data[100, 1] += 1e-3 * np.max(np.abs(X.data))  # row M-100 not mirrored
    write_spectrogram(spgm, X, force=True)
    # the reader stays a pure format reader; the rule is inpaint's
    assert np.array_equal(read_spectrogram(spgm).data, X.data)
    capsys.readouterr()
    out, spec = tmp_path / "r.wav", tmp_path / "r.spgm"
    assert main(["inpaint", "--in", spgm, "--mask", mask, "--out", str(out),
                 "--spec-out", str(spec), "--inner", "5", "--outer", "1"]) == 2
    assert "not conjugate-symmetric" in capsys.readouterr().err
    assert not out.exists() and not spec.exists()
    # a mask whose hop is not the spectrogram's is refused too
    assert main(["corrupt", "--in", clean, "--mask", mask, "--out", str(tmp_path / "cc.wav"),
                 "--spec-out", spgm, "--force"]) == 0
    write_mask(str(tmp_path / "m256.json"), read_mask(mask)[0], 256)
    capsys.readouterr()
    assert main(["inpaint", "--in", spgm, "--mask", str(tmp_path / "m256.json"),
                 "--out", str(out), "--inner", "5", "--outer", "1"]) == 2
    assert "mask hop does not match the spectrogram hop" in capsys.readouterr().err
    assert not out.exists()


def test_inpaint_holds_about_two_coefficient_arrays(tmp_path):
    # in-process tfpaint inpaint on a 20 s .spgm: the corrupted and the
    # restored coefficients meet once (the restoration is a copy), and the
    # full-length synthesis and the file writer add no third array
    cfg = StftConfig(signal_len=624 * 512)
    x = make_test_signal("multitone", cfg.signal_len / SR, SR, seed=3)[: cfg.signal_len]
    mask = ColumnMask(624, np.array([100, 101, 300, 301, 302]))
    spgm, mk = str(tmp_path / "c.spgm"), str(tmp_path / "m.json")
    Xc = apply_mask(analyze(x, default_window(cfg), cfg), mask)
    write_spectrogram(spgm, Xc)
    write_mask(mk, mask, 512)
    nbytes = Xc.data.nbytes
    del Xc
    args = ["inpaint", "--in", spgm, "--mask", mk, "--method", "bphain",
            "--inner", "5", "--jobs", "1", "--out", str(tmp_path / "r.wav"),
            "--spec-out", str(tmp_path / "r.spgm"), "--trace", str(tmp_path / "t.csv")]
    tracemalloc.start()
    try:
        rc = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= 2.3 * nbytes, peak / nbytes

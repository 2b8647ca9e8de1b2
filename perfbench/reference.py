"""Computations the benchmark makes apart from the program under test.

The output checks compare tfpaint's results against these: an independent
tight Gabor frame (analysis and its real adjoint), SNR, and readers and
writers for the WAV, mask JSON, SPGM and trace CSV files.  Nothing here
imports tfpaint, so a fault in the program cannot hide in its own yardstick.

Frame convention (the one tfpaint documents): circular placement of a
periodic Hann window made tight at hop ``a``, FFT length ``M``, and the
absolute sample index in the exponential (frequency-invariant phase).
"""

import csv
import json
import math
import wave

import numpy as np

SR = 16000
WINDOW = 2048
HOP = 512
CHANNELS = 2048
SPGM_MAGIC = b"SPGM1"
TRACE_HEADER = ["gap_start", "iteration", "objective", "feasibility"]


class CheckFailed(AssertionError):
    """An output of the program broke a property the benchmark checks."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ------------------------------------------------------------------- frame


def tight_hann():
    k = np.arange(WINDOW)
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * k / WINDOW)
    energy = np.array([np.dot(w[r::HOP], w[r::HOP]) for r in range(HOP)])
    return w / np.sqrt(CHANNELS * energy[k % HOP])


def _grid(n_samples):
    n_frames = n_samples // HOP
    pos = np.arange(WINDOW)[:, None] + HOP * np.arange(n_frames)[None, :]
    phase = np.exp(-2j * np.pi * np.arange(CHANNELS)[:, None]
                   * ((HOP * np.arange(n_frames)) % CHANNELS)[None, :] / CHANNELS)
    return pos % n_samples, phase


def analysis(x):
    """Full M x N coefficient matrix of a real signal."""
    x = np.asarray(x, dtype=float)
    idx, phase = _grid(x.size)
    return np.fft.fft(x[idx] * tight_hann()[:, None], n=CHANNELS, axis=0) * phase


def synthesis(X):
    """Real adjoint of ``analysis``; its inverse for this tight window."""
    X = np.asarray(X)
    n_samples = X.shape[1] * HOP
    idx, phase = _grid(n_samples)
    frames = (np.fft.ifft(X * np.conj(phase), axis=0) * CHANNELS)[:WINDOW].real
    x = np.zeros(n_samples)
    np.add.at(x, idx, frames * tight_hann()[:, None])
    return x


def snr_db(ref, test):
    ref = np.asarray(ref, dtype=float)
    test = np.asarray(test, dtype=float)
    require(ref.shape == test.shape, f"length {test.shape} != reference {ref.shape}")
    err = float(np.sum((ref - test) ** 2))
    return math.inf if err == 0.0 else 10.0 * math.log10(float(np.sum(ref ** 2)) / err)


def hermitian_residual(X):
    M = X.shape[0]
    scale = float(np.max(np.abs(X)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(X - np.conj(X[(-np.arange(M)) % M])))) / scale


def zero_columns(X, cols):
    out = np.array(X)
    out[:, cols] = 0.0
    return out


def find_runs(zero_cols):
    """Maximal runs of consecutive column indices, as (start, stop) pairs."""
    cols = np.unique(np.asarray(zero_cols, dtype=int))
    if cols.size == 0:
        return []
    cut = np.flatnonzero(np.diff(cols) > 1) + 1
    return [(int(r[0]), int(r[-1]) + 1) for r in np.split(cols, cut)]


def segment_lengths(zero_cols, pad=4):
    """Column count of the aligned segment the pipeline cuts around each gap:
    the smallest span on multiples of window/hop columns that covers the gap
    plus ``pad`` columns each side."""
    q = WINDOW // HOP
    out = []
    for start, stop in find_runs(zero_cols):
        s = q * ((start - pad) // q)
        out.append(q * -((s - stop - pad) // q))
    return out


def reliable_columns(n_cols, zero_cols):
    keep = np.ones(n_cols, dtype=bool)
    keep[np.asarray(zero_cols, dtype=int)] = False
    return keep


# ------------------------------------------------------------------- files


def quantize(x):
    return np.clip(np.round(np.asarray(x) * 32768.0), -32768, 32767).astype("<i2")


def write_wav(path, x):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SR)
        fh.writeframes(quantize(x).tobytes())


def read_wav(path):
    """PCM16 mono -> float samples in [-1, 1)."""
    with wave.open(str(path), "rb") as fh:
        require(fh.getnchannels() == 1 and fh.getsampwidth() == 2,
                f"{path}: not PCM16 mono")
        data = fh.readframes(fh.getnframes())
    return np.frombuffer(data, dtype="<i2").astype(float) / 32768.0


def write_mask(path, n_cols, zero_cols):
    with open(path, "w") as fh:
        json.dump({"n_cols": int(n_cols), "hop": HOP,
                   "zero_cols": [int(c) for c in zero_cols]}, fh)


def write_spgm(path, X):
    M, N = X.shape
    with open(path, "wb") as fh:
        fh.write(SPGM_MAGIC)
        fh.write(np.array([M, N, HOP, WINDOW], dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(X, dtype="<c16").tobytes())


def read_spgm(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    require(blob[:5] == SPGM_MAGIC, f"{path}: bad magic")
    M, N, _, _ = (int(v) for v in np.frombuffer(blob[5:21], dtype="<u4"))
    data = np.frombuffer(blob[21:], dtype="<c16")
    require(data.size == M * N, f"{path}: {data.size} coefficients, header says {M * N}")
    return data.reshape(M, N)


def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(bool(rows) and rows[0] == TRACE_HEADER, f"{path}: bad trace header")
    return np.array([[float(v) for v in r] for r in rows[1:]]).reshape(-1, 4)


# ------------------------------------------------------------------ checks


def check_restoration(X_out, X_corr, x_clean, zero_cols, floor_db):
    """Checks on one restored spectrogram; returns (snr, zero-filled snr).

    The restoration must be finite and conjugate-symmetric, keep every
    reliable column bit for bit, and beat both the floor and the
    zero-filled observation by 10 dB.
    """
    X_out = np.asarray(X_out)
    require(X_out.shape == X_corr.shape, "restoration has the wrong shape")
    require(bool(np.all(np.isfinite(X_out))), "restoration is not finite")
    require(hermitian_residual(X_out) <= 1e-9, "restoration is not conjugate-symmetric")
    keep = reliable_columns(X_out.shape[1], zero_cols)
    require(np.array_equal(X_out[:, keep], X_corr[:, keep]),
            "a reliable column changed")
    got = snr_db(x_clean, synthesis(X_out))
    base = snr_db(x_clean, synthesis(X_corr))
    require(got >= floor_db, f"SNR {got:.2f} dB below the {floor_db} dB floor")
    require(got >= base + 10.0,
            f"SNR {got:.2f} dB not 10 dB above zero-filled {base:.2f} dB")
    return got, base


def check_cli_outputs(out_wav, out_spgm, trace_csv, X_corr, clean_wav_samples,
                      zero_cols, n_gaps, inner_iters):
    """Checks on the three files one ``tfpaint inpaint`` call wrote.

    Returns (snr of the restored WAV, snr of the zero-filled WAV, trace rows).
    """
    restored = read_wav(out_wav)
    n = X_corr.shape[1] * HOP
    require(restored.size == n, f"restored WAV has {restored.size} samples, mask spans {n}")
    clean = clean_wav_samples[:n]
    zero_filled = quantize(synthesis(X_corr)).astype(float) / 32768.0
    got = snr_db(clean, restored)
    base = snr_db(clean, zero_filled)
    require(got > base, f"restored WAV SNR {got:.2f} dB does not beat zero-filled {base:.2f} dB")

    spec = read_spgm(out_spgm)
    require(spec.shape == X_corr.shape, "--spec-out has the wrong shape")
    keep = reliable_columns(spec.shape[1], zero_cols)
    require(np.array_equal(spec[:, keep], X_corr[:, keep]),
            "--spec-out changed a reliable column")

    rows = read_trace(trace_csv)
    require(rows.shape[0] == n_gaps * inner_iters,
            f"trace has {rows.shape[0]} rows, expected {n_gaps} gaps x {inner_iters}")
    require(bool(np.all(np.isfinite(rows))), "trace has a non-finite value")
    starts = np.unique(rows[:, 0])
    require(starts.size == n_gaps, f"trace covers {starts.size} gaps, expected {n_gaps}")
    for start in starts:
        its = np.sort(rows[rows[:, 0] == start, 1])
        require(np.array_equal(its, np.arange(1, inner_iters + 1)),
                f"trace of gap {int(start)} does not hold iterations 1..{inner_iters}")
    return got, base, rows.shape[0]

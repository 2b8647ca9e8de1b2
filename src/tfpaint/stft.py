"""Discrete Gabor / short-time Fourier transform on circularly extended signals.

Conventions (these matter; everything downstream relies on them):

* Frequency-invariant phase: the analysis coefficient is

      X[m, n] = sum_l x[l] * g[l - a*n] * exp(-i*2*pi*m*l / M)

  with the *absolute* signal index l in the exponential, so a stationary
  sinusoid's phase advances linearly across frames at a bin-dependent rate.
* The window is compactly supported (length ``window_len``) and placed
  circularly over the signal, making the frame operator exactly diagonal.
* ``synthesize`` is the exact real adjoint of ``analyze``:
  <analyze(x), Y>_Re == <x, synthesize(Y)> for arbitrary complex Y.  With the
  canonical tight window the pair satisfies syn(ana(x)) == x and Parseval
  ||ana(x)||_F == ||x||_2.

* The analysis of a real signal is conjugate-symmetric, X[M-m] ==
  conj(X[m]), so the frame operator is implemented once, on rows 0..M//2
  with real-input FFTs.  ``analyze`` expands its result to all M rows;
  ``synthesize`` reduces its input to the conjugate-symmetric part first.
  The solver works on the half rows directly through the private helpers
  (``_rfft_frames``/``_irfft_frames`` without the phase ramp, ``_expand``
  and ``_hermitian_half`` at its M-row boundary).
* Layout: the private helpers are frames-major -- k frames are (k, W) rows
  and their coefficients (k, M//2+1), so every FFT, window product and
  overlap-add runs along the contiguous last axis.  The public API
  (``Spectrogram``, ``analyze``, ``synthesize``) stays M rows by N columns;
  ``_expand`` and ``_hermitian_half`` convert between the two.
* Frames are read through a strided view and overlap-added hop by hop, for
  any hop; no index grid is kept.  The private helpers also take k frames of
  a span buffer of a*(k-1) + W samples; only the whole circle folds.

Exactness of the frame algebra additionally requires ``channels`` to divide
``signal_len`` (alias spacing must be a multiple of the FFT length); the
config validates this.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class StftConfig:
    """Frame geometry: window length, hop a, FFT channels M, signal length L."""

    window_len: int = 2048
    hop: int = 512
    channels: int = 2048
    signal_len: int = 0

    def __post_init__(self):
        if self.window_len < 2:
            raise ValueError("window_len must be >= 2")
        if self.hop < 1 or self.hop > self.window_len:
            raise ValueError("hop must satisfy 1 <= hop <= window_len")
        if self.channels < self.window_len:
            raise ValueError("channels must be >= window_len (painless case)")
        if self.signal_len < self.window_len:
            raise ValueError("signal_len must be >= window_len")
        if self.signal_len % self.hop != 0:
            raise ValueError("hop must divide signal_len")
        if self.signal_len % self.channels != 0:
            raise ValueError(
                "channels must divide signal_len (required for exact "
                "reconstruction with the circular frame)"
            )

    @property
    def n_frames(self):
        return self.signal_len // self.hop


@dataclass(frozen=True)
class Window:
    """Real window samples plus a tag for how they were built."""

    samples: np.ndarray
    kind: str = "custom"  # {hann, hann_derivative, custom}

    def __len__(self):
        return len(self.samples)


@dataclass
class Spectrogram:
    """Complex coefficient matrix, M frequency rows by N time columns."""

    data: np.ndarray
    config: StftConfig

    @property
    def shape(self):
        return self.data.shape


def make_hann(window_len):
    """Periodic (DFT-even) Hann window, w[k] = 0.5*(1 - cos(2 pi k / W))."""
    if window_len < 2:
        raise ValueError("window_len must be >= 2")
    k = np.arange(window_len)
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * k / window_len))
    return Window(w, kind="hann")


def make_hann_derivative(window_len):
    """Analytic derivative of the continuous periodic Hann, sampled.

    w'[k] = (pi / W) * sin(2 pi k / W), in units of per-sample.  Used for
    instantaneous-frequency estimation.
    """
    if window_len < 2:
        raise ValueError("window_len must be >= 2")
    k = np.arange(window_len)
    w = (np.pi / window_len) * np.sin(2.0 * np.pi * k / window_len)
    return Window(w, kind="hann_derivative")


def tight_window(g, cfg):
    """Canonical tight window: g[k] / sqrt(M * sum_j g[k - j*a]^2).

    The hop-shift sum runs over all shifts covering index k under circular
    placement; analyze/synthesize built on the result satisfy
    syn(ana(x)) == x with operator norm exactly 1.
    """
    w = _window(g, cfg)
    a = cfg.hop
    # Overlap energy per hop residue; every signal position with residue r
    # sees exactly the window samples r, r+a, r+2a, ...
    s = np.zeros(a)
    for r in range(a):
        s[r] = np.sum(w[r::a] ** 2)
    if np.min(s) <= 0.0:
        raise ValueError("degenerate window: zero frame-operator diagonal")
    gt = w / np.sqrt(cfg.channels * s[np.arange(len(w)) % a])
    return Window(gt, kind="custom")


@lru_cache(maxsize=64)
def default_window(cfg):
    """Canonical tight Hann window for a frame geometry (cached)."""
    return tight_window(make_hann(cfg.window_len), cfg)


def _window(g, cfg):
    """Float samples of a Window or array (default_window(cfg) for None),
    checked against cfg.window_len."""
    if g is None:
        g = default_window(cfg)
    w = np.asarray(g.samples if isinstance(g, Window) else g, dtype=float)
    if len(w) != cfg.window_len:
        raise ValueError("window length does not match config")
    return w


@lru_cache(maxsize=64)
def _frame_plan(cfg, start, count):
    """Phase ramp ramp[j, m] = exp(-i*2*pi*m*a*n / M), n = start + j, for
    count frames and rows m = 0..M//2 (period N in n, as M divides a*N).

    It converts frame-local FFT phase to the frequency-invariant convention.
    The exponent m*a*n is reduced modulo M in integers first, so every row
    is rounded once and the Nyquist row is exactly 1 when a*n is even.
    """
    a, M = cfg.hop, cfg.channels
    n = start + np.arange(count)
    k = (((a * n) % M)[:, None] * np.arange(M // 2 + 1)[None, :]) % M
    return np.exp(-2j * np.pi * k / M)


def _rfft_frames(x, w, cfg, circular=True):
    """Real-input FFT of the windowed frames of x: (k, M//2+1), with the
    frame-local phase (no ramp).  Frame j, samples a*j..a*j+W-1 of the span
    buffer, is read through a strided view; x is the span buffer itself, or
    (circular) the whole signal, extended by its first W - a samples."""
    W, a = cfg.window_len, cfg.hop
    if circular:
        x = np.concatenate((x, x[: W - a]))
    k = (len(x) - W) // a + 1
    step = x.strides[0]
    frames = np.lib.stride_tricks.as_strided(x, (k, W), (a * step, step), writeable=False)
    return np.fft.rfft(np.multiply(frames, w, out=np.empty((k, W))), n=cfg.channels)


def _overlap_add(contrib, cfg, circular=True):
    """Overlap-add of per-frame contributions (k x W) into the span buffer
    of the k frames; circular folds the overhang back onto the front.

    Frames are split into q = ceil(W/a) hop-sized chunks, the last one
    partial when a does not divide W; chunk j of frame n lands on block
    n + j.  Contiguous adds beat modular fancy indexing.  One fold
    suffices: L >= W gives N >= q.
    """
    W, a = cfg.window_len, cfg.hop
    k = len(contrib)
    q = -(-W // a)
    ext = np.zeros((k + q - 1, a))
    for j in range(q):
        chunk = contrib[:, j * a : (j + 1) * a]
        ext[j : j + k, : chunk.shape[1]] += chunk
    if circular:
        ext[: q - 1] += ext[k:]
        return ext[:k].ravel()
    return ext.ravel()[: a * (k - 1) + W]


def _irfft_frames(V, w, cfg, circular=True):
    """Real adjoint of the full-spectrum _rfft_frames, given rows 0..M//2
    of each of the k frames of V (k, M//2+1).

    The lower rows are implied as the conjugate mirror, which makes the
    inverse transform real; the imaginary parts of the DC row and of an
    even M's Nyquist row do not reach the signal.  Scaled by M, windowed,
    then overlap-added.
    """
    M = cfg.channels
    contrib = np.fft.irfft(V, n=M)[:, : cfg.window_len]
    contrib *= w * M
    return _overlap_add(contrib, cfg, circular)


def _synthesize(H, w, cfg):
    """Synthesis of the conjugate-symmetric matrix with rows 0..M//2 = H
    (frames-major, (N, M//2+1))."""
    return _irfft_frames(H * np.conj(_frame_plan(cfg, 0, cfg.n_frames)), w, cfg)


def _expand(H, M):
    """All M rows, by k columns, of the conjugate-symmetric matrix whose
    rows 0..M//2 are the frames-major H (k, M//2+1)."""
    half = H.shape[1]
    full = np.empty((M, len(H)), dtype=H.dtype)
    full[:half] = H.T
    np.conj(H[:, (M - 1) // 2 : 0 : -1].T, out=full[half:])
    return full


def _hermitian_half(X):
    """Rows 0..M//2 of the conjugate-symmetric part of an M-row matrix,
    (X[m] + conj(X[-m mod M])) / 2, frames-major (k, M//2+1): all of it
    that a real signal sees.  Returns those rows unchanged when X is
    conjugate-symmetric."""
    X = np.asarray(X)
    M, XT = X.shape[0], X.T
    half = M // 2 + 1
    out = np.empty((X.shape[1], half), dtype=np.result_type(X.dtype, 0.5))
    np.conj(XT[:, :1], out=out[:, :1])
    np.conj(XT[:, M - 1 : M - half : -1], out=out[:, 1:])
    out += XT[:, :half]
    out *= 0.5
    return out


def analyze(x, g, cfg):
    """STFT of a real signal; returns a Spectrogram (M x N complex).

    Rows M//2+1..M-1 are the exact conjugate mirror of rows (M-1)//2..1.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.signal_len,):
        raise ValueError("signal length does not match config")
    A = _rfft_frames(x, _window(g, cfg), cfg) * _frame_plan(cfg, 0, cfg.n_frames)
    return Spectrogram(_expand(A, cfg.channels), cfg)


def synthesize(X, g, cfg):
    """Real adjoint of analyze (the inverse STFT for a tight window).

    Accepts a Spectrogram or a bare complex matrix.  Only the conjugate-
    symmetric part of a coefficient matrix reaches a real signal, so that
    part is synthesized.  This equals the real part of the complex
    synthesis sum, which makes this the exact adjoint with respect to the
    real inner product for any complex input.
    """
    data = X.data if isinstance(X, Spectrogram) else np.asarray(X)
    if data.shape != (cfg.channels, cfg.n_frames):
        raise ValueError("spectrogram shape does not match config")
    return _synthesize(_hermitian_half(data), _window(g, cfg), cfg)


def symmetry_residual(X):
    """Max deviation from conjugate symmetry X[M-m, n] == conj(X[m, n]).

    Zero (to round-off) for any spectrogram of a real signal; large values
    flag coefficient matrices that cannot come from real audio.
    """
    data = X.data if isinstance(X, Spectrogram) else np.asarray(X)
    M = data.shape[0]
    mirrored = np.conj(data[(-np.arange(M)) % M])
    scale = np.max(np.abs(data))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(data - mirrored)) / scale)

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
* Frames are read through a strided view and overlap-added hop by hop
  (``_add_frames``), for any hop; no index grid is kept.  The private
  helpers also take k frames of a span buffer of a*(k-1) + W samples; only
  the whole circle folds.
* ``analyze`` and ``synthesize`` run the full-length frame operator one
  block of frames at a time (``_blocks``, about 2 MB of coefficients each),
  so neither makes a whole-file temporary: a 60 s analysis holds its result
  and little more, a synthesis its signal.  The phase ramp of any frame is a
  row of one cached table of P = M/gcd(a, M) rows (``_frame_plan``).  The
  blocks give the bits of the one-pass transforms.

Exactness of the frame algebra additionally requires ``channels`` to divide
``signal_len`` (alias spacing must be a multiple of the FFT length); the
config validates this.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Coefficients of rows 0..M//2 per frame block of analyze and synthesize
# (64 frames at M = 2048): each block temporary is about 2 MB.
_BLOCK_COEFFS = 2**17


def _is_int(n):
    """Whether n is an integer (Python or numpy), not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


@dataclass(frozen=True)
class StftConfig:
    """Frame geometry: window length, hop a, FFT channels M, signal length L
    (integers)."""

    window_len: int = 2048
    hop: int = 512
    channels: int = 2048
    signal_len: int = 0

    def __post_init__(self):
        for name in ("window_len", "hop", "channels", "signal_len"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, not {getattr(self, name)!r}")
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


@dataclass
class Spectrogram:
    """Complex coefficient matrix, M frequency rows by N time columns."""

    data: np.ndarray
    config: StftConfig

    @property
    def shape(self):
        return self.data.shape


def _coeffs(X):
    """The matrix held by a Spectrogram, or X as an array."""
    return X.data if isinstance(X, Spectrogram) else np.asarray(X)


def make_hann(window_len):
    """Periodic (DFT-even) Hann window, w[k] = 0.5*(1 - cos(2 pi k / W))."""
    if window_len < 2:
        raise ValueError("window_len must be >= 2")
    k = np.arange(window_len)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / window_len))


def make_hann_derivative(window_len):
    """Analytic derivative of the continuous periodic Hann, sampled.

    w'[k] = (pi / W) * sin(2 pi k / W), in units of per-sample.  Used for
    instantaneous-frequency estimation.
    """
    if window_len < 2:
        raise ValueError("window_len must be >= 2")
    k = np.arange(window_len)
    return (np.pi / window_len) * np.sin(2.0 * np.pi * k / window_len)


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
    return w / np.sqrt(cfg.channels * s[np.arange(len(w)) % a])


@lru_cache(maxsize=64)
def default_window(cfg):
    """Canonical tight Hann window for a frame geometry (cached, so
    read-only: every caller shares it)."""
    w = tight_window(make_hann(cfg.window_len), cfg)
    w.flags.writeable = False
    return w


def _window(g, cfg):
    """Float samples of window g, checked against cfg.window_len."""
    w = np.asarray(g, dtype=float)
    if len(w) != cfg.window_len:
        raise ValueError("window length does not match config")
    return w


@lru_cache(maxsize=64)
def _ramp_table(a, M):
    """Rows n = 0..P-1 of the phase ramp, P = M / gcd(a, M) (read-only).

    The exponent m*a*n is reduced modulo M in integers first, so every entry
    is rounded once and the Nyquist row is exactly 1 when a*n is even; when
    it is odd, exp(-i*pi) would round to -1 - 1.2e-16i, so -1 is set.
    """
    n = np.arange(M // math.gcd(a, M))
    k = (((a * n) % M)[:, None] * np.arange(M // 2 + 1)[None, :]) % M
    table = np.exp(-2j * np.pi * k / M)
    if M % 2 == 0:
        table[k[:, M // 2] != 0, M // 2] = -1.0
    table.flags.writeable = False
    return table


def _frame_plan(cfg, start, count):
    """Phase ramp ramp[j, m] = exp(-i*2*pi*m*a*n / M), n = start + j, for
    count frames and rows m = 0..M//2; start may be negative or past N.

    It converts frame-local FFT phase to the frequency-invariant convention.
    Frame n's ramp depends only on a*n mod M, which has period
    P = M / gcd(a, M) in n (4 at the defaults), so the rows are looked up in
    one cached table of P rows: no per-call or whole-file ramp is computed.
    """
    table = _ramp_table(cfg.hop, cfg.channels)
    return table[(start + np.arange(count)) % len(table)]


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


def _add_frames(ext, contrib, a):
    """Add per-frame contributions (k x W) into ext, rows of a samples: chunk
    j of frame n (of ceil(W/a) chunks, the last partial when a does not divide
    W) onto row n + j, so a row sums its frames newest first.  Contiguous adds
    beat modular fancy indexing."""
    k = len(contrib)
    for j in range(-(-contrib.shape[1] // a)):
        chunk = contrib[:, j * a : (j + 1) * a]
        ext[j : j + k, : chunk.shape[1]] += chunk


def _overlap_add(contrib, cfg, circular=True):
    """Overlap-add of per-frame contributions (k x W) into the span buffer
    of the k frames; circular folds the overhang back onto the front (once:
    L >= W gives N >= q = ceil(W/a))."""
    W, a = cfg.window_len, cfg.hop
    k = len(contrib)
    q = -(-W // a)
    ext = np.zeros((k + q - 1, a))
    _add_frames(ext, contrib, a)
    if circular:
        ext[: q - 1] += ext[k:]
        return ext[:k].ravel()
    return ext.ravel()[: a * (k - 1) + W]


def _windowed_irfft(V, w, cfg):
    """Per-frame contributions (k x W) of the k frames of V (k, M//2+1):
    the real inverse FFT of the conjugate-symmetric spectrum, scaled by M
    and windowed."""
    M = cfg.channels
    contrib = np.fft.irfft(V, n=M)[:, : cfg.window_len]
    contrib *= w * M
    return contrib


def _irfft_frames(V, w, cfg, circular=True):
    """Real adjoint of the full-spectrum _rfft_frames, given rows 0..M//2
    of each of the k frames of V (k, M//2+1).

    The lower rows are implied as the conjugate mirror, which makes the
    inverse transform real; the imaginary parts of the DC row and of an
    even M's Nyquist row do not reach the signal.  Scaled by M, windowed,
    then overlap-added.
    """
    return _overlap_add(_windowed_irfft(V, w, cfg), cfg, circular)


def _expand(H, M, out=None):
    """All M rows, by k columns, of the conjugate-symmetric matrix whose
    rows 0..M//2 are the frames-major H (k, M//2+1); written to out (an
    (M, k) array or view) when given."""
    half = H.shape[1]
    if out is None:
        out = np.empty((M, len(H)), dtype=H.dtype)
    out[:half] = H.T
    np.conj(H[:, (M - 1) // 2 : 0 : -1].T, out=out[half:])
    return out


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


def _blocks(cfg):
    """(start, stop) of the consecutive frame blocks of the full-length
    transforms: about _BLOCK_COEFFS half-spectrum coefficients each."""
    N = cfg.n_frames
    step = max(1, _BLOCK_COEFFS // cfg.channels)
    return [(s, min(s + step, N)) for s in range(0, N, step)]


def analyze(x, g, cfg):
    """STFT of a real signal; returns a Spectrogram (M x N complex).

    Rows M//2+1..M-1 are the exact conjugate mirror of rows (M-1)//2..1.
    The result is filled one frame block at a time (rFFT, ramp, mirrored
    rows), so no full-size temporary is made.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.signal_len,):
        raise ValueError("signal length does not match config")
    w = _window(g, cfg)
    W, a, M, L = cfg.window_len, cfg.hop, cfg.channels, cfg.signal_len
    out = np.empty((M, cfg.n_frames), dtype=complex)
    for s, e in _blocks(cfg):
        lo, hi = a * s, a * (e - 1) + W
        # only the last block's frames reach round the circle
        span = x[lo:hi] if hi <= L else np.concatenate((x[lo:], x[: hi - L]))
        A = _rfft_frames(span, w, cfg, circular=False)
        A *= _frame_plan(cfg, s, e - s)
        _expand(A, M, out=out[:, s:e])
    return Spectrogram(out, cfg)


def synthesize(X, g, cfg):
    """Real adjoint of analyze (the inverse STFT for a tight window).

    Accepts a Spectrogram or a bare complex matrix.  Only the conjugate-
    symmetric part of a coefficient matrix reaches a real signal, so that
    part is synthesized.  This equals the real part of the complex
    synthesis sum, which makes this the exact adjoint with respect to the
    real inner product for any complex input.

    The frames go through one block at a time, last block first, into one
    buffer of hop blocks (``_add_frames``), so every hop block sums its
    frames newest first, as the one-pass overlap-add does, and gets its
    bits; the overhang past the end folds onto the front once, at the end.
    """
    data = _coeffs(X)
    if data.shape != (cfg.channels, cfg.n_frames):
        raise ValueError("spectrogram shape does not match config")
    w = _window(g, cfg)
    N, q = cfg.n_frames, -(-cfg.window_len // cfg.hop)
    ext = np.zeros((N + q - 1, cfg.hop))
    for s, e in reversed(_blocks(cfg)):
        # conj(ramp) * half, in this order: numpy can round a complex
        # product differently with its operands swapped, and this is the
        # order the one-pass product took (numpy elides the temporary and
        # reuses it) on any file of 2**14 or more half-spectrum coefficients
        V = np.conj(_frame_plan(cfg, s, e - s))
        V *= _hermitian_half(data[:, s:e])
        _add_frames(ext[s:], _windowed_irfft(V, w, cfg), cfg.hop)
    ext[: q - 1] += ext[N:]
    return ext[:N].ravel()


def symmetry_residual(X):
    """Max deviation from conjugate symmetry X[M-m, n] == conj(X[m, n]).

    Zero (to round-off) for any spectrogram of a real signal; large values
    flag coefficient matrices that cannot come from real audio.  Rows
    0..M//2 are compared with their mirrors (the other rows give the same
    magnitudes) a block of columns at a time, so no full-size copy is made.
    """
    data = _coeffs(X)
    M, N = data.shape
    mirror = (-np.arange(M // 2 + 1)) % M
    step = max(1, 2**16 // M)  # about 1 MB of coefficients per block
    worst = scale = 0.0
    for c in range(0, N, step):
        block = data[:, c : c + step]
        scale = np.maximum(scale, np.max(np.abs(block)))
        worst = np.maximum(worst, np.max(np.abs(block[: M // 2 + 1] - np.conj(block[mirror]))))
    if scale == 0.0:
        return 0.0
    return float(worst / scale)

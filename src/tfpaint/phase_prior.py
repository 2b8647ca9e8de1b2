"""Instantaneous-frequency phase correction and time-directional variation.

The penalty implemented here is the l1 norm of the time difference of the
*phase-corrected* spectrogram.  The correction unwinds, per coefficient, the
phase advance predicted by the locally estimated instantaneous frequency, so
that a stationary sinusoid becomes constant along time and its variation
vanishes — while transients and noise keep paying full price.

Units: omega[m, n] is a frequency offset in *bins*.  The per-coefficient
estimate is -Im(X_d / X_g) scaled by M/(2*pi), where X_d and X_g are the
analyses with the derivative window and the plain window.  With that scale
the correction factor exp(-i*2*pi*a*cumsum(omega)/M) exactly cancels a pure
tone's per-frame advance; the scale is the lone convention choice and the
pure-tone tests pin it down.  The estimate always takes the plain Hann
pair and a fixed magnitude floor; the ratio is scale-invariant, so that
pair gives the estimates of any common rescaling of it, the tight analysis
window included.  Rows 0..M//2 are estimated; the rest mirror them with the
sign flipped, as for any real signal.
"""

from functools import lru_cache

import numpy as np

from .stft import (Spectrogram, StftConfig, _coeffs, _rfft_frames, analyze, make_hann,
                   make_hann_derivative)

_MAG_FLOOR = 1e-10  # omega = 0 where |X_g| is at or below this share of its largest


@lru_cache(maxsize=64)
def _if_windows(window_len):
    # the plain Hann pair, read-only: every estimate shares it
    pair = make_hann(window_len), make_hann_derivative(window_len)
    for w in pair:
        w.flags.writeable = False
    return pair


def estimate_if(x, cfg, circular=True):
    """Entrywise instantaneous-frequency offsets of a real signal, in bins,
    as an M x N array, from the plain Hann pair (``_if_windows``), which
    serves the tight analysis as the ratio is scale-invariant; 0 where
    |X_g| <= _MAG_FLOOR * max|X_g|.

    x is a real signal of length cfg.signal_len, or (circular False) the
    span buffer of a run of frames (see ``stft``): offsets and magnitude
    floor are then the run's.
    """
    x = np.asarray(x, dtype=float)
    if circular and x.shape != (cfg.signal_len,):
        raise ValueError("signal length does not match config")
    # the frame ramp multiplies both analyses alike and cancels in the
    # ratio, so the frame-local transforms of rows 0..M//2 suffice (frames-
    # major, as stft's private helpers are)
    g, g_prime = _if_windows(cfg.window_len)
    Xg = _rfft_frames(x, g, cfg, circular)
    Xd = _rfft_frames(x, g_prime, cfg, circular)
    mag = np.abs(Xg)
    ok = mag > _MAG_FLOOR * np.max(mag)
    omega = np.zeros(Xg.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = -np.imag(Xd / Xg) * (cfg.channels / (2.0 * np.pi))
    np.copyto(omega, raw, where=ok & np.isfinite(raw))
    # a real signal's offsets vanish on the DC and Nyquist rows and are
    # exactly antisymmetric across the frequency mirror; the raw ratio only
    # satisfies that up to round-off, so impose it by construction
    M = cfg.channels
    omega[:, 0] = 0.0
    if M % 2 == 0:
        omega[:, M // 2] = 0.0
    full = np.concatenate((omega, -omega[:, (M - 1) // 2 : 0 : -1]), axis=1)
    return full.T  # frames-major underneath, M x N as an array


def correction_factors(omega, hop, channels):
    """Unit-modulus rotation matrix exp(-i*2*pi*a*cumsum_<n(omega)/M).

    Column 0 gets an empty sum (factor 1).  Precompute this when applying
    the same omega many times; phase_correct does it per call.
    """
    om = np.asarray(omega)
    csum = np.empty_like(om)
    csum[:, 0] = 0.0
    np.cumsum(om[:, :-1], axis=1, out=csum[:, 1:])
    return np.exp((-2j * np.pi * hop / channels) * csum)


def phase_correct(X, omega, hop=StftConfig.hop, channels=StftConfig.channels):
    """Rotate each coefficient to cancel the predicted phase advance.

    Unitary for any omega.  Accepts a Spectrogram (hop/channels taken from
    its config) or a bare matrix plus explicit hop/channels.
    """
    if isinstance(X, Spectrogram):
        cfg = X.config
        return Spectrogram(phase_correct(X.data, omega, cfg.hop, cfg.channels), cfg)
    data = np.asarray(X)
    om = np.asarray(omega)
    if data.shape != om.shape:
        raise ValueError("spectrogram and omega shapes differ")
    return data * correction_factors(om, hop, channels)


def phase_correct_adjoint(X, omega, hop=StftConfig.hop, channels=StftConfig.channels):
    """Adjoint (= inverse) of phase_correct: the negated offsets' rotation."""
    return phase_correct(X, -np.asarray(omega), hop, channels)


def time_variation(X):
    """Column differences: out[m, n] = X[m, n] - X[m, n+1], shape M x (N-1)."""
    data = _coeffs(X)
    if data.shape[1] < 2:
        raise ValueError("need at least two time columns")
    return data[:, :-1] - data[:, 1:]


def time_variation_adjoint(Y):
    """Adjoint of time_variation, mapping M x (N-1) back to M x N.

    out[:, 0] = Y[:, 0]; out[:, n] = Y[:, n] - Y[:, n-1]; out[:, N-1] =
    -Y[:, N-2].  Column sums telescope to zero.
    """
    data = _coeffs(Y)
    M, Nm1 = data.shape
    out = np.zeros((M, Nm1 + 1), dtype=data.dtype)
    out[:, :-1] = data
    out[:, 1:] -= data
    return out


def ipctv_value(x, omega, g, cfg):
    """The penalty itself: l1 norm of the corrected spectrogram's variation."""
    X = analyze(x, g, cfg).data
    corrected = phase_correct(X, omega, cfg.hop, cfg.channels)
    return float(np.sum(np.abs(time_variation(corrected))))

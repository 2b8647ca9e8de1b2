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
pure-tone tests pin it down.  The ratio is scale-invariant, so any common
rescaling of the window pair (e.g. using the tight window) gives identical
estimates.  Rows 0..M//2 are estimated; the rest mirror them with the sign
flipped, as for any real signal.
"""

from dataclasses import dataclass

import numpy as np

from .stft import Spectrogram, _rfft_frames, _window, analyze


@dataclass
class IFMatrix:
    """Per-coefficient instantaneous-frequency offset estimate, M x N, bins."""

    omega: np.ndarray


@dataclass
class VariationMatrix:
    """Time-directional differences of a spectrogram, M x (N-1)."""

    data: np.ndarray


def _coeffs(X):
    """The matrix held by a Spectrogram, IFMatrix or VariationMatrix, or X."""
    if isinstance(X, (Spectrogram, VariationMatrix)):
        return X.data
    if isinstance(X, IFMatrix):
        return X.omega
    return np.asarray(X)


def estimate_if(x, g, g_prime, cfg, mag_floor=1e-10, circular=True):
    """Entrywise instantaneous-frequency offsets of a real signal, in bins.

    Parameters
    ----------
    x : real signal of length cfg.signal_len, or (circular False) the span
        buffer of a run of frames (see ``stft``): offsets and magnitude
        floor are then the run's
    g : analysis window
    g_prime : derivative window of g (same scale convention)
    cfg : StftConfig
    mag_floor : relative magnitude threshold; coefficients whose analysis
        magnitude is at or below mag_floor * max|X| get omega = 0 instead of
        a meaningless ratio.
    """
    x = np.asarray(x, dtype=float)
    if circular and x.shape != (cfg.signal_len,):
        raise ValueError("signal length does not match config")
    # the frame ramp multiplies both analyses alike and cancels in the
    # ratio, so the frame-local transforms of rows 0..M//2 suffice (frames-
    # major, as stft's private helpers are)
    Xg = _rfft_frames(x, _window(g, cfg), cfg, circular)
    Xd = _rfft_frames(x, _window(g_prime, cfg), cfg, circular)
    mag = np.abs(Xg)
    floor = mag_floor * np.max(mag)
    ok = mag > floor
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
    return IFMatrix(full.T)  # frames-major underneath, M x N as an array


def correction_factors(omega, hop, channels):
    """Unit-modulus rotation matrix exp(-i*2*pi*a*cumsum_<n(omega)/M).

    Column 0 gets an empty sum (factor 1).  Precompute this when applying
    the same omega many times; phase_correct does it per call.
    """
    om = _coeffs(omega)
    csum = np.empty_like(om)
    csum[:, 0] = 0.0
    np.cumsum(om[:, :-1], axis=1, out=csum[:, 1:])
    return np.exp((-2j * np.pi * hop / channels) * csum)


def phase_correct(X, omega, hop=512, channels=2048):
    """Rotate each coefficient to cancel the predicted phase advance.

    Unitary for any omega.  Accepts a Spectrogram (hop/channels taken from
    its config) or a bare matrix plus explicit hop/channels.
    """
    data = _coeffs(X)
    om = _coeffs(omega)
    if data.shape != om.shape:
        raise ValueError("spectrogram and omega shapes differ")
    if isinstance(X, Spectrogram):
        hop, channels = X.config.hop, X.config.channels
    out = data * correction_factors(om, hop, channels)
    if isinstance(X, Spectrogram):
        return Spectrogram(out, X.config)
    return out


def phase_correct_adjoint(X, omega, hop=512, channels=2048):
    """Adjoint (= inverse) of phase_correct: conjugate rotation."""
    data = _coeffs(X)
    om = _coeffs(omega)
    if data.shape != om.shape:
        raise ValueError("spectrogram and omega shapes differ")
    if isinstance(X, Spectrogram):
        hop, channels = X.config.hop, X.config.channels
    out = data * np.conj(correction_factors(om, hop, channels))
    if isinstance(X, Spectrogram):
        return Spectrogram(out, X.config)
    return out


def time_variation(X):
    """Column differences: out[m, n] = X[m, n] - X[m, n+1], shape M x (N-1)."""
    data = _coeffs(X)
    if data.shape[1] < 2:
        raise ValueError("need at least two time columns")
    out = data[:, :-1] - data[:, 1:]
    if isinstance(X, Spectrogram):
        return VariationMatrix(out)
    return out


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

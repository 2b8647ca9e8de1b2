"""Proximal, projection and thresholding operators.

All functions act entrywise (or on the whole matrix for the l2 variants) on
complex arrays and return new arrays.  The convex ones (soft, l2_block,
l2_squared) are genuine proximal operators; p_shrinkage (p < 1) and
smooth_hard are non-convex thresholders used as drop-in replacements inside
the solver's dual update.
"""

from dataclasses import dataclass

import numpy as np


def _sgn(X, mag):
    # z/|z| with sgn(0) = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(mag > 0, X / np.where(mag > 0, mag, 1.0), 0.0)
    return s


def soft_threshold(X, lam):
    """sgn(X) * max(|X| - lam, 0), the prox of lam*||.||_1."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    X = np.asarray(X)
    mag = np.abs(X)
    return _sgn(X, mag) * np.maximum(mag - lam, 0.0)


def p_shrinkage(X, lam, p):
    """sgn(X) * max(|X| - lam^(2-p) * |X|^(p-1), 0); p = 1 is soft."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not -1 < p <= 1:  # NaN fails too
        raise ValueError("p must lie in (-1, 1]")
    try:
        level = float(lam) ** (2.0 - p)
    except OverflowError:
        raise ValueError(f"lambda**(2 - p) overflows at lambda {lam!r}, p {p!r}") from None
    X = np.asarray(X)
    mag = np.abs(X)
    # an overflow (|X| < 1e-154) maps to 0, as the true shrink exceeds |X|; 0*inf is NaN
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        shrink = level * mag ** (p - 1.0) if level else 0.0
    out = _sgn(X, mag) * np.maximum(mag - shrink, 0.0)
    # |X| <= lam shrinks to 0 exactly, also where the level underflows to 0
    return np.where(mag > lam, out, 0.0)


def smooth_hard(X, lam, alpha):
    """X * exp(-alpha / (e^(|X|-lam) - 1)^2) for |X| > lam, else 0.

    Continuous from below at |X| = lam (the factor tends to 0), so the
    boundary itself maps to 0.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not alpha > 0:  # NaN fails too
        raise ValueError("alpha must be positive")
    X = np.asarray(X)
    mag = np.abs(X)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        den = np.square(np.expm1(mag - lam))
        factor = np.exp(-alpha / den)
    return np.where(mag > lam, X * np.where(np.isfinite(factor), factor, 1.0), 0.0)


def prox_l2_block(X, lam):
    """Prox of lam * ||.||_F over the whole matrix: block soft thresholding."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    X = np.asarray(X)
    # not np.linalg.norm: its BLAS threads oversubscribe the cores in forked workers
    nrm = float(np.sqrt(np.sum(X.real**2 + X.imag**2)))
    if nrm <= lam:
        return np.zeros_like(X)
    return (1.0 - lam / nrm) * X


def prox_l2_squared(X, lam):
    """Prox of lam * ||.||_F^2: pure scaling by 1/(1 + 2*lam)."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return np.asarray(X) / (1.0 + 2.0 * lam)


def prox_conjugate(base, eta, X):
    """Moreau identity: prox of the scaled conjugate function.

    base(V, s) must return prox_{s*f}(V); the result is
    prox_{eta*f'}(X) = X - eta * prox_{f/eta}(X/eta) where f' is the convex
    conjugate of f.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    X = np.asarray(X)
    return X - eta * base(X / eta, 1.0 / eta)


def _zero_cols(mask):
    """The gap columns of a mask or a column array, as an int array."""
    return np.asarray(mask.zero_cols if hasattr(mask, "zero_cols") else mask, dtype=int)


def project_feasible(X, mask, X_corrupted):
    """Overwrite reliable columns with the observation, keep the rest.

    mask lists the unreliable (zeroed) columns; every other column of the
    output is copied from X_corrupted bit-exactly.
    """
    X = np.asarray(X)
    Xc = np.asarray(X_corrupted)
    if X.shape != Xc.shape:
        raise ValueError("spectrogram shapes differ")
    zero_cols = _zero_cols(mask)
    out = Xc.astype(X.dtype, copy=True)
    if zero_cols.size:
        out[:, zero_cols] = X[:, zero_cols]
    return out


KINDS = ("soft", "p_shrinkage", "smooth_hard", "l2_block", "l2_squared")


@dataclass(frozen=True)
class Thresholder:
    """Configured thresholding operator for the solver's dual update,
    applied at a level lam that the caller passes (``SolverConfig.lam``)."""

    kind: str = "soft"
    p: float = 0.9
    alpha: float = 1e-2

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown thresholder kind {self.kind!r}")
        # each operator checks the parameters it takes: a bad one fails
        # here, at construction, not at the first dual update
        self(np.zeros(0, dtype=complex), 0.0)

    def __call__(self, X, lam):
        if self.kind == "soft":
            return soft_threshold(X, lam)
        if self.kind == "p_shrinkage":
            return p_shrinkage(X, lam, self.p)
        if self.kind == "smooth_hard":
            return smooth_hard(X, lam, self.alpha)
        if self.kind == "l2_block":
            return prox_l2_block(X, lam)
        return prox_l2_squared(X, lam)

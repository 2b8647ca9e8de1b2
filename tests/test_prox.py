import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from tfpaint.prox import (
    KINDS,
    Thresholder,
    p_shrinkage,
    project_feasible,
    prox_conjugate,
    prox_l2_block,
    prox_l2_squared,
    smooth_hard,
    soft_threshold,
)


def brute_prox(objective_norm, X, lam):
    """Numerically minimize 0.5*||Z-X||^2 + lam*norm(Z) over complex Z.

    Real/imag parts are stacked into a real vector for the optimizer; small
    inputs only.
    """
    shape = X.shape

    def cost(v):
        Z = (v[: X.size] + 1j * v[X.size :]).reshape(shape)
        return 0.5 * np.linalg.norm(Z - X) ** 2 + lam * objective_norm(Z)

    v0 = np.concatenate([X.real.ravel(), X.imag.ravel()])
    best = None
    for start in (v0, 0.5 * v0, np.zeros_like(v0)):
        r = minimize(cost, start, method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        if best is None or r.fun < best.fun:
            best = r
    return (best.x[: X.size] + 1j * best.x[X.size :]).reshape(shape)


def test_soft_threshold_values():
    assert float(soft_threshold(3.0, 1.0)) == 2.0
    assert float(soft_threshold(0.5, 1.0)) == 0.0
    z = 2.0 * np.exp(1j * np.pi / 4)
    out = complex(soft_threshold(z, 1.0))
    assert abs(out - np.exp(1j * np.pi / 4)) < 1e-15
    with pytest.raises(ValueError):
        soft_threshold(np.ones(3), -0.1)


def test_soft_threshold_matches_brute_force():
    # separable objective: per entry the minimizer keeps the phase of x, so
    # a dense 1-D search over the output magnitude is an exact oracle
    rng = np.random.default_rng(0)
    X = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lam = 0.7
    got = soft_threshold(X, lam)
    for x, g in zip(X, got):
        t = np.linspace(0.0, np.abs(x), 2_000_001)
        cost = 0.5 * (t - np.abs(x)) ** 2 + lam * t
        want = t[np.argmin(cost)] * (x / np.abs(x))
        assert abs(g - want) < 1e-6


def test_l2_block_matches_brute_force():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lam = 0.8 * np.linalg.norm(X)
    want = brute_prox(np.linalg.norm, X, lam)
    got = prox_l2_block(X, lam)
    assert np.max(np.abs(got - want)) < 1e-6


def test_l2_block_scaling_oracle():
    # the minimizer is a scaling of X, so a fine 1-D search is exact enough
    rng = np.random.default_rng(2)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lam = 1.1
    nrm = np.linalg.norm(X)
    c = np.linspace(0.0, 1.0, 2_000_001)
    cost = 0.5 * (c - 1.0) ** 2 * nrm**2 + lam * c * nrm
    got = prox_l2_block(X, lam)
    assert np.max(np.abs(got - c[np.argmin(cost)] * X)) < 1e-6


def test_l2_block_edges():
    X = 0.5 * np.ones((2, 2))
    assert np.all(prox_l2_block(X, 2.0) == 0.0)
    assert np.array_equal(prox_l2_block(X, 0.0), X)


def test_l2_squared_matches_brute_force_and_gradient():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lam = 0.2
    got = prox_l2_squared(X, lam)
    want = brute_prox(lambda Z: np.linalg.norm(Z) ** 2, X, lam)
    assert np.max(np.abs(got - want)) < 1e-6
    # gradient of 0.5||Z-X||^2 + lam||Z||^2 vanishes at the output
    grad = (got - X) + 2 * lam * got
    assert np.max(np.abs(grad)) < 1e-8
    assert np.array_equal(prox_l2_squared(X, 0.0), X)
    assert np.max(np.abs(prox_l2_squared(X, 0.5) - X / 2)) < 1e-15


def test_p_shrinkage_reduces_to_soft_exactly():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    assert np.array_equal(p_shrinkage(X, 0.3, 1.0), soft_threshold(X, 0.3))
    assert float(p_shrinkage(3.0, 1.0, 1.0)) == 2.0


def test_p_shrinkage_values():
    assert float(p_shrinkage(0.0, 0.01, 0.9)) == 0.0
    got = float(p_shrinkage(1.0, 0.01, 0.9))
    assert abs(got - (1.0 - 0.01**1.1)) < 1e-12
    with pytest.raises(ValueError):
        p_shrinkage(np.ones(2), 0.1, 1.5)
    with pytest.raises(ValueError):
        p_shrinkage(np.ones(2), 0.1, -1.0)


def test_p_shrinkage_at_tiny_magnitudes():
    # |X|**(p - 1) overflows below about 1e-154 at p = -0.9: the entry
    # shrinks to 0 with no warning (an error under this suite), and at
    # lambda = 0 nothing shrinks, where 0*inf made a NaN
    got = p_shrinkage([1e-300, 1.0], 0.01, -0.9)
    assert got[0] == 0.0 and 0.0 < got[1] < 1.0
    X = np.array([1e-200, 1.0])
    assert np.array_equal(p_shrinkage(X, 0.0, -0.9), X)


def test_p_shrinkage_cuts_at_lambda_when_the_level_underflows():
    # 1e-200**2.9 underflows to 0: the cut |X| > lambda still zeroes the
    # entry below lambda, and the others keep their true value
    got = p_shrinkage([1e-250, 1e-150, 1.0], 1e-200, -0.9)
    assert np.array_equal(got, [0.0, 1e-150, 1.0])


def test_smooth_hard_values():
    lam, alpha = 1e-3, 1e-2
    assert float(smooth_hard(0.5 * lam, lam, alpha)) == 0.0
    assert float(smooth_hard(lam, lam, alpha)) == 0.0  # boundary maps to 0
    x = lam + 1.0
    want = x * np.exp(-alpha / (np.e - 1.0) ** 2)
    assert abs(float(smooth_hard(x, lam, alpha)) - want) < 1e-12
    assert abs(float(smooth_hard(50.0, lam, alpha)) - 50.0) < 1e-9
    with pytest.raises(ValueError):
        smooth_hard(np.ones(2), 0.1, 0.0)


def test_smooth_hard_factor_value():
    # attenuation one unit above the threshold
    assert abs(np.exp(-0.01 / (np.e - 1) ** 2) - 0.9966188) < 5e-8


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 3.0))
def test_soft_threshold_nonexpansive(seed, lam):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    Y = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    d = np.linalg.norm(soft_threshold(X, lam) - soft_threshold(Y, lam))
    assert d <= np.linalg.norm(X - Y) + 1e-12


def test_moreau_identity_exact():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    lam = 0.4
    base = lambda V, s: soft_threshold(V, lam * s)
    for eta in (0.5, 1.0, 4.0):
        conj = prox_conjugate(base, eta, X)
        resid = np.max(np.abs(conj + eta * base(X / eta, 1.0 / eta) - X))
        assert resid < 1e-14 * max(1.0, np.max(np.abs(X)))


def test_prox_conjugate_soft_scale_cancels():
    # for f = lam*||.||_1 the eta cancels: result is X - soft(X, lam)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    lam = 0.25
    base = lambda V, s: soft_threshold(V, lam * s)
    for eta in (0.5, 1.0, 3.0):
        got = prox_conjugate(base, eta, X)
        want = X - soft_threshold(X, lam)
        assert np.max(np.abs(got - want)) < 1e-13
    with pytest.raises(ValueError):
        prox_conjugate(base, 0.0, X)


def test_prox_conjugate_indicator_case():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    Xc = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    zero_cols = [1, 4]
    Xc[:, zero_cols] = 0.0
    base = lambda V, s: project_feasible(V, zero_cols, Xc)
    eta = 2.5
    got = prox_conjugate(base, eta, X)
    want = X - eta * project_feasible(X / eta, zero_cols, Xc)
    assert np.array_equal(got, want)


def test_project_feasible_basics():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    Xc = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    zero_cols = np.array([2, 3])
    Xc[:, zero_cols] = 0.0

    out = project_feasible(X, zero_cols, Xc)
    reliable = [c for c in range(7) if c not in zero_cols]
    assert np.array_equal(out[:, reliable], Xc[:, reliable])  # bit-exact
    assert np.array_equal(out[:, zero_cols], X[:, zero_cols])
    # idempotent
    assert np.array_equal(project_feasible(out, zero_cols, Xc), out)
    # all columns unreliable -> X passes through; none -> observation wins
    assert np.array_equal(project_feasible(X, np.arange(7), np.zeros_like(Xc)), X)
    assert np.array_equal(project_feasible(X, [], Xc), Xc)
    with pytest.raises(ValueError):
        project_feasible(X, zero_cols, Xc[:, :3])


@settings(max_examples=25, derandomize=True)
@given(st.integers(0, 2**31 - 1))
def test_project_feasible_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    Y = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    Xc = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    cols = [0, 3]
    Xc[:, cols] = 0.0
    d = np.linalg.norm(
        project_feasible(X, cols, Xc) - project_feasible(Y, cols, Xc)
    )
    assert d <= np.linalg.norm(X - Y) + 1e-12


def test_thresholder_dispatch_and_validation():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(Thresholder("soft")(X, 0.2), soft_threshold(X, 0.2))
    assert np.array_equal(
        Thresholder("p_shrinkage", p=0.9)(X, 0.01), p_shrinkage(X, 0.01, 0.9)
    )
    assert np.array_equal(
        Thresholder("smooth_hard", alpha=1e-2)(X, 1e-3), smooth_hard(X, 1e-3, 1e-2)
    )
    assert np.array_equal(Thresholder("l2_block")(X, 1.0), prox_l2_block(X, 1.0))
    assert np.array_equal(Thresholder("l2_squared")(X, 0.2), prox_l2_squared(X, 0.2))
    assert [f.name for f in dataclasses.fields(Thresholder)] == ["kind", "p", "alpha"]
    assert Thresholder() == Thresholder("soft", p=0.9, alpha=1e-2)  # defaults for every kind
    with pytest.raises(ValueError):
        Thresholder("hard")
    for kind in KINDS:  # lambda is the caller's, checked where it is applied
        with pytest.raises(ValueError):
            Thresholder(kind)(X, -1.0)
    with pytest.raises(ValueError):
        Thresholder("p_shrinkage", p=2.0)
    with pytest.raises(ValueError):
        Thresholder("smooth_hard", alpha=-1.0)


@pytest.mark.parametrize("kind, field", [("p_shrinkage", "p"), ("smooth_hard", "alpha")])
def test_thresholder_rejects_nan_parameters(kind, field):
    # NaN fails every comparison: each range check is written so that it fails
    with pytest.raises(ValueError):
        Thresholder(kind, **{field: np.nan})


def test_p_shrinkage_level_overflow_is_a_value_error():
    # lam**(2 - p) overflows a float at a huge lambda; the check says so
    # instead of letting Python's OverflowError through
    X = np.array([1.0 + 1.0j])
    with pytest.raises(ValueError, match="overflows"):
        p_shrinkage(X, 1e300, 0.9)
    with pytest.raises(ValueError, match="overflows"):
        Thresholder("p_shrinkage")(X, 1e300)
    assert np.array_equal(p_shrinkage(X, 1e100, 0.9), np.zeros(1))  # no overflow: all shrunk

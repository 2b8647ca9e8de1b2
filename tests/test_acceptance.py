"""Release acceptance checks, one test per criterion.

These pin the guarantees the package ships with: frame exactness, operator
identities and norms, prox correctness against brute-force minimization,
the annihilation property of the phase-corrected prior, end-to-end
restoration thresholds with a runtime budget, the shape of the lambda
sweep, method ordering on the synthetic suite, bit-exact feasibility, and
early stopping.  conftest.py prints a PASS/FAIL line per criterion.

The heavy 5-second reference restorations are computed once in a
session-scoped fixture and shared by the criteria that inspect them.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize

from tfpaint.evaluate import (
    compare_methods,
    make_test_signal,
    snr,
    sweep_lambda,
    synthetic_suite,
)
from tfpaint.phase_prior import (
    estimate_if,
    phase_correct,
    phase_correct_adjoint,
    time_variation,
    time_variation_adjoint,
)
from tfpaint.pipeline import ColumnMask, apply_mask, inpaint_spectrogram, make_mask
from tfpaint.prox import (
    p_shrinkage,
    prox_conjugate,
    prox_l2_block,
    prox_l2_squared,
    soft_threshold,
)
from tfpaint.solver import SolverConfig, default_window, operator_norm_estimate
from tfpaint.stft import (
    Spectrogram,
    StftConfig,
    analyze,
    make_hann,
    synthesize,
    tight_window,
)

SR = 16000
HOP = 512
CFG = StftConfig(signal_len=8192)  # default 2048/512/2048 preset, 16 frames


@pytest.fixture(scope="session")
def reference_runs():
    """Restore the seeded 3-tone 5-second signal for gaps 1 and 6.

    Runs the default solver configuration end to end (analyze, mask,
    inpaint, synthesize) and records quality, baseline, timing, and the
    per-gap iteration counts.  The gap-1 case is repeated with jobs=8 for
    the determinism criterion.
    """
    runs = {}
    for gap_cols, jobs in ((1, 1), (6, 1), (1, 8)):
        x = make_test_signal("multitone", duration_s=5.0, sample_rate=SR, k=3, seed=0)
        mask = make_mask(5.0, SR, HOP, gap_cols)
        cfg = StftConfig(signal_len=mask.n_cols * HOP)
        x = x[: cfg.signal_len]
        g = tight_window(make_hann(cfg.window_len), cfg)
        Xc = apply_mask(analyze(x, g, cfg), mask)
        t0 = time.perf_counter()
        out, info = inpaint_spectrogram(Xc, mask, "uphain", jobs=jobs, return_info=True)
        runtime = time.perf_counter() - t0
        runs[(gap_cols, jobs)] = {
            "mask": mask,
            "Xc": Xc,
            "out": out,
            "info": info,
            "runtime": runtime,
            "snr": snr(x, synthesize(out, g, cfg)),
            "baseline": snr(x, synthesize(Xc, g, cfg)),
        }
    return runs


def test_criterion_01_frame_round_trip_and_energy():
    # analysis followed by synthesis reproduces 100 random signals, and the
    # coefficient energy equals the signal energy, well inside 1e-10
    g = tight_window(make_hann(CFG.window_len), CFG)
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(100):
        x = rng.standard_normal(CFG.signal_len)
        X = analyze(x, g, CFG)
        assert np.linalg.norm(x - synthesize(X, g, CFG)) <= 1e-10 * np.linalg.norm(x)
        assert abs(np.linalg.norm(X.data) - np.linalg.norm(x)) <= 1e-10
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_adjoint_identities():
    # <A x, Y> == <x, A* Y> to 1e-10 on 100 unit-norm random pairs, for the
    # analysis/synthesis pair, the column-difference map, and the
    # phase-rotation map
    g = tight_window(make_hann(CFG.window_len), CFG)
    M, N = CFG.channels, CFG.n_frames
    rng = np.random.default_rng(42)

    def unit_complex(shape):
        Z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return Z / np.linalg.norm(Z)

    for _ in range(100):
        x = rng.standard_normal(CFG.signal_len)
        x /= np.linalg.norm(x)
        Y = unit_complex((M, N))
        lhs = np.real(np.sum(np.conj(Y) * analyze(x, g, CFG).data))
        rhs = float(np.dot(x, synthesize(Y, g, CFG)))
        assert abs(lhs - rhs) <= 1e-10

        X = unit_complex((M, N))
        Yd = unit_complex((M, N - 1))
        d = (np.sum(np.conj(Yd) * time_variation(X))
             - np.sum(np.conj(time_variation_adjoint(Yd)) * X))
        assert abs(d) <= 1e-10

        om = rng.uniform(-8, 8, (M, N))
        r = (np.sum(np.conj(Y) * phase_correct(X, om, CFG.hop, CFG.channels))
             - np.sum(np.conj(phase_correct_adjoint(Y, om, CFG.hop, CFG.channels)) * X))
        assert abs(r) <= 1e-10


def test_criterion_03_operator_norm_bounds():
    # the analysis frame is tight (norm 1) and the composed
    # difference-rotate-analyze map stays below the norm implied by its
    # factors, for 10 random instantaneous-frequency fields
    g = tight_window(make_hann(CFG.window_len), CFG)

    ana_sq = operator_norm_estimate(
        lambda v: analyze(v, g, CFG).data,
        lambda V: synthesize(V, g, CFG),
        CFG.signal_len, iters=40) ** 2
    assert 1.0 - 1e-6 <= ana_sq <= 1.0 + 1e-6

    for s in range(10):
        om = np.random.default_rng(100 + s).uniform(-8, 8, (CFG.channels, CFG.n_frames))

        def fwd(v, om=om):
            A = analyze(v, g, CFG).data
            return time_variation(phase_correct(A, om, CFG.hop, CFG.channels))

        def adj(V, om=om):
            B = phase_correct_adjoint(time_variation_adjoint(V), om, CFG.hop, CFG.channels)
            return synthesize(B, g, CFG)

        comp_sq = operator_norm_estimate(fwd, adj, CFG.signal_len, iters=40, seed=s) ** 2
        assert 1.0 <= comp_sq <= 4.0 + 1e-6


def brute_prox(objective_norm, X, lam):
    """Numerically minimize 0.5*||Z-X||^2 + lam*norm(Z) over complex Z."""
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


def test_criterion_04_prox_oracles():
    rng = np.random.default_rng(7)

    # entrywise soft thresholding keeps each entry's phase, so a dense 1-D
    # search over the output magnitude is an exact independent oracle
    X1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lam = 0.7
    for x, got in zip(X1, soft_threshold(X1, lam)):
        t = np.linspace(0.0, np.abs(x), 2_000_001)
        cost = 0.5 * (t - np.abs(x)) ** 2 + lam * t
        want = t[np.argmin(cost)] * (x / np.abs(x))
        assert abs(got - want) < 1e-6

    X2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lam2 = 0.8 * np.linalg.norm(X2)
    want2 = brute_prox(np.linalg.norm, X2, lam2)
    assert np.max(np.abs(prox_l2_block(X2, lam2) - want2)) < 1e-6

    lam3 = 0.2
    want3 = brute_prox(lambda Z: np.linalg.norm(Z) ** 2, X2, lam3)
    assert np.max(np.abs(prox_l2_squared(X2, lam3) - want3)) < 1e-6

    # prox of the scaled conjugate recombines with the base prox to the
    # identity, up to round-off
    X3 = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    base = lambda V, s: soft_threshold(V, 0.4 * s)
    for eta in (0.5, 1.0, 4.0):
        resid = np.max(np.abs(prox_conjugate(base, eta, X3)
                              + eta * base(X3 / eta, 1.0 / eta) - X3))
        assert resid < 1e-14 * max(1.0, np.max(np.abs(X3)))

    assert np.array_equal(p_shrinkage(X3, 0.3, 1.0), soft_threshold(X3, 0.3))


def test_criterion_05_tone_annihilation():
    # with self-estimated frequency offsets, the corrected spectrogram of a
    # pure tone is constant along time: the interior variation mass all but
    # vanishes relative to the coefficient mass, on- and off-bin alike.
    # off-bin tones are floored by the interference between the positive-
    # and negative-frequency components, lowest for mid-band bins
    hann = make_hann(CFG.window_len)
    ni = CFG.n_frames - CFG.window_len // CFG.hop + 1
    l = np.arange(CFG.signal_len)
    for delta in (-0.4, 0.0, 0.25):
        x = np.cos(2 * np.pi * (417 + delta) * l / CFG.channels + 0.3)
        om = estimate_if(x, CFG)
        X = analyze(x, hann, CFG).data
        V = time_variation(phase_correct(X, om, CFG.hop, CFG.channels))
        penalty = np.sum(np.abs(V[:, : ni - 1]))
        mass = np.sum(np.abs(X[:, :ni]))
        assert mass > 0
        assert penalty <= 1e-4 * mass


def test_criterion_06_end_to_end_restoration(reference_runs):
    for gap_cols, floor_db in ((1, 40.0), (6, 12.0)):
        run = reference_runs[(gap_cols, 1)]
        assert run["snr"] >= floor_db
        assert run["snr"] >= run["baseline"] + 10.0
        assert run["runtime"] <= 60.0


def test_criterion_07_lambda_sweep_shape():
    # quality peaks at the default weight: too small barely regularizes,
    # too large shrinks the gap content away
    suite = synthetic_suite(duration_s=1.0)
    mask = make_mask(1.0, SR, HOP, 3)
    scfg = SolverConfig(inner_iters=40, outer_iters=1)
    recs = sweep_lambda(suite, mask, [1e-7, 1e-2, 1e2], scfg=scfg)
    by_lam = {r.lambda_: r.snr_db for r in recs}
    assert by_lam[1e-2] > by_lam[1e-7]
    assert by_lam[1e-2] > by_lam[1e2]


def test_criterion_08_method_ordering():
    # iterated re-estimation beats the plain time-frequency prior overall
    # and beats the one-shot variant on chirps; the true-signal-informed
    # variant beats its blind counterpart on chirps
    suite = synthetic_suite(duration_s=1.0)
    sigs = [s for s in suite if s[0].startswith(("multitone", "chirp"))]
    chirps = [s for s in sigs if s[0].startswith("chirp")]
    assert len(sigs) == 20
    masks = [make_mask(1.0, SR, HOP, g) for g in (2, 3, 6)]
    scfg = SolverConfig(inner_iters=80, outer_iters=1)

    recs_a, _ = compare_methods(sigs, masks, ["uphain", "tf_only"], scfg=scfg)
    recs_b, _ = compare_methods(chirps, masks, ["bphain", "bphain_oracle"], scfg=scfg)

    def mean_snr(records, method, prefix=""):
        vals = [r.snr_db for r in records
                if r.method == method and r.signal_id.startswith(prefix)]
        assert len(vals) == 3 * (10 if prefix else 20)
        return float(np.mean(vals))

    assert mean_snr(recs_a, "uphain") >= mean_snr(recs_a, "tf_only")
    assert mean_snr(recs_a, "uphain", "chirp") >= mean_snr(recs_b, "bphain", "chirp")
    assert mean_snr(recs_b, "bphain_oracle", "chirp") >= mean_snr(recs_b, "bphain", "chirp")


def test_criterion_09_feasibility_and_determinism(reference_runs):
    # reliable columns pass through bit-exactly on every reference run, and
    # the thread count cannot change a single bit of the output
    for run in reference_runs.values():
        rel = np.asarray(run["mask"].reliable_cols)
        assert np.array_equal(run["out"].data[:, rel], run["Xc"].data[:, rel])
    assert np.array_equal(reference_runs[(1, 1)]["out"].data,
                          reference_runs[(1, 8)]["out"].data)


def test_criterion_10_early_stopping(reference_runs):
    # on stationary input the outer loop converges well before its cap: the
    # change-based stop fires on a direct run, and every gap of the easy
    # reference case finishes under the cap
    t = np.arange(CFG.signal_len)
    x = sum(0.3 * np.cos(2 * np.pi * (f / SR) * t + 0.7 * k)
            for k, f in enumerate([440.0, 554.37, 659.25]))
    x = 0.9 * (x / np.max(np.abs(x)))
    X = analyze(x, default_window(CFG), CFG).data.copy()
    X[:, [8]] = 0.0
    out, info = inpaint_spectrogram(Spectrogram(X, CFG), ColumnMask(CFG.n_frames, [8]),
                                    scfg=SolverConfig(), return_info=True)
    # one run, stopped under the cap of outer_iters + 1 = 11 rounds
    (rounds,) = info["outer_iters_used"]
    assert rounds <= 10

    for rounds in reference_runs[(1, 1)]["info"]["outer_iters_used"]:
        assert rounds <= 10

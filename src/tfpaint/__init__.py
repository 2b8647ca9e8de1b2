"""Time-frequency audio inpainting with a phase-corrected variation prior.

The names imported below are the public API; ``from tfpaint import *``
binds them (and the submodules).
"""

from .evaluate import (
    DEFAULT_LAMBDA_GRID,
    EvalRecord,
    compare_methods,
    make_test_signal,
    snr,
    sweep_iterations,
    sweep_lambda,
    synthetic_suite,
)
from .phase_prior import (
    correction_factors,
    estimate_if,
    ipctv_value,
    phase_correct,
    phase_correct_adjoint,
    time_variation,
    time_variation_adjoint,
)
from .pipeline import (
    METHODS,
    ColumnMask,
    apply_mask,
    find_gaps,
    inpaint_spectrogram,
    make_mask,
)
from .prox import (
    Thresholder,
    p_shrinkage,
    project_feasible,
    prox_conjugate,
    prox_l2_block,
    prox_l2_squared,
    smooth_hard,
    soft_threshold,
)
from .solver import (
    DivergenceError,
    SolverConfig,
    operator_norm_estimate,
)
from .stft import (
    Spectrogram,
    StftConfig,
    analyze,
    default_window,
    make_hann,
    make_hann_derivative,
    symmetry_residual,
    synthesize,
    tight_window,
)

__version__ = "0.1.0"

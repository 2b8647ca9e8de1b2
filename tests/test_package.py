import tfpaint

# the public names, as the package listed them in its former __all__
PUBLIC = """
    DEFAULT_LAMBDA_GRID EvalRecord compare_methods make_test_signal snr
    sweep_iterations sweep_lambda synthetic_suite
    correction_factors estimate_if ipctv_value phase_correct
    phase_correct_adjoint time_variation time_variation_adjoint METHODS
    ColumnMask apply_mask find_gaps inpaint_spectrogram make_mask Thresholder
    p_shrinkage project_feasible prox_conjugate
    prox_l2_block prox_l2_squared smooth_hard soft_threshold DivergenceError
    SolverConfig default_window operator_norm_estimate Spectrogram StftConfig
    analyze make_hann make_hann_derivative symmetry_residual
    synthesize tight_window
""".split()


def test_import_list_is_the_public_api():
    star = {}
    exec("from tfpaint import *", star)
    for name in PUBLIC:
        assert getattr(tfpaint, name) is star[name], name
    assert not hasattr(tfpaint, "__all__")
    assert isinstance(tfpaint.__version__, str)  # not bound by the star import

"""Numerical toolkit for operators having an annulus as spectral set."""

from ._version import __version__
from .ar_unitary import (
    ArUnitaryDecomposition,
    decompose,
    is_ar_unitary,
    make_ar_unitary,
    membership_subspaces,
)
from .calculus import (
    ContourSpec,
    SpectralPart,
    default_contour,
    eval_contour,
    eval_direct,
    eval_laurent,
    factored_norms,
    laurent_remainder_bound,
    riesz_projection,
)
from .certify import (
    CertificationReport,
    Verdict,
    WilliamsVerdict,
    cnn_split,
    double_contraction_check,
    example_matrix,
    full_certification,
    involution,
    norm_window,
    normal_annulus_matrix,
    spectrum_in_annulus,
    vonneumann_stress,
    williams_verdict,
    windowed_matrix,
)
from .dilation import (
    AndoPair,
    ModelTriple,
    ando_pair,
    build_model,
    egervary_dilation,
    moment_table,
    save_model,
    single_carrier_residual,
    verify_model,
    verify_moments,
)
from .linalg import (
    DEFAULT_TOLS,
    EigDecomposition,
    Tolerances,
    eig_normal,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    random_unitary,
    seeded_rng,
    solve,
    spectrum,
    unitary_completion,
)
from .rational import (
    AnnulusRational,
    LaurentSeries,
    boundary_sup_norm,
    evaluate,
    factored_stack,
    involute,
    laurent_expand,
    laurent_order_for,
    multiply,
    rational_from_json,
    rational_to_json,
    validate,
)

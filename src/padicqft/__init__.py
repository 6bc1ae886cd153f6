"""Ultrametric lattice field theory numerics over a local field.

Subpackages: ball geometry (ultrametric), radial symbol calculus (model),
finite lattice matrices (lattice), normal-ordered polynomials (wick),
stochastic and quadrature estimators (sampler), verification (verify),
and the command line (cli).
"""

from .lattice import (
    CovarianceMatrix,
    NotPositiveDefiniteError,
    PrecisionMatrix,
    covariance_matrix,
    domination_check,
    monotonicity_check,
    precision_matrix,
    restriction_check,
)
from .model import (
    FieldParams,
    c_kappa_sq,
    character_shell_integral,
    free_cell_variance,
    free_covariance_entry,
    green_function,
    green_regularized,
    resolvent_ball_integral,
    resolvent_tail_integral,
    shell_measure,
    symbol_a,
    vladimirov_omega,
    vladimirov_omega_const,
)
from .reporting import CheckReport
from .sampler import (
    QuadratureError,
    SchwingerEstimate,
    SourceSpec,
    effective_sample_size,
    griffiths_check,
    monotonicity_experiment,
    partition_function_mc,
    partition_function_quadrature,
    partition_stability,
    schwinger_mc,
    schwinger_quadrature,
)
from .ultrametric import (
    SAME,
    BallAddress,
    LatticeSpec,
    Region,
    distance,
    parse_region,
    refine,
)
from .wick import (
    WickPolynomial,
    WickTable,
    wick_change_of_variance,
    wick_change_of_variance_coeffs,
    wick_coefficients,
    wick_l2_decay,
    wick_l2_distance,
    wick_poly_cell_bound,
    wick_poly_eval,
    wick_poly_lower_bound,
    wick_power,
    wick_unpower,
)

__version__ = "0.1.0"

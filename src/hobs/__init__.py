"""hobs: a finite-dimensional workbench for hidden observable functions.

For any Hermitian operator the package builds real functions on
(ray, parameter) pairs whose per-line moments reproduce the operator's
expectation values, and for any density matrix it builds ray mixtures
whose classical means reproduce operator traces:

    Trace[b(T) D] = mean of b(f) against the mixture

exactly as finite sums and statistically by seeded Monte Carlo.  The
contexts module packages commuting families as function algebras over
one generator and hunts second-moment witnesses for non-commuting
pairs.
"""

from .errors import (
    ArityError,
    DegeneracyResolutionFailure,
    DimensionMismatch,
    EigensolverFailure,
    EvaluationError,
    ExprSyntaxError,
    HermiticityViolation,
    HobsError,
    NaNInput,
    NonFiniteInput,
    NonQuadraticFirstMoment,
    NonSquareError,
    NotAProjector,
    NotCommuting,
    NotOrthogonalFamily,
    ZeroInput,
)
from .expr import BorelExpr, compose, parse
from .spectral import (
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    StateVector,
    apply_borel,
    commutator_norm,
    commutes,
    expectation,
    function_values,
    spectral_decompose,
    spectral_projector,
    trace_expectation,
    validate_hermitian,
)
from .kernel import (
    GammaModel,
    HiddenObservable,
    HiddenPoint,
    SharedParameterSum,
    build_hidden_observable,
    cdf,
    draw_u,
    gamma_from_complex,
    line_integral_exact,
    line_mean,
    line_weights,
    moments_check,
    orthodoxy_reconstruct,
    orthodoxy_second_moment_gap,
    proposition_from_projector,
    pushforward_ks,
    quantile,
    random_ray,
    spectral_support_check,
    statistical_equivalence_check,
)
from .mixed import (
    Ensemble,
    HiddenMixedState,
    McEstimate,
    SampleStream,
    density_from_ensemble,
    dump_samples_csv,
    ensemble_from_density,
    exact_classical_mean,
    hidden_state_measure,
    mc_estimate,
    sample_hidden,
)
from .contexts import (
    SHARED_U_CAVEAT,
    Context,
    HomomorphismReport,
    NogoReport,
    context_combine,
    homomorphism_check,
    joint_diagonalize,
    make_partition_context,
    nogo_witness,
)

__version__ = "0.1.0"

"""Numerical laboratory for quasi-adiabatic transition rates.

The package cross-validates closed-form rate results against direct
integration of the coupled amplitude equations on discretized
quasi-continua: golden-rule rates and their validity margins, pulse
kicks and train additivity, exponential decay with memory-free booking,
level shifts and nonperturbative decay of a single level coupled to a
band, and energy-normalized field states for a toy ionization problem.
"""

from .errors import (
    ConfigError,
    DegenerateSpectrumError,
    DiscretizationTooCoarseError,
    DomainError,
    EdgeError,
    GoldenRuleError,
    PreconditionError,
    RangeError,
    ToleranceFailureError,
    UnsupportedShapeError,
    WindowError,
)
from .spectrum import (
    ConstantDOS,
    DegenerateEdgeWarning,
    DiscretizedContinuum,
    INFINITE_SCALE,
    PowerLawDOS,
    TabulatedDOS,
    discretize,
    lorentzian,
)
from .perturbation import (
    Channel,
    ChannelledElement,
    ConstantElement,
    ContinuousChannelElement,
    ExpSuperposition,
    GaussianPulse,
    HarmonicRisingExp,
    PiecewiseConstantPulse,
    RectangularPulse,
    RisingExp,
    TabulatedElement,
    TwoSidedExp,
    averaged_sq_matrix_element,
    element_at,
    evaluate,
    spectral_amplitude,
    spectral_shape_sq,
)
from .dynamics import (
    AmplitudeTrajectory,
    HarmonicPrediction,
    LorentzFit,
    ValidityReport,
    analytic_cf_rising_exp,
    fit_lorentzian_profile,
    golden_rule_following,
    golden_rule_rate,
    harmonic_rate_prediction,
    integrate,
    seed_amplitudes,
    transition_rate,
    validity_report,
)
from .pulsetrain import (
    AdditivityReport,
    DecayCurve,
    Pulse,
    PulseTrain,
    additivity_defect,
    cross_term_closed_form,
    cross_term_integral,
    generalized_decay,
    propagate_train,
    pulse_kick,
)
from .wignerweisskopf import (
    CouplingFunction,
    WWValidation,
    nonperturbative_validate,
    principal_value_shift,
    ww_rate,
)
from .fieldstates import (
    BoxRateResult,
    FieldState,
    IonizationResult,
    OverlapReport,
    airy,
    airy_prime,
    airy_zero,
    box_quantized_rate,
    energy_normalize_planewave,
    field_wavefunction,
    gaussian_smeared_airy,
    smeared_overlap,
    toy_ionization_rate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Pseudospectral laboratory for a defocusing nonlinear wave equation.

Periodic-box simulations of u_tt - Lap(u) = -|u|^(p-1) u for subcritical
powers, with frequency-smoothed energies, space-time norms, rough random
data, and a seeded experiment harness.
"""

from .data import DataError, DataRecipe, perturb, rescale, synthesize
from .diagnostics import (
    BoundRatios,
    DiagnosticsError,
    DriftReport,
    EnergyBreakdown,
    GrowthReport,
    NormReport,
    SlopeFit,
    energy_drift,
    fit_loglog_slope,
    initial_bound_ratios,
    norm_growth_ratio,
    smoothed_energy,
    spacetime_norm,
    spacetime_report,
)
from .dynamics import (
    BlowUpError,
    StepperConfig,
    Trajectory,
    WaveState,
    evolve,
    linear_trajectory,
    nonlinear_term,
    pair_sobolev_norm,
    pde_residual,
    propagate_linear,
    state_difference,
    strang_step,
    true_energy,
)
from .fields import (
    FieldError,
    Grid,
    MultiplierSpec,
    SpectralField,
    apply_multiplier,
    frequency_split,
    from_coeffs,
    from_physical,
    lebesgue_norm,
    low_pass,
    power_multiplier,
    smoothing_multiplier,
    smoothing_profile,
    sobolev_norm,
    to_physical,
)
from .params import (
    IndeterminateThresholdError,
    GrowthExponents,
    ParamError,
    PdeParams,
    ThresholdError,
    TripleMQR,
    composite_critical_exponent,
    critical_regularity,
    cutoff_choice,
    data_size,
    growth_exponents,
    is_allowed_triple,
    reference_triples,
    regularity_threshold,
    scale_choice,
    threshold_condition,
)

__version__ = "0.1.0"

"""Modulation spectroscopy of CPT dark resonances in a double-lambda atom.

Simulates the lock-in error signal of a coherent-population-trapping clock
driven by an asymmetric polychromatic field: time-domain, truncated-Fourier,
and closed-form signal paths, light-shift budgets, optically thick cells,
insensitivity-point/zero-displacement sweeps, and a servo-lock emulation of
the experimental IP detection.
"""

__version__ = "0.1.0"

from .core import (
    AtomParams,
    DerivedCouplings,
    FieldSpectrum,
    LockInResult,
    ModulationParams,
    ParameterError,
    bessel_spectrum,
    derive_couplings,
    nonresonant_shift_components,
)
from .harmonic import (
    ShiftBreakdown,
    asymmetry_shift,
    harmonic_signals,
    linearized_signals,
    solve_fourier_amplitudes,
)
from .sweep import (
    BesselFamily,
    BracketError,
    IpRoot,
    ServoScenario,
    ServoTrace,
    SignalPath,
    SweepRecord,
    SweepResult,
    bessel_family,
    crossing_and_sensitivity,
    find_ips_and_pzds,
    make_signal_function,
    servo_lock_experiment,
    symmetrizing_detuning,
    zero_crossing,
)
from .thick import CellParams, averaged_signal
from .timedomain import (
    FullLambdaState,
    TimeTrace,
    integrate_ground_state,
    lockin,
    steady_state_full_lambda,
)

__all__ = [
    "__version__",
    "AtomParams",
    "DerivedCouplings",
    "FieldSpectrum",
    "LockInResult",
    "ModulationParams",
    "ParameterError",
    "bessel_spectrum",
    "derive_couplings",
    "nonresonant_shift_components",
    "ShiftBreakdown",
    "asymmetry_shift",
    "harmonic_signals",
    "linearized_signals",
    "solve_fourier_amplitudes",
    "BesselFamily",
    "BracketError",
    "IpRoot",
    "ServoScenario",
    "ServoTrace",
    "SignalPath",
    "SweepRecord",
    "SweepResult",
    "bessel_family",
    "crossing_and_sensitivity",
    "find_ips_and_pzds",
    "make_signal_function",
    "servo_lock_experiment",
    "symmetrizing_detuning",
    "zero_crossing",
    "CellParams",
    "averaged_signal",
    "FullLambdaState",
    "TimeTrace",
    "integrate_ground_state",
    "lockin",
    "steady_state_full_lambda",
]

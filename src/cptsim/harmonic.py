"""Frequency-domain solution of the modulated ground-state model.

The slow phase modulation phi(t) = a sin(omega_m t) of the sideband comb
turns the two-photon detuning into 2*delta_tilde + 2 a omega_m cos(omega_m t).
For small index a the steady response of the ground-state variables is a
short Fourier series in omega_m: rho_21(t) = sum_k C_k exp(-i k omega_m t)
with |k| <= 2 and rho_22(t) = G_0 + sum_{k=1,2} 2 Re[G_k exp(-i k omega_m t)]
(rho_11 = 1 - rho_22).  The truncated system is solved exactly, with all
detuning-modulation couplings a*omega_m between retained harmonics kept;
only the coupling to the discarded |k| = 3 tail is neglected, an O(a^3)
error in the first-harmonic amplitudes.

`solve_fourier_amplitudes` assembles and solves the resulting 15x15 linear
system; `signals_from_amplitudes` projects the amplitudes onto the lock-in
references.  `linearized_signals` evaluates the closed-form small-signal
limit of the same system (first order in a, K and 2*delta_tilde), and
`asymmetry_shift` reports the zero-crossing budget it implies.  In that
limit S and Q are both proportional to
2 delta_tilde calV_L calV_R + K (calV_L^2 - calV_R^2), so K only shifts the
dressed detuning, by the same amount at every omega_m.  The closed form is
written once, for couplings that are floats (one point) or numpy arrays
over the slabs of a thick cell: `closed_form_signals` averages it over the
slabs and `closed_form_crossing` solves its root, which needs no root
finder because the signal is affine in delta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    AtomParams,
    DerivedCouplings,
    FieldSpectrum,
    LockInResult,
    ModulationParams,
    ParameterError,
    derive_couplings,
)

__all__ = [
    "FourierAmplitudes",
    "solve_fourier_amplitudes",
    "signals_from_amplitudes",
    "harmonic_signals",
    "linearized_signals",
    "closed_form_signals",
    "closed_form_crossing",
    "ShiftBreakdown",
    "asymmetry_shift",
]


@dataclass(frozen=True)
class FourierAmplitudes:
    """Steady-state Fourier amplitudes of the modulated ground-state variables.

    C_k are the amplitudes of rho_21 = sum_k C_k exp(-i k omega_m t) for
    k = 0, +-1, +-2.  G_0 is the static population of |2> (in [0, 1]);
    G_1, G_2 are the complex amplitudes of its modulation, with
    rho_22 = G_0 + 2 Re[G_1 e^{-i omega_m t}] + 2 Re[G_2 e^{-2i omega_m t}].
    """

    C0: complex
    C1: complex
    Cm1: complex
    C2: complex
    Cm2: complex
    G0: float
    G1: complex
    G2: complex


def solve_fourier_amplitudes(
    couplings: DerivedCouplings,
    delta: float,
    modulation: ModulationParams,
) -> FourierAmplitudes:
    """Solve the second-harmonic truncation of the modulated model.

    `delta` is half the two-photon detuning from the unperturbed 0-0
    resonance; the light shifts delta_r and delta_nr are added internally.
    The |k| <= 2 truncation leaves an O(a^3) residual in the first
    harmonics; a > 0.5 is accepted but outside the trusted regime.
    """
    if modulation.beyond_recommended_index:
        warnings.warn(
            f"modulation index a = {modulation.a} > 0.5: second-harmonic "
            "truncation degrades",
            stacklevel=2,
        )
    sd = 2.0 * delta + couplings.delta_r + couplings.delta_nr
    w = modulation.omega_m
    gt = couplings.Gamma_g_tilde
    aw = modulation.a * modulation.omega_m
    K = couplings.K
    Gg = couplings.Gamma_g_tilde - couplings.V_L - couplings.V_R

    # Unknown ordering: [ReC0, ImC0, ReC1, ImC1, ReCm1, ImCm1,
    #                    ReC2, ImC2, ReCm2, ImCm2, G0, ReG1, ImG1, ReG2, ImG2]
    A = np.zeros((15, 15))
    b = np.zeros(15)

    def row(i, entries, rhs=0.0):
        for j, val in entries.items():
            A[i, j] = val
        b[i] = rhs

    RC0, IC0, RC1, IC1, RCm1, ICm1 = 0, 1, 2, 3, 4, 5
    RC2, IC2, RCm2, ICm2, G0, RG1, IG1, RG2, IG2 = 6, 7, 8, 9, 10, 11, 12, 13, 14

    # Coherence at DC, sourced by V_LR and the population difference.
    row(0, {RC0: sd, IC0: -gt, RC1: aw, RCm1: aw, G0: -2 * K}, rhs=-K)
    row(1, {RC0: gt, IC0: sd, IC1: aw, ICm1: aw}, rhs=couplings.V_LR)
    # Coherence at +-omega_m, driven by the modulation of the detuning.
    row(2, {RC1: sd + w, IC1: -gt, RC0: aw, RC2: aw, RG1: -2 * K})
    row(3, {RC1: gt, IC1: sd + w, IC0: aw, IC2: aw, IG1: -2 * K})
    row(4, {RCm1: sd - w, ICm1: -gt, RC0: aw, RCm2: aw, RG1: -2 * K})
    row(5, {RCm1: gt, ICm1: sd - w, IC0: aw, ICm2: aw, IG1: 2 * K})
    # Coherence at +-2 omega_m.
    row(6, {RC2: sd + 2 * w, IC2: -gt, RC1: aw, RG2: -2 * K})
    row(7, {RC2: gt, IC2: sd + 2 * w, IC1: aw, IG2: -2 * K})
    row(8, {RCm2: sd - 2 * w, ICm2: -gt, RCm1: aw, RG2: -2 * K})
    row(9, {RCm2: gt, ICm2: sd - 2 * w, ICm1: aw, IG2: 2 * K})
    # Static population of |2>: pumping balance against total relaxation.
    row(10, {G0: gt, IC0: -2 * K}, rhs=couplings.V_R + Gg / 2.0)
    row(11, {RG1: w, IG1: -gt, RC1: -K, RCm1: K})
    row(12, {RG1: gt, IG1: w, IC1: -K, ICm1: -K})
    row(13, {RG2: 2 * w, IG2: -gt, RC2: -K, RCm2: K})
    row(14, {RG2: gt, IG2: 2 * w, IC2: -K, ICm2: -K})

    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:  # unreachable for Gamma_g_tilde > 0
        raise ParameterError(
            f"Fourier-amplitude system singular (cond = {np.linalg.cond(A):.3g}); "
            f"Gamma_g_tilde = {gt}, omega_m = {w}"
        ) from exc
    return FourierAmplitudes(
        C0=complex(x[RC0], x[IC0]),
        C1=complex(x[RC1], x[IC1]),
        Cm1=complex(x[RCm1], x[ICm1]),
        C2=complex(x[RC2], x[IC2]),
        Cm2=complex(x[RCm2], x[ICm2]),
        G0=float(x[G0]),
        G1=complex(x[RG1], x[IG1]),
        G2=complex(x[RG2], x[IG2]),
    )


def signals_from_amplitudes(
    amplitudes: FourierAmplitudes,
    atom: AtomParams,
    couplings: DerivedCouplings,
    alpha: float = 0.0,
) -> LockInResult:
    """Lock-in signals at omega_m implied by a set of Fourier amplitudes.

    Normalization matches time-domain demodulation with the 2/T convention:
    a pure signal c*cos(omega_m t) yields S = c at alpha = 0.
    """
    pref = 4.0 * couplings.P / (atom.gamma * atom.Gamma)
    dV2 = couplings.calV_L**2 - couplings.calV_R**2
    VV = couplings.calV_L * couplings.calV_R
    S = pref * (dV2 * amplitudes.G1.real - VV * (amplitudes.C1 + amplitudes.Cm1).real)
    Q = pref * (dV2 * amplitudes.G1.imag - VV * (amplitudes.C1 - amplitudes.Cm1).imag)
    return LockInResult(S=S, Q=Q).at_phase(alpha)


def harmonic_signals(
    atom: AtomParams,
    spectrum: FieldSpectrum,
    modulation: ModulationParams,
    delta: float,
) -> LockInResult:
    """Lock-in signals from the second-harmonic truncation, in one call."""
    couplings = derive_couplings(atom, spectrum)
    amplitudes = solve_fourier_amplitudes(couplings, delta, modulation)
    result = signals_from_amplitudes(amplitudes, atom, couplings, modulation.alpha)
    warns: list[str] = []
    if modulation.beyond_recommended_index:
        warns.append(
            f"modulation index a = {modulation.a} > 0.5: second-harmonic "
            "truncation degrades"
        )
    if warns:
        result = LockInResult(
            S=result.S, Q=result.Q, alpha=result.alpha, warnings=tuple(warns)
        )
    return result


def _first_order(atom: AtomParams, c: DerivedCouplings, modulation: ModulationParams):
    """Gains and drive terms of the first-order closed form.

    At detection phase 0, S = g_S * drive and Q = g_Q * drive with
    drive = x calV_L calV_R + K (calV_L^2 - calV_R^2) and
    x = 2 delta + delta_r + delta_nr; to first order K enters only through
    the detuning it adds to x.  Returns (g_S, g_Q, calV_L calV_R,
    K (calV_L^2 - calV_R^2)).  The fields of `c` are floats for one point or
    numpy arrays over the slabs of a cell.
    """
    gt = c.Gamma_g_tilde
    w = modulation.omega_m
    g2w2 = gt * gt + w * w
    pref = 4.0 * c.P / (atom.gamma * atom.Gamma)
    common = pref * modulation.a * w * c.V_LR / (g2w2 * g2w2)
    g_S = 4.0 * common * gt
    g_Q = 2.0 * common * w * (3.0 * gt * gt + w * w) / (gt * gt)
    return g_S, g_Q, c.calV_L * c.calV_R, c.K * (c.calV_L**2 - c.calV_R**2)


def _reduce(values, how: str):
    """`how` ("mean", "sum" or "max") over the slabs, or the single value."""
    if isinstance(values, np.ndarray):
        return float(getattr(values, how)())
    return values


def _regime_warnings(
    atom: AtomParams, c: DerivedCouplings, modulation: ModulationParams, x
) -> tuple[str, ...]:
    """Each regime condition of the closed form once, at its worst slab."""
    gt = c.Gamma_g_tilde
    warns: list[str] = []
    detuning = _reduce(abs(x) / gt, "max")
    if detuning > 0.05:
        warns.append(
            f"|2 delta_tilde| = {detuning:.3g} Gamma_g_tilde exceeds "
            "0.05 Gamma_g_tilde"
        )
    if (atom.Delta_L / atom.Gamma) ** 2 > 0.1:
        warns.append(
            f"(Delta_L/Gamma)^2 = {(atom.Delta_L / atom.Gamma) ** 2:.3g} > 0.1"
        )
    asymmetry = _reduce((c.K / gt) ** 2, "max")
    if asymmetry > 0.1:
        warns.append(f"K^2/Gamma_g_tilde^2 = {asymmetry:.3g} > 0.1")
    if modulation.beyond_recommended_index:
        warns.append(f"modulation index a = {modulation.a} > 0.5")
    return tuple(warns)


def closed_form_signals(
    atom: AtomParams,
    couplings: DerivedCouplings,
    modulation: ModulationParams,
    delta: float,
) -> LockInResult:
    """First-order closed-form signals, averaged over the slabs of `couplings`.

    `couplings` holds floats for one point (`linearized_signals`) or numpy
    arrays over the slabs of a cell (`thick.averaged_signal`).
    """
    g_S, g_Q, VV, K_term = _first_order(atom, couplings, modulation)
    x = 2.0 * delta + couplings.delta_r + couplings.delta_nr
    drive = x * VV + K_term
    return LockInResult(
        S=_reduce(g_S * drive, "mean"),
        Q=_reduce(g_Q * drive, "mean"),
        warnings=_regime_warnings(atom, couplings, modulation, x),
    ).at_phase(modulation.alpha)


def closed_form_crossing(
    atom: AtomParams,
    couplings: DerivedCouplings,
    modulation: ModulationParams,
) -> float:
    """Detuning where the in-phase signal of `closed_form_signals` vanishes.

    Every slab signal is g_i (2 delta VV_i + x0_i VV_i + K_i dV2_i), with
    g_i the gain at the detection phase and x0_i the slab's static shift,
    so the averaged signal is affine in delta and crosses zero at
    2 delta = -sum_i g_i (x0_i VV_i + K_i dV2_i) / sum_i g_i VV_i, for
    symmetric and asymmetric spectra alike.  NaN when the slope vanishes
    (a = 0, or a resonant sideband absent).
    """
    g_S, g_Q, VV, K_term = _first_order(atom, couplings, modulation)
    alpha = modulation.alpha
    g = g_S * math.cos(alpha) - g_Q * math.sin(alpha)
    slope = _reduce(g * VV, "sum")
    if slope == 0.0:
        return math.nan
    x0 = couplings.delta_r + couplings.delta_nr
    return -_reduce(g * (x0 * VV + K_term), "sum") / (2.0 * slope)


def linearized_signals(
    atom: AtomParams,
    spectrum: FieldSpectrum,
    modulation: ModulationParams,
    delta: float,
) -> LockInResult:
    """Closed-form signals, first order in a, K and the dressed detuning.

    Valid near the resonance center for weakly asymmetric spectra.  At
    a = 0.2 the omitted detuning curvature makes the error against the
    time-domain reference about 10% of the scan scale at
    |2 delta_tilde| = 0.2 Gamma_g_tilde and under 1% within 0.05
    Gamma_g_tilde.  Attaches warnings (never raises) when the inputs stray
    outside the regime: |2 delta_tilde| > 0.05 Gamma_g_tilde,
    (Delta_L/Gamma)^2 > 0.1, K^2/Gamma_g_tilde^2 > 0.1, or a > 0.5.
    """
    return closed_form_signals(
        atom, derive_couplings(atom, spectrum), modulation, delta
    )


@dataclass(frozen=True)
class ShiftBreakdown:
    """Zero-crossing budget of the linearized in-phase signal (rad/s).

    The S = 0 crossing sits at delta_0 = -(delta_r + delta_nr + delta_as)/2,
    where delta_as is the detection shift induced by the K coupling:
    delta_as = K (calV_L^2 - calV_R^2)/(calV_L calV_R), the same at every
    omega_m.  With the couplings of `derive_couplings` this equals -delta_r,
    so at first order the crossing carries only the non-resonant shift.
    A is the on-resonance slope dS/d(2 delta).
    """

    delta_r: float
    delta_nr: float
    delta_as: float
    A: float
    delta_0_predicted: float


def asymmetry_shift(
    atom: AtomParams,
    spectrum: FieldSpectrum,
    modulation: ModulationParams,
) -> ShiftBreakdown:
    """Decompose the linearized zero crossing into its shift contributions."""
    c = derive_couplings(atom, spectrum)
    g_S, _, VV, K_term = _first_order(atom, c, modulation)
    if VV == 0.0:
        raise ParameterError(
            "asymmetry shift is undefined when a resonant sideband is absent "
            "(calV_L * calV_R = 0)"
        )
    delta_as = K_term / VV
    return ShiftBreakdown(
        delta_r=c.delta_r,
        delta_nr=c.delta_nr,
        delta_as=delta_as,
        A=g_S * VV,
        delta_0_predicted=-(c.delta_r + c.delta_nr + delta_as) / 2.0,
    )

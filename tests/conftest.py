"""Shared fixtures: a canonical test atom, spectrum factories and references.

The canonical atom is an alkali D1 lambda system with a 6.83 GHz ground
splitting; Gamma is kept at 330 MHz so the sideband-spacing validity check
stays quiet in fixtures.  All constants are angular rad/s.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from cptsim import (
    AtomParams,
    BracketError,
    FieldSpectrum,
    IpRoot,
    ModulationParams,
    ParameterError,
    SweepRecord,
    SweepResult,
    asymmetry_shift,
    bessel_spectrum,
    crossing_and_sensitivity,
    harmonic_signals,
    make_signal_function,
    solve_fourier_amplitudes,
    zero_crossing,
)
from cptsim import harmonic
from cptsim.sweep import (
    MAX_REFINE,
    _servo_trace,
    _sign_change_intervals,
    brentq,
    symmetrizing_detuning,
)

TWO_PI = 2.0 * math.pi

OMEGA_G = TWO_PI * 6.834682610904e9
OMEGA = OMEGA_G / 2.0
OMEGA_E = TWO_PI * 816.656e6
GAMMA_OPT = TWO_PI * 330e6
GAMMA_G = TWO_PI * 300.0
GAMMA_E = TWO_PI * 6e6
DELTA_L = -TWO_PI * 28e6
E_TOTAL = TWO_PI * 750e3
POWER = E_TOTAL * E_TOTAL


def make_atom(**overrides) -> AtomParams:
    params = dict(
        omega_g=OMEGA_G,
        omega_e=OMEGA_E,
        Gamma=GAMMA_OPT,
        Gamma_g=GAMMA_G,
        gamma=GAMMA_E,
        dipole_ratio_sq=1.0 / 3.0,
        Delta_L=DELTA_L,
    )
    params.update(overrides)
    return AtomParams(**params)


def make_spectrum(m=2.4, epsilon=0.0, k_max=5, total_power=POWER) -> FieldSpectrum:
    return bessel_spectrum(
        m=m, epsilon=epsilon, k_max=k_max, total_power=total_power, Omega=OMEGA
    )


def pair_spectrum(total_power=POWER, ratio=1.0) -> FieldSpectrum:
    """Resonant sidebands only; E_-1^2 / E_+1^2 = ratio at fixed total power."""
    E_R = math.sqrt(total_power / (1.0 + ratio))
    E_L = math.sqrt(total_power * ratio / (1.0 + ratio))
    return FieldSpectrum(Omega=OMEGA, components={-1: E_L, 1: E_R})


def resonant_attenuation(spectrum, power_factor) -> FieldSpectrum:
    """`spectrum` with E_-1^2 and E_+1^2 multiplied by `power_factor`.

    The per-slab reference of a thick cell: only the resonant sidebands are
    absorbed, the carrier and higher sidebands being too far detuned.
    """
    root = math.sqrt(power_factor)
    comps = dict(spectrum.components)
    for k in (-1, 1):
        if k in comps:
            comps[k] = comps[k] * root
    return FieldSpectrum(Omega=spectrum.Omega, components=comps)


def fourier_amplitudes(couplings, delta, modulation) -> SimpleNamespace:
    """Named amplitudes of the `solve_fourier_amplitudes` vector.

    C0, C1, Cm1, C2, Cm2 (complex) of rho_21, and G0 (float), G1, G2
    (complex) of rho_22, read through the harmonic module's (Re, Im) map.
    """
    x = solve_fourier_amplitudes(couplings, delta, modulation)

    def amplitude(re, im):
        return complex(x[re], x[im])

    C, G = harmonic.C, harmonic.G
    return SimpleNamespace(
        C0=amplitude(*C[0]), C1=amplitude(*C[1]), Cm1=amplitude(*C[-1]),
        C2=amplitude(*C[2]), Cm2=amplitude(*C[-2]),
        G0=float(x[G[0][0]]), G1=amplitude(*G[1]), G2=amplitude(*G[2]),
    )


def kappa(atom, couplings, rho22, rho11, rho21):
    """Excited-state population fed by the resonant sidebands.

    (2P/(gamma Gamma)) (calV_L^2 rho22 + calV_R^2 rho11
    - 2 calV_L calV_R Re rho21), elementwise; zero for the dark state.
    """
    c = couplings
    pref = 2.0 * c.P / (atom.gamma * atom.Gamma)
    return pref * (
        c.calV_L**2 * rho22
        + c.calV_R**2 * rho11
        - 2.0 * c.calV_L * c.calV_R * np.real(rho21)
    )


def public_solve(A, b, width=None, omega_m=None):
    """`harmonic._solve` spelled with public numpy: `np.linalg.solve`, which
    reads b as a stack of matrices unless it is a single vector."""
    if b.ndim == 1:
        return np.linalg.solve(A, b)
    return np.linalg.solve(A, b[..., None])[..., 0]


def reference_servo_trace(atom, modulation, family, scenario):
    """`servo_lock_experiment` stepped one spectrum at a time.

    Each step builds family(m_j).scaled(intensity_j) and calls
    `harmonic_signals` on it; the batched servo must reproduce this trace
    exactly.  Patch `harmonic._solve` with `public_solve` to make every
    step's solve a `np.linalg.solve`.
    """
    start_spectrum = family(scenario.m_start)
    ref = asymmetry_shift(atom, start_spectrum, modulation)
    signal = make_signal_function(atom, start_spectrum, modulation)
    capture = signal.width
    delta = zero_crossing(atom, start_spectrum, modulation, signal=signal)

    n = scenario.n_steps
    ms = np.linspace(scenario.m_start, scenario.m_stop, n)
    phases = 2.0 * math.pi * np.arange(n) / scenario.intensity_period_steps
    intensity = 1.0 + scenario.intensity_depth * np.sin(phases)
    deltas = np.empty(n)
    lost_at = None
    for j in range(n):
        deltas[j] = delta
        if abs(delta) > capture:
            lost_at = j
            break
        spectrum = family(float(ms[j])).scaled(float(intensity[j]))
        S = harmonic_signals(atom, spectrum, modulation, delta).S
        delta = delta - scenario.gain * S / (2.0 * ref.A)
    return _servo_trace(
        ms, intensity, deltas, lost_at, scenario.intensity_period_steps
    )


def reference_ips_and_pzds(
    atom, modulation, family, m_grid, path="harmonic", cell=None,
    allow_asymmetric=True,
):
    """`find_ips_and_pzds` with every pair solved per point.

    Each distinct m gets its own spectrum and `crossing_and_sensitivity`, in
    the order the grid rounds ask for them; the lanes of the harmonic,
    linearized and thick paths must reproduce this result, and its errors,
    exactly.
    """
    ms = [float(m) for m in m_grid]
    pairs = {}

    def pair_at(m):
        if m not in pairs:
            spectrum = family(m)
            try:
                pairs[m] = crossing_and_sensitivity(
                    atom, spectrum, modulation, path, cell, allow_asymmetric
                ) + (spectrum.total_power,)
            except (BracketError, ParameterError) as exc:
                raise type(exc)(f"at m = {m:.12g}, {exc}") from exc
        return pairs[m]

    def sign_changes(grid, which):
        return _sign_change_intervals([pair_at(m)[which] for m in grid])

    for _ in range(MAX_REFINE):
        dense = sorted(ms + [0.5 * (a + b) for a, b in zip(ms, ms[1:])])
        stable = all(
            len(sign_changes(ms, which)) == len(sign_changes(dense, which))
            for which in (0, 1)
        )
        ms = dense
        if stable:
            break
    delta0s, derivs, powers = zip(*(pair_at(m) for m in ms))

    def refine(which):
        intervals = sign_changes(ms, which)
        return intervals, [
            brentq(
                lambda m: pair_at(m)[which], ms[i], ms[i + 1],
                xtol=1e-7 * (ms[-1] - ms[0]),
            )
            for i in intervals
        ]

    pzd_intervals, pzd_roots = refine(0)
    ip_intervals, ip_ms = refine(1)
    ip_roots = []
    for m_ip in ip_ms:
        nearest = min(pzd_roots, key=lambda p: abs(p - m_ip), default=None)
        gap = None if nearest is None else m_ip - nearest
        ip_roots.append(IpRoot(m_ip, pair_at(m_ip)[0], nearest, gap))
    near_ip = {j for i in ip_intervals for j in (i, i + 1)}
    near_pzd = {j for i in pzd_intervals for j in (i, i + 1)}
    return SweepResult(
        records=tuple(
            SweepRecord(m, powers[i], delta0s[i], derivs[i], i in near_ip, i in near_pzd)
            for i, m in enumerate(ms)
        ),
        ip_roots=tuple(ip_roots),
        pzd_roots=tuple(pzd_roots),
        delta0_range=(min(delta0s), max(delta0s)),
        derivative_range=(min(derivs), max(derivs)),
    )


def make_modulation(a=0.2, omega_m=None, alpha=0.0) -> ModulationParams:
    if omega_m is None:
        omega_m = 0.5 * GAMMA_G
    return ModulationParams(a=a, omega_m=omega_m, alpha=alpha)


@pytest.fixture
def atom() -> AtomParams:
    return make_atom()


@pytest.fixture
def sym_atom() -> AtomParams:
    """Atom at the symmetrizing one-photon detuning (K = 0 exactly)."""
    root = symmetrizing_detuning(GAMMA_OPT, OMEGA_E, 1.0 / 3.0)
    return make_atom(Delta_L=root)

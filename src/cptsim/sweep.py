"""Sweeps over spectrum families: zero crossings, IPs, PZDs, servo emulation.

The clock-relevant observable is the zero crossing delta_0 of the in-phase
signal as the spectrum family parameter m (modulation depth of the sideband
comb) and the total power vary.  Two special spectra matter:

  IP  (insensitivity point)       d(delta_0)/dE^2 = 0 at fixed sigma_k,
  PZD (point of zero displacement) delta_0 = 0.

For a thin medium with symmetric sidebands and weak power broadening the two
coincide; sideband asymmetry and cell absorption split them.  At first
order the asymmetry shift delta_as cancels the resonant light shift
delta_r, so the split from asymmetry comes from higher orders in the
modulation index and the power, which the harmonic path keeps.
`find_ips_and_pzds` maps both root families over an m-grid with sign-change
isolation checks; `servo_lock_experiment` reproduces the experimental
detection of IPs by locking a servo to the zero crossing while the light
intensity is harmonically modulated and the RF power is slowly ramped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .core import (
    AtomParams,
    FieldSpectrum,
    ModulationParams,
    ParameterError,
    bessel_spectrum,
    derive_couplings,
    require_finite,
)
from .harmonic import (
    asymmetry_shift,
    closed_form_crossing,
    harmonic_signals,
    linearized_signals,
)
from .thick import CellParams, averaged_signal, slab_couplings
from .timedomain import IntegrationSettings, integrate_ground_state, lockin

__all__ = [
    "SignalPath",
    "BracketError",
    "make_signal_function",
    "zero_crossing",
    "bessel_family",
    "SweepRecord",
    "IpRoot",
    "SweepResult",
    "find_ips_and_pzds",
    "symmetrizing_detuning",
    "ServoScenario",
    "ServoTrace",
    "servo_lock_experiment",
]

SignalPath = Literal["time-domain", "harmonic", "linearized", "thick"]


class BracketError(ValueError):
    """Raised when the in-phase signal has no sign change over the bracket."""


def brentq(f, a, b, **kwargs):
    """`scipy.optimize.brentq`, imported on first call.

    Importing scipy.optimize takes most of the time of `import cptsim`, and
    only the root finders of the harmonic and time-domain paths and the
    m-root refinement need it.
    """
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(f, a, b, **kwargs)


def make_signal_function(
    atom: AtomParams,
    spectrum: FieldSpectrum,
    modulation: ModulationParams,
    path: SignalPath = "harmonic",
    cell: CellParams | None = None,
    settings: IntegrationSettings | None = None,
    allow_asymmetric: bool = False,
) -> Callable[[float], float]:
    """In-phase signal S as a function of the detuning delta, on one path."""
    if path == "time-domain":
        def signal(delta: float) -> float:
            trace = integrate_ground_state(atom, spectrum, modulation, delta, settings)
            return lockin(trace, modulation.alpha).S
    elif path == "harmonic":
        def signal(delta: float) -> float:
            return harmonic_signals(atom, spectrum, modulation, delta).S
    elif path == "linearized":
        def signal(delta: float) -> float:
            return linearized_signals(atom, spectrum, modulation, delta).S
    elif path == "thick":
        if cell is None:
            raise ParameterError("thick signal path requires cell parameters")
        def signal(delta: float) -> float:
            return averaged_signal(
                atom, spectrum, modulation, cell, delta, allow_asymmetric
            ).S
    else:
        raise ParameterError(f"unknown signal path {path!r}")
    return signal


def zero_crossing(
    atom: AtomParams,
    spectrum: FieldSpectrum,
    modulation: ModulationParams,
    path: SignalPath = "harmonic",
    cell: CellParams | None = None,
    settings: IntegrationSettings | None = None,
    bracket: tuple[float, float] | None = None,
    xtol: float | None = None,
    allow_asymmetric: bool = False,
) -> float:
    """Detuning delta_0 where the in-phase signal crosses zero.

    Default bracket is +-Gamma_g_tilde around the unperturbed resonance and
    the default tolerance is 1e-4 * Gamma_g_tilde.  The linearized and thick
    signals are affine in delta, so their crossing is solved in closed form
    (to rounding, whatever `xtol`); the other paths use Brent's method.
    Raises BracketError with the endpoint signal values when there is no
    sign change.
    """
    gt = derive_couplings(atom, spectrum).Gamma_g_tilde
    if bracket is None:
        bracket = (-gt, gt)
    if xtol is None:
        xtol = 1e-4 * gt
    lo, hi = bracket
    if not lo < hi:
        raise ParameterError(f"invalid bracket {bracket}")
    signal = make_signal_function(
        atom, spectrum, modulation, path, cell, settings, allow_asymmetric
    )
    if path in ("linearized", "thick"):
        if path == "linearized":
            couplings = derive_couplings(atom, spectrum)
        else:
            couplings = slab_couplings(atom, spectrum, cell, allow_asymmetric)
        root = closed_form_crossing(atom, couplings, modulation)
        if lo <= root <= hi:
            return root
        # outside the bracket (or no slope): the endpoint check below reports it
    S_lo, S_hi = signal(lo), signal(hi)
    if S_lo == 0.0:
        return lo
    if S_hi == 0.0:
        return hi
    if (S_lo > 0) == (S_hi > 0):
        raise BracketError(
            f"no crossing in bracket [{lo:.6g}, {hi:.6g}] rad/s: "
            f"S(lo) = {S_lo:.6g}, S(hi) = {S_hi:.6g}"
        )
    root = brentq(signal, lo, hi, xtol=xtol, rtol=4.0 * np.finfo(float).eps)
    return float(root)


def bessel_family(
    epsilon: float,
    k_max: int,
    total_power: float,
    Omega: float,
) -> Callable[[float], FieldSpectrum]:
    """Family m -> truncated Bessel spectrum at fixed asymmetry and power."""
    def family(m: float) -> FieldSpectrum:
        return bessel_spectrum(m, epsilon, k_max, total_power, Omega)
    return family


@dataclass(frozen=True)
class SweepRecord:
    """One spectrum-family grid point of a zero-crossing sweep."""

    m: float
    E2: float
    delta0: float
    dDelta0_dE2: float
    near_ip: bool = False
    near_pzd: bool = False


@dataclass(frozen=True)
class IpRoot:
    """Insensitivity point: m where d(delta_0)/dE^2 = 0.

    `delta0` is the zero-crossing frequency locked there (the clock offset);
    `nearest_pzd_m` and `m_gap` quantify the IP/PZD separation (None when no
    PZD exists in the swept range).
    """

    m: float
    delta0: float
    nearest_pzd_m: float | None
    m_gap: float | None


@dataclass(frozen=True)
class SweepResult:
    """Sweep records plus refined IP and PZD roots and range diagnostics."""

    records: tuple[SweepRecord, ...]
    ip_roots: tuple[IpRoot, ...]
    pzd_roots: tuple[float, ...]
    delta0_range: tuple[float, float]
    derivative_range: tuple[float, float]


def _sign_change_intervals(values: Sequence[float]) -> list[int]:
    """Indices i where values[i] and values[i+1] have opposite (or zero) sign."""
    out = []
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0 or (a > 0) != (b > 0):
            out.append(i)
    return out


def find_ips_and_pzds(
    atom: AtomParams,
    modulation: ModulationParams,
    family: Callable[[float], FieldSpectrum],
    m_grid: Sequence[float],
    path: SignalPath = "harmonic",
    cell: CellParams | None = None,
    settings: IntegrationSettings | None = None,
    power_step: float = 1e-3,
    max_refine: int = 3,
    allow_asymmetric: bool = True,
) -> SweepResult:
    """Locate every IP and PZD of a spectrum family over an m-grid.

    At each grid point the zero crossing delta_0 is solved at nominal power
    and at power scaled by 1 +- `power_step` (all components uniformly, so
    the power fractions sigma_k stay fixed), giving dDelta0_dE2 by central
    difference.  Sign changes of the derivative mark IPs, sign changes of
    delta_0 mark PZDs; each is refined by bracketed root finding in m.  The
    grid is checked for isolation by midpoint densification: if either root
    count changes, the densified grid is adopted (up to `max_refine` times).
    Internal crossings are solved far tighter than the public default so the
    central difference stays clean.
    """
    ms = [float(m) for m in m_grid]
    if len(ms) < 3:
        raise ParameterError("m_grid needs at least 3 points")
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ParameterError("m_grid must be strictly increasing")
    if not 0.0 < power_step < 0.1:
        raise ParameterError(f"power_step must be in (0, 0.1), got {power_step}")

    def delta0_at(m: float, power_scale: float) -> float:
        spectrum = family(m)
        if power_scale != 1.0:
            spectrum = spectrum.scaled(power_scale)
        gt = derive_couplings(atom, spectrum).Gamma_g_tilde
        return zero_crossing(
            atom, spectrum, modulation, path, cell, settings,
            bracket=(-gt, gt), xtol=1e-8 * gt,
            allow_asymmetric=allow_asymmetric,
        )

    def derivative_at(m: float) -> float:
        E2 = family(m).total_power
        up = delta0_at(m, 1.0 + power_step)
        dn = delta0_at(m, 1.0 - power_step)
        return (up - dn) / (2.0 * power_step * E2)

    def scan(grid: list[float]) -> tuple[list[float], list[float]]:
        d0 = [delta0_at(m, 1.0) for m in grid]
        dd = [derivative_at(m) for m in grid]
        return d0, dd

    delta0s, derivs = scan(ms)
    for _ in range(max_refine):
        mids = [0.5 * (a + b) for a, b in zip(ms, ms[1:])]
        mid_d0 = [delta0_at(m, 1.0) for m in mids]
        mid_dd = [derivative_at(m) for m in mids]
        dense_ms: list[float] = []
        dense_d0: list[float] = []
        dense_dd: list[float] = []
        for i, m in enumerate(ms):
            dense_ms.append(m)
            dense_d0.append(delta0s[i])
            dense_dd.append(derivs[i])
            if i < len(mids):
                dense_ms.append(mids[i])
                dense_d0.append(mid_d0[i])
                dense_dd.append(mid_dd[i])
        stable = len(_sign_change_intervals(dense_d0)) == len(
            _sign_change_intervals(delta0s)
        ) and len(_sign_change_intervals(dense_dd)) == len(
            _sign_change_intervals(derivs)
        )
        ms, delta0s, derivs = dense_ms, dense_d0, dense_dd
        if stable:
            break

    xtol_m = 1e-7 * (ms[-1] - ms[0])
    pzd_roots: list[float] = []
    pzd_intervals = _sign_change_intervals(delta0s)
    for i in pzd_intervals:
        root = brentq(
            lambda m: delta0_at(m, 1.0), ms[i], ms[i + 1],
            xtol=xtol_m, rtol=4.0 * np.finfo(float).eps,
        )
        pzd_roots.append(float(root))

    ip_roots: list[IpRoot] = []
    ip_intervals = _sign_change_intervals(derivs)
    for i in ip_intervals:
        root = brentq(
            derivative_at, ms[i], ms[i + 1],
            xtol=xtol_m, rtol=4.0 * np.finfo(float).eps,
        )
        m_ip = float(root)
        d0_ip = delta0_at(m_ip, 1.0)
        if pzd_roots:
            nearest = min(pzd_roots, key=lambda p: abs(p - m_ip))
            gap = m_ip - nearest
        else:
            nearest, gap = None, None
        ip_roots.append(
            IpRoot(m=m_ip, delta0=d0_ip, nearest_pzd_m=nearest, m_gap=gap)
        )

    near_ip = set()
    for i in ip_intervals:
        near_ip.update((i, i + 1))
    near_pzd = set()
    for i in pzd_intervals:
        near_pzd.update((i, i + 1))
    records = tuple(
        SweepRecord(
            m=m,
            E2=family(m).total_power,
            delta0=delta0s[i],
            dDelta0_dE2=derivs[i],
            near_ip=i in near_ip,
            near_pzd=i in near_pzd,
        )
        for i, m in enumerate(ms)
    )
    return SweepResult(
        records=records,
        ip_roots=tuple(ip_roots),
        pzd_roots=tuple(pzd_roots),
        delta0_range=(min(delta0s), max(delta0s)),
        derivative_range=(min(derivs), max(derivs)),
    )


def symmetrizing_detuning(
    Gamma: float,
    omega_e: float,
    dipole_ratio_sq: float = 1.0 / 3.0,
) -> float:
    """One-photon detuning that nulls the asymmetry coupling K.

    Root of (1/r) Delta/(Delta^2+Gamma^2) + (Delta+omega_e)/((Delta+omega_e)^2
    + Gamma^2) = 0 in Delta in (-omega_e, 0), where r = dipole_ratio_sq
    (weight 3 for the standard alkali D1 ratio).  Bisection, driven to the
    floating-point fixed point (far below the guaranteed 1e-6*omega_e).
    At this detuning the dispersive weights of the excited doublet cancel:
    K = 0, delta_r = 0, and the response is odd in the dressed detuning.
    """
    require_finite(
        "symmetrizing_detuning",
        Gamma=Gamma,
        omega_e=omega_e,
        dipole_ratio_sq=dipole_ratio_sq,
    )
    if Gamma <= 0:
        raise ParameterError(f"Gamma must be positive, got {Gamma}")
    if omega_e <= 0:
        raise ParameterError(f"omega_e must be positive, got {omega_e}")
    if dipole_ratio_sq <= 0:
        raise ParameterError(
            "dipole_ratio_sq must be positive for a symmetrizing root, got "
            f"{dipole_ratio_sq}"
        )
    w = 1.0 / dipole_ratio_sq

    def f(Delta: float) -> float:
        return w * Delta / (Delta * Delta + Gamma * Gamma) + (Delta + omega_e) / (
            (Delta + omega_e) ** 2 + Gamma * Gamma
        )

    lo = -omega_e * (1.0 - 1e-12)
    hi = -omega_e * 1e-12
    f_lo, f_hi = f(lo), f(hi)
    if not f_lo < 0.0 < f_hi:
        raise ParameterError(
            f"no sign change on (-omega_e, 0): f = {f_lo:.3g} at its low end, "
            f"{f_hi:.3g} at its high end (Gamma = {Gamma}, omega_e = {omega_e})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ServoScenario:
    """Servo-lock detection run: slow m ramp under intensity modulation.

    One servo step per modulation period.  `gain` is the integral gain per
    step (closed-loop time constant 1/gain steps); the intensity factor is
    1 + depth * sin(2 pi j / intensity_period_steps), and the ramp must be
    slow against the intensity period for a clean demodulation.
    `delta_start = None` locks on at the initial zero crossing.
    """

    m_start: float
    m_stop: float
    n_steps: int
    gain: float = 0.05
    intensity_depth: float = 0.3
    intensity_period_steps: int = 400
    delta_start: float | None = None
    bracket_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.n_steps < 2:
            raise ParameterError(f"n_steps must be >= 2, got {self.n_steps}")
        if self.gain < 0:
            raise ParameterError(f"gain must be >= 0, got {self.gain}")
        if not 0.0 <= self.intensity_depth < 1.0:
            raise ParameterError(
                f"intensity_depth must be in [0, 1), got {self.intensity_depth}"
            )
        if self.intensity_period_steps < 8:
            raise ParameterError(
                f"intensity_period_steps must be >= 8, got "
                f"{self.intensity_period_steps}"
            )
        if self.bracket_scale <= 0:
            raise ParameterError(
                f"bracket_scale must be positive, got {self.bracket_scale}"
            )


@dataclass(frozen=True)
class ServoTrace:
    """Time series of the locked detuning and its intensity response.

    `response_m` / `response_amplitude` give the demodulated amplitude of
    the locked detuning at the intensity-modulation frequency in sliding
    windows (one intensity period long, half-period stride).  A lock loss
    truncates the arrays and sets `lock_lost`.
    """

    m: np.ndarray
    intensity: np.ndarray
    delta: np.ndarray
    response_m: np.ndarray
    response_amplitude: np.ndarray
    lock_lost: bool
    lock_lost_step: int | None = None


def servo_lock_experiment(
    atom: AtomParams,
    modulation: ModulationParams,
    family: Callable[[float], FieldSpectrum],
    scenario: ServoScenario,
) -> ServoTrace:
    """Emulate servo-locked detection of IPs under intensity modulation.

    An integral servo steers delta to the in-phase zero crossing (harmonic
    path) while the intensity oscillates and m ramps linearly.  The locked
    detuning tracks the intensity-induced shift; demodulating it at the
    intensity frequency gives a response whose minima over m are the
    experimentally detected IPs.
    """
    start_spectrum = family(scenario.m_start)
    ref = asymmetry_shift(atom, start_spectrum, modulation)
    gt_ref = derive_couplings(atom, start_spectrum).Gamma_g_tilde
    bracket = scenario.bracket_scale * gt_ref
    if scenario.delta_start is None:
        delta = zero_crossing(atom, start_spectrum, modulation, path="harmonic")
    else:
        delta = scenario.delta_start

    n = scenario.n_steps
    ms = np.linspace(scenario.m_start, scenario.m_stop, n)
    phases = 2.0 * math.pi * np.arange(n) / scenario.intensity_period_steps
    intensity = 1.0 + scenario.intensity_depth * np.sin(phases)
    deltas = np.empty(n)
    lock_lost = False
    lost_at: int | None = None
    for j in range(n):
        deltas[j] = delta
        if abs(delta) > bracket:
            lock_lost = True
            lost_at = j
            break
        spectrum = family(float(ms[j])).scaled(float(intensity[j]))
        S = harmonic_signals(atom, spectrum, modulation, delta).S
        delta = delta - scenario.gain * S / (2.0 * ref.A)
    n_kept = lost_at if lock_lost else n
    ms = ms[:n_kept]
    intensity = intensity[:n_kept]
    deltas = deltas[:n_kept]

    period = scenario.intensity_period_steps
    stride = period // 2
    centers: list[float] = []
    amps: list[float] = []
    probe = np.exp(-2j * math.pi * np.arange(period) / period)
    # remove the ramp-induced drift before demodulating, else its leakage
    # buries the response minimum at the IP
    ramp = np.arange(period) - (period - 1) / 2.0
    ramp_norm = np.sum(ramp * ramp)
    start = 0
    while start + period <= n_kept:
        window = deltas[start : start + period]
        slope = np.sum(ramp * (window - window.mean())) / ramp_norm
        detrended = window - window.mean() - slope * ramp
        amp = 2.0 * abs(np.sum(detrended * probe)) / period
        centers.append(float(ms[start + period // 2]))
        amps.append(float(amp))
        start += stride
    return ServoTrace(
        m=ms,
        intensity=intensity,
        delta=deltas,
        response_m=np.asarray(centers),
        response_amplitude=np.asarray(amps),
        lock_lost=lock_lost,
        lock_lost_step=lost_at,
    )

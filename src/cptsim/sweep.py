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
from dataclasses import dataclass, replace
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
    require_integer,
)
# perfbench/tracer.py counts signal evaluations through the bindings of
# `linearized_signals` and `averaged_signal`; they stay bound so the counts
# read 0 rather than missing.
from .harmonic import (  # noqa: F401
    ClosedFormSignal,
    HarmonicSignal,
    asymmetry_shift,
    harmonic_signals,
    linearized_signals,
)
from .thick import CellParams, averaged_signal, cell_signal  # noqa: F401
from .timedomain import integrate_ground_state, lockin

# The time-domain power slope (`TimeDomainSignal.power_sensitivity`) steps
# the power scale s by +-POWER_STEP and the detuning by +-POWER_STEP *
# Gamma_g_tilde at the crossing.  Every sweep crossing is solved to
# SWEEP_XTOL of its spectrum's Gamma_g_tilde, far below the public default,
# because the power slope is taken at the returned crossing and inherits
# its error.
POWER_STEP = 1e-4
SWEEP_XTOL = 1e-8
# Midpoint densifications `find_ips_and_pzds` may apply to its m-grid.
MAX_REFINE = 3

__all__ = [
    "SignalPath",
    "BracketError",
    "make_signal_function",
    "zero_crossing",
    "crossing_and_sensitivity",
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


@dataclass(frozen=True)
class TimeDomainSignal:
    """In-phase lock-in signal of the time-domain path.

    Each evaluation integrates the periodic orbit and demodulates it.
    """

    atom: AtomParams
    spectrum: FieldSpectrum
    modulation: ModulationParams
    width: float

    def __call__(self, delta: float) -> float:
        trace = integrate_ground_state(self.atom, self.spectrum, self.modulation, delta)
        return lockin(trace, self.modulation.alpha).S

    def power_sensitivity(self, delta0: float) -> float:
        """d(delta_0)/ds = -S_s / S_delta at a crossing delta0.

        Both derivatives are central differences, four integrations in all.
        """
        h, dd = POWER_STEP, POWER_STEP * self.width
        up, dn = (
            replace(self, spectrum=self.spectrum.scaled(s))(delta0)
            for s in (1.0 + h, 1.0 - h)
        )
        S_s = (up - dn) / (2.0 * h)
        S_delta = (self(delta0 + dd) - self(delta0 - dd)) / (2.0 * dd)
        return -S_s / S_delta


Signal = TimeDomainSignal | HarmonicSignal | ClosedFormSignal


def make_signal_function(
    atom: AtomParams,
    spectrum: FieldSpectrum,
    modulation: ModulationParams,
    path: SignalPath = "harmonic",
    cell: CellParams | None = None,
    allow_asymmetric: bool = False,
) -> Signal:
    """In-phase signal S as a function of the detuning delta, on one path.

    The only place that dispatches on `path`, and where the couplings are
    built, once.  The returned object is called as S(delta) and carries
    `width` (Gamma_g_tilde at the point, or at the cell entrance) and
    `power_sensitivity(delta0)`, d(delta_0)/ds at a crossing for the power
    scale E^2 -> s E^2.  The affine paths return a `ClosedFormSignal`, whose
    `crossing()` is closed-form; the harmonic Fourier system is assembled
    here, and each evaluation is one solve.
    """
    if path == "thick" and cell is None:
        raise ParameterError("thick signal path requires cell parameters")
    c = derive_couplings(atom, spectrum)
    if path == "time-domain":
        return TimeDomainSignal(atom, spectrum, modulation, c.Gamma_g_tilde)
    if path == "harmonic":
        return HarmonicSignal(atom, c, modulation)
    if path == "linearized":
        return ClosedFormSignal(atom, c, modulation, c.Gamma_g_tilde)
    if path == "thick":
        return cell_signal(atom, spectrum, c, modulation, cell, allow_asymmetric)
    raise ParameterError(f"unknown signal path {path!r}")


def zero_crossing(
    atom: AtomParams,
    spectrum: FieldSpectrum,
    modulation: ModulationParams,
    path: SignalPath = "harmonic",
    cell: CellParams | None = None,
    bracket: tuple[float, float] | None = None,
    xtol: float | None = None,
    allow_asymmetric: bool = False,
    signal: Signal | None = None,
) -> float:
    """Detuning delta_0 where the in-phase signal crosses zero.

    Default bracket is +-Gamma_g_tilde around the unperturbed resonance and
    the default tolerance is 1e-4 * Gamma_g_tilde.  The linearized and thick
    signals are affine in delta, so their crossing is solved in closed form
    (to rounding, whatever `xtol`); the other paths use Brent's method.
    Raises BracketError with the endpoint signal values when there is no
    sign change, and ParameterError when the signal is zero at both ends
    or a = 0 (a flat signal has no crossing).  `signal` is
    `make_signal_function` of the same inputs, for a caller that evaluates
    it again after the crossing; by default it is built here.
    """
    if signal is None:
        signal = make_signal_function(
            atom, spectrum, modulation, path, cell, allow_asymmetric
        )
    gt = signal.width
    lo, hi = (-gt, gt) if bracket is None else bracket
    if not lo < hi:
        raise ParameterError(f"invalid bracket {bracket}")
    no_slope = (
        "the in-phase signal has no slope in delta "
        f"(modulation index a = {modulation.a})"
    )
    if modulation.a == 0.0:
        # S is identically 0; the time-domain lock-in would leave round-off,
        # whose sign Brent's method would follow to a spurious crossing
        raise ParameterError(no_slope)
    if isinstance(signal, ClosedFormSignal):
        root = signal.crossing()
        if lo <= root <= hi:
            return root
        # outside the bracket (or no slope): the endpoint checks below report it
    S_lo, S_hi = signal(lo), signal(hi)
    if S_lo == 0.0 and S_hi == 0.0:
        raise ParameterError(f"{no_slope}: it is 0 at both bracket ends")
    if S_lo == 0.0:
        return lo
    if S_hi == 0.0:
        return hi
    if (S_lo > 0) == (S_hi > 0):
        raise BracketError(
            f"no crossing in bracket [{lo:.6g}, {hi:.6g}] rad/s: "
            f"S(lo) = {S_lo:.6g}, S(hi) = {S_hi:.6g}"
        )
    xtol = 1e-4 * gt if xtol is None else xtol
    root = brentq(signal, lo, hi, xtol=xtol, rtol=4.0 * np.finfo(float).eps)
    return float(root)


def crossing_and_sensitivity(
    atom: AtomParams,
    spectrum: FieldSpectrum,
    modulation: ModulationParams,
    path: SignalPath = "harmonic",
    cell: CellParams | None = None,
    allow_asymmetric: bool = False,
) -> tuple[float, float]:
    """Zero crossing delta_0 and its power sensitivity d(delta_0)/dE^2.

    The crossing is one `zero_crossing` over +-Gamma_g_tilde, solved to
    SWEEP_XTOL of that width.  Its slope is taken with every spectral
    component scaled uniformly, E^2 -> s E^2 (sigma_k fixed); insensitivity
    points are its roots over the spectrum-family parameter.  On every path
    it is d(delta_0)/ds = -S_s / S_delta at that crossing, from the
    derivatives of the in-phase signal in s and delta: exact on the
    harmonic path (`HarmonicSignal.power_sensitivity`) and from the sums of
    the closed form on the linearized and thick paths (slab attenuation
    fixed); central differences of the lock-in signal on the time-domain
    path.  Units: (rad/s) per unit of E^2 in rad^2/s^2.
    """
    signal = make_signal_function(
        atom, spectrum, modulation, path, cell, allow_asymmetric
    )
    delta0 = zero_crossing(
        atom, spectrum, modulation, xtol=SWEEP_XTOL * signal.width, signal=signal
    )
    return delta0, signal.power_sensitivity(delta0) / spectrum.total_power


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
    """Indices i where values[i] and values[i+1] have opposite signs.

    A value that is exactly 0 counts once, whichever way the values pass
    through it: in the interval it starts, or in the last interval when it
    ends the grid.
    """
    last = len(values) - 2
    return [
        i for i, (a, b) in enumerate(zip(values, values[1:]))
        if a == 0.0 or a * b < 0.0 or (b == 0.0 and i == last)
    ]


def find_ips_and_pzds(
    atom: AtomParams,
    modulation: ModulationParams,
    family: Callable[[float], FieldSpectrum],
    m_grid: Sequence[float],
    path: SignalPath = "harmonic",
    cell: CellParams | None = None,
    allow_asymmetric: bool = True,
) -> SweepResult:
    """Locate every IP and PZD of a spectrum family over an m-grid.

    At each grid point the zero crossing delta_0 and its power slope
    dDelta0_dE2 are solved together (`crossing_and_sensitivity`).  Sign changes of the
    slope mark IPs, sign changes of delta_0 mark PZDs; each is refined by
    bracketed root finding in m.  The grid is checked for isolation by
    midpoint densification: if either root count changes, the densified
    grid is adopted (up to MAX_REFINE times).  `family` and the pair are
    computed once per distinct m.  A BracketError or ParameterError names
    the m at which it occurred.
    """
    ms = [float(m) for m in m_grid]
    if len(ms) < 3:
        raise ParameterError("m_grid needs at least 3 points")
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ParameterError("m_grid must be strictly increasing")

    pairs: dict[float, tuple[float, float, float]] = {}

    def pair_at(m: float) -> tuple[float, float, float]:
        """(delta_0, dDelta0_dE2, E^2) at m; an error is re-raised naming m."""
        if m not in pairs:
            spectrum = family(m)
            try:
                pairs[m] = crossing_and_sensitivity(
                    atom, spectrum, modulation, path, cell, allow_asymmetric
                ) + (spectrum.total_power,)
            except (BracketError, ParameterError) as exc:
                raise type(exc)(f"at m = {m:.12g}, {exc}") from exc
        return pairs[m]

    def sign_changes(grid: list[float], which: int) -> list[int]:
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

    xtol_m = 1e-7 * (ms[-1] - ms[0])

    def refine(which: int) -> tuple[list[int], list[float]]:
        """Sign-change intervals of pair entry `which` and its roots in m."""
        intervals = sign_changes(ms, which)
        return intervals, [
            float(brentq(
                lambda m: pair_at(m)[which], ms[i], ms[i + 1],
                xtol=xtol_m, rtol=4.0 * np.finfo(float).eps,
            ))
            for i in intervals
        ]

    pzd_intervals, pzd_roots = refine(0)
    ip_intervals, ip_ms = refine(1)
    ip_roots = []
    for m_ip in ip_ms:
        nearest = min(pzd_roots, key=lambda p: abs(p - m_ip), default=None)
        gap = None if nearest is None else m_ip - nearest
        ip_roots.append(
            IpRoot(m=m_ip, delta0=pair_at(m_ip)[0], nearest_pzd_m=nearest, m_gap=gap)
        )

    near_ip = {j for i in ip_intervals for j in (i, i + 1)}
    near_pzd = {j for i in pzd_intervals for j in (i, i + 1)}
    records = tuple(
        SweepRecord(m, powers[i], delta0s[i], derivs[i], i in near_ip, i in near_pzd)
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
    slow against the intensity period for a clean demodulation.  The servo
    locks on at the zero crossing of the start spectrum and loses lock once
    |delta| exceeds that spectrum's Gamma_g_tilde.
    """

    m_start: float
    m_stop: float
    n_steps: int
    gain: float = 0.05
    intensity_depth: float = 0.3
    intensity_period_steps: int = 400

    def __post_init__(self) -> None:
        require_finite(
            "ServoScenario",
            m_start=self.m_start,
            m_stop=self.m_stop,
            gain=self.gain,
            intensity_depth=self.intensity_depth,
        )
        require_integer(
            "ServoScenario",
            n_steps=self.n_steps,
            intensity_period_steps=self.intensity_period_steps,
        )
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
    signal = make_signal_function(atom, start_spectrum, modulation)
    capture = signal.width
    delta = zero_crossing(atom, start_spectrum, modulation, signal=signal)

    n = scenario.n_steps
    ms = np.linspace(scenario.m_start, scenario.m_stop, n)
    phases = 2.0 * math.pi * np.arange(n) / scenario.intensity_period_steps
    intensity = 1.0 + scenario.intensity_depth * np.sin(phases)
    deltas = np.empty(n)
    lock_lost = False
    lost_at: int | None = None
    for j in range(n):
        deltas[j] = delta
        if abs(delta) > capture:
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

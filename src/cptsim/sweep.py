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
isolation checks; on the harmonic, linearized and thick paths the depths of
a grid round are the lanes of one signal, and only a lane without a clean
bracket, or a time-domain sweep, is solved point by point.
`servo_lock_experiment` reproduces the experimental detection of IPs by
locking a servo to the zero crossing while the light intensity is
harmonically modulated and the RF power is slowly ramped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Literal, Sequence

import numpy as np

from .core import (
    AtomParams,
    DerivedCouplings,
    FieldSpectrum,
    ModulationParams,
    ParameterError,
    _fsum_columns,
    amplitude_couplings,
    bessel_amplitudes,
    bessel_spectrum,
    derive_couplings,
    require_finite,
    require_integer,
)
# perfbench/tracer.py counts signal evaluations through the bindings of
# `harmonic_signals`, `linearized_signals` and `averaged_signal`; they stay
# bound so the counts read 0 rather than missing.
from .harmonic import (  # noqa: F401
    ClosedFormSignal,
    HarmonicSignal,
    _truncation_warning,
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
# Relative tolerance of every Brent root, the smallest scipy's brentq allows,
# and the iterations after which it gives up, scipy's default.
RTOL = 4.0 * float(np.finfo(float).eps)
MAXITER = 100
# Most lanes `find_ips_and_pzds` solves in one batch, which bounds the memory
# of its stacked 15x15 systems.
MAX_LANES = 1024

__all__ = [
    "SignalPath",
    "BracketError",
    "make_signal_function",
    "zero_crossing",
    "crossing_and_sensitivity",
    "BesselFamily",
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


def _brent(a, b, xtol, f_a=None, f_b=None):
    """Brent's method on [a, b] as a generator: it yields each x at which
    it needs f (f(a) and f(b) first, unless given), takes f(x) back by
    `send`, and returns the root.  A port of the branches of scipy's C
    `brentq` at rtol = RTOL: roots, iterates and errors equal scipy's
    (ValueError for xtol <= 0, a NaN value or ends of one sign,
    RuntimeError after MAXITER iterations).
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def checked(x, fx):
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return float(fx)

    xpre, xcur = float(a), float(b)
    fpre = checked(xpre, (yield xpre) if f_a is None else f_a)
    fcur = checked(xcur, (yield xcur) if f_b is None else f_b)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre)
                stry /= dblk * dpre * (fblk - fpre)
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = checked(xcur, (yield xcur))
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations")


def brentq(f, a, b, xtol, f_a=None, f_b=None):
    """scipy's `brentq(f, a, b, xtol=xtol, rtol=RTOL)`, root and iterates,
    from `_brent`; `f_a` and `f_b` are f(a) and f(b) if known."""
    steps, value = _brent(a, b, xtol, f_a, f_b), None
    try:
        while True:
            value = f(steps.send(value))
    except StopIteration as done:
        return done.value


def _brent_lockstep(f, brackets) -> np.ndarray:
    """Roots of n brackets (a_j, b_j, xtol_j, f(a_j), f(b_j)), each found as
    `brentq` finds it.  The lanes j step together: f maps the x of every
    lane to their values, once per round, and a lane that has converged
    holds its root as its x.
    """
    steps = [_brent(a, b, xtol, f_a, f_b) for a, b, xtol, f_a, f_b in brackets]
    xs, values = np.empty(len(steps)), [None] * len(steps)
    running = range(len(steps))
    while True:
        still = []
        for j in running:
            try:
                xs[j] = steps[j].send(values[j])
                still.append(j)
            except StopIteration as done:
                xs[j] = done.value
        if not still:
            return xs
        running, values = still, f(xs).tolist()


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
    c = derive_couplings(atom, spectrum)
    if path == "time-domain":
        return TimeDomainSignal(atom, spectrum, modulation, c.Gamma_g_tilde)
    return _couplings_signal(
        atom, c, spectrum.Omega, modulation, path, cell, allow_asymmetric
    )


def _couplings_signal(
    atom: AtomParams, c: DerivedCouplings, Omega: float, modulation: ModulationParams,
    path: SignalPath, cell: CellParams | None, allow_asymmetric: bool,
) -> HarmonicSignal | ClosedFormSignal:
    """`make_signal_function` on every path but the time domain, from the
    couplings c: floats for one spectrum, or arrays over lanes for many."""
    if path == "harmonic":
        if modulation.beyond_recommended_index:
            warnings.warn(_truncation_warning(modulation), stacklevel=2)
        return HarmonicSignal(atom, c, modulation)
    if path == "linearized":
        return cell_signal(atom, c, Omega, modulation, None)
    if path == "thick":
        if cell is None:
            raise ParameterError("thick signal path requires cell parameters")
        return cell_signal(atom, c, Omega, modulation, cell, allow_asymmetric)
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
    or a = 0 (a flat signal has no crossing), and on every path, before
    the signal is evaluated, when a bracket end is not finite or `xtol` is
    not finite and > 0.  `signal` is `make_signal_function` of the same
    inputs, for a caller that evaluates it again after the crossing; by
    default it is built here.
    """
    if bracket is not None and not all(map(math.isfinite, bracket)):
        raise ParameterError(f"bracket ends must be finite, got {bracket}")
    if xtol is not None and not (math.isfinite(xtol) and xtol > 0):
        raise ParameterError(f"xtol must be finite and > 0, got {xtol}")
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
        root = float(signal.crossing())
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
    return brentq(signal, lo, hi, xtol=xtol, f_a=S_lo, f_b=S_hi)


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
    return delta0, float(signal.power_sensitivity(delta0)) / spectrum.total_power


@dataclass(frozen=True)
class BesselFamily:
    """Family m -> truncated Bessel spectrum at fixed asymmetry and power.

    Calling it with m returns `bessel_spectrum(m, epsilon, k_max,
    total_power, Omega)`; `amplitudes` and `couplings` build the spectra of
    many depths at once, for the servo's steps and a sweep grid's lanes.
    Every field is checked on construction (ParameterError), so no lane
    meets an invalid family.
    """

    epsilon: float
    k_max: int
    total_power: float
    Omega: float

    def __post_init__(self) -> None:
        require_finite(
            "BesselFamily",
            epsilon=self.epsilon,
            total_power=self.total_power,
            Omega=self.Omega,
        )
        require_integer("BesselFamily", k_max=self.k_max)
        if not -1.0 < self.epsilon < 1.0:
            raise ParameterError(
                f"BesselFamily epsilon must satisfy |epsilon| < 1, got {self.epsilon}"
            )
        if self.k_max < 2:
            raise ParameterError(f"BesselFamily k_max must be >= 2, got {self.k_max}")
        if self.total_power <= 0:
            raise ParameterError(
                f"BesselFamily total_power must be > 0, got {self.total_power}"
            )
        if self.Omega <= 0:
            raise ParameterError(f"BesselFamily Omega must be > 0, got {self.Omega}")

    def __call__(self, m: float) -> FieldSpectrum:
        return bessel_spectrum(
            m, self.epsilon, self.k_max, self.total_power, self.Omega
        )

    def amplitudes(self, ms: np.ndarray) -> np.ndarray:
        """Amplitudes E_k of self(m_j), k along axis 0 and j along axis 1."""
        return bessel_amplitudes(ms, self.epsilon, self.k_max, self.total_power)

    def couplings(self, atom: AtomParams, amplitudes: np.ndarray) -> DerivedCouplings:
        """Couplings of the spectra whose amplitudes are the columns of
        `amplitudes` (as from `amplitudes`, or scaled), as arrays over the
        columns, each element equal to `derive_couplings` bit for bit."""
        ks = range(-self.k_max, self.k_max + 1)
        return amplitude_couplings(atom, dict(zip(ks, amplitudes)), self.Omega)


def _lane_pairs(
    atom: AtomParams, modulation: ModulationParams, family: BesselFamily,
    ms: list[float], path: SignalPath, cell: CellParams | None,
    allow_asymmetric: bool,
) -> dict[float, tuple[float, float, float]]:
    """(delta_0, dDelta0_dE2, E^2) of family(m), for every m of `ms` whose
    crossing has a clean bracket, as lanes of one signal.

    The couplings of every m come from one `BesselFamily.couplings` pass;
    the affine paths solve every crossing in closed form, and each round of
    the harmonic lockstep Brent is one batched solve.  Each lane's
    arithmetic is that of `crossing_and_sensitivity` on family(m), E^2 the
    math.fsum of `FieldSpectrum.total_power`, so every pair equals it bit
    for bit.  A bracket +-Gamma_g_tilde is clean if the closed-form root
    lies in it or the harmonic signal has strictly opposite signs at its
    ends.  Other lanes (an error, a flat signal such as every lane at a = 0,
    a root at an end) are left to `pair_at`, and so is every lane when the
    signal cannot be built (a negative depth, or a cell that rejects the
    spectra).
    """
    if not ms:
        return {}
    try:
        amps = family.amplitudes(np.array(ms))
        signal = _couplings_signal(
            atom, family.couplings(atom, amps), family.Omega, modulation,
            path, cell, allow_asymmetric,
        )
    except ParameterError:
        return {}
    gt = signal.width
    if isinstance(signal, ClosedFormSignal):
        roots = signal.crossing()
        clean = (-gt <= roots) & (roots <= gt)
    else:
        S_lo, S_hi = signal(-gt), signal(gt)
        clean = np.sign(S_lo) * np.sign(S_hi) == -1.0
    if not clean.all():  # solve the clean lanes on their own
        kept = [m for m, ok in zip(ms, clean.tolist()) if ok]
        return _lane_pairs(atom, modulation, family, kept, path, cell, allow_asymmetric)
    if not isinstance(signal, ClosedFormSignal):
        brackets = (-gt, gt, SWEEP_XTOL * gt, S_lo, S_hi)
        roots = _brent_lockstep(signal, zip(*(v.tolist() for v in brackets)))
    powers = _fsum_columns(amps * amps)
    slopes = signal.power_sensitivity(roots) / powers
    return dict(zip(ms, zip(roots.tolist(), slopes.tolist(), powers.tolist())))


def bessel_family(
    epsilon: float,
    k_max: int,
    total_power: float,
    Omega: float,
) -> BesselFamily:
    """Family m -> truncated Bessel spectrum at fixed asymmetry and power."""
    return BesselFamily(epsilon, k_max, total_power, Omega)


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
    computed once per distinct m; with a `BesselFamily` on every path but
    the time domain, the new m of each grid round as lanes of one signal,
    in batches of at most MAX_LANES (`_lane_pairs`).  Only lanes without a
    clean bracket and the m-root refinement are solved per point.  A
    BracketError or ParameterError names the m at which it occurred, the
    smallest failing m of its round.
    """
    ms = [float(m) for m in m_grid]
    if len(ms) < 3:
        raise ParameterError("m_grid needs at least 3 points")
    require_finite("find_ips_and_pzds", **{f"m_grid[{i}]": m for i, m in enumerate(ms)})
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ParameterError("m_grid must be strictly increasing")

    pairs: dict[float, tuple[float, float, float]] = {}
    lanes = isinstance(family, BesselFamily) and path != "time-domain"

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
        new = [m for m in grid if m not in pairs] if lanes else []
        for start in range(0, len(new), MAX_LANES):
            pairs.update(_lane_pairs(
                atom, modulation, family, new[start : start + MAX_LANES],
                path, cell, allow_asymmetric,
            ))
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
            brentq(lambda m: pair_at(m)[which], ms[i], ms[i + 1], xtol=xtol_m)
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
        if min(self.m_start, self.m_stop) < 0:
            raise ParameterError(
                "ServoScenario m_start and m_stop are modulation depths and "
                f"must be >= 0, got {self.m_start} and {self.m_stop}"
            )
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
    family: BesselFamily,
    scenario: ServoScenario,
) -> ServoTrace:
    """Emulate servo-locked detection of IPs under intensity modulation.

    An integral servo steers delta to the in-phase zero crossing (harmonic
    path) while the intensity oscillates and m ramps linearly.  The locked
    detuning tracks the intensity-induced shift; demodulating it at the
    intensity frequency gives a response whose minima over m are the
    experimentally detected IPs.

    `family` is a `bessel_family`.  Step j's spectrum is family(m_j) scaled
    by intensity_j, and every step's couplings are built up front in one
    numpy pass (`BesselFamily.amplitudes` and `couplings`), so memory grows
    with n_steps.  Only delta is stepped in Python, by one
    `HarmonicSignal.step` solve per step; the trace equals that of calling
    `harmonic_signals` on each step's spectrum, bit for bit.
    """
    if not isinstance(family, BesselFamily):
        raise ParameterError(
            "servo_lock_experiment needs a BesselFamily (from bessel_family), "
            f"got {type(family).__name__}"
        )
    start_spectrum = family(scenario.m_start)
    ref = asymmetry_shift(atom, start_spectrum, modulation)
    signal = make_signal_function(atom, start_spectrum, modulation)
    capture = signal.width
    delta = zero_crossing(atom, start_spectrum, modulation, signal=signal)

    n = scenario.n_steps
    ms = np.linspace(scenario.m_start, scenario.m_stop, n)
    phases = 2.0 * math.pi * np.arange(n) / scenario.intensity_period_steps
    intensity = 1.0 + scenario.intensity_depth * np.sin(phases)
    amps = family.amplitudes(ms) * np.sqrt(intensity)
    steps = HarmonicSignal(atom, family.couplings(atom, amps), modulation)
    deltas = np.empty(n)
    lost_at: int | None = None
    for j in range(n):
        deltas[j] = delta
        if abs(delta) > capture:
            lost_at = j
            break
        S = steps.step(j, delta)
        delta = delta - scenario.gain * S / (2.0 * ref.A)
    return _servo_trace(
        ms, intensity, deltas, lost_at, scenario.intensity_period_steps
    )


def _servo_trace(
    ms: np.ndarray,
    intensity: np.ndarray,
    deltas: np.ndarray,
    lost_at: int | None,
    period: int,
) -> ServoTrace:
    """The trace of a run that lost lock at step `lost_at` (None if held),
    with the locked detuning demodulated at the intensity period."""
    n_kept = len(ms) if lost_at is None else lost_at
    ms = ms[:n_kept]
    intensity = intensity[:n_kept]
    deltas = deltas[:n_kept]

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
        lock_lost=lost_at is not None,
        lock_lost_step=lost_at,
    )

"""Parameter types and derived couplings for the double-lambda CPT model.

The model describes an alkali atom with two ground hyperfine states |1>, |2>
(splitting omega_g) and two excited states |u>, |d> (splitting omega_e, with
|d> below |u>), driven by a polychromatic optical field whose components sit
at omega_L + k*Omega.  The resonant sidebands k = -1 and k = +1 pump the
two arms of the lambda scheme; every other component only light-shifts the
two-photon resonance.  After adiabatic elimination of the optical coherences
the ground-state dynamics are governed by a handful of scalar rates, which
`derive_couplings` computes from the field spectrum:

  V_L, V_R   optical pumping rates of each arm (power broadening V_L + V_R),
  V_LR       cross-pumping rate sourcing the two-photon coherence,
  K          asymmetry coupling: dispersive (odd-in-detuning) weighting of the
             excited doublet; vanishes at the symmetrizing one-photon detuning,
  delta_r    resonant light shift of the 0-0 resonance (zero for E_-1 = E_+1),
  delta_nr   non-resonant light shift from every spectral component,
  P          excited-doublet resonance factor entering the absorption signal.

All frequencies and rates are angular (rad/s).  Field amplitudes are stored
as the Rabi rate of the upper-excited branch, V_{k,u} = d_u E_k / (2 hbar),
so `dipole_ratio_sq` = d_d^2/d_u^2 converts to the lower branch and the
reduced excited decay `gamma` is the upper-level rate.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "ParameterError",
    "AtomParams",
    "FieldSpectrum",
    "ModulationParams",
    "LockInResult",
    "DerivedCouplings",
    "derive_couplings",
    "amplitude_couplings",
    "nonresonant_shift_components",
    "bessel_amplitudes",
    "bessel_spectrum",
]


class ParameterError(ValueError):
    """Raised when a physical parameter or input combination is rejected."""


def require_finite(owner: str, **values: float) -> None:
    """Raise ParameterError naming the first of `values` that is NaN or inf."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{owner}.{name} must be finite, got {value}")


def require_integer(owner: str, **values: int) -> None:
    """Raise ParameterError naming the first of `values` that is not an integer."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise ParameterError(
                f"{owner}.{name} must be an integer, got {value!r}"
            ) from None


@dataclass(frozen=True)
class AtomParams:
    """Static atomic constants.

    Attributes
    ----------
    omega_g : float
        Ground-state hyperfine splitting (rad/s).
    omega_e : float
        Excited-state fine/hyperfine splitting (rad/s); |d> lies omega_e
        below |u>.
    Gamma : float
        Optical coherence relaxation rate (homogeneous half width, rad/s).
    Gamma_g : float
        Ground-state relaxation rate (rad/s).
    gamma : float
        Population decay rate of the upper excited level (rad/s); the lower
        level decays at gamma * dipole_ratio_sq.
    dipole_ratio_sq : float
        d_d^2 / d_u^2, in [0, 1].  0 reduces the model to a single lambda
        through |u>.
    Delta_L : float
        One-photon detuning of the virtual carrier from |u> (rad/s).  May be
        negative; the |d> branch sees Delta_L + omega_e.
    """

    omega_g: float
    omega_e: float
    Gamma: float
    Gamma_g: float
    gamma: float
    dipole_ratio_sq: float
    Delta_L: float

    def __post_init__(self) -> None:
        require_finite(
            "AtomParams",
            omega_g=self.omega_g,
            omega_e=self.omega_e,
            Gamma=self.Gamma,
            Gamma_g=self.Gamma_g,
            gamma=self.gamma,
            dipole_ratio_sq=self.dipole_ratio_sq,
            Delta_L=self.Delta_L,
        )
        for name in ("omega_g", "omega_e", "Gamma", "Gamma_g", "gamma"):
            value = getattr(self, name)
            if value <= 0:
                raise ParameterError(f"{name} must be positive, got {value}")
        if not 0.0 <= self.dipole_ratio_sq <= 1.0:
            raise ParameterError(
                f"dipole_ratio_sq must lie in [0, 1], got {self.dipole_ratio_sq}"
            )
        # The adiabatic elimination assumes the optical width is small against
        # the sideband spacing Omega ~ omega_g/2.
        ratio_sq = (self.Gamma / (self.omega_g / 2.0)) ** 2
        if ratio_sq > 0.01:
            warnings.warn(
                f"(Gamma/Omega)^2 = {ratio_sq:.3g} > 0.01: adiabatic elimination "
                "of the optical coherences is marginal for these parameters",
                stacklevel=2,
            )


@dataclass(frozen=True)
class FieldSpectrum:
    """Polychromatic field: amplitudes E_k >= 0 at frequencies omega_L + k*Omega.

    Amplitudes are upper-branch Rabi rates (rad/s).  k = -1 is the
    low-frequency resonant sideband pumping |2>, k = +1 the high-frequency one
    pumping |1>.  `total_power` is E^2 = sum_k E_k^2.
    """

    Omega: float
    components: dict[int, float]
    total_power: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.Omega < math.inf:
            raise ParameterError(
                f"Omega must be positive and finite, got {self.Omega}"
            )
        if not self.components:
            raise ParameterError("spectrum must contain at least one component")
        clean: dict[int, float] = {}
        for k, amp in self.components.items():
            if not isinstance(k, numbers.Real) or not math.isfinite(k) or k != int(k):
                raise ParameterError(f"component index must be an integer, got {k!r}")
            if amp < 0:
                raise ParameterError(f"amplitude E_{k} must be >= 0, got {amp}")
            clean[int(k)] = float(amp)
        total_power = math.fsum(a * a for a in clean.values())
        if not math.isfinite(total_power):  # a NaN or inf amplitude
            raise ParameterError(
                f"amplitudes must be finite, got E^2 = {total_power} from {clean}"
            )
        object.__setattr__(self, "components", clean)
        object.__setattr__(self, "total_power", total_power)

    def amplitude(self, k: int) -> float:
        """E_k, or 0 for a component not present in the spectrum."""
        return self.components.get(k, 0.0)

    def sigma(self, k: int) -> float:
        """Power fraction sigma_k = E_k^2 / E^2."""
        return self.amplitude(k) ** 2 / self.total_power

    def sorted_components(self) -> list[tuple[int, float]]:
        return sorted(self.components.items())

    def scaled(self, power_factor: float) -> "FieldSpectrum":
        """Spectrum with every E_k^2 multiplied by `power_factor` (sigma_k fixed)."""
        if power_factor < 0:
            raise ParameterError(f"power factor must be >= 0, got {power_factor}")
        root = math.sqrt(power_factor)
        return FieldSpectrum(
            Omega=self.Omega,
            components={k: a * root for k, a in self.components.items()},
        )


@dataclass(frozen=True)
class ModulationParams:
    """Slow phase modulation of the sideband comb: phi(t) = a sin(omega_m t).

    `alpha` is the lock-in detection phase; the demodulation references are
    cos(omega_m t + alpha) and sin(omega_m t + alpha).
    """

    a: float
    omega_m: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        require_finite(
            "ModulationParams", a=self.a, omega_m=self.omega_m, alpha=self.alpha
        )
        if self.a < 0:
            raise ParameterError(f"modulation index a must be >= 0, got {self.a}")
        if self.omega_m <= 0:
            raise ParameterError(f"omega_m must be positive, got {self.omega_m}")

    @property
    def beyond_recommended_index(self) -> bool:
        """True when a > 0.5, outside the quadratic-in-a accuracy regime."""
        return self.a > 0.5


@dataclass(frozen=True)
class LockInResult:
    """In-phase and quadrature demodulated signals at detection phase alpha."""

    S: float
    Q: float
    alpha: float = 0.0
    warnings: tuple[str, ...] = ()

    def at_phase(self, alpha: float) -> "LockInResult":
        """Result rotated to detection phase self.alpha + alpha."""
        c, s = math.cos(alpha), math.sin(alpha)
        return LockInResult(
            S=self.S * c - self.Q * s,
            Q=self.Q * c + self.S * s,
            alpha=self.alpha + alpha,
            warnings=self.warnings,
        )


@dataclass(frozen=True)
class DerivedCouplings:
    """Scalar rates of the reduced ground-state model (all rad/s).

    calV_L, calV_R are the resonant-sideband Rabi rates entering the
    absorption signal, equal to E_{-1}, E_{+1} in the upper-branch
    normalization.  P in (0, 2] is the excited-doublet resonance factor.
    """

    V_L: float
    V_R: float
    V_LR: float
    K: float
    Gamma_g_tilde: float
    P: float
    delta_r: float
    delta_nr: float
    calV_L: float
    calV_R: float


def _nonresonant_weight(k: int) -> float:
    """Two-photon light-shift weight of component k, in units of 1/Omega.

    Component k detunes the lambda pairings it does not resonantly close:
    pairing with the k=+1 slot contributes 1/(k-1), with the k=-1 slot
    -1/(k+1); the resonant components keep only their single off-pairing
    term.  Carrier and first sidebands push the resonance down, |k| >= 2
    sidebands pull it up.
    """
    w = 0.0
    if k != 1:
        w += 1.0 / (k - 1)
    if k != -1:
        w -= 1.0 / (k + 1)
    return w


def _fsum_columns(rows) -> np.ndarray:
    """math.fsum of each column of `rows` (equal-length 1-D arrays): the
    exactly rounded sum over k for each spectrum of a sequence.  Columns
    become Python floats 1,024 at a time, which bounds the memory."""
    columns = np.asarray(rows).T
    return np.array([
        math.fsum(column)
        for start in range(0, len(columns), 1024)
        for column in columns[start : start + 1024].tolist()
    ])


def _nonresonant_terms(
    atom: AtomParams, amplitudes: Mapping[int, float], Omega: float
) -> dict[int, float]:
    both_branches = 1.0 + atom.dipole_ratio_sq
    return {
        k: both_branches * amp * amp * _nonresonant_weight(k) / Omega
        for k, amp in amplitudes.items()
    }


def nonresonant_shift_components(
    atom: AtomParams, spectrum: FieldSpectrum
) -> dict[int, float]:
    """Per-component contributions to delta_nr (rad/s), keyed by sideband index."""
    return _nonresonant_terms(
        atom, dict(spectrum.sorted_components()), spectrum.Omega
    )


def derive_couplings(atom: AtomParams, spectrum: FieldSpectrum) -> DerivedCouplings:
    """Reduce a field spectrum to the scalar rates of the ground-state model.

    Requires the resonant sidebands k = -1 and k = +1 to be present in the
    spectrum (zero amplitude is allowed).  Scaling every amplitude by c
    multiplies V_L, V_R, V_LR, K, delta_r, delta_nr by c^2 and leaves P
    unchanged.
    """
    if -1 not in spectrum.components or 1 not in spectrum.components:
        raise ParameterError(
            "spectrum must contain the resonant sidebands k = -1 and k = +1"
        )
    return amplitude_couplings(atom, spectrum.components, spectrum.Omega)


def amplitude_couplings(
    atom: AtomParams, amplitudes: Mapping[int, float], Omega: float
) -> DerivedCouplings:
    """`derive_couplings` of the amplitudes E_k at sideband spacing Omega.

    `amplitudes` maps every sideband index k, -1 and +1 included, to E_k:
    floats for one spectrum, or equal-length numpy arrays for a sequence of
    spectra, which gives couplings whose fields (except P) are arrays.
    Each array element equals the float result bit for bit: the arithmetic
    is elementwise in the same order, and delta_nr is the math.fsum of each
    spectrum's terms.
    """
    E_L = amplitudes[-1]
    E_R = amplitudes[1]
    r = atom.dipole_ratio_sq
    du = atom.Delta_L
    dd = atom.Delta_L + atom.omega_e
    lor_u = atom.Gamma / (du * du + atom.Gamma * atom.Gamma)
    lor_d = atom.Gamma / (dd * dd + atom.Gamma * atom.Gamma)
    disp_u = du / (du * du + atom.Gamma * atom.Gamma)
    disp_d = dd / (dd * dd + atom.Gamma * atom.Gamma)

    pump = lor_u + r * lor_d
    V_L = E_L * E_L * pump
    V_R = E_R * E_R * pump
    V_LR = E_L * E_R * pump
    K = E_L * E_R * (disp_u + r * disp_d)
    delta_r = -(E_L * E_L - E_R * E_R) * (disp_u + r * disp_d)
    terms = list(_nonresonant_terms(atom, amplitudes, Omega).values())
    many = isinstance(E_L, np.ndarray)
    delta_nr = _fsum_columns(terms) if many else math.fsum(terms)
    P = atom.Gamma * lor_u + atom.Gamma * lor_d

    return DerivedCouplings(
        V_L=V_L,
        V_R=V_R,
        V_LR=V_LR,
        K=K,
        Gamma_g_tilde=atom.Gamma_g + V_L + V_R,
        P=P,
        delta_r=delta_r,
        delta_nr=delta_nr,
        calV_L=E_L,
        calV_R=E_R,
    )


@functools.lru_cache(maxsize=None)
def _mirror_index(k_max: int) -> np.ndarray:
    """|k| for k = -k_max ... k_max, read-only; cached because every
    `bessel_spectrum` call indexes with it."""
    index = np.abs(np.arange(-k_max, k_max + 1))
    index.flags.writeable = False
    return index


def bessel_amplitudes(m, epsilon: float, k_max: int, total_power: float) -> np.ndarray:
    """Amplitudes E_k of `bessel_spectrum`, k = -k_max ... k_max along axis 0.

    `m` is one depth, or a 1-D array of depths along axis 1; a NaN or
    infinite depth is rejected by value.  Each column
    equals the components of `bessel_spectrum` at its depth bit for bit:
    the same `jv` values, skew and math.fsum normalisation, applied
    elementwise.
    """
    from scipy.special import jv

    many = isinstance(m, np.ndarray)
    for depth in np.ravel(m).tolist():
        if not math.isfinite(depth):
            raise ParameterError(f"modulation depth m must be finite, got {depth}")
    lowest = np.min(m) if many else m
    if lowest < 0:
        raise ParameterError(f"modulation depth m must be >= 0, got {lowest}")
    if not -1.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must satisfy |epsilon| < 1, got {epsilon}")
    require_integer("bessel_amplitudes", k_max=k_max)
    if k_max < 2:
        raise ParameterError(f"k_max must be >= 2, got {k_max}")
    if total_power <= 0:
        raise ParameterError(f"total_power must be positive, got {total_power}")

    j = np.abs(jv(range(k_max + 1), m[:, None] if many else m))
    amps = j.T[_mirror_index(k_max)]
    amps[k_max - 1] *= 1.0 + epsilon
    amps[k_max + 1] *= 1.0 - epsilon
    squares = amps * amps
    if many:
        return amps * np.sqrt(total_power / _fsum_columns(squares))
    return amps * math.sqrt(total_power / math.fsum(squares.tolist()))


def bessel_spectrum(
    m: float,
    epsilon: float,
    k_max: int,
    total_power: float,
    Omega: float,
) -> FieldSpectrum:
    """Phase-modulation (Bessel) spectrum with a resonant-sideband imbalance.

    E_k is proportional to |J_k(m)| for every retained index, except that the
    resonant pair is skewed: E_{-1} ~ |J_1(m)| (1 + epsilon) and
    E_{+1} ~ |J_1(m)| (1 - epsilon).  Amplitudes are rescaled so that
    sum_k E_k^2 equals `total_power` exactly.

    Parameters
    ----------
    m : float
        Modulation depth (>= 0).
    epsilon : float
        Resonant-sideband asymmetry, |epsilon| < 1.  Positive values favor
        the low-frequency sideband (E_{-1} > E_{+1}).
    k_max : int
        Retain components with |k| <= k_max; at least 2.
    total_power : float
        Target E^2 (rad^2/s^2), positive.
    Omega : float
        Sideband spacing (rad/s).
    """
    amps = bessel_amplitudes(m, epsilon, k_max, total_power)
    return FieldSpectrum(
        Omega=Omega, components=dict(zip(range(-k_max, k_max + 1), amps.tolist()))
    )

"""Time-domain integration of the modulated ground-state model.

Reference path for the whole simulator: integrates the reduced equations of
motion for (rho22, rho11, rho21) with the explicitly time-dependent
two-photon detuning 2*delta_tilde + 2 a omega_m cos(omega_m t) as the
periodic orbit of the RK4 map over one modulation period, and demodulates
the absorption trace kappa(t) with a software lock-in.  Everything else in
the package is validated against this path.

Also hosts the full double-lambda steady state (`steady_state_full_lambda`):
the 4-level density matrix under resonant bichromatic drive without
modulation, used to validate the adiabatic elimination behind the reduced
model.
"""

from __future__ import annotations

import math
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
    "TimeTrace",
    "integrate_ground_state",
    "lockin",
    "FullLambdaState",
    "steady_state_full_lambda",
]

# Periods in an integrated trace: `lockin` needs at least 4, and on the
# periodic orbit more periods change nothing but rounding.
TRACE_PERIODS = 4
# Most RK4 steps whose maps and prefix products are held at once; a longer
# period is integrated chunk by chunk, which bounds the working memory.
CHUNK_STEPS = 4096


@dataclass(frozen=True)
class TimeTrace:
    """Periodic steady-state trace on a uniform grid spanning integer periods.

    t[0] = 0 coincides with a zero of the drive phase omega_m t, so the
    modulated detuning starts at its maximum.
    """

    t: np.ndarray
    rho22: np.ndarray
    rho11: np.ndarray
    rho21: np.ndarray
    kappa: np.ndarray
    omega_m: float
    dt: float
    n_periods: int


def _rk4_step_maps(
    c: DerivedCouplings,
    omega_m: float,
    x0: float,
    x1: float,
    h: float,
    start: int,
    stop: int,
) -> np.ndarray:
    """RK4 step maps of steps start ... stop - 1 on y = (rho22, Re rho21,
    Im rho21, 1).

    The equations are y' = A(t) y with A(t) = A0 + x(t) B and the dressed
    detuning x(t) = x0 + x1 cos(omega_m t).  Step n maps y(t_n) to
    y(t_n + h), t_n = n h, with A taken at t_n, t_n + h/2 and t_n + h.
    Returns the maps as a (stop - start, 4, 4) array.
    """
    gt, K = c.Gamma_g_tilde, c.K
    Gg = gt - c.V_L - c.V_R
    A0 = np.array([
        [-gt, 0.0, 2.0 * K, c.V_R + 0.5 * Gg],
        [0.0, -gt, 0.0, c.V_LR],
        [-2.0 * K, 0.0, -gt, K],
        [0.0, 0.0, 0.0, 0.0],
    ])
    x = x0 + x1 * np.cos(omega_m * (0.5 * h) * np.arange(2 * start, 2 * stop + 1))
    A = np.repeat(A0[None], x.size, axis=0)
    A[:, 1, 2] = -x
    A[:, 2, 1] = x
    A_start, A_mid, A_end = A[0:-1:2], A[1::2], A[2::2]
    eye = np.eye(4)
    k2 = A_mid @ (eye + 0.5 * h * A_start)
    k3 = A_mid @ (eye + 0.5 * h * k2)
    k4 = A_end @ (eye + h * k3)
    return eye + (h / 6.0) * (A_start + 2.0 * k2 + 2.0 * k3 + k4)


def _prefix_products(maps: np.ndarray) -> np.ndarray:
    """P[n] = maps[n] @ ... @ maps[0], by a Hillis-Steele scan.

    Each of the log2(len) rounds is one batched matrix product, and P[-1],
    the ordered product of all maps, comes out of pairwise partial products.
    """
    P = maps.copy()
    d = 1
    while d < len(P):
        P[d:] = P[d:] @ P[:-d]
        d *= 2
    return P


def integrate_ground_state(
    atom: AtomParams,
    spectrum: FieldSpectrum,
    modulation: ModulationParams,
    delta: float,
) -> TimeTrace:
    """Periodic steady state of the reduced model under fixed-step RK4.

    `delta` is half the two-photon detuning from the unperturbed 0-0
    resonance; the light shifts are assembled internally.  The equations are
    affine in the state, so one modulation period of 4th-order Runge-Kutta
    steps is an affine map; its fixed point is the periodic orbit that a
    transient would relax to.  rho22 + rho11 relaxes to 1 and RK4 keeps
    linear invariants, so on that orbit rho11 = 1 - rho22 exactly and the
    map acts on (rho22, Re rho21, Im rho21, 1).  The step obeys
    dt <= (2 pi / omega_m)/200 and dt <= 0.02/Gamma_g_tilde.  Returns
    TRACE_PERIODS periods of the orbit (endpoint included), starting at t = 0.

    The maps of a period are built and scanned CHUNK_STEPS at a time: once
    to carry the running product to the period map, then again to step the
    orbit from each chunk's first state.  A period of one chunk is built
    once, and its orbit is that of a single scan.
    """
    c = derive_couplings(atom, spectrum)
    wm = modulation.omega_m
    spp = max(200, math.ceil(2.0 * math.pi / wm * c.Gamma_g_tilde / 0.02))
    h = 2.0 * math.pi / wm / spp

    x0, x1 = 2.0 * delta + c.delta_r + c.delta_nr, 2.0 * modulation.a * wm
    starts = range(0, spp, CHUNK_STEPS)

    def products(start: int) -> np.ndarray:
        stop = min(start + CHUNK_STEPS, spp)
        return _prefix_products(_rk4_step_maps(c, wm, x0, x1, h, start, stop))

    first = products(0)
    M = first[-1]
    for start in starts[1:]:
        M = products(start)[-1] @ M
    # y(0) = M y(0), M the map of one period: a 3x3 solve for the periodic orbit
    y0 = np.linalg.solve(np.eye(3) - M[:3, :3], M[:3, 3])
    orbit = np.empty((TRACE_PERIODS * spp + 1, 3))
    orbit[0] = y0
    for start in starts:
        # P[n] maps the chunk's first state to the state after step start + n;
        # the period's last step returns to y0
        P = (first if start == 0 else products(start))[: spp - 1 - start]
        rows = slice(start + 1, start + 1 + len(P))
        orbit[rows] = P[:, :3, :3] @ orbit[start] + P[:, :3, 3]
    for k in range(1, TRACE_PERIODS):
        orbit[k * spp : (k + 1) * spp] = orbit[:spp]
    orbit[-1] = y0
    rho22, re21, im21 = orbit.T

    times = np.arange(TRACE_PERIODS * spp + 1) * h
    rho11 = 1.0 - rho22
    pref = 2.0 * c.P / (atom.gamma * atom.Gamma)
    kappa = pref * (
        c.calV_L**2 * rho22 + c.calV_R**2 * rho11 - 2.0 * c.calV_L * c.calV_R * re21
    )
    return TimeTrace(
        t=times,
        rho22=rho22,
        rho11=rho11,
        rho21=re21 + 1j * im21,
        kappa=kappa,
        omega_m=wm,
        dt=h,
        n_periods=TRACE_PERIODS,
    )


def lockin(trace: TimeTrace, alpha: float = 0.0) -> LockInResult:
    """Demodulate kappa(t) at omega_m over the full trace span.

    S = (2/T) integral kappa cos(omega_m t + alpha) dt and Q likewise with
    sine, via the trapezoid rule; a pure cosine of amplitude c gives S = c.
    Requires the trace to span an integer number N >= 4 of periods.
    """
    span = trace.t[-1] - trace.t[0]
    n_float = span * trace.omega_m / (2.0 * math.pi)
    n = round(n_float)
    if abs(n_float - n) > 1e-9 * max(1.0, n_float):
        raise ParameterError(
            f"trace spans a non-integer period count ({n_float!r})"
        )
    if n < 4:
        raise ParameterError(f"lock-in needs >= 4 periods, trace has {n}")
    phase = trace.omega_m * trace.t + alpha
    S = 2.0 / span * np.trapezoid(trace.kappa * np.cos(phase), trace.t)
    Q = 2.0 / span * np.trapezoid(trace.kappa * np.sin(phase), trace.t)
    return LockInResult(S=float(S), Q=float(Q), alpha=alpha)


@dataclass(frozen=True)
class FullLambdaState:
    """Steady 4-level density matrix under resonant bichromatic drive.

    sigma_* are optical coherences in the rotating frame; sigma21 the ground
    coherence.  The printed relaxation model drives rho22 + rho11 to 1
    independently of the excited populations, so `trace` exceeds 1 by
    O(saturation).  `condition` is the linear-system condition number.
    """

    rho_uu: float
    rho_dd: float
    rho22: float
    rho11: float
    sigma_u2: complex
    sigma_d2: complex
    sigma_u1: complex
    sigma_d1: complex
    sigma21: complex
    trace: float
    condition: float


def steady_state_full_lambda(
    atom: AtomParams,
    E_minus1: float,
    E_plus1: float,
    delta: float,
) -> FullLambdaState:
    """Solve the unmodulated double-lambda steady state exactly.

    The drive is the resonant sideband pair alone (upper-branch Rabi rates
    `E_minus1`, `E_plus1`); the lower branch couples with the amplitude ratio
    sqrt(dipole_ratio_sq).  The excited cross coherence rho_ud is dropped
    (its drive is far off resonance for Omega >> Gamma).  Validates the
    adiabatically eliminated reduced model at low saturation.
    """
    if E_minus1 < 0 or E_plus1 < 0:
        raise ParameterError("sideband amplitudes must be >= 0")
    r = atom.dipole_ratio_sq
    sq = math.sqrt(r)
    VLu, VLd = E_minus1, sq * E_minus1
    VRu, VRd = E_plus1, sq * E_plus1
    gu, gd = atom.gamma, r * atom.gamma
    G, Gg = atom.Gamma, atom.Gamma_g
    Du = atom.Delta_L - delta
    Dd = atom.Delta_L + atom.omega_e - delta
    Du1 = atom.Delta_L + delta
    Dd1 = atom.Delta_L + atom.omega_e + delta

    # Unknowns: [ruu, rdd, r22, r11,
    #            Ru2, Iu2, Rd2, Id2, Ru1, Iu1, Rd1, Id1, R21, I21]
    (RUU, RDD, R22, R11,
     RU2, IU2, RD2, ID2, RU1, IU1, RD1, ID1, R21, I21) = range(14)
    A = np.zeros((14, 14))
    b = np.zeros(14)

    # Excited populations: spontaneous decay balances pumping.
    A[0, RUU] = gu
    A[0, IU2] = 2.0 * VLu
    A[0, IU1] = -2.0 * VRu
    A[1, RDD] = gd
    A[1, ID2] = 2.0 * VLd
    A[1, ID1] = -2.0 * VRd
    # Ground populations: pumping, relaxation toward 1/2, decay feeding.
    A[2, IU2] = 2.0 * VLu
    A[2, ID2] = 2.0 * VLd
    A[2, R22] = -Gg
    A[2, RUU] = gu / 2.0
    A[2, RDD] = gd / 2.0
    b[2] = -Gg / 2.0
    A[3, IU1] = -2.0 * VRu
    A[3, ID1] = -2.0 * VRd
    A[3, R11] = -Gg
    A[3, RUU] = gu / 2.0
    A[3, RDD] = gd / 2.0
    b[3] = -Gg / 2.0
    # Optical coherences sigma_u2, sigma_d2 (left-arm pumping).
    A[4, RU2] = -G
    A[4, IU2] = -Du
    A[4, I21] = VRu
    A[5, RU2] = Du
    A[5, IU2] = -G
    A[5, R22] = -VLu
    A[5, RUU] = VLu
    A[5, R21] = VRu
    A[6, RD2] = -G
    A[6, ID2] = -Dd
    A[6, I21] = VRd
    A[7, RD2] = Dd
    A[7, ID2] = -G
    A[7, R22] = -VLd
    A[7, RDD] = VLd
    A[7, R21] = VRd
    # Optical coherences sigma_u1, sigma_d1 (right-arm pumping).
    A[8, RU1] = -G
    A[8, IU1] = -Du1
    A[8, I21] = VLu
    A[9, RU1] = Du1
    A[9, IU1] = -G
    A[9, R21] = -VLu
    A[9, R11] = VRu
    A[9, RUU] = -VRu
    A[10, RD1] = -G
    A[10, ID1] = -Dd1
    A[10, I21] = VLd
    A[11, RD1] = Dd1
    A[11, ID1] = -G
    A[11, R21] = -VLd
    A[11, R11] = VRd
    A[11, RDD] = -VRd
    # Ground coherence sigma_21.
    A[12, I21] = -2.0 * delta
    A[12, R21] = -Gg
    A[12, IU1] = VLu
    A[12, ID1] = VLd
    A[12, IU2] = -VRu
    A[12, ID2] = -VRd
    A[13, R21] = 2.0 * delta
    A[13, I21] = -Gg
    A[13, RU1] = -VLu
    A[13, RD1] = -VLd
    A[13, RU2] = -VRu
    A[13, RD2] = -VRd

    condition = float(np.linalg.cond(A))
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(
            f"degenerate parameters: steady-state system singular "
            f"(condition number {condition:.3g})"
        ) from exc
    if not np.all(np.isfinite(x)):
        raise ParameterError(
            f"degenerate parameters: steady-state solve produced non-finite "
            f"values (condition number {condition:.3g})"
        )
    tr = float(x[RUU] + x[RDD] + x[R22] + x[R11])
    return FullLambdaState(
        rho_uu=float(x[RUU]),
        rho_dd=float(x[RDD]),
        rho22=float(x[R22]),
        rho11=float(x[R11]),
        sigma_u2=complex(x[RU2], x[IU2]),
        sigma_d2=complex(x[RD2], x[ID2]),
        sigma_u1=complex(x[RU1], x[IU1]),
        sigma_d1=complex(x[RD1], x[ID1]),
        sigma21=complex(x[R21], x[I21]),
        trace=tr,
        condition=condition,
    )

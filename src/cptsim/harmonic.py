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

`HarmonicSignal` assembles the system that `_generate_table` writes from
its two equations once per spectrum, solves it at each detuning and
projects the amplitudes onto the lock-in references; the one-shot
`solve_fourier_amplitudes` and `harmonic_signals` do the same.  Its lock-in
weights and exact power slope are numpy expressions written once for floats
(one spectrum) and for arrays over lanes of spectra: a call solves every
lane in one batch (a sweep grid's crossings), `servo` steps an integral
servo through the lanes one solve at a time.
`linearized_signals` evaluates the closed-form small-signal
limit of the same system (first order in a, K and 2*delta_tilde), and
`asymmetry_shift` reports the zero-crossing budget it implies.  In that
limit S and Q are both proportional to
2 delta_tilde calV_L calV_R + K (calV_L^2 - calV_R^2), so K only shifts the
dressed detuning, by the same amount at every omega_m.  The closed form is
written once, in `ClosedFormSignal`, for couplings that are numpy arrays
over the slabs of a cell (`thick.cell_signal`; a thin point is one slab),
and over lanes of spectra before them: it averages the signals over the
slabs and solves their root, which needs no root finder because the
signal is affine in delta.  Each signal object carries its width
Gamma_g_tilde and its power slope `power_sensitivity`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (
    AtomParams,
    DerivedCouplings,
    FieldSpectrum,
    LockInResult,
    ModulationParams,
    ParameterError,
    derive_couplings,
    require_finite,
)

__all__ = [
    "solve_fourier_amplitudes",
    "HarmonicSignal",
    "harmonic_signals",
    "linearized_signals",
    "ClosedFormSignal",
    "ShiftBreakdown",
    "asymmetry_shift",
]


# The order of the unknowns x, written once: C[k] and G[k] are the (Re, Im)
# positions of C_k and G_k.  G_0 is real and has no Im position.
HARMONICS = 2
_ORDERS = (0,) + tuple(s * k for k in range(1, HARMONICS + 1) for s in (1, -1))
C = {k: (2 * i, 2 * i + 1) for i, k in enumerate(_ORDERS)}
_G0 = 2 * len(_ORDERS)
G = {k: (_G0 + 2 * k - 1, _G0 + 2 * k) if k else (_G0, None)
     for k in range(HARMONICS + 1)}
SIZE = _G0 + 2 * HARMONICS + 1
_LOCKIN = G[1] + C[1] + C[-1]  # (Re, Im) of the amplitudes the lock-in sees
# A is linear in the parameters (Gamma_g_tilde, K, a*omega_m, omega_m, sd)
GT, K, AW, W, SD = 0, 1, 2, 3, 4


def _generate_table() -> np.ndarray:
    """A(sd) flattened is (Gamma_g_tilde, K, a*omega_m, omega_m, sd) @ table:
    the Re and Im parts of each amplitude's equation, in the rows of its
    positions.  An entry is a small integer times one parameter (plus sd on
    the diagonal), so it is rounded once, as when written term by term."""
    entries = np.zeros((5, SIZE, SIZE))

    def add(rows, z, coefs, conj=False):  # sum of coef * param, times (conj) z
        for param, coef in coefs.items():
            for col, unit in zip(z, (1, -1j if conj else 1j)):
                w = coef * unit  # per unit of the column's Re or Im part
                for row, v in zip(rows, (w.real, w.imag)):
                    if v and None not in (row, col):
                        entries[param, row, col] += v  # at k = 0 both K terms add

    # (sd + k omega_m + i Gamma_g_tilde) C_k + a omega_m (C_{k-1} + C_{k+1})
    # - 2 K G_|k|, with conj G_|k| for k < 0 and C_{+-(HARMONICS+1)} dropped
    for k, z in C.items():
        add(z, z, {SD: 1, W: k, GT: 1j})
        for j in C.keys() & {k - 1, k + 1}:
            add(z, C[j], {AW: 1})
        add(z, G[abs(k)], {K: -2}, conj=k < 0)
    # (k omega_m + i Gamma_g_tilde) G_k - K (C_k - conj C_{-k}); at k = 0
    # the Im part, Gamma_g_tilde G_0 - 2 K Im C_0, is the pumping balance
    for k, z in G.items():
        rows = z if k else (None, _G0)
        add(rows, z, {W: k, GT: 1j})
        add(rows, C[k], {K: -1})
        add(rows, C[-k], {K: 1}, conj=True)
    return entries.reshape(5, SIZE * SIZE)


_TABLE = _generate_table()


def _fourier_matrix(params: np.ndarray) -> np.ndarray:
    """A for parameters (Gamma_g_tilde, K, a*omega_m, omega_m, sd), or one
    A per row of parameters of shape (n, 5)."""
    return (params @ _TABLE).reshape(params.shape[:-1] + (SIZE, SIZE))


def _system(couplings: DerivedCouplings, modulation: ModulationParams):
    """(parameter row, right-hand side b) of the Fourier system, one of each
    per lane for couplings of array fields.  The row is (Gamma_g_tilde, K,
    a*omega_m, omega_m, sd = 0); the caller sets sd, the dressed detuning
    2 delta + delta_r + delta_nr, and assembles A with `_fourier_matrix`."""
    c = couplings
    params = np.zeros(np.shape(c.K) + (5,))
    params[..., GT], params[..., K] = c.Gamma_g_tilde, c.K
    params[..., AW] = modulation.a * modulation.omega_m
    params[..., W] = modulation.omega_m
    b = np.zeros(np.shape(c.K) + (SIZE,))
    b[..., C[0][0]], b[..., C[0][1]] = -c.K, c.V_LR
    b[..., _G0] = c.V_R + (c.Gamma_g_tilde - c.V_L - c.V_R) / 2.0
    return params, b


# The gufunc `np.linalg.solve` calls for a vector b, minus the wrapper's
# conversions, which cost more than a Fourier solve (private numpy API, used
# only here).  Under `_SOLVING`, as in the wrapper, a singular A raises.
_solve1 = _umath_linalg.solve1
_SOLVING = dict(all="ignore", invalid="raise")


def _singular(A: np.ndarray, width, omega_m: float) -> ParameterError:
    """The error of a singular A, named at the worst lane of a stack."""
    cond = np.linalg.cond(A).ravel()
    k = int(np.argmax(cond))
    return ParameterError(
        f"Fourier-amplitude system singular (cond = {cond[k]:.3g}); "
        f"Gamma_g_tilde = {np.ravel(width)[k]}, omega_m = {omega_m}"
    )


def _solve(A: np.ndarray, b: np.ndarray, width, omega_m: float) -> np.ndarray:
    try:
        with np.errstate(**_SOLVING):
            return _solve1(A, b)
    except FloatingPointError as exc:  # unreachable for Gamma_g_tilde > 0
        raise _singular(A, width, omega_m) from exc


def _truncation_warning(modulation: ModulationParams) -> str:
    return (
        f"modulation index a = {modulation.a} > 0.5: second-harmonic "
        "truncation degrades"
    )


def solve_fourier_amplitudes(
    couplings: DerivedCouplings,
    delta: float,
    modulation: ModulationParams,
) -> np.ndarray:
    """Solve the second-harmonic truncation of the modulated model.

    `delta` is half the two-photon detuning from the unperturbed 0-0
    resonance; the light shifts delta_r and delta_nr are added internally.
    Returns the SIZE amplitudes, placed by the (Re, Im) map C[k], G[k].
    The |k| <= 2 truncation leaves an O(a^3) residual in the first
    harmonics; a > 0.5 is accepted but outside the trusted regime.
    """
    require_finite("solve_fourier_amplitudes", delta=delta)
    if modulation.beyond_recommended_index:
        warnings.warn(_truncation_warning(modulation), stacklevel=2)
    c = couplings
    p, b = _system(c, modulation)
    p[SD] = 2.0 * delta + c.delta_r + c.delta_nr
    return _solve(_fourier_matrix(p), b, c.Gamma_g_tilde, modulation.omega_m)


def _lockin_weights(atom: AtomParams, P: float, calV_L, calV_R):
    """(prefactor, calV_L^2 - calV_R^2, calV_L calV_R) of the lock-in signals,
    for floats or lane arrays alike.  The squares are `np.float_power`, which
    calls libm pow as Python's `float ** 2` does: `x * x` and numpy's square
    round differently about once in a thousand values."""
    dV2 = np.float_power(calV_L, 2) - np.float_power(calV_R, 2)
    return 4.0 * P / (atom.gamma * atom.Gamma), dV2, calV_L * calV_R


def _project(weights, x: np.ndarray):
    """(S, Q) at detection phase 0 of the amplitudes x, for `_lockin_weights`.

    With the 2/T lock-in convention, a pure c*cos(omega_m t) yields S = c.
    """
    pref, dV2, VV = weights
    rg, ig, rc, ic, rcm, icm = _LOCKIN
    S = pref * (dV2 * x[rg] - VV * (x[rc] + x[rcm]))
    Q = pref * (dV2 * x[ig] - VV * (x[ic] - x[icm]))
    return S, Q


class HarmonicSignal:
    """In-phase signal S(delta) of the harmonic path, assembled once.

    The dressed detuning sd = 2 delta + delta_r + delta_nr enters the
    Fourier system only on the coherence diagonals, so the parameter row of
    A and b are built once, and each evaluation sets sd in the row,
    assembles A from `_TABLE` and makes one solve.  S
    equals `harmonic_signals(...).S` bit for bit.  It does not warn when
    a > 0.5; `make_signal_function` and a sweep's lanes do, once.

    `couplings` holds floats for one spectrum, or numpy arrays over lanes
    j (P shared, omega_m one value or one per lane) for many: delta, the
    width and the power slope are then arrays over the lanes, each
    evaluation is one batched solve, and every lane equals the signal of
    its own point bit for bit.  `servo` evaluates one lane per step, so no
    matrix is held per lane.
    """

    def __init__(
        self, atom: AtomParams, couplings: DerivedCouplings,
        modulation: ModulationParams,
    ):
        cp = self.couplings = couplings
        self.modulation, self.width = modulation, cp.Gamma_g_tilde
        self._params, self.b = _system(couplings, modulation)
        self._weights = _lockin_weights(atom, cp.P, cp.calV_L, cp.calV_R)
        self._cos, self._sin = math.cos(modulation.alpha), math.sin(modulation.alpha)

    def _amplitudes(self, delta: float) -> tuple[np.ndarray, np.ndarray]:
        cp, p = self.couplings, self._params
        p[..., SD] = 2.0 * delta + cp.delta_r + cp.delta_nr
        A = _fourier_matrix(p)
        return A, _solve(A, self.b, self.width, self.modulation.omega_m)

    def __call__(self, delta):
        S, Q = _project(self._weights, self._amplitudes(delta)[1].T)
        return S * self._cos - Q * self._sin

    def servo(self, delta: float, gain: float, slope: float, capture: float):
        """Integral servo through the lanes, one step and one solve each.

        Step j records delta, returns (deltas, j) if |delta| > capture, and
        sets delta to delta - gain * S_j(delta) / (2 slope); (deltas, None)
        if the lock holds.  The loop is one `_SOLVING` scope; its scalar
        arithmetic is on Python floats, so only a solve can raise in it."""
        cp, params, b = self.couplings, self._params, self.b
        pref, dV2, VV = self._weights
        # a memoryview of a float array yields Python floats, one at a time
        lanes = zip(*map(memoryview, (cp.delta_r, cp.delta_nr, dV2, VV)))
        delta, gain, slope = float(delta), float(gain), float(slope)
        deltas = np.empty(len(b))
        with np.errstate(**_SOLVING):
            for j, (delta_r, delta_nr, dv2, vv) in enumerate(lanes):
                if abs(delta) > capture:
                    return deltas[:j], j
                deltas[j] = delta
                params[j, SD] = 2.0 * delta + delta_r + delta_nr
                A = _fourier_matrix(params[j])
                try:
                    x = _solve1(A, b[j]).tolist()
                except FloatingPointError as exc:
                    raise _singular(A, self.width[j], self.modulation.omega_m) from exc
                S, Q = _project((pref, dv2, vv), x)
                S = S * self._cos - Q * self._sin
                delta = delta - gain * S / (2.0 * slope)
        return deltas, None

    def power_sensitivity(self, delta0):
        """d(delta_0)/ds at a crossing delta0, for the power scale E^2 -> s E^2.

        Every coupling is linear in s except Gamma_g, so A = A_fixed + s A1
        + sd J with A1 the table at (V_L + V_R, K, 0, 0), sd = 2 delta +
        s x0 with x0 = delta_r + delta_nr, b = b_fixed + s b1, and c only
        scales (S = 0 at the root).  The implicit-function theorem on
        c^T A^-1 b = 0, with x = A^-1 b and y = A^-T c, gives
        d(delta_0)/ds = y^T (b1 - A1 x - x0 J x) / (2 y^T J x).
        Divide by E^2 for d(delta_0)/dE^2; -2 y^T J x is dS/d(delta) at the
        root.  The terms stack over lanes on a last axis of SIZE: `np.vecdot`
        and the stacked `A1 @ x` round as one spectrum's `@` does.
        """
        cp = self.couplings
        # c^T x = S cos(alpha) - Q sin(alpha), the in-phase signal
        pref, dV2, VV = self._weights
        c = np.zeros(np.shape(dV2) + (SIZE,))
        c[..., _LOCKIN[::2]] = pref * self._cos * np.stack([dV2, -VV, -VV], -1)
        c[..., _LOCKIN[1::2]] = -pref * self._sin * np.stack([dV2, -VV, VV], -1)
        A, x = self._amplitudes(delta0)
        y = _solve(np.swapaxes(A, -1, -2), c, self.width, self.modulation.omega_m)
        p1 = np.zeros_like(self._params)
        p1[..., GT], p1[..., K] = cp.V_L + cp.V_R, cp.K
        b1 = np.zeros_like(x)
        b1[..., C[0][0]], b1[..., C[0][1]], b1[..., _G0] = -cp.K, cp.V_LR, cp.V_R
        Jx = np.zeros_like(x)
        Jx[..., :_G0] = x[..., :_G0]  # the C_k, whose rows hold sd
        x0 = np.expand_dims(cp.delta_r + cp.delta_nr, -1)
        r = b1 - (_fourier_matrix(p1) @ x[..., None])[..., 0] - x0 * Jx
        return np.vecdot(y, r) / (2.0 * np.vecdot(y, Jx))


def harmonic_signals(
    atom: AtomParams,
    spectrum: FieldSpectrum,
    modulation: ModulationParams,
    delta: float,
) -> LockInResult:
    """Lock-in signals from the second-harmonic truncation, in one call."""
    couplings = derive_couplings(atom, spectrum)
    x = solve_fourier_amplitudes(couplings, delta, modulation)
    S, Q = _project(
        _lockin_weights(atom, couplings.P, couplings.calV_L, couplings.calV_R), x
    )
    warns = (
        (_truncation_warning(modulation),)
        if modulation.beyond_recommended_index
        else ()
    )
    return LockInResult(S=float(S), Q=float(Q), warnings=warns).at_phase(
        modulation.alpha
    )


def _first_order(atom: AtomParams, c: DerivedCouplings, a: float, w):
    """Gains and drive terms of the first-order closed form, w = omega_m.

    At detection phase 0, S = g_S * drive and Q = g_Q * drive with
    drive = x calV_L calV_R + K (calV_L^2 - calV_R^2) and
    x = 2 delta + delta_r + delta_nr; to first order K enters only through
    the detuning it adds to x.  Returns (g_S, g_Q, calV_L calV_R,
    K (calV_L^2 - calV_R^2)).  The fields of `c` and w are floats or numpy
    arrays (slabs, and lanes of slabs); every operation is elementwise.
    """
    gt = c.Gamma_g_tilde
    g2w2 = gt * gt + w * w
    pref = 4.0 * c.P / (atom.gamma * atom.Gamma)
    common = pref * a * w * c.V_LR / (g2w2 * g2w2)
    g_S = 4.0 * common * gt
    g_Q = 2.0 * common * w * (3.0 * gt * gt + w * w) / (gt * gt)
    dV2 = c.calV_L * c.calV_L - c.calV_R * c.calV_R  # x*x, on floats and arrays
    return g_S, g_Q, c.calV_L * c.calV_R, c.K * dV2


def _regime_warnings(
    atom: AtomParams, c: DerivedCouplings, modulation: ModulationParams, x
) -> tuple[str, ...]:
    """Each regime condition of the closed form once, at its worst slab."""
    gt = c.Gamma_g_tilde
    warns: list[str] = []
    detuning = float((abs(x) / gt).max())
    if detuning > 0.05:
        warns.append(
            f"|2 delta_tilde| = {detuning:.3g} Gamma_g_tilde exceeds "
            "0.05 Gamma_g_tilde"
        )
    if (atom.Delta_L / atom.Gamma) ** 2 > 0.1:
        warns.append(
            f"(Delta_L/Gamma)^2 = {(atom.Delta_L / atom.Gamma) ** 2:.3g} > 0.1"
        )
    asymmetry = float(((c.K / gt) ** 2).max())
    if asymmetry > 0.1:
        warns.append(f"K^2/Gamma_g_tilde^2 = {asymmetry:.3g} > 0.1")
    if modulation.beyond_recommended_index:
        warns.append(f"modulation index a = {modulation.a} > 0.5")
    return tuple(warns)


class ClosedFormSignal:
    """In-phase signal of the first-order closed form, affine in delta.

    `couplings` holds numpy arrays with the slabs of a cell along the last
    axis, and lanes (one spectrum each) before it if there are several;
    `thick.cell_signal` builds them, and a thin point is a cell of one
    slab; omega_m is one value or one per lane.  `width` is Gamma_g_tilde
    at the cell entrance, per lane.  Every slab signal is g_i (2 delta VV_i
    + x0_i VV_i + K_i dV2_i), with g_i the gain at the detection phase and
    x0_i the slab's static shift; the gains and the slope sum_i g_i VV_i
    are formed once, here.  `crossing` and `power_sensitivity` take every
    lane at once; `signals` and calls take one spectrum.
    """

    def __init__(
        self,
        atom: AtomParams,
        couplings: DerivedCouplings,
        modulation: ModulationParams,
        width,
    ):
        self.atom, self.couplings, self.modulation = atom, couplings, modulation
        self.width = width
        w = modulation.omega_m  # one value, or lanes before the slabs
        self._w = w = w[:, None] if np.ndim(w) else w
        self._gains = g_S, g_Q, VV, _ = _first_order(atom, couplings, modulation.a, w)
        self._cos, self._sin = math.cos(modulation.alpha), math.sin(modulation.alpha)
        self._g = g_S * self._cos - g_Q * self._sin
        slope = (self._g * VV).sum(-1)
        # a lane without slope has no crossing: NaN, which divides silently
        self._slope = np.where(slope == 0.0, math.nan, slope)

    def signals(self, delta: float) -> LockInResult:
        """Lock-in signals at `delta`, averaged over the slabs."""
        c = self.couplings
        g_S, g_Q, VV, K_term = self._gains
        x = 2.0 * delta + c.delta_r + c.delta_nr
        drive = x * VV + K_term
        return LockInResult(
            S=float((g_S * drive).mean(-1)),
            Q=float((g_Q * drive).mean(-1)),
            warnings=_regime_warnings(self.atom, c, self.modulation, x),
        ).at_phase(self.modulation.alpha)

    def __call__(self, delta: float) -> float:
        return self.signals(delta).S

    def crossing(self):
        """Detuning where the in-phase signal vanishes, with no root finder.

        The averaged signal crosses zero at 2 delta =
        -sum_i g_i (x0_i VV_i + K_i dV2_i) / sum_i g_i VV_i, for symmetric
        and asymmetric spectra alike.  NaN when the slope vanishes (a = 0,
        or a resonant sideband absent).
        """
        _, _, VV, K_term = self._gains
        x0 = self.couplings.delta_r + self.couplings.delta_nr
        return -(self._g * (x0 * VV + K_term)).sum(-1) / (2.0 * self._slope)

    def power_sensitivity(self, delta0):
        """d(delta_0)/ds at the crossing delta0, for E^2 -> s E^2.

        With the slab attenuation held fixed, g_i = s h(Gamma_g_tilde_i) with
        Gamma_g_tilde_i = Gamma_g + s (V_L + V_R)_i, VV_i scales as s and
        x0_i VV_i + K_term_i as s^2.  The implicit-function theorem on
        sum_i g_i drive_i = 0, drive_i = (2 delta + x0_i) VV_i + K_term_i,
        gives delta0 - sum_i g'_i (V_L + V_R)_i drive_i / (2 sum_i g_i VV_i),
        with g' = dg/dGamma_g_tilde.  On one slab the drive is 0 at the root.
        """
        c = self.couplings
        g_S, g_Q, VV, K_term = self._gains
        gt, w2 = c.Gamma_g_tilde, np.float_power(self._w, 2)  # libm pow, as float**2
        d_log = -4.0 * gt / (gt * gt + w2)  # d log(1/D^2)/dGamma_g_tilde, both gains
        dg = g_S * (1.0 / gt + d_log) * self._cos - g_Q * self._sin * (
            6.0 * gt / (3.0 * gt * gt + w2) - 2.0 / gt + d_log
        )
        x = 2.0 * np.asarray(delta0)[..., None] + c.delta_r + c.delta_nr
        shift = (dg * (c.V_L + c.V_R) * (x * VV + K_term)).sum(-1)
        return delta0 - shift / (2.0 * self._slope)


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
    from .thick import averaged_signal  # thick builds on this module

    return averaged_signal(atom, spectrum, modulation, None, delta)


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
    g_S, _, VV, K_term = _first_order(atom, c, modulation.a, modulation.omega_m)
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

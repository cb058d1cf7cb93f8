"""Property tests of the model's stated invariants, over drawn inputs.

Hypothesis draws the spectrum (comb depth m, asymmetry epsilon), the power
scale, the modulation and the detection phase; `derandomize=True` makes
every run draw the same examples, so the suite stays deterministic.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GAMMA_G,
    GAMMA_OPT,
    OMEGA_E,
    fourier_amplitudes,
    make_atom,
    make_modulation,
    make_spectrum,
)
from cptsim import (
    CellParams,
    LockInResult,
    averaged_signal,
    crossing_and_sensitivity,
    derive_couplings,
    harmonic_signals,
    integrate_ground_state,
    linearized_signals,
    lockin,
    make_signal_function,
    symmetrizing_detuning,
    zero_crossing,
)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

ms = st.floats(0.3, 5.0)
epsilons = st.floats(-0.5, 0.5)
# modulation index below 0.5, where the harmonic truncation warns
indices = st.floats(0.05, 0.5)
# omega_m in units of Gamma_g_tilde
rates = st.floats(0.05, 1.0)
phases = st.floats(-math.pi, math.pi)
# phases at which the crossing stays inside the default +-Gamma_g_tilde bracket
small_phases = st.floats(-0.5, 0.5)

ATOM = make_atom()
SYM_ATOM = make_atom(Delta_L=symmetrizing_detuning(GAMMA_OPT, OMEGA_E, 1.0 / 3.0))


@PROPERTY
@given(m=ms, epsilon=epsilons, scale=st.floats(0.05, 20.0))
def test_couplings_scale_with_power(m, epsilon, scale):
    # every rate is linear in E^2 and every Rabi rate in E; P is a ratio
    spec = make_spectrum(m=m, epsilon=epsilon)
    c1 = derive_couplings(ATOM, spec)
    c2 = derive_couplings(ATOM, spec.scaled(scale))
    tol = 1e-12 * scale * (c1.V_L + c1.V_R)
    for name in ("V_L", "V_R", "V_LR", "K", "delta_r", "delta_nr"):
        assert getattr(c2, name) == pytest.approx(
            scale * getattr(c1, name), rel=1e-12, abs=tol
        )
    for name in ("calV_L", "calV_R"):
        assert getattr(c2, name) == pytest.approx(
            math.sqrt(scale) * getattr(c1, name), rel=1e-12
        )
    assert c2.P == pytest.approx(c1.P, rel=1e-14)
    assert c2.Gamma_g_tilde - GAMMA_G == pytest.approx(
        scale * (c1.Gamma_g_tilde - GAMMA_G), rel=1e-12
    )


@PROPERTY
@given(m=ms, epsilon=epsilons, a=indices, w=rates, x=st.floats(0.01, 1.0))
def test_response_is_odd_at_zero_K(m, epsilon, a, w, x):
    # K = 0 nulls the asymmetry: S is odd about the dressed center
    # -(delta_r + delta_nr)/2, whatever the sideband asymmetry
    spec = make_spectrum(m=m, epsilon=epsilon)
    c = derive_couplings(SYM_ATOM, spec)
    mod = make_modulation(a=a, omega_m=w * c.Gamma_g_tilde)
    center = -(c.delta_r + c.delta_nr) / 2.0
    d = x * c.Gamma_g_tilde
    up = harmonic_signals(SYM_ATOM, spec, mod, center + d).S
    dn = harmonic_signals(SYM_ATOM, spec, mod, center - d).S
    assert abs(up + dn) <= 1e-13 * (abs(up) + abs(dn))


@PROPERTY
@given(
    m=ms, epsilon=epsilons, a=indices, w=rates, alpha=phases,
    x=st.floats(-1.0, 1.0),
)
def test_assembled_harmonic_signal_is_the_per_call_one(m, epsilon, a, w, alpha, x):
    # the system assembled once per spectrum gives the signal of a fresh
    # assembly at every detuning, bit for bit; and both are the lock-in
    # projection of the one-shot Fourier solve, written out here
    spec = make_spectrum(m=m, epsilon=epsilon)
    c = derive_couplings(ATOM, spec)
    gt = c.Gamma_g_tilde
    mod = make_modulation(a=a, omega_m=w * gt, alpha=alpha)
    signal = make_signal_function(ATOM, spec, mod, "harmonic")
    res = harmonic_signals(ATOM, spec, mod, x * gt)
    assert signal(x * gt) == res.S
    amps = fourier_amplitudes(c, x * gt, mod)
    pref = 4.0 * c.P / (ATOM.gamma * ATOM.Gamma)
    dV2, VV = c.calV_L**2 - c.calV_R**2, c.calV_L * c.calV_R
    ref = LockInResult(
        S=pref * (dV2 * amps.G1.real - VV * (amps.C1 + amps.Cm1).real),
        Q=pref * (dV2 * amps.G1.imag - VV * (amps.C1 - amps.Cm1).imag),
    ).at_phase(alpha)
    assert (res.S, res.Q) == (ref.S, ref.Q)
    assert type(res.S) is float and type(res.Q) is float


@PROPERTY
@given(m=ms, a=indices, w=rates, alpha=small_phases, x=st.floats(-1.0, 1.0))
def test_transparent_cell_is_the_thin_medium(m, a, w, alpha, x):
    # beta = 0: the cell average, its crossing and its power slope are
    # those of the thin linearized path
    spec = make_spectrum(m=m, epsilon=0.0)
    gt = derive_couplings(ATOM, spec).Gamma_g_tilde
    mod = make_modulation(a=a, omega_m=w * gt, alpha=alpha)
    cell = CellParams(length=0.02, beta=0.0)
    thick = averaged_signal(ATOM, spec, mod, cell, x * gt)
    thin = linearized_signals(ATOM, spec, mod, x * gt)
    assert (thick.S, thick.Q) == (thin.S, thin.Q)
    assert zero_crossing(ATOM, spec, mod, "thick", cell) == zero_crossing(
        ATOM, spec, mod, "linearized"
    )
    assert crossing_and_sensitivity(ATOM, spec, mod, "thick", cell)[1] == (
        crossing_and_sensitivity(ATOM, spec, mod, "linearized")[1]
    )


@pytest.fixture(scope="module")
def td_trace():
    spec = make_spectrum(m=2.4, epsilon=0.2)
    gt = derive_couplings(ATOM, spec).Gamma_g_tilde
    mod = make_modulation(a=0.2, omega_m=0.5 * gt)
    return integrate_ground_state(ATOM, spec, mod, 0.1 * gt)


@PROPERTY
@given(alpha=phases)
def test_detection_phase_rotates_lockin(td_trace, alpha):
    # demodulating at phase alpha rotates (S, Q) of phase 0 by alpha
    ref = lockin(td_trace, 0.0)
    res = lockin(td_trace, alpha)
    scale = math.hypot(ref.S, ref.Q)
    c, s = math.cos(alpha), math.sin(alpha)
    assert res.S == pytest.approx(ref.S * c - ref.Q * s, abs=1e-12 * scale)
    assert res.Q == pytest.approx(ref.Q * c + ref.S * s, abs=1e-12 * scale)


@PROPERTY
@given(m=ms, epsilon=epsilons, a=indices, w=rates, alpha=small_phases)
def test_thick_crossing_follows_the_rotated_signal(m, epsilon, a, w, alpha):
    # the slabs' gains differ, so the cell crossing depends on the phase: at
    # phase alpha it zeroes S cos(alpha) - Q sin(alpha) of the phase-0 signals
    spec = make_spectrum(m=m, epsilon=epsilon)
    gt = derive_couplings(ATOM, spec).Gamma_g_tilde
    cell = CellParams(length=0.02, beta=0.43 / 0.02)
    kw = dict(cell=cell, allow_asymmetric=True)
    mod = make_modulation(a=a, omega_m=w * gt, alpha=alpha)
    root = zero_crossing(ATOM, spec, mod, "thick", **kw)
    at_zero = make_modulation(a=a, omega_m=w * gt)

    def rotated(delta):
        return averaged_signal(ATOM, spec, at_zero, cell, delta, True).at_phase(alpha).S

    assert abs(rotated(root)) <= 1e-9 * abs(rotated(root + gt) - rotated(root))

"""Zero crossings, IP/PZD mapping, symmetrizing detuning, servo emulation."""

import math

import numpy as np
import pytest

from conftest import (
    GAMMA_OPT,
    OMEGA,
    OMEGA_E,
    POWER,
    TWO_PI,
    make_atom,
    make_modulation,
    make_spectrum,
    pair_spectrum,
)
from scipy.optimize import brentq

from cptsim import (
    BracketError,
    CellParams,
    ModulationParams,
    ParameterError,
    ServoScenario,
    asymmetry_shift,
    bessel_family,
    derive_couplings,
    find_ips_and_pzds,
    make_signal_function,
    servo_lock_experiment,
    symmetrizing_detuning,
    zero_crossing,
)

FIRST_BESSEL_NULL = 2.404826  # J_0 zero, where the carrier drops out


class TestZeroCrossing:
    def test_symmetric_crossing_sits_at_half_shift(self, sym_atom):
        spec = make_spectrum(m=2.3, epsilon=0.0)
        c = derive_couplings(sym_atom, spec)
        mod = make_modulation(a=0.2, omega_m=0.5 * c.Gamma_g_tilde)
        root = zero_crossing(sym_atom, spec, mod, path="harmonic")
        assert root == pytest.approx(-c.delta_nr / 2.0, abs=1e-5 * c.Gamma_g_tilde)

    def test_linearized_root_equals_prediction(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        mod = make_modulation(a=0.2, omega_m=0.5 * c.Gamma_g_tilde)
        sb = asymmetry_shift(atom, spec, mod)
        root = zero_crossing(
            atom, spec, mod, path="linearized",
            xtol=1e-12 * c.Gamma_g_tilde, allow_asymmetric=True,
        )
        assert root == pytest.approx(sb.delta_0_predicted, abs=1e-10 * c.Gamma_g_tilde)

    def test_time_domain_agrees_with_harmonic(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.1)
        c = derive_couplings(atom, spec)
        mod = make_modulation(a=0.2, omega_m=0.5 * c.Gamma_g_tilde)
        fast = zero_crossing(atom, spec, mod, path="harmonic", allow_asymmetric=True)
        slow = zero_crossing(
            atom, spec, mod, path="time-domain", allow_asymmetric=True
        )
        assert abs(fast - slow) <= 5e-3 * c.Gamma_g_tilde

    def test_bracket_error_reports_endpoint_signals(self, atom):
        spec = make_spectrum(m=2.3, epsilon=0.0)
        c = derive_couplings(atom, spec)
        mod = make_modulation(a=0.2, omega_m=0.5 * c.Gamma_g_tilde)
        # the crossing sits near -delta_nr/2, far outside a 1e-4-width bracket
        with pytest.raises(BracketError, match="S\\(lo\\)"):
            zero_crossing(
                atom, spec, mod,
                bracket=(-1e-4 * c.Gamma_g_tilde, 1e-4 * c.Gamma_g_tilde),
            )

    @pytest.mark.parametrize("path", ["linearized", "thick"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.2])
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_affine_paths_match_brentq_on_signal(self, atom, path, epsilon, alpha):
        # the closed-form root of the affine paths against Brent's method on
        # the very signal they solve, symmetric and asymmetric spectra alike
        spec = make_spectrum(m=2.3, epsilon=epsilon)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = ModulationParams(a=0.2, omega_m=0.5 * gt, alpha=alpha)
        cell = CellParams(length=0.02, beta=0.43 / 0.02, n_slabs=64)
        kw = dict(cell=cell, allow_asymmetric=True)
        signal = make_signal_function(atom, spec, mod, path, **kw)
        reference = brentq(
            signal, -gt, gt, xtol=1e-12 * gt, rtol=4.0 * np.finfo(float).eps
        )
        root = zero_crossing(atom, spec, mod, path, **kw)
        assert root == pytest.approx(reference, abs=1e-10 * gt)
        assert abs(signal(root)) <= 1e-9 * abs(signal(root + 0.1 * gt))

    @pytest.mark.parametrize("path", ["linearized", "thick"])
    def test_affine_paths_report_bracket_without_root(self, atom, path):
        spec = make_spectrum(m=2.3, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        kw = dict(cell=CellParams(0.02, 0.43 / 0.02, 64), allow_asymmetric=True)
        root = zero_crossing(atom, spec, mod, path, **kw)
        for bracket in ((root + 0.1 * gt, root + 0.5 * gt), (root - gt, root - 0.2 * gt)):
            with pytest.raises(BracketError, match="S\\(lo\\) = .*S\\(hi\\) = "):
                zero_crossing(atom, spec, mod, path, bracket=bracket, **kw)

    def test_rejects_bad_bracket_and_path(self, atom):
        spec = make_spectrum(m=2.3, epsilon=0.0)
        mod = make_modulation()
        with pytest.raises(ParameterError):
            zero_crossing(atom, spec, mod, bracket=(1.0, -1.0))
        with pytest.raises(ParameterError):
            make_signal_function(atom, spec, mod, path="exact")
        with pytest.raises(ParameterError, match="cell"):
            make_signal_function(atom, spec, mod, path="thick")


class TestFindIpsAndPzds:
    def test_symmetric_thin_family_ip_coincides_with_pzd(self, atom):
        family = bessel_family(epsilon=0.0, k_max=5, total_power=POWER, Omega=OMEGA)
        spec = family(2.4)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        res = find_ips_and_pzds(
            atom, mod, family, np.linspace(2.0, 2.8, 9), path="harmonic"
        )
        assert len(res.ip_roots) == 1
        assert len(res.pzd_roots) == 1
        ip = res.ip_roots[0]
        # the PZD sits where the carrier shift cancels the higher sidebands,
        # a whisker above the first carrier null
        assert res.pzd_roots[0] == pytest.approx(FIRST_BESSEL_NULL, abs=0.01)
        assert ip.nearest_pzd_m == res.pzd_roots[0]
        assert abs(ip.m_gap) <= 2e-3
        assert abs(ip.delta0) <= 1e-3 * gt

    def test_per_point_records_are_consistent(self, atom):
        family = bessel_family(epsilon=0.0, k_max=5, total_power=POWER, Omega=OMEGA)
        spec = family(2.4)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        res = find_ips_and_pzds(
            atom, mod, family, np.linspace(2.0, 2.8, 9), path="harmonic"
        )
        ms = [r.m for r in res.records]
        assert ms == sorted(ms)
        assert any(r.near_ip for r in res.records)
        assert any(r.near_pzd for r in res.records)
        lo, hi = res.delta0_range
        assert lo <= min(r.delta0 for r in res.records)
        assert hi >= max(r.delta0 for r in res.records)

    def test_deterministic(self, atom):
        family = bessel_family(epsilon=0.1, k_max=5, total_power=POWER, Omega=OMEGA)
        spec = family(2.4)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        grid = np.linspace(2.1, 2.7, 7)
        a = find_ips_and_pzds(atom, mod, family, grid, path="linearized")
        b = find_ips_and_pzds(atom, mod, family, grid, path="linearized")
        assert a == b

    def test_grid_validation(self, atom):
        family = bessel_family(epsilon=0.0, k_max=5, total_power=POWER, Omega=OMEGA)
        mod = make_modulation()
        with pytest.raises(ParameterError, match="at least 3"):
            find_ips_and_pzds(atom, mod, family, [2.0, 2.8])
        with pytest.raises(ParameterError, match="strictly increasing"):
            find_ips_and_pzds(atom, mod, family, [2.0, 2.0, 2.8])
        with pytest.raises(ParameterError, match="power_step"):
            find_ips_and_pzds(
                atom, mod, family, [2.0, 2.4, 2.8], power_step=0.5
            )


class TestSymmetrizingDetuning:
    def test_frozen_root(self):
        root = symmetrizing_detuning(TWO_PI * 1000e6, TWO_PI * 816.656e6, 1.0 / 3.0)
        assert root / (TWO_PI * 1e6) == pytest.approx(-156.9915755766518, rel=1e-12)

    def test_root_cancels_weighted_dispersions(self):
        # the returned point must null (1/r) Mu + Md exactly, for any linewidth
        r = 1.0 / 3.0
        for gamma in (1e-3 * OMEGA_E, 0.4 * OMEGA_E, 1.2 * OMEGA_E):
            root = symmetrizing_detuning(gamma, OMEGA_E, r)
            assert -OMEGA_E < root < 0.0
            mu = root / (root**2 + gamma**2)
            md = (root + OMEGA_E) / ((root + OMEGA_E) ** 2 + gamma**2)
            scale = abs(mu) + abs(md)
            assert abs(mu / r + md) < 1e-9 * scale

    def test_root_magnitude_grows_with_linewidth(self):
        # broader lines overlap more, pushing the cancellation point out
        roots = [
            symmetrizing_detuning(g, OMEGA_E, 1.0 / 3.0)
            for g in (0.1 * OMEGA_E, 0.4 * OMEGA_E, 1.2 * OMEGA_E, 3.6 * OMEGA_E)
        ]
        assert all(b < a for a, b in zip(roots, roots[1:]))

    def test_K_vanishes_at_root(self):
        root = symmetrizing_detuning(GAMMA_OPT, OMEGA_E, 1.0 / 3.0)
        atom = make_atom(Delta_L=root)
        c = derive_couplings(atom, make_spectrum(m=2.4, epsilon=0.3))
        assert abs(c.K) * atom.Gamma / (c.calV_L * c.calV_R) < 1e-10

    def test_validation(self):
        with pytest.raises(ParameterError):
            symmetrizing_detuning(-1.0, OMEGA_E)
        with pytest.raises(ParameterError):
            symmetrizing_detuning(GAMMA_OPT, 0.0)
        with pytest.raises(ParameterError):
            symmetrizing_detuning(GAMMA_OPT, OMEGA_E, dipole_ratio_sq=0.0)

    @pytest.mark.parametrize(
        "args",
        [(math.nan, OMEGA_E), (GAMMA_OPT, math.inf), (GAMMA_OPT, OMEGA_E, math.nan)],
    )
    def test_rejects_non_finite(self, args):
        with pytest.raises(ParameterError, match="must be finite"):
            symmetrizing_detuning(*args)

    def test_overflowing_width_is_an_explicit_error(self):
        # Gamma^2 overflows, the weights underflow to zero and the sign
        # change the bisection needs is lost
        with pytest.raises(ParameterError, match="no sign change"):
            symmetrizing_detuning(1e200, OMEGA_E)


class TestServo:
    def setup_method(self):
        self.family = bessel_family(
            epsilon=0.2, k_max=5, total_power=POWER, Omega=OMEGA
        )
        spec = self.family(2.4)
        self.atom = make_atom()
        self.gt = derive_couplings(self.atom, spec).Gamma_g_tilde
        self.mod = make_modulation(a=0.2, omega_m=0.5 * self.gt)

    def test_scenario_validation(self):
        with pytest.raises(ParameterError):
            ServoScenario(m_start=2.0, m_stop=3.0, n_steps=1)
        with pytest.raises(ParameterError):
            ServoScenario(m_start=2.0, m_stop=3.0, n_steps=100, gain=-0.1)
        with pytest.raises(ParameterError):
            ServoScenario(m_start=2.0, m_stop=3.0, n_steps=100, intensity_depth=1.0)
        with pytest.raises(ParameterError):
            ServoScenario(
                m_start=2.0, m_stop=3.0, n_steps=100, intensity_period_steps=4
            )
        with pytest.raises(ParameterError):
            ServoScenario(m_start=2.0, m_stop=3.0, n_steps=100, bracket_scale=0.0)

    def test_zero_gain_servo_never_moves(self):
        scen = ServoScenario(
            m_start=2.4, m_stop=2.5, n_steps=400, gain=0.0,
            intensity_period_steps=100,
        )
        trace = servo_lock_experiment(self.atom, self.mod, self.family, scen)
        assert not trace.lock_lost
        assert np.ptp(trace.delta) == 0.0
        assert np.max(np.abs(trace.response_amplitude)) <= 1e-12 * self.gt

    def test_fixed_m_lock_tracks_crossing(self):
        spec = self.family(2.45)
        d0 = zero_crossing(
            self.atom, spec, self.mod, path="harmonic", allow_asymmetric=True
        )
        scen = ServoScenario(
            m_start=2.45, m_stop=2.45, n_steps=1200,
            intensity_period_steps=200,
        )
        trace = servo_lock_experiment(self.atom, self.mod, self.family, scen)
        assert not trace.lock_lost
        # settled lock oscillates around the nominal crossing
        tail = trace.delta[-400:]
        assert abs(tail.mean() - d0) <= 0.02 * self.gt
        assert np.max(np.abs(trace.response_amplitude)) > 0.0

    def test_lock_loss_truncates_trace(self):
        scen = ServoScenario(
            m_start=2.4, m_stop=2.5, n_steps=400,
            intensity_period_steps=100, delta_start=0.5 * self.gt,
            bracket_scale=1e-4,
        )
        trace = servo_lock_experiment(self.atom, self.mod, self.family, scen)
        assert trace.lock_lost
        assert trace.lock_lost_step is not None
        assert trace.delta.size == trace.lock_lost_step
        assert trace.m.size == trace.delta.size

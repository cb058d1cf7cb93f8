"""Zero crossings, IP/PZD mapping, symmetrizing detuning, servo emulation."""

import math
import os
import random
import re
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

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
    reference_ips_and_pzds,
    reference_servo_trace,
)
from scipy.optimize import brentq

from cptsim import harmonic, sweep, thick
from cptsim import (
    BracketError,
    CellParams,
    ModulationParams,
    ParameterError,
    ServoScenario,
    asymmetry_shift,
    bessel_family,
    crossing_and_sensitivity,
    derive_couplings,
    find_ips_and_pzds,
    harmonic_signals,
    make_signal_function,
    servo_lock_experiment,
    solve_fourier_amplitudes,
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

    @pytest.mark.parametrize("path", ["harmonic", "linearized", "thick", "time-domain"])
    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(xtol=math.inf), "xtol must be finite and > 0, got inf"),
            (dict(xtol=math.nan), "xtol must be finite and > 0, got nan"),
            (dict(xtol=0.0), "xtol must be finite and > 0, got 0.0"),
            (dict(xtol=-1.0), "xtol must be finite and > 0, got -1.0"),
            (dict(bracket=(-math.inf, 1.0)), r"bracket ends must be finite, got \(-inf"),
            (dict(bracket=(-1.0, math.inf)), r"bracket ends must be finite, got .*inf\)"),
            (dict(bracket=(math.nan, 1.0)), r"bracket ends must be finite, got \(nan"),
        ],
    )
    def test_rejects_bad_xtol_and_bracket_before_evaluating(
        self, atom, monkeypatch, path, kw, match
    ):
        spec = make_spectrum(m=2.3, epsilon=0.2)
        mod = make_modulation(a=0.2)
        cell = dict(cell=CellParams(0.02, 0.43 / 0.02, 64), allow_asymmetric=True)
        signal_type = type(make_signal_function(atom, spec, mod, path, **cell))

        def untouched(*args):
            raise AssertionError("the signal was evaluated")

        monkeypatch.setattr(signal_type, "__call__", untouched)
        if hasattr(signal_type, "crossing"):
            monkeypatch.setattr(signal_type, "crossing", untouched)
        with pytest.raises(ParameterError, match=match):
            zero_crossing(atom, spec, mod, path, **cell, **kw)

    def test_rejects_bad_bracket_and_path(self, atom):
        spec = make_spectrum(m=2.3, epsilon=0.0)
        mod = make_modulation()
        with pytest.raises(ParameterError):
            zero_crossing(atom, spec, mod, bracket=(1.0, -1.0))
        with pytest.raises(ParameterError):
            make_signal_function(atom, spec, mod, path="exact")
        with pytest.raises(ParameterError, match="cell"):
            make_signal_function(atom, spec, mod, path="thick")


def richardson_power_slope(spec, crossing):
    """d(delta_0)/dE^2 from `crossing(scaled_spectrum)` at power scaled by
    1 +- h, Richardson-combining the central differences at h = 1e-2 and
    1e-3 (their O(h^2) errors cancel)."""
    def central(h):
        up, dn = crossing(spec.scaled(1.0 + h)), crossing(spec.scaled(1.0 - h))
        return (up - dn) / (2.0 * h * spec.total_power)

    return (100.0 * central(1e-3) - central(1e-2)) / 99.0


class TestCrossingAndSensitivity:
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    @pytest.mark.parametrize("m", [2.0, 2.4, 3.2])
    @pytest.mark.parametrize("w", [0.05, 0.25, 1.0])
    @pytest.mark.parametrize("epsilon", [0.0, 0.2])
    def test_harmonic_slope_is_exact(self, atom, epsilon, w, m, alpha):
        spec = make_spectrum(m=m, epsilon=epsilon)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = ModulationParams(a=0.2, omega_m=w * gt, alpha=alpha)
        delta0, slope = crossing_and_sensitivity(
            atom, spec, mod, allow_asymmetric=True
        )

        def crossing(scaled):
            # `harmonic_signals` solved by brentq to 1e-15 Gamma_g_tilde
            width = derive_couplings(atom, scaled).Gamma_g_tilde
            return brentq(
                lambda d: harmonic_signals(atom, scaled, mod, d).S, -width, width,
                xtol=1e-15 * gt, rtol=4.0 * np.finfo(float).eps,
            )

        reference = richardson_power_slope(spec, crossing)
        assert abs(slope - reference) <= 1e-7 * gt / spec.total_power
        assert delta0 == zero_crossing(atom, spec, mod, xtol=1e-8 * gt)

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    @pytest.mark.parametrize("m", [2.0, 2.4, 3.2])
    @pytest.mark.parametrize("w", [0.05, 0.25, 1.0])
    @pytest.mark.parametrize("epsilon", [0.0, 0.2])
    @pytest.mark.parametrize(
        "path, beta_l",
        [("linearized", None), ("thick", 0.0), ("thick", 0.16), ("thick", 0.43)],
    )
    def test_closed_form_slope_is_exact(
        self, atom, path, beta_l, epsilon, w, m, alpha
    ):
        # the exact slope of the closed-form sums against a Richardson
        # reference of closed-form crossings; a central difference at a 1e-3
        # power step is up to 1.3e-9 Gamma_g_tilde/E^2 off, outside the gate
        spec = make_spectrum(m=m, epsilon=epsilon)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = ModulationParams(a=0.2, omega_m=w * gt, alpha=alpha)
        cell = None if beta_l is None else CellParams(0.02, beta_l / 0.02, 64)
        kw = dict(path=path, cell=cell, allow_asymmetric=True)
        delta0, slope = crossing_and_sensitivity(atom, spec, mod, **kw)
        reference = richardson_power_slope(
            spec, lambda scaled: zero_crossing(atom, scaled, mod, **kw)
        )
        assert abs(slope - reference) <= 1e-11 * gt / spec.total_power
        assert delta0 == zero_crossing(atom, spec, mod, **kw)

    @pytest.mark.parametrize("m", [2.0, 2.4])
    @pytest.mark.parametrize("epsilon", [0.0, 0.2])
    def test_time_domain_slope(self, atom, epsilon, m):
        # central differences of the lock-in signal at the one crossing,
        # against a Richardson reference of time-domain crossings solved to
        # 1e-14 Gamma_g_tilde
        spec = make_spectrum(m=m, epsilon=epsilon)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = ModulationParams(a=0.2, omega_m=gt, alpha=0.7)
        _, slope = crossing_and_sensitivity(
            atom, spec, mod, "time-domain", allow_asymmetric=True
        )
        reference = richardson_power_slope(
            spec,
            lambda scaled: zero_crossing(
                atom, scaled, mod, "time-domain", xtol=1e-14 * gt
            ),
        )
        assert abs(slope - reference) <= 1e-7 * gt / spec.total_power

    @pytest.mark.parametrize("path", ["harmonic", "linearized", "thick", "time-domain"])
    def test_one_crossing_per_call(self, atom, path, monkeypatch):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return zero_crossing(*args, **kwargs)

        monkeypatch.setattr(sweep, "zero_crossing", counted)
        crossing_and_sensitivity(
            atom, spec, mod, path, CellParams(0.02, 0.43 / 0.02, 64),
            allow_asymmetric=True,
        )
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "path, derived, slab_builds",
        [("harmonic", 1, 0), ("linearized", 1, 1), ("thick", 1, 1)],
    )
    def test_couplings_built_once_per_call(
        self, atom, path, derived, slab_builds, monkeypatch
    ):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for module in (sweep, harmonic, thick):
            monkeypatch.setattr(
                module, "derive_couplings",
                counting("derive", module.derive_couplings),
            )
        # every slab array set is one DerivedCouplings built in thick
        monkeypatch.setattr(
            thick, "DerivedCouplings", counting("slabs", thick.DerivedCouplings)
        )
        crossing_and_sensitivity(
            atom, spec, mod, path, CellParams(0.02, 0.43 / 0.02, 64),
            allow_asymmetric=True,
        )
        assert (calls["derive"], calls["slabs"]) == (derived, slab_builds)

    def test_truncation_warns_once_per_crossing(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=0.6, omega_m=0.5 * gt)
        c = derive_couplings(atom, spec)

        def truncation_warnings(call):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            return [w for w in caught if "truncation degrades" in str(w.message)]

        assert len(truncation_warnings(
            lambda: crossing_and_sensitivity(atom, spec, mod)
        )) == 1
        # the per-solve calls still warn on every call
        assert len(truncation_warnings(
            lambda: solve_fourier_amplitudes(c, 0.0, mod)
        )) == 1
        assert len(truncation_warnings(
            lambda: harmonic_signals(atom, spec, mod, 0.0)
        )) == 1
        with pytest.warns(UserWarning, match="truncation degrades"):
            attached = harmonic_signals(atom, spec, mod, 0.0).warnings
        assert attached == (
            "modulation index a = 0.6 > 0.5: second-harmonic truncation degrades",
        )


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

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    @pytest.mark.parametrize(
        "grid",
        [[2.0, 2.2, 2.4, 2.6, 2.8], [2.0, 2.2, 2.4], [2.4, 2.6, 2.8]],
    )
    def test_grid_zero_is_one_root_either_way(
        self, atom, direction, grid, monkeypatch
    ):
        # both entries of the pair pass through 0 exactly at the grid point
        # m = 2.4, falling (direction 1) or rising (direction -1)
        def pair(atom, spectrum, *args):
            return direction * (2.4 - spectrum.m), -direction * (2.4 - spectrum.m)

        monkeypatch.setattr(sweep, "crossing_and_sensitivity", pair)
        res = find_ips_and_pzds(
            atom, make_modulation(),
            lambda m: SimpleNamespace(m=m, total_power=1.0), grid,
        )
        assert res.pzd_roots == (2.4,)
        assert [ip.m for ip in res.ip_roots] == [2.4]
        assert res.ip_roots[0].m_gap == 0.0

    def test_bracket_error_names_m(self, atom, monkeypatch):
        # narrow the nominal crossing bracket (+-Gamma_g_tilde) to 1e-6 of
        # its width, on the lanes and on the per-point crossings alike, so
        # the sweep fails at its first point
        family = bessel_family(epsilon=0.0, k_max=5, total_power=POWER, Omega=OMEGA)
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        real = sweep._couplings_signal
        lanes = []

        def narrow(atom, c, *args):
            signal = real(atom, c, *args)
            signal.width = 1e-6 * signal.width
            lanes.append(np.size(c.K))
            return signal

        monkeypatch.setattr(sweep, "_couplings_signal", narrow)
        with pytest.raises(BracketError) as info:
            find_ips_and_pzds(atom, mod, family, [2.0, 2.4, 2.8], path="linearized")
        msg = str(info.value)
        assert msg.startswith("at m = 2, no crossing in bracket")
        assert re.search(r"S\(lo\) = \S+, S\(hi\) = \S+$", msg)
        assert isinstance(info.value.__cause__, BracketError)
        assert lanes == [3, 1]  # the batch of three m, then m = 2 alone

    def test_parameter_error_names_m(self, atom):
        # m = 0 leaves the resonant pair empty (J_1(0) = 0): S has no slope
        family = bessel_family(epsilon=0.0, k_max=5, total_power=POWER, Omega=OMEGA)
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        with pytest.raises(ParameterError) as info:
            find_ips_and_pzds(atom, mod, family, [0.0, 0.5, 1.0])
        assert str(info.value).startswith("at m = 0, the in-phase signal")
        assert "no slope in delta" in str(info.value)
        assert isinstance(info.value.__cause__, ParameterError)

    def test_time_domain_roots_match_harmonic(self, atom):
        family = bessel_family(epsilon=0.2, k_max=5, total_power=POWER, Omega=OMEGA)
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        grid = np.linspace(2.2, 2.6, 5)
        slow = find_ips_and_pzds(atom, mod, family, grid, path="time-domain")
        fast = find_ips_and_pzds(atom, mod, family, grid, path="harmonic")
        assert len(slow.ip_roots) == len(fast.ip_roots) == 1
        assert len(slow.pzd_roots) == len(fast.pzd_roots) == 1
        assert slow.ip_roots[0].m == pytest.approx(fast.ip_roots[0].m, abs=1e-4)
        assert slow.pzd_roots[0] == pytest.approx(fast.pzd_roots[0], abs=1e-4)

    def test_grid_validation(self, atom):
        family = bessel_family(epsilon=0.0, k_max=5, total_power=POWER, Omega=OMEGA)
        mod = make_modulation()
        with pytest.raises(ParameterError, match="at least 3"):
            find_ips_and_pzds(atom, mod, family, [2.0, 2.8])
        with pytest.raises(ParameterError, match="strictly increasing"):
            find_ips_and_pzds(atom, mod, family, [2.0, 2.0, 2.8])

    @pytest.mark.parametrize("path", ["harmonic", "linearized", "time-domain"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_entry_rejected_before_solving(self, atom, path, bad):
        # NaN passes the strictly-increasing check, since it compares False
        family = bessel_family(epsilon=0.0, k_max=5, total_power=POWER, Omega=OMEGA)
        asked = []

        def counted(m):
            asked.append(m)
            return family(m)

        for grid in ([bad, 2.0, 2.4], [2.0, 2.4, bad]):
            with pytest.raises(ParameterError, match=f"must be finite, got {bad}$"):
                find_ips_and_pzds(atom, make_modulation(), counted, grid, path)
            with pytest.raises(ParameterError, match=f"must be finite, got {bad}$"):
                find_ips_and_pzds(atom, make_modulation(), family, grid, path)
        assert asked == []


# The paths whose grid crossings `find_ips_and_pzds` solves as lanes of one
# signal: the harmonic one, the thin closed form, and transparent and
# absorbing cells (beta * length 0 and 0.43).
LANE_PATHS = {
    "harmonic": ("harmonic", None),
    "linearized": ("linearized", None),
    "thick-0": ("thick", CellParams(0.02, 0.0)),
    "thick-0.43": ("thick", CellParams(0.02, 0.43 / 0.02)),
}


@pytest.fixture(params=list(LANE_PATHS))
def lane_path(request):
    return LANE_PATHS[request.param]


class TestLockstepGrid:
    """The grid crossings of `find_ips_and_pzds`, solved as lanes, against
    the per-point loop of `reference_ips_and_pzds`."""

    @staticmethod
    def sweep_and_reference(atom, mod, family, grid, path="harmonic", cell=None):
        res = find_ips_and_pzds(atom, mod, family, grid, path, cell)
        ref = reference_ips_and_pzds(atom, mod, family, grid, path, cell)
        assert res == ref
        return res

    @pytest.mark.parametrize("alpha", [0.0, 0.6])
    @pytest.mark.parametrize("epsilon", [0.0, 0.2])
    def test_records_and_roots_equal_per_point_loop(
        self, atom, epsilon, alpha, lane_path
    ):
        # alpha = 0.6 at omega_m = Gamma_g_tilde has three harmonic roots in
        # +-Gamma_g_tilde at every m: the batch must take the root the
        # per-point crossing takes
        path, cell = lane_path
        family = bessel_family(epsilon, 5, POWER, OMEGA)
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=gt, alpha=alpha)
        res = self.sweep_and_reference(
            atom, mod, family, np.linspace(2.0, 2.8, 9), path, cell
        )
        assert len(res.records) >= 17 and res.ip_roots
        for r in res.records:
            spec = family(r.m)
            pair = crossing_and_sensitivity(atom, spec, mod, path, cell, True)
            assert (r.delta0, r.dDelta0_dE2, r.E2) == pair + (spec.total_power,)

    def test_large_index_warns_and_equals_per_point_loop(self, atom):
        family = bessel_family(0.2, 5, POWER, OMEGA)
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = make_modulation(a=0.6, omega_m=0.5 * gt)
        with pytest.warns(UserWarning, match="truncation degrades"):
            find_ips_and_pzds(atom, mod, family, np.linspace(2.0, 2.8, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.sweep_and_reference(atom, mod, family, np.linspace(2.0, 2.8, 5))

    @staticmethod
    def assert_same_error(atom, mod, family, grid, kind, path="harmonic", cell=None,
                          allow_asymmetric=True):
        with pytest.raises(kind) as info:
            find_ips_and_pzds(atom, mod, family, grid, path, cell, allow_asymmetric)
        with pytest.raises(kind) as ref:
            reference_ips_and_pzds(
                atom, mod, family, grid, path, cell, allow_asymmetric
            )
        assert str(info.value) == str(ref.value)
        assert isinstance(info.value.__cause__, kind)
        return str(info.value)

    def test_flat_signal_names_the_same_m(self, atom, lane_path):
        family = bessel_family(0.0, 5, POWER, OMEGA)
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        msg = self.assert_same_error(
            atom, make_modulation(a=0.0, omega_m=0.5 * gt), family,
            [2.0, 2.4, 2.8], ParameterError, *lane_path,
        )
        assert msg.startswith("at m = 2, the in-phase signal has no slope")
        msg = self.assert_same_error(
            atom, make_modulation(a=0.2, omega_m=0.5 * gt), family,
            [0.0, 0.5, 1.0], ParameterError, *lane_path,
        )
        assert msg.startswith("at m = 0, ") and "0 at both bracket ends" in msg

    def test_bracket_failure_names_the_smallest_failing_m(self, atom):
        # near alpha = pi/2 the in-phase signal is mostly the quadrature, which
        # is even in delta: at omega_m = Gamma_g_tilde and alpha = 1.4 it has
        # no sign change over +-Gamma_g_tilde at m = 1.0, 1.1 and 2.8
        family = bessel_family(0.0, 5, POWER, OMEGA)
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=gt, alpha=1.4)
        msg = self.assert_same_error(
            atom, mod, family, [0.5, 1.0, 1.1, 2.8], BracketError
        )
        assert msg.startswith("at m = 1, no crossing in bracket")
        msg = self.assert_same_error(atom, mod, family, [2.4, 2.8, 3.2], BracketError)
        assert msg.startswith("at m = 2.8, no crossing in bracket")

    @pytest.mark.parametrize("grid", [[0.5, 1.0, 1.1, 2.8], [2.4, 2.8, 3.2]])
    def test_near_quadrature_phase_equals_per_point_loop(self, atom, lane_path, grid):
        # the closed forms are affine in delta, so alpha = 1.4 scales their
        # slope but leaves every crossing in its bracket
        path, cell = lane_path
        family = bessel_family(0.2, 5, POWER, OMEGA)
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=gt, alpha=1.4)
        if path == "harmonic":
            self.assert_same_error(atom, mod, family, grid, BracketError)
        else:
            self.sweep_and_reference(atom, mod, family, grid, path, cell)

    @pytest.mark.parametrize("lane", ["linearized", "thick-0", "thick-0.43"])
    def test_closed_form_bracket_failure_names_the_smallest_failing_m(
        self, atom, lane
    ):
        # at four times the test power the non-resonant shift of a
        # carrier-heavy spectrum (m <= 0.3) puts the closed-form crossing
        # beyond +-Gamma_g_tilde
        path, cell = LANE_PATHS[lane]
        family = bessel_family(0.0, 5, 4.0 * POWER, OMEGA)
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        msg = self.assert_same_error(
            atom, mod, family, [0.1, 0.2, 0.5, 1.0], BracketError, path, cell
        )
        assert msg.startswith("at m = 0.1, no crossing in bracket")
        msg = self.assert_same_error(
            atom, mod, family, [0.3, 0.5, 1.0], BracketError, path, cell
        )
        assert msg.startswith("at m = 0.3, no crossing in bracket")

    def test_skewed_cell_names_the_first_m(self, atom):
        family = bessel_family(0.2, 5, POWER, OMEGA)
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        cell = CellParams(0.02, 0.43 / 0.02)
        msg = self.assert_same_error(
            atom, mod, family, [2.0, 2.4, 2.8], ParameterError, "thick", cell,
            allow_asymmetric=False,
        )
        assert msg.startswith("at m = 2, the thick-cell average requires symmetric")

    @staticmethod
    def per_point_spectra(monkeypatch):
        """The spectrum of every per-point crossing made from here on."""
        calls = []
        real = sweep.crossing_and_sensitivity

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep, "crossing_and_sensitivity", counted)
        return calls

    def test_other_paths_and_families_stay_per_point(
        self, atom, lane_path, monkeypatch
    ):
        path, cell = lane_path
        family = bessel_family(0.2, 5, POWER, OMEGA)
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        grid = np.linspace(2.0, 2.8, 5)
        batched = find_ips_and_pzds(atom, mod, family, grid, path, cell)
        calls = self.per_point_spectra(monkeypatch)
        # a family that is not a BesselFamily takes the per-point loop
        plain = find_ips_and_pzds(atom, mod, lambda m: family(m), grid, path, cell)
        assert plain == batched
        per_point = len(calls)
        calls.clear()
        find_ips_and_pzds(atom, mod, family, grid, path, cell)
        # the lanes leave only the m-root refinement to the per-point crossing
        assert len(calls) == per_point - len(batched.records)

    def test_only_failing_lanes_go_per_point(self, atom, monkeypatch):
        # m = 0.5 has a clean bracket and m = 1.0 none: the lane of 0.5 is
        # solved in the batch, and only 1.0 is solved again, per point
        family = bessel_family(0.0, 5, POWER, OMEGA)
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=gt, alpha=1.4)
        calls = self.per_point_spectra(monkeypatch)
        with pytest.raises(BracketError, match="^at m = 1, "):
            find_ips_and_pzds(atom, mod, family, [0.5, 1.0, 1.1, 2.8])
        assert calls == [family(1.0)]

    @pytest.mark.parametrize("lane", ["harmonic", "thick-0.43"])
    def test_batches_hold_at_most_max_lanes(self, atom, lane, monkeypatch):
        path, cell = LANE_PATHS[lane]
        sizes = []
        real = sweep._lane_pairs

        def counted(atom, mod, family, ms, *args):
            sizes.append(len(ms))
            return real(atom, mod, family, ms, *args)

        monkeypatch.setattr(sweep, "_lane_pairs", counted)
        monkeypatch.setattr(sweep, "MAX_LANES", 4)
        family = bessel_family(0.2, 5, POWER, OMEGA)
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        res = self.sweep_and_reference(
            atom, mod, family, np.linspace(2.0, 2.8, 9), path, cell
        )
        assert max(sizes) == 4 and sum(sizes) == len(res.records)
        if path != "harmonic":
            return
        # a failing m in a later batch is the one named
        family = bessel_family(0.0, 5, POWER, OMEGA)
        mod = make_modulation(a=0.2, omega_m=gt, alpha=1.4)
        grid = [2.0, 2.1, 2.2, 2.3, 2.4, 2.8, 3.2]
        msg = self.assert_same_error(atom, mod, family, grid, BracketError)
        assert msg.startswith("at m = 2.8, no crossing in bracket")


class TestBrent:
    """The port of scipy's brentq, against scipy.optimize.brentq."""

    @staticmethod
    def iterates(solver, f, *args, **kwargs):
        xs = []

        def logged(x):
            xs.append(x)
            return f(x)

        return solver(logged, *args, **kwargs), xs

    def test_matches_scipy_on_harmonic_crossings(self, atom):
        rng = random.Random(20)
        for _ in range(400):
            spec = make_spectrum(m=rng.uniform(1.6, 3.4), epsilon=rng.uniform(-0.3, 0.3))
            gt = derive_couplings(atom, spec).Gamma_g_tilde
            mod = make_modulation(a=rng.uniform(0.05, 0.5), omega_m=rng.uniform(0.05, 2.0) * gt)
            signal = make_signal_function(atom, spec, mod)
            args = (signal, -gt, gt)
            kw = dict(xtol=sweep.SWEEP_XTOL * gt)
            root, xs = self.iterates(sweep.brentq, *args, **kw)
            assert (root, xs) == self.iterates(brentq, *args, **kw, rtol=sweep.RTOL)
            # with the ends passed in, the same iterates without the ends
            ends = dict(f_a=signal(-gt), f_b=signal(gt))
            assert self.iterates(sweep.brentq, *args, **kw, **ends) == (root, xs[2:])
            assert len(xs) > 4

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x - 1.0, 1.0, 3.0),  # root at the low end
            (lambda x: x - 3.0, 1.0, 3.0),  # root at the high end
            (lambda x: math.cos(x) - x, 0.0, 1.0),
            (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
            (lambda x: 1.0 if x > 0.25 else -1.0, -1.0, 1.0),  # a jump
        ],
    )
    def test_matches_scipy_on_plain_functions(self, f, a, b):
        assert self.iterates(sweep.brentq, f, a, b, xtol=1e-12) == self.iterates(
            brentq, f, a, b, xtol=1e-12, rtol=sweep.RTOL
        )

    def test_rejects_ends_of_one_sign_and_nan(self):
        kw = dict(xtol=1e-12)
        with pytest.raises(ValueError, match="different signs"):
            sweep.brentq(lambda x: x * x + 1.0, -1.0, 1.0, **kw)
        with pytest.raises(ValueError, match="NaN"):
            sweep.brentq(lambda x: math.nan if x > 0.5 else x - 0.9, 0.0, 1.0, **kw)
        with pytest.raises(ValueError, match="NaN"):
            sweep.brentq(lambda x: x, -1.0, 1.0, f_a=math.nan, **kw)

    @pytest.mark.parametrize("xtol", [0.0, -1.0])
    def test_rejects_xtol_at_or_below_zero_as_scipy(self, xtol):
        # scipy refuses before it evaluates f; without the check the port
        # would converge by rtol alone
        def f(x):
            raise AssertionError("f was evaluated")

        with pytest.raises(ValueError) as ours:
            sweep.brentq(f, 0.0, 1.0, xtol=xtol)
        with pytest.raises(ValueError) as scipys:
            brentq(f, 0.0, 1.0, xtol=xtol, rtol=sweep.RTOL)
        assert str(ours.value) == str(scipys.value) == f"xtol too small ({xtol:g} <= 0)"

    def test_non_convergence_raises_runtime_error(self):
        # a jump at 0 with an absolute tolerance of 1e-300: bisection would
        # need about a thousand halvings
        def jump(x):
            return 1.0 if x > 0.0 else -1.0

        with pytest.raises(RuntimeError, match="100 iterations"):
            sweep.brentq(jump, -1.0, 1.0, xtol=1e-300)
        with pytest.raises(RuntimeError):
            brentq(jump, -1.0, 1.0, xtol=1e-300, rtol=sweep.RTOL)

    def test_lockstep_equals_one_root_driver(self, atom):
        rng = random.Random(3)
        signals, lo, hi, xtol = [], [], [], []
        for _ in range(12):
            spec = make_spectrum(m=rng.uniform(1.6, 3.4), epsilon=rng.uniform(-0.3, 0.3))
            gt = derive_couplings(atom, spec).Gamma_g_tilde
            mod = make_modulation(a=0.2, omega_m=rng.uniform(0.05, 2.0) * gt)
            signals.append(make_signal_function(atom, spec, mod))
            # brackets and tolerances that converge after different rounds
            lo.append(-gt * rng.uniform(0.2, 1.0))
            hi.append(gt)
            xtol.append(1e-8 * gt * rng.uniform(0.1, 10.0))
        f_lo = [s(a) for s, a in zip(signals, lo)]
        f_hi = [s(b) for s, b in zip(signals, hi)]
        rounds = []

        def f(xs):
            rounds.append(xs.tolist())
            return np.array([s(x) for s, x in zip(signals, xs)])

        roots = sweep._brent_lockstep(f, zip(lo, hi, xtol, f_lo, f_hi))
        lanes = [
            self.iterates(sweep.brentq, s, a, b, xtol=t, f_a=fa, f_b=fb)
            for s, a, b, t, fa, fb in zip(signals, lo, hi, xtol, f_lo, f_hi)
        ]
        assert roots.tolist() == [root for root, _ in lanes]
        # each lane's x along the rounds is its own iterate sequence
        for j, (_, xs) in enumerate(lanes):
            assert [r[j] for r in rounds[: len(xs)]] == xs
        counts = {len(xs) for _, xs in lanes}
        assert len(rounds) == max(counts) and len(counts) > 1


def test_run_path_does_not_import_scipy_optimize(tmp_path):
    # a harmonic m-sweep through run_scenario, a time-domain crossing and a
    # short servo, in a fresh interpreter
    root = Path(__file__).resolve().parents[1]
    script = textwrap.dedent(f"""
        import sys
        from cptsim import ServoScenario, bessel_family, servo_lock_experiment, zero_crossing
        from cptsim.config import parse_config
        from cptsim.runner import run_scenario

        config = parse_config(open({str(root / "configs" / "thin_m_sweep.yaml")!r}).read())
        run_scenario(config, {str(tmp_path)!r})
        atom, mod = config.atom.to_params(), config.modulation.to_params()
        family = bessel_family(0.2, 5, config.spectrum.total_power, atom.omega_g / 2)
        zero_crossing(atom, family(2.4), mod, path="time-domain")
        servo_lock_experiment(
            atom, mod, family, ServoScenario(2.3, 2.5, 200, intensity_period_steps=50)
        )
        assert "scipy.optimize" not in sys.modules, "scipy.optimize was imported"
    """)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr


class TestBesselFamily:
    GOOD = dict(epsilon=0.2, k_max=5, total_power=POWER, Omega=OMEGA)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("epsilon", 1.0, r"epsilon must satisfy \|epsilon\| < 1, got 1.0"),
            ("epsilon", -1.0, r"epsilon must satisfy \|epsilon\| < 1, got -1.0"),
            ("epsilon", math.nan, "epsilon must be finite, got nan"),
            ("k_max", 5.0, "k_max must be an integer, got 5.0"),
            ("k_max", "5", "k_max must be an integer, got '5'"),
            ("k_max", 1, "k_max must be >= 2, got 1"),
            ("total_power", 0.0, "total_power must be > 0, got 0.0"),
            ("total_power", -POWER, "total_power must be > 0, got -"),
            ("total_power", math.inf, "total_power must be finite, got inf"),
            ("Omega", 0.0, "Omega must be > 0, got 0.0"),
            ("Omega", -OMEGA, "Omega must be > 0, got -"),
            ("Omega", math.inf, "Omega must be finite, got inf"),
            ("Omega", math.nan, "Omega must be finite, got nan"),
        ],
    )
    def test_rejects_each_bad_field(self, field, value, match):
        with pytest.raises(ParameterError, match=f"BesselFamily.{match}"):
            bessel_family(**{**self.GOOD, field: value})

    def test_accepts_the_bounds(self):
        bessel_family(epsilon=-0.99, k_max=2, total_power=1e-30, Omega=1e-30)
        bessel_family(epsilon=0.99, k_max=np.int64(8), total_power=POWER, Omega=OMEGA)


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

    @pytest.mark.parametrize(
        "field, value", [("n_steps", 3000.5), ("intensity_period_steps", 400.0)]
    )
    def test_counts_must_be_integers(self, field, value):
        kwargs = dict(m_start=2.0, m_stop=3.0, n_steps=3000)
        with pytest.raises(ParameterError, match=f"ServoScenario.{field} .*integer"):
            ServoScenario(**{**kwargs, field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("m_start", math.nan),
            ("m_stop", math.inf),
            ("gain", math.nan),
            ("gain", math.inf),
            ("intensity_depth", math.nan),
        ],
    )
    def test_floats_must_be_finite(self, field, value):
        kwargs = dict(m_start=2.0, m_stop=3.0, n_steps=3000)
        match = f"ServoScenario.{field} must be finite"
        with pytest.raises(ParameterError, match=match):
            ServoScenario(**{**kwargs, field: value})

    @pytest.mark.parametrize("m_start, m_stop", [(-0.1, 2.5), (2.5, -0.1)])
    def test_negative_depths_are_rejected(self, m_start, m_stop):
        # m_stop < 0 used to fail mid-run, at the step that reached it
        with pytest.raises(ParameterError, match="m_start and m_stop .* >= 0"):
            ServoScenario(m_start=m_start, m_stop=m_stop, n_steps=400)

    def test_family_must_be_a_bessel_family(self):
        scen = ServoScenario(m_start=2.4, m_stop=2.5, n_steps=400)
        with pytest.raises(ParameterError, match="BesselFamily .* got function"):
            servo_lock_experiment(
                self.atom, self.mod, lambda m: self.family(m), scen
            )

    def assert_trace_equals_reference(self, mod, family, scen):
        trace = servo_lock_experiment(self.atom, mod, family, scen)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a > 0.5 warns at every step
            ref = reference_servo_trace(self.atom, mod, family, scen)
        for field in ("m", "intensity", "delta", "response_m", "response_amplitude"):
            assert np.array_equal(getattr(trace, field), getattr(ref, field)), field
        assert (trace.lock_lost, trace.lock_lost_step) == (
            ref.lock_lost, ref.lock_lost_step,
        )
        return trace

    @pytest.mark.parametrize("alpha", [0.0, 0.6])
    @pytest.mark.parametrize("epsilon", [0.0, 0.2])
    def test_trace_equals_stepwise_reference(self, epsilon, alpha):
        family = bessel_family(epsilon, 5, POWER, OMEGA)
        mod = make_modulation(a=0.2, omega_m=0.5 * self.gt, alpha=alpha)
        scen = ServoScenario(
            m_start=2.3, m_stop=2.6, n_steps=600, intensity_period_steps=100
        )
        trace = self.assert_trace_equals_reference(mod, family, scen)
        assert not trace.lock_lost and trace.response_m.size == 11

    def test_fixed_m_trace_equals_stepwise_reference(self):
        scen = ServoScenario(
            m_start=2.45, m_stop=2.45, n_steps=600, intensity_period_steps=100
        )
        self.assert_trace_equals_reference(self.mod, self.family, scen)

    def test_lock_loss_trace_equals_stepwise_reference(self):
        scen = ServoScenario(
            m_start=2.4, m_stop=2.5, n_steps=400, gain=8.0,
            intensity_period_steps=100,
        )
        trace = self.assert_trace_equals_reference(self.mod, self.family, scen)
        assert trace.lock_lost

    def test_large_index_warns_once_and_equals_stepwise_reference(self):
        mod = make_modulation(a=0.6, omega_m=0.5 * self.gt)
        scen = ServoScenario(
            m_start=2.4, m_stop=2.5, n_steps=400, intensity_period_steps=100
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.assert_trace_equals_reference(mod, self.family, scen)
        truncation = [w for w in caught if "truncation degrades" in str(w.message)]
        assert len(truncation) == 1

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
        # an integral gain above 2 overshoots by more than it corrects
        scen = ServoScenario(
            m_start=2.4, m_stop=2.5, n_steps=400, gain=8.0,
            intensity_period_steps=100,
        )
        trace = servo_lock_experiment(self.atom, self.mod, self.family, scen)
        assert trace.lock_lost
        assert trace.lock_lost_step is not None
        assert trace.delta.size == trace.lock_lost_step
        assert trace.m.size == trace.delta.size

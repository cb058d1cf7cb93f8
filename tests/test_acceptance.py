"""End-to-end acceptance gates.

Each test prints exactly one line, "CRITERION n: PASS/FAIL - detail", then
asserts, so a full run under `pytest -rA` doubles as the acceptance report.
The printed detail carries the measured numbers, so a FAIL is a finding,
not a mystery.
"""

import math
import warnings

import numpy as np
import pytest

from conftest import (
    GAMMA_OPT,
    OMEGA,
    OMEGA_E,
    POWER,
    TWO_PI,
    fourier_amplitudes,
    kappa,
    make_atom,
    make_spectrum,
    pair_spectrum,
)
from cptsim import (
    CellParams,
    ModulationParams,
    ServoScenario,
    asymmetry_shift,
    bessel_family,
    derive_couplings,
    find_ips_and_pzds,
    harmonic_signals,
    integrate_ground_state,
    linearized_signals,
    lockin,
    servo_lock_experiment,
    steady_state_full_lambda,
    symmetrizing_detuning,
    zero_crossing,
)


def report(n, ok, detail):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


def td_signals(atom, spectrum, modulation, delta):
    return lockin(integrate_ground_state(atom, spectrum, modulation, delta))


class TestAcceptance:
    def test_criterion_1_cross_path_equivalence(self, atom):
        # harmonic and linearized paths against the time-domain reference:
        # a = 0.2, both sideband asymmetries, three modulation frequencies
        worst_h = 0.0
        worst_lin = 0.0
        for eps in (0.0, 0.2):
            spec = make_spectrum(m=2.4, epsilon=eps)
            c = derive_couplings(atom, spec)
            gt = c.Gamma_g_tilde
            for w_frac in (0.25, 0.5, 1.0):
                mod = ModulationParams(a=0.2, omega_m=w_frac * gt)
                deltas = np.linspace(-0.25, 0.25, 9) * gt
                td = [td_signals(atom, spec, mod, d) for d in deltas]
                s_scale = max(abs(r.S) for r in td)
                q_scale = max(abs(r.Q) for r in td)
                for d, r in zip(deltas, td):
                    h = harmonic_signals(atom, spec, mod, d)
                    worst_h = max(
                        worst_h,
                        abs(h.S - r.S) / s_scale,
                        abs(h.Q - r.Q) / q_scale,
                    )
                # linearized forms are first order in the dressed detuning;
                # their omitted curvature alone costs ~10% at |2dt| = 0.2*Gt
                # and under 1% within 0.05*Gt, so scan the window where that
                # order holds, normalized by the full-scan signal scale
                centered = (np.linspace(-0.05, 0.05, 9) * gt
                            - c.delta_r - c.delta_nr) / 2.0
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    for d in centered:
                        r = td_signals(atom, spec, mod, d)
                        lin = linearized_signals(atom, spec, mod, d)
                        worst_lin = max(
                            worst_lin,
                            abs(lin.S - r.S) / s_scale,
                            abs(lin.Q - r.Q) / q_scale,
                        )
        ok_h = worst_h <= 0.01
        ok_lin = worst_lin <= 0.02
        line = report(
            1,
            ok_h and ok_lin,
            f"harmonic vs time domain sup {100 * worst_h:.3f}% (gate 1%); "
            f"linearized in |2dt| <= 0.05*Gt sup {100 * worst_lin:.2f}% "
            f"(gate 2%, scan-normalized)",
        )
        assert ok_h and ok_lin, line

    def test_criterion_2_zero_crossing_identity(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        gt = c.Gamma_g_tilde
        mod = ModulationParams(a=0.2, omega_m=0.5 * gt)
        sb = asymmetry_shift(atom, spec, mod)
        lin_root = zero_crossing(
            atom, spec, mod, path="linearized",
            xtol=1e-12 * gt, allow_asymmetric=True,
        )
        lin_err = abs(lin_root - sb.delta_0_predicted)
        td_root = zero_crossing(
            atom, spec, mod, path="time-domain", allow_asymmetric=True
        )
        td_err = abs(td_root - sb.delta_0_predicted)
        ok = lin_err <= 1e-10 * gt and td_err <= 0.05 * gt
        line = report(
            2,
            ok,
            f"linearized root - prediction = {lin_err / gt:.2e}*Gt "
            f"(gate 1e-10); time-domain root off by {100 * td_err / gt:.3f}% "
            f"of Gt (gate 5%)",
        )
        assert ok, line

    def test_criterion_3_asymmetry_shift_scaling(self, atom):
        # crossing displacement beyond the static shifts on the harmonic
        # path, at two modulation frequencies, against the ratio the
        # closed-form delta_as predicts between them (1 at first order; the
        # harmonic path adds O(a^2), about 2% at a = 0.2)
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        gt = c.Gamma_g_tilde

        def measured(w):
            mod = ModulationParams(a=0.2, omega_m=w)
            root = zero_crossing(
                atom, spec, mod, path="harmonic",
                xtol=1e-10 * gt, allow_asymmetric=True,
            )
            return -(2.0 * root + c.delta_r + c.delta_nr)

        hi, lo = measured(gt), measured(0.05 * gt)
        ratio = hi / lo
        sb_hi = asymmetry_shift(atom, spec, ModulationParams(a=0.2, omega_m=gt))
        sb_lo = asymmetry_shift(
            atom, spec, ModulationParams(a=0.2, omega_m=0.05 * gt)
        )
        formula = sb_hi.delta_as / sb_lo.delta_as
        ok = abs(ratio - formula) <= 0.05
        line = report(
            3,
            ok,
            f"measured delta_as(Gt)/delta_as(0.05Gt) = {ratio:.4f} vs "
            f"closed-form ratio {formula:.4f} (gate |difference| <= 0.05; "
            f"measured shifts {hi:.3f} / {lo:.3f} rad/s)",
        )
        assert ok, line

    def test_criterion_4_ip_pzd_divergence(self, atom):
        family = bessel_family(
            epsilon=0.2, k_max=5, total_power=POWER, Omega=OMEGA
        )
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        grid = np.linspace(2.0, 2.8, 9)

        def first_ip_offset(w):
            res = find_ips_and_pzds(
                atom, ModulationParams(a=0.2, omega_m=w), family, grid
            )
            assert len(res.ip_roots) == 1
            return abs(res.ip_roots[0].delta0)

        fast = first_ip_offset(gt)
        slow = first_ip_offset(0.05 * gt)
        tol = 1e-8 * gt  # the tolerance the IP crossings are solved to
        shrink = fast / slow
        ok = fast > 10.0 * tol and shrink >= 10.0
        line = report(
            4,
            ok,
            f"first-IP |delta0| = {fast:.3f} rad/s at w=Gt, {slow:.4f} at "
            f"0.05Gt: {fast / tol:.0f}x solve tolerance (gate >10x; vs the "
            f"coarse default 1e-4*Gt it is {fast / (1e-4 * gt):.2f}x), "
            f"shrink {shrink:.1f}x (gate >=10x)",
        )
        assert ok, line

    def test_criterion_5_ips_drift_down_with_omega(self, atom):
        family = bessel_family(
            epsilon=0.2, k_max=5, total_power=POWER, Omega=OMEGA
        )
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        grid = np.linspace(2.0, 4.2, 23)
        offsets = {}
        for w_frac in (0.25, 0.5, 1.0):
            res = find_ips_and_pzds(
                atom, ModulationParams(a=0.2, omega_m=w_frac * gt), family, grid
            )
            assert len(res.ip_roots) == 2
            offsets[w_frac] = [ip.delta0 for ip in res.ip_roots]
        d1 = [offsets[w][0] for w in (0.25, 0.5, 1.0)]
        d2 = [offsets[w][1] for w in (0.25, 0.5, 1.0)]
        res = 1e-8 * gt  # tolerance the IP crossings are solved to
        # the second IP sits where the resonant pair amplitude nulls, so its
        # true offset (~1e-6 rad/s) is below the solve resolution; its
        # downward drift is asserted within that resolution, the first IP's
        # strictly
        ok = all(b < a for a, b in zip(d1, d1[1:])) and all(
            b < a + res for a, b in zip(d2, d2[1:])
        )
        line = report(
            5,
            ok,
            f"first-IP delta0 {d1[0]:.3f} -> {d1[1]:.3f} -> {d1[2]:.3f} rad/s "
            f"(strictly decreasing), second-IP {d2[0]:.2e} -> {d2[1]:.2e} -> "
            f"{d2[2]:.2e} rad/s (all below the {res:.1e} rad/s solve "
            f"resolution; non-increasing within it)",
        )
        assert ok, line

    def test_criterion_6_thick_medium_shifts_first_ip(self, atom):
        family = bessel_family(
            epsilon=0.0, k_max=5, total_power=POWER, Omega=OMEGA
        )
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = ModulationParams(a=0.2, omega_m=0.5 * gt)
        grid = np.linspace(2.0, 2.8, 9)
        length = 0.02
        ips = []
        gaps = []
        for beta_l in (0.0, 0.16, 0.43):
            cell = CellParams(length=length, beta=beta_l / length, n_slabs=64)
            res = find_ips_and_pzds(
                atom, mod, family, grid, path="thick", cell=cell
            )
            assert len(res.ip_roots) == 1
            ips.append(res.ip_roots[0].m)
            gaps.append(res.ip_roots[0].m_gap)
        ok = (
            ips[1] < ips[0]
            and ips[2] < ips[1]
            and abs(gaps[1]) > 1e-3
            and abs(gaps[2]) > 1e-3
        )
        line = report(
            6,
            ok,
            f"first-IP m = {ips[0]:.5f} -> {ips[1]:.5f} -> {ips[2]:.5f} over "
            f"beta*l = 0, 0.16, 0.43 (decreasing); IP-PZD m gaps "
            f"{gaps[0]:.1e}, {gaps[1]:.4f}, {gaps[2]:.4f} (nonzero for "
            f"beta > 0)",
        )
        assert ok, line

    def test_criterion_7_symmetrizing_detuning(self):
        root_mhz = symmetrizing_detuning(
            TWO_PI * 1000e6, TWO_PI * 816.656e6
        ) / (TWO_PI * 1e6)
        ok_root = abs(root_mhz - (-157.0)) <= 2.0

        sym_atom = make_atom(
            Delta_L=symmetrizing_detuning(GAMMA_OPT, OMEGA_E, 1.0 / 3.0)
        )
        skew = pair_spectrum(ratio=(1.3 / 0.7) ** 2)
        even = pair_spectrum(ratio=1.0)
        gt = derive_couplings(sym_atom, even).Gamma_g_tilde
        mod = ModulationParams(a=0.2, omega_m=0.5 * gt)
        das = asymmetry_shift(sym_atom, skew, mod).delta_as
        ok_das = abs(das) < 1e-6

        root_skew = zero_crossing(
            sym_atom, skew, mod, path="time-domain", allow_asymmetric=True
        )
        root_even = zero_crossing(sym_atom, even, mod, path="time-domain")
        gap = abs(root_skew - root_even)
        ok_cross = gap <= 2.0 * 1e-4 * gt
        ok = ok_root and ok_das and ok_cross
        line = report(
            7,
            ok,
            f"K = 0 detuning at Gamma/2pi = 1000 MHz: {root_mhz:.4f} MHz "
            f"(gate -157 +- 2); |delta_as| there = {abs(das):.1e} rad/s; "
            f"skewed vs even time-domain crossings differ by "
            f"{gap / gt:.2e}*Gt (gate 2e-4)",
        )
        assert ok, line

    def test_criterion_8_full_model_validates_elimination(self):
        atom = make_atom(Gamma_g=TWO_PI * 2000.0)
        spec = pair_spectrum(total_power=(TWO_PI * 400e3) ** 2)
        c = derive_couplings(atom, spec)
        gt = c.Gamma_g_tilde
        mod = ModulationParams(a=0.0, omega_m=gt)
        errs, scale, sat = [], [], 0.0
        for delta in np.linspace(-1.5, 1.5, 41) * gt:
            amps = fourier_amplitudes(c, delta, mod)
            reduced = kappa(atom, c, amps.G0, 1.0 - amps.G0, amps.C0)
            full = steady_state_full_lambda(
                atom, spec.amplitude(-1), spec.amplitude(1), delta
            )
            excited = full.rho_uu + full.rho_dd
            errs.append(abs(reduced - excited))
            scale.append(excited)
            sat = max(sat, excited)
        sup = max(errs) / max(scale)
        ok = sup <= 0.02
        line = report(
            8,
            ok,
            f"reduced vs full lineshape sup deviation {100 * sup:.3f}% over "
            f"|2delta| <= 3*Gt (gate 2%); max excited population {sat:.1e}",
        )
        assert ok, line

    def test_criterion_9_servo_minima_sit_on_ips(self, atom):
        family = bessel_family(
            epsilon=0.2, k_max=5, total_power=POWER, Omega=OMEGA
        )
        gt = derive_couplings(atom, family(2.4)).Gamma_g_tilde
        mod = ModulationParams(a=0.2, omega_m=0.5 * gt)

        grid = np.linspace(2.0, 3.2, 25)
        res = find_ips_and_pzds(atom, mod, family, grid)
        assert len(res.ip_roots) == 1
        ip_m = res.ip_roots[0].m
        step = float(grid[1] - grid[0])

        trace = servo_lock_experiment(
            atom,
            mod,
            family,
            ServoScenario(
                m_start=2.0,
                m_stop=3.2,
                n_steps=12000,
                gain=0.05,
                intensity_depth=0.3,
                intensity_period_steps=500,
            ),
        )
        m_min = float(trace.response_m[int(np.argmin(trace.response_amplitude))])
        gap = abs(m_min - ip_m)
        ok = not trace.lock_lost and gap <= step
        line = report(
            9,
            ok,
            f"servo response minimum at m = {m_min:.4f} vs refined IP at "
            f"{ip_m:.4f}: gap {gap:.4f} <= grid step {step:.2f}; lock held "
            f"for all {trace.m.size} steps",
        )
        assert ok, line

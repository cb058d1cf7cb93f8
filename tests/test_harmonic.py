"""Fourier-amplitude solve, lock-in signal assembly, and the closed forms."""

import hashlib
import math
import random
import warnings

import numpy as np
import pytest

from conftest import (
    E_TOTAL,
    GAMMA_G,
    OMEGA,
    POWER,
    fourier_amplitudes,
    make_atom,
    make_modulation,
    make_spectrum,
    public_solve,
)
from cptsim import (
    CellParams,
    ModulationParams,
    ParameterError,
    asymmetry_shift,
    averaged_signal,
    bessel_spectrum,
    derive_couplings,
    harmonic,
    harmonic_signals,
    integrate_ground_state,
    linearized_signals,
    lockin,
    make_signal_function,
    solve_fourier_amplitudes,
    zero_crossing,
)
from cptsim.core import amplitude_couplings


def centered_delta(atom, spectrum, offset_2delta_tilde: float) -> float:
    """Detuning delta at a given dressed offset 2*delta_tilde."""
    c = derive_couplings(atom, spectrum)
    return (offset_2delta_tilde - c.delta_r - c.delta_nr) / 2.0


def stationary_oracle(couplings, two_delta_tilde):
    """Independent modulation-off solve of (G0, C0) as a real 3x3 system."""
    c = couplings
    gt, K, sd = c.Gamma_g_tilde, c.K, two_delta_tilde
    # rows: Re/Im of (sd + i gt) C0 = 2 K G0 - K + i V_LR, then the G0 balance
    A = np.array(
        [
            [sd, -gt, -2.0 * K],
            [gt, sd, 0.0],
            [0.0, -2.0 * K, gt],
        ]
    )
    b = np.array([-K, c.V_LR, c.V_R + GAMMA_G / 2.0])
    x = np.linalg.solve(A, b)
    return complex(x[0], x[1]), x[2]


class TestFourierSystem:
    """The system is generated from its two equations, laid out by one map."""

    def test_table_is_the_hand_written_one_bit_for_bit(self):
        # the digest of the table that listed its entries row by row
        table = harmonic._TABLE
        digest = hashlib.sha256(table.astype("<f8").tobytes()).hexdigest()
        assert digest == (
            "5fdfbd3900a3e5c031ac4339d3dcb80e063e7a0b8ed59847a8dc6b4944a59dec"
        )
        assert table.flags.c_contiguous and table.shape == (5, harmonic.SIZE**2)
        assert harmonic.C == {0: (0, 1), 1: (2, 3), -1: (4, 5), 2: (6, 7), -2: (8, 9)}
        assert harmonic.G == {0: (10, None), 1: (11, 12), 2: (13, 14)}

    @pytest.mark.parametrize("seed", range(4))
    def test_matrix_applies_the_two_equations(self, seed):
        rng = np.random.default_rng(seed)
        N = harmonic.HARMONICS
        gt, aw, w = rng.uniform(0.1, 2.0, 3)
        K, sd = rng.uniform(0.1, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
        Cs = {k: complex(*rng.normal(size=2)) for k in range(-N, N + 1)}
        Gs = {k: complex(*rng.normal(size=2)) if k else complex(rng.normal())
              for k in range(N + 1)}
        x = np.zeros(harmonic.SIZE)
        for amps, layout in ((Cs, harmonic.C), (Gs, harmonic.G)):
            for k, (re, im) in layout.items():
                x[re] = amps[k].real
                if im is not None:
                    x[im] = amps[k].imag
        Ax = harmonic._fourier_matrix(np.array([gt, K, aw, w, sd])) @ x

        def G(k):
            return Gs[k] if k >= 0 else Gs[-k].conjugate()

        expected = {}
        for k, (re, im) in harmonic.C.items():  # coherence, C_{+-(N+1)} dropped
            near = Cs.get(k - 1, 0.0) + Cs.get(k + 1, 0.0)
            v = (sd + k * w + 1j * gt) * Cs[k] + aw * near - 2 * K * G(k)
            expected[re], expected[im] = v.real, v.imag
        for k, (re, im) in harmonic.G.items():  # population
            v = (k * w + 1j * gt) * Gs[k] - K * (Cs[k] - Cs[-k].conjugate())
            if k:
                expected[re], expected[im] = v.real, v.imag
            else:  # only its Im part is a row, at G_0's position
                expected[re] = v.imag
        assert sorted(expected) == list(range(harmonic.SIZE))
        assert list(Ax) == pytest.approx(
            [expected[i] for i in range(harmonic.SIZE)], rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_is_rejected(self, atom, bad):
        # harmonic_signals and linearized_signals check through the other two
        spec = make_spectrum(m=2.4, epsilon=0.0)
        c = derive_couplings(atom, spec)
        mod = make_modulation(a=0.2, omega_m=c.Gamma_g_tilde)
        cell = CellParams(length=0.02, beta=0.43 / 0.02)
        solve, average = "solve_fourier_amplitudes", "averaged_signal"
        calls = [
            (solve, lambda: solve_fourier_amplitudes(c, bad, mod)),
            (solve, lambda: harmonic_signals(atom, spec, mod, bad)),
            (average, lambda: linearized_signals(atom, spec, mod, bad)),
            (average, lambda: averaged_signal(atom, spec, mod, cell, bad)),
        ]
        for owner, call in calls:
            match = f"^{owner}.delta must be finite, got {bad}$"
            with pytest.raises(ParameterError, match=match):
                call()


class TestFourierAmplitudes:
    def test_modulation_off_matches_stationary_oracle(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        mod = ModulationParams(a=0.0, omega_m=0.5 * c.Gamma_g_tilde)
        for off in (-0.3 * c.Gamma_g_tilde, 0.0, 0.2 * c.Gamma_g_tilde):
            amps = fourier_amplitudes(c, centered_delta(atom, spec, off), mod)
            C0_ref, G0_ref = stationary_oracle(c, off)
            assert amps.C0.real == pytest.approx(C0_ref.real, rel=1e-10)
            assert amps.C0.imag == pytest.approx(C0_ref.imag, rel=1e-10)
            assert amps.G0 == pytest.approx(G0_ref, rel=1e-10)
            for name in ("C1", "Cm1", "C2", "Cm2", "G1", "G2"):
                assert abs(getattr(amps, name)) <= 1e-15 * abs(amps.C0)

    def test_zero_K_kills_population_harmonics(self, sym_atom):
        spec = make_spectrum(m=2.4, epsilon=0.0)
        c = derive_couplings(sym_atom, spec)
        assert c.K == pytest.approx(0.0, abs=1e-12 * c.V_LR)
        mod = make_modulation(a=0.2, omega_m=0.7 * c.Gamma_g_tilde)
        amps = fourier_amplitudes(
            c, centered_delta(sym_atom, spec, 0.1 * c.Gamma_g_tilde), mod
        )
        assert abs(amps.G1) <= 1e-12 * max(abs(amps.C1), 1e-30)
        assert abs(amps.G2) <= 1e-12 * max(abs(amps.C1), 1e-30)

    def test_G0_stays_in_unit_interval(self, atom):
        rng = np.random.default_rng(17)
        for _ in range(30):
            spec = make_spectrum(
                m=float(rng.uniform(0.5, 4.0)),
                epsilon=float(rng.uniform(0.0, 0.3)),
            ).scaled(float(rng.uniform(0.3, 3.0)))
            c = derive_couplings(atom, spec)
            mod = ModulationParams(
                a=float(rng.uniform(0.0, 0.3)),
                omega_m=float(rng.uniform(0.2, 2.0)) * c.Gamma_g_tilde,
            )
            delta = centered_delta(
                atom, spec, float(rng.uniform(-0.5, 0.5)) * c.Gamma_g_tilde
            )
            amps = fourier_amplitudes(c, delta, mod)
            assert -1e-9 <= amps.G0 <= 1.0 + 1e-9

    def test_index_halving_scales_harmonics(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        delta = centered_delta(atom, spec, 0.1 * c.Gamma_g_tilde)
        w = 0.5 * c.Gamma_g_tilde
        full = fourier_amplitudes(c, delta, ModulationParams(a=0.2, omega_m=w))
        half = fourier_amplitudes(c, delta, ModulationParams(a=0.1, omega_m=w))
        assert abs(full.C1) / abs(half.C1) == pytest.approx(2.0, rel=0.05)
        assert abs(full.Cm1) / abs(half.Cm1) == pytest.approx(2.0, rel=0.05)
        assert abs(full.C2) / abs(half.C2) == pytest.approx(4.0, rel=0.05)
        assert abs(full.Cm2) / abs(half.Cm2) == pytest.approx(4.0, rel=0.05)


class TestSignals:
    def test_matches_time_domain_at_moderate_index(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        mod = make_modulation(a=0.2, omega_m=0.5 * c.Gamma_g_tilde)
        delta = centered_delta(atom, spec, 0.3 * c.Gamma_g_tilde)
        fast = harmonic_signals(atom, spec, mod, delta)
        ref = lockin(integrate_ground_state(atom, spec, mod, delta))
        scale = max(abs(ref.S), abs(ref.Q))
        assert fast.S == pytest.approx(ref.S, abs=0.01 * scale)
        assert fast.Q == pytest.approx(ref.Q, abs=0.01 * scale)

    def test_odd_in_dressed_detuning_at_zero_K(self, sym_atom):
        spec = make_spectrum(m=2.4, epsilon=0.0)
        c = derive_couplings(sym_atom, spec)
        mod = make_modulation(a=0.2, omega_m=0.5 * c.Gamma_g_tilde)
        for off in (0.1, 0.35):
            up = harmonic_signals(
                sym_atom, spec, mod, centered_delta(sym_atom, spec, off * c.Gamma_g_tilde)
            )
            dn = harmonic_signals(
                sym_atom, spec, mod, centered_delta(sym_atom, spec, -off * c.Gamma_g_tilde)
            )
            assert up.S == pytest.approx(-dn.S, rel=1e-10)
            assert up.Q == pytest.approx(-dn.Q, rel=1e-10)

    def test_detection_phase_rotation(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        delta = centered_delta(atom, spec, 0.2 * c.Gamma_g_tilde)
        plain = harmonic_signals(
            atom, spec, make_modulation(omega_m=0.5 * c.Gamma_g_tilde), delta
        )
        rotated = harmonic_signals(
            atom,
            spec,
            make_modulation(omega_m=0.5 * c.Gamma_g_tilde, alpha=0.7),
            delta,
        )
        ref = plain.at_phase(0.7)
        assert rotated.S == pytest.approx(ref.S, rel=1e-12)
        assert rotated.Q == pytest.approx(ref.Q, rel=1e-12)


class TestLinearized:
    def test_matches_harmonic_at_small_index(self, atom):
        # a = 0.1, symmetric spectrum, window |2 delta_tilde| <= 0.1 width
        spec = make_spectrum(m=2.4, epsilon=0.0)
        c = derive_couplings(atom, spec)
        mod = make_modulation(a=0.1, omega_m=c.Gamma_g_tilde)
        offsets = np.linspace(-0.1, 0.1, 9) * c.Gamma_g_tilde
        S_h, S_l, Q_h, Q_l = [], [], [], []
        for off in offsets:
            delta = centered_delta(atom, spec, off)
            h = harmonic_signals(atom, spec, mod, delta)
            l = linearized_signals(atom, spec, mod, delta)
            S_h.append(h.S)
            S_l.append(l.S)
            Q_h.append(h.Q)
            Q_l.append(l.Q)
        S_scale = max(abs(s) for s in S_h)
        Q_scale = max(abs(q) for q in Q_h)
        assert max(abs(a - b) for a, b in zip(S_h, S_l)) <= 0.02 * S_scale
        # the quadrature closed form drops detuning-cubic terms and plateaus
        # near 2.5% against the exact solve at every omega_m; pin it at 4%
        assert max(abs(a - b) for a, b in zip(Q_h, Q_l)) <= 0.04 * Q_scale

    def test_slope_equals_amplitude_parameter(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        mod = make_modulation(a=0.2, omega_m=0.5 * c.Gamma_g_tilde)
        sb = asymmetry_shift(atom, spec, mod)
        h = 0.01 * c.Gamma_g_tilde
        delta = centered_delta(atom, spec, 0.0)
        up = linearized_signals(atom, spec, mod, delta + h).S
        dn = linearized_signals(atom, spec, mod, delta - h).S
        # linearized S is affine in delta, so the central difference is exact
        assert (up - dn) / (2.0 * h) == pytest.approx(2.0 * sb.A, rel=1e-9)

    def test_root_identity(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        for w in (0.25, 1.0):
            mod = make_modulation(a=0.2, omega_m=w * c.Gamma_g_tilde)
            sb = asymmetry_shift(atom, spec, mod)
            root = zero_crossing(
                atom,
                spec,
                mod,
                path="linearized",
                xtol=1e-13 * c.Gamma_g_tilde,
                allow_asymmetric=True,
            )
            assert abs(root - sb.delta_0_predicted) <= 1e-10 * c.Gamma_g_tilde

    def test_predicted_root_is_half_total_shift(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        sb = asymmetry_shift(atom, spec, make_modulation(omega_m=0.5 * c.Gamma_g_tilde))
        assert sb.delta_0_predicted == pytest.approx(
            -(sb.delta_r + sb.delta_nr + sb.delta_as) / 2.0, rel=1e-14
        )

    def test_delta_as_doubles_at_modulation_equal_width(self, atom):
        """delta_as equals the harmonic crossing displacement at small index.

        At a = 0.01 the harmonic zero crossing, less the static shifts, is
        -(2 delta_0 + delta_r + delta_nr); it must match the closed-form
        delta_as both at omega_m = Gamma_g_tilde and at omega_m -> 0, so
        delta_as does not double between the two, as a factor
        (Gt^2 + omega_m^2)/Gt^2 would make it.
        """
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        gt = c.Gamma_g_tilde
        for w in (gt, 1e-6 * gt):
            mod = make_modulation(a=0.01, omega_m=w)
            root = zero_crossing(
                atom, spec, mod, path="harmonic",
                xtol=1e-10 * gt, allow_asymmetric=True,
            )
            measured = -(2.0 * root + c.delta_r + c.delta_nr)
            delta_as = asymmetry_shift(atom, spec, mod).delta_as
            assert delta_as == pytest.approx(measured, rel=1e-3)

    def test_delta_as_nonlinear_in_power(self, atom):
        """delta_as doubles with power, like delta_r and delta_nr.

        K scales as E^2 and the sideband ratio calV_L/calV_R does not
        depend on power, so the first-order budget is linear in power; the
        crossing's intensity nonlinearity comes from higher orders on the
        harmonic path (acceptance criteria 4, 5 and 9).
        """
        spec = make_spectrum(m=2.4, epsilon=0.2)
        mod = make_modulation(
            omega_m=derive_couplings(atom, spec).Gamma_g_tilde
        )
        base = asymmetry_shift(atom, spec, mod)
        up = asymmetry_shift(atom, spec.scaled(2.0), mod)
        assert up.delta_r == pytest.approx(2.0 * base.delta_r, rel=1e-12)
        assert up.delta_nr == pytest.approx(2.0 * base.delta_nr, rel=1e-12)
        assert up.delta_as == pytest.approx(2.0 * base.delta_as, rel=1e-12)

    def test_coefficients_match_harmonic_first_order(self, atom):
        # intercept and slope in 2 delta_tilde of S and Q, against the
        # harmonic path at a = 1e-5 rescaled to a = 0.2: the O(a) limit the
        # closed forms are the first-order-in-K expansion of
        spec = make_spectrum(m=2.4, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        h = 1e-3 * gt
        scale = 0.2 / 1e-5
        for w_frac in (0.05, 0.25, 0.5, 1.0):
            w = w_frac * gt
            lin_mod = make_modulation(a=0.2, omega_m=w)
            exact_mod = make_modulation(a=1e-5, omega_m=w)
            deltas = [centered_delta(atom, spec, off) for off in (-h, 0.0, h)]
            lin = [linearized_signals(atom, spec, lin_mod, d) for d in deltas]
            exact = [harmonic_signals(atom, spec, exact_mod, d) for d in deltas]
            for part in ("S", "Q"):
                l = [getattr(r, part) for r in lin]
                e = [scale * getattr(r, part) for r in exact]
                assert l[1] == pytest.approx(e[1], rel=2e-3)
                assert (l[2] - l[0]) / (2.0 * h) == pytest.approx(
                    (e[2] - e[0]) / (2.0 * h), rel=2e-3
                )

    def test_validity_warnings(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        mod = make_modulation(a=0.2, omega_m=0.5 * c.Gamma_g_tilde)
        far = linearized_signals(
            atom, spec, mod, centered_delta(atom, spec, 0.5 * c.Gamma_g_tilde)
        )
        assert any("2 delta_tilde" in w for w in far.warnings)
        big_a = linearized_signals(
            atom,
            spec,
            ModulationParams(a=0.7, omega_m=0.5 * c.Gamma_g_tilde),
            centered_delta(atom, spec, 0.0),
        )
        assert any("a = 0.7" in w for w in big_a.warnings)
        # the warning window is the one criterion 1 gates at 2%
        edge = linearized_signals(
            atom, spec, mod, centered_delta(atom, spec, 0.1 * c.Gamma_g_tilde)
        )
        assert any("2 delta_tilde" in w for w in edge.warnings)
        clean = linearized_signals(
            atom, spec, mod, centered_delta(atom, spec, 0.04 * c.Gamma_g_tilde)
        )
        assert clean.warnings == ()


class TestHarmonicLanes:
    """Lane arrays take the one-spectrum arithmetic, bit for bit."""

    def test_lockin_weights_equal_python_floats(self, atom):
        rng = np.random.default_rng(22)
        L, R = rng.uniform(0.0, 2.0, (2, 10_000)) * E_TOTAL
        pref, dV2, VV = harmonic._lockin_weights(atom, 1.7, L, R)
        Ls, Rs = L.tolist(), R.tolist()
        assert dV2.tolist() == [l**2 - r**2 for l, r in zip(Ls, Rs)]
        assert VV.tolist() == [l * r for l, r in zip(Ls, Rs)]
        assert pref == harmonic._lockin_weights(atom, 1.7, Ls[0], Rs[0])[0]
        # the draw holds values whose x * x rounds unlike x ** 2
        assert any(l * l != l**2 for l in Ls)

    @pytest.mark.parametrize("w_frac, alpha", [(0.1, 0.0), (0.5, 0.4), (1.5, -0.9)])
    def test_lanes_equal_one_spectrum_signals(self, atom, w_frac, alpha):
        lanes, specs, deltas, mod = random_lanes(atom, w_frac, alpha)
        singles = [make_signal_function(atom, s, mod) for s in specs]
        S = [float(one(d)) for one, d in zip(singles, deltas)]
        assert lanes(np.array(deltas)).tolist() == S
        assert lanes.power_sensitivity(np.array(deltas)).tolist() == [
            float(one.power_sensitivity(d)) for one, d in zip(singles, deltas)
        ]
        # the servo steps lane j at the delta left by lanes 0 .. j-1
        gain, slope = 0.5, asymmetry_shift(atom, specs[0], mod).A
        expected, delta = [], deltas[0]
        for one in singles:
            expected.append(delta)
            delta = delta - gain * float(one(delta)) / (2.0 * slope)
        servo_deltas, lost_at = lanes.servo(deltas[0], gain, slope, math.inf)
        assert (servo_deltas.tolist(), lost_at) == (expected, None)


def random_lanes(atom, w_frac, alpha, n=40):
    """(HarmonicSignal over n random spectra, the spectra, a random delta
    per lane, the modulation)."""
    rng = random.Random(22)
    specs = [
        bessel_spectrum(
            rng.uniform(1.6, 3.4), rng.uniform(-0.4, 0.4), 5,
            POWER * rng.uniform(0.5, 1.5), OMEGA,
        )
        for _ in range(n)
    ]
    gt = derive_couplings(atom, specs[0]).Gamma_g_tilde
    mod = ModulationParams(a=0.2, omega_m=w_frac * gt, alpha=alpha)
    amps = {k: np.array([s.components[k] for s in specs]) for k in range(-5, 6)}
    lanes = harmonic.HarmonicSignal(atom, amplitude_couplings(atom, amps, OMEGA), mod)
    return lanes, specs, [rng.uniform(-gt, gt) for _ in specs], mod


class TestSolve:
    """`harmonic._solve` calls numpy's solve gufunc without its wrapper."""

    def test_equals_public_numpy_solve(self, atom, monkeypatch):
        solve, calls = harmonic._solve, []

        def record(A, b, width, omega_m):
            calls.append((A, b))
            return public_solve(A, b)

        monkeypatch.setattr(harmonic, "_solve", record)
        spec = make_spectrum(m=2.4, epsilon=0.2)
        mod = make_modulation(omega_m=0.5 * derive_couplings(atom, spec).Gamma_g_tilde)
        solve_fourier_amplitudes(derive_couplings(atom, spec), 1e3, mod)
        lanes, _, deltas, _ = random_lanes(atom, 0.5, 0.4)
        lanes.power_sensitivity(np.array(deltas))
        one, stack, transposed = calls
        assert one[1].ndim == 1 and stack[1].shape == transposed[1].shape == (40, 15)
        assert not transposed[0].flags.c_contiguous
        for A, b in calls:
            x = solve(A, b, None, None)
            assert np.array_equal(x, public_solve(A, b)), A.shape

    def test_singular_system_raises_parameter_error(self, atom, monkeypatch):
        lanes, _, deltas, _ = random_lanes(atom, 0.5, 0.4, n=4)
        monkeypatch.setattr(harmonic, "_TABLE", np.zeros_like(harmonic._TABLE))
        before = np.geterr()
        match = r"singular \(cond = inf\); Gamma_g_tilde = \S+, omega_m = \S+$"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParameterError, match=match):
                lanes(np.array(deltas))
            assert np.geterr() == before
            with pytest.raises(ParameterError, match=match):
                lanes.servo(deltas[0], 0.5, 1.0, math.inf)
            assert np.geterr() == before
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

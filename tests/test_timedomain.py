"""Time-domain integration, lock-in demodulation, and the 4-level oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    GAMMA_G,
    POWER,
    TWO_PI,
    fourier_amplitudes,
    kappa,
    make_atom,
    make_modulation,
    make_spectrum,
    pair_spectrum,
)
from cptsim import timedomain
from cptsim import (
    ModulationParams,
    ParameterError,
    TimeTrace,
    derive_couplings,
    harmonic_signals,
    integrate_ground_state,
    lockin,
    steady_state_full_lambda,
)


def dressed_center(atom, spectrum) -> float:
    c = derive_couplings(atom, spectrum)
    return -(c.delta_r + c.delta_nr) / 2.0


def rk4_loop(atom, spectrum, modulation, delta, start, t0, h, n_steps):
    """Step (rho22, rho11, Re rho21, Im rho21) by scalar fixed-step RK4.

    An independent statement of the reduced equations that
    `integrate_ground_state` solves; returns the n_steps + 1 states.
    """
    c = derive_couplings(atom, spectrum)
    sd = 2.0 * delta + c.delta_r + c.delta_nr
    wm = modulation.omega_m
    two_aw = 2.0 * modulation.a * wm
    gt, K = c.Gamma_g_tilde, c.K
    Gg = gt - c.V_L - c.V_R

    def deriv(t, y):
        p2, p1, u, v = y
        x = sd + two_aw * math.cos(wm * t)
        return (
            c.V_R * p1 - c.V_L * p2 + 2.0 * K * v - Gg * (p2 - 0.5),
            c.V_L * p2 - c.V_R * p1 - 2.0 * K * v - Gg * (p1 - 0.5),
            -x * v - gt * u + c.V_LR,
            x * u - gt * v - K * (p2 - p1),
        )

    def ahead(y, k, f):
        return tuple(yi + f * ki for yi, ki in zip(y, k))

    y, t = tuple(start), t0
    out = [y]
    for _ in range(n_steps):
        k1 = deriv(t, y)
        k2 = deriv(t + 0.5 * h, ahead(y, k1, 0.5 * h))
        k3 = deriv(t + 0.5 * h, ahead(y, k2, 0.5 * h))
        k4 = deriv(t + h, ahead(y, k3, h))
        y = tuple(
            yi + h * (d1 + 2.0 * d2 + 2.0 * d3 + d4) / 6.0
            for yi, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)
        )
        t += h
        out.append(y)
    return np.array(out)


def synthetic_trace(S=0.7, Q=-0.3, const=2.0, n_periods=4, spp=800, omega_m=1.0):
    t = np.arange(n_periods * spp + 1) * (2.0 * math.pi / omega_m / spp)
    kappa = const + S * np.cos(omega_m * t) + Q * np.sin(omega_m * t)
    pop = np.full_like(t, 0.5)
    return TimeTrace(
        t=t,
        rho22=pop,
        rho11=pop,
        rho21=np.zeros_like(t, dtype=complex),
        kappa=kappa,
        omega_m=omega_m,
        dt=t[1] - t[0],
        n_periods=n_periods,
    )


class TestLockin:
    def test_pure_tone_amplitudes(self):
        res = lockin(synthetic_trace(S=0.7, Q=-0.3, const=2.0))
        assert res.S == pytest.approx(0.7, abs=1e-12)
        assert res.Q == pytest.approx(-0.3, abs=1e-12)

    def test_alpha_equals_rotated_result(self):
        trace = synthetic_trace(S=0.4, Q=0.9)
        direct = lockin(trace, alpha=0.6)
        rotated = lockin(trace).at_phase(0.6)
        assert direct.S == pytest.approx(rotated.S, abs=1e-12)
        assert direct.Q == pytest.approx(rotated.Q, abs=1e-12)

    def test_rejects_partial_or_short_span(self):
        trace = synthetic_trace(n_periods=4)
        clipped = TimeTrace(
            t=trace.t[:-37],
            rho22=trace.rho22[:-37],
            rho11=trace.rho11[:-37],
            rho21=trace.rho21[:-37],
            kappa=trace.kappa[:-37],
            omega_m=trace.omega_m,
            dt=trace.dt,
            n_periods=4,
        )
        with pytest.raises(ParameterError, match="non-integer"):
            lockin(clipped)
        with pytest.raises(ParameterError, match=">= 4 periods"):
            lockin(synthetic_trace(n_periods=3))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        # a NaN phase would return S = Q = NaN and inf would warn in np.cos
        with pytest.raises(
            ParameterError, match=f"^lockin.alpha must be finite, got {alpha}$"
        ):
            lockin(synthetic_trace(S=0.4, Q=0.9), alpha=alpha)


class TestIntegration:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_is_rejected(self, atom, bad):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        mod = make_modulation(a=0.2, omega_m=derive_couplings(atom, spec).Gamma_g_tilde)
        match = f"^integrate_ground_state.delta must be finite, got {bad}$"
        with pytest.raises(ParameterError, match=match):
            integrate_ground_state(atom, spec, mod, bad)

    @pytest.mark.parametrize("w_frac, spp", [(2.0, 200), (0.5, 629)])
    def test_fixed_step_rule(self, atom, w_frac, spp):
        # dt <= (2 pi/omega_m)/200 and dt <= 0.02/Gamma_g_tilde, over 4 periods
        spec = make_spectrum(m=2.4, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=w_frac * gt)
        trace = integrate_ground_state(atom, spec, mod, 0.0)
        assert trace.dt == pytest.approx(2.0 * math.pi / mod.omega_m / spp, rel=1e-12)
        assert trace.n_periods == 4
        assert trace.t.size == 4 * spp + 1

    @pytest.mark.parametrize("a", [0.05, 0.5])
    @pytest.mark.parametrize("w_frac", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("d_frac", [-1.0, 0.0, 1.0])
    def test_step_count_within_the_width_is_set_by_period_and_width(
        self, atom, a, w_frac, d_frac
    ):
        # the rotation rule dt <= 0.2/(|x0| + |x1|) binds only beyond
        # 10 Gamma_g_tilde: within +-Gamma_g_tilde the count is unchanged
        spec = make_spectrum(m=2.4, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=a, omega_m=w_frac * gt)
        trace = integrate_ground_state(atom, spec, mod, d_frac * gt)
        spp = max(200, math.ceil(2.0 * math.pi / mod.omega_m * gt / 0.02))
        assert trace.t.size == 4 * spp + 1
        assert trace.dt == 2.0 * math.pi / mod.omega_m / spp

    @pytest.mark.parametrize("w_frac", [0.5, 1.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_far_detuning_stays_stable(self, atom, w_frac, sign):
        # at |delta| = 200 Gamma_g_tilde the period and width rules alone
        # gave h |x| near 8, past RK4's stability limit 2 sqrt(2): the orbit
        # overflowed to NaN.  The rotation rule keeps it on the harmonic signal
        spec = make_spectrum(m=2.4, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=w_frac * gt)
        delta = sign * 200.0 * gt
        trace = integrate_ground_state(atom, spec, mod, delta)
        assert np.isfinite(trace.kappa).all()
        S = lockin(trace).S
        assert S == pytest.approx(harmonic_signals(atom, spec, mod, delta).S, rel=1e-6)

    def test_period_beyond_the_step_bound_is_refused_before_allocating(self, atom):
        # omega_m = 1e-6 Gamma_g_tilde asks for 3.1e8 steps a period, some
        # 120 GB of trace
        spec = make_spectrum(m=2.4, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=1e-6 * gt)
        match = (
            r"^one modulation period needs 3\.14159e\+08 RK4 steps, more than "
            r"MAX_PERIOD_STEPS = 1048576 \(omega_m = 1e-06 Gamma_g_tilde\)$"
        )
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=match):
                integrate_ground_state(atom, spec, mod, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_grid_shape_and_population_sum(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        trace = integrate_ground_state(atom, spec, mod, dressed_center(atom, spec))
        assert trace.t[0] == 0.0
        period = 2.0 * math.pi / mod.omega_m
        spp = round(period / trace.dt)
        assert trace.t.size == trace.n_periods * spp + 1
        assert trace.t[-1] == pytest.approx(trace.n_periods * period, rel=1e-12)
        assert np.max(np.abs(trace.rho22 + trace.rho11 - 1.0)) < 1e-9
        assert np.max(np.abs(trace.rho21)) <= 0.5 + 1e-9

    def test_orbit_is_a_fixed_point_of_one_rk4_period(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        for w_frac, off in ((0.5, 0.0), (0.25, 0.1), (1.0, -0.2)):
            mod = make_modulation(a=0.2, omega_m=w_frac * gt)
            delta = dressed_center(atom, spec) + off * gt
            trace = integrate_ground_state(atom, spec, mod, delta)
            spp = round(2.0 * math.pi / mod.omega_m / trace.dt)
            orbit = np.column_stack(
                (trace.rho22, trace.rho11, trace.rho21.real, trace.rho21.imag)
            )
            states = rk4_loop(atom, spec, mod, delta, orbit[0], 0.0, trace.dt, spp)
            assert np.max(np.abs(states[-1] - states[0])) < 1e-12
            # the orbit's samples are the loop's, not only its endpoint
            assert np.max(np.abs(states[spp // 2] - orbit[spp // 2])) < 1e-12

    def test_lockin_equals_transient_loop(self, atom):
        # the periodic orbit is what a long transient relaxes to: 40 periods
        # from the relaxation equilibrium leave far less than e^-100
        spec = make_spectrum(m=2.4, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=0.2, omega_m=0.5 * gt)
        delta = dressed_center(atom, spec) + 0.1 * gt
        trace = integrate_ground_state(atom, spec, mod, delta)
        spp = round(2.0 * math.pi / mod.omega_m / trace.dt)
        transient, n_periods = 40, trace.n_periods
        states = rk4_loop(
            atom, spec, mod, delta, (0.5, 0.5, 0.0, 0.0),
            -transient * 2.0 * math.pi / mod.omega_m, trace.dt,
            (transient + n_periods) * spp,
        )[transient * spp:]
        p2, p1, u, v = states.T
        looped = TimeTrace(
            t=trace.t, rho22=p2, rho11=p1, rho21=u + 1j * v,
            kappa=kappa(atom, derive_couplings(atom, spec), p2, p1, u),
            omega_m=mod.omega_m, dt=trace.dt, n_periods=n_periods,
        )
        ref, res = lockin(looped), lockin(trace)
        assert res.S == pytest.approx(ref.S, rel=1e-9)
        assert res.Q == pytest.approx(ref.Q, rel=1e-9)

    def test_modulation_off_settles_to_dark_resonance(self, sym_atom):
        spec = make_spectrum(m=2.4, epsilon=0.0)
        gt = derive_couplings(sym_atom, spec).Gamma_g_tilde
        mod = ModulationParams(a=0.0, omega_m=0.5 * gt)
        on_res = integrate_ground_state(
            sym_atom, spec, mod, dressed_center(sym_atom, spec)
        )
        off_res = integrate_ground_state(
            sym_atom, spec, mod, dressed_center(sym_atom, spec) + 1.5 * gt
        )
        # stationary (no drive left) and darker on resonance than off
        assert np.ptp(on_res.kappa) < 1e-9 * on_res.kappa.mean()
        assert on_res.kappa.mean() < 0.5 * off_res.kappa.mean()

    def test_kappa_column_matches_absorption_helper(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        mod = make_modulation(a=0.2, omega_m=0.5 * c.Gamma_g_tilde)
        trace = integrate_ground_state(atom, spec, mod, dressed_center(atom, spec))
        for i in (0, 17, trace.t.size - 1):
            assert trace.kappa[i] == pytest.approx(
                kappa(atom, c, trace.rho22[i], trace.rho11[i], trace.rho21[i]),
                rel=1e-12,
            )

    def test_dark_state_absorbs_nothing(self, atom):
        c = derive_couplings(atom, make_spectrum(m=2.4, epsilon=0.0))
        assert kappa(atom, c, 0.5, 0.5, 0.5 + 0j) == pytest.approx(
            0.0, abs=1e-12 * c.calV_L**2
        )


class TestTotalProduct:
    """The pairwise reduction that carries a chunk to the period map."""

    @pytest.mark.parametrize("length", [*range(1, 34), 1000, 1023, 1025, 4096])
    def test_equals_the_scans_last_entry(self, atom, length):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        gt = c.Gamma_g_tilde
        maps = timedomain._rk4_step_maps(
            c, 0.01 * gt, 0.3 * gt, 0.4 * gt, 0.02 / gt, 5, 5 + length
        )
        total = timedomain._total_product(maps)
        assert np.array_equal(total, timedomain._prefix_products(maps)[-1])


class TestChunkedPeriod:
    """A period of more than CHUNK_STEPS steps is integrated chunk by chunk."""

    @staticmethod
    def long_period(atom):
        # omega_m = 0.01 Gamma_g_tilde: 31,416 steps per period, 8 chunks
        spec = make_spectrum(m=2.4, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        return spec, make_modulation(a=0.2, omega_m=0.01 * gt), 0.01 * gt

    def test_memory_beyond_the_trace_is_bounded_by_a_chunk(self, atom):
        spec, mod, delta = self.long_period(atom)
        tracemalloc.start()
        try:
            trace = integrate_ground_state(atom, spec, mod, delta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        steps = (len(trace.t) - 1) // trace.n_periods
        assert steps > 7 * timedomain.CHUNK_STEPS
        held = trace.rho22.base.nbytes + sum(
            a.nbytes for a in (trace.t, trace.rho11, trace.rho21, trace.kappa)
        )
        # holding the whole period's maps and products at once took about
        # 20 MB beyond the 8 MB trace here; a chunk's products are 0.5 MiB
        assert peak - held < 512 * timedomain.CHUNK_STEPS

    def test_chunks_equal_one_scan_of_the_period(self, atom, monkeypatch):
        spec, mod, delta = self.long_period(atom)
        chunked = lockin(integrate_ground_state(atom, spec, mod, delta), 0.3)
        monkeypatch.setattr(timedomain, "CHUNK_STEPS", 10**6)
        whole = lockin(integrate_ground_state(atom, spec, mod, delta), 0.3)
        assert chunked.S == pytest.approx(whole.S, rel=1e-12)
        assert chunked.Q == pytest.approx(whole.Q, rel=1e-12)


class TestAgainstHarmonicWaveform:
    def test_kappa_waveform_matches_fourier_reconstruction(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        mod = make_modulation(a=0.2, omega_m=0.5 * c.Gamma_g_tilde)
        delta = dressed_center(atom, spec) + 0.1 * c.Gamma_g_tilde
        trace = integrate_ground_state(atom, spec, mod, delta)
        amps = fourier_amplitudes(c, delta, mod)
        wt = mod.omega_m * trace.t
        rho22 = (
            amps.G0
            + 2.0 * (amps.G1 * np.exp(-1j * wt)).real
            + 2.0 * (amps.G2 * np.exp(-2j * wt)).real
        )
        rho21 = (
            amps.C0
            + amps.C1 * np.exp(-1j * wt)
            + amps.Cm1 * np.exp(1j * wt)
            + amps.C2 * np.exp(-2j * wt)
            + amps.Cm2 * np.exp(2j * wt)
        )
        reconstructed = kappa(atom, c, rho22, 1.0 - rho22, rho21)
        swing = trace.kappa.max() - trace.kappa.min()
        assert np.max(np.abs(reconstructed - trace.kappa)) <= 0.01 * swing

    def test_high_harmonics_hold_little_power(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        c = derive_couplings(atom, spec)
        mod = make_modulation(a=0.2, omega_m=0.5 * c.Gamma_g_tilde)
        delta = dressed_center(atom, spec) + 0.1 * c.Gamma_g_tilde
        trace = integrate_ground_state(atom, spec, mod, delta)
        # demodulate harmonics 1..6 over the integer-period span
        t, kappa = trace.t[:-1], trace.kappa[:-1]
        power = {}
        for k in range(1, 7):
            z = np.exp(-1j * k * mod.omega_m * t)
            power[k] = abs(np.sum(kappa * z) / t.size) ** 2
        modulated = sum(power.values())
        assert sum(power[k] for k in (3, 4, 5, 6)) <= 0.05 * modulated


class TestFullLambda:
    @pytest.mark.parametrize("bad", ["E_minus1", "E_plus1", "delta"])
    def test_non_finite_argument_is_rejected(self, atom, capfd, bad):
        # a NaN that reaches LAPACK prints a DLASCL error on stderr
        args = dict(E_minus1=1e6, E_plus1=1e6, delta=0.0) | {bad: math.nan}
        match = f"^steady_state_full_lambda.{bad} must be finite, got nan$"
        with pytest.raises(ParameterError, match=match):
            steady_state_full_lambda(atom, **args)
        assert capfd.readouterr().err == ""

    def test_fields_off_equilibrium(self, atom):
        state = steady_state_full_lambda(atom, 0.0, 0.0, 0.0)
        assert state.rho22 == pytest.approx(0.5, rel=1e-12)
        assert state.rho11 == pytest.approx(0.5, rel=1e-12)
        assert state.rho_uu == pytest.approx(0.0, abs=1e-15)
        assert state.rho_dd == pytest.approx(0.0, abs=1e-15)
        assert abs(state.sigma21) < 1e-15

    def test_trace_bound_and_positivity(self):
        atom = make_atom(Gamma_g=TWO_PI * 2000.0)
        spec = pair_spectrum(total_power=(TWO_PI * 400e3) ** 2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        for off in np.linspace(-1.5, 1.5, 7) * gt:
            st = steady_state_full_lambda(
                atom, spec.amplitude(-1), spec.amplitude(1), off / 2.0
            )
            # the ground feeding drives rho22+rho11 to 1 without recycling
            # the excited population, so the trace exceeds 1 by O(saturation)
            assert abs(st.trace - 1.0) <= 2.0 * (st.rho_uu + st.rho_dd)
            for pop in (st.rho_uu, st.rho_dd, st.rho22, st.rho11):
                assert pop >= -1e-12

    def test_matches_reduced_model_at_low_saturation(self):
        atom = make_atom(Gamma_g=TWO_PI * 2000.0)
        spec = pair_spectrum(total_power=(TWO_PI * 400e3) ** 2)
        c = derive_couplings(atom, spec)
        gt = c.Gamma_g_tilde
        mod = ModulationParams(a=0.0, omega_m=gt)
        errs, scale = [], []
        for off in np.linspace(-1.2, 1.2, 7) * gt:
            delta = (off - c.delta_r - c.delta_nr) / 2.0
            amps = fourier_amplitudes(c, delta, mod)
            reduced = kappa(atom, c, amps.G0, 1.0 - amps.G0, amps.C0)
            full = steady_state_full_lambda(
                atom, spec.amplitude(-1), spec.amplitude(1), delta
            )
            errs.append(abs(reduced - (full.rho_uu + full.rho_dd)))
            scale.append(full.rho_uu + full.rho_dd)
        assert max(errs) <= 0.02 * max(scale)

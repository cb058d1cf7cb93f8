"""Parameter types, derived couplings, and the Bessel spectrum builder."""

import math

import numpy as np
import pytest

from conftest import (
    DELTA_L,
    GAMMA_E,
    GAMMA_G,
    GAMMA_OPT,
    OMEGA,
    OMEGA_E,
    OMEGA_G,
    POWER,
    TWO_PI,
    make_atom,
    make_spectrum,
    pair_spectrum,
    resonant_attenuation,
)
from cptsim import (
    AtomParams,
    FieldSpectrum,
    LockInResult,
    ModulationParams,
    ParameterError,
    bessel_family,
    bessel_spectrum,
    derive_couplings,
    nonresonant_shift_components,
)
from cptsim.core import amplitude_couplings, bessel_amplitudes


def bessel_series(k: int, m: float) -> float:
    """Independent J_k(m) oracle: the defining power series."""
    total = 0.0
    for j in range(40):
        term = (-1.0) ** j * (m / 2.0) ** (k + 2 * j)
        term /= math.factorial(j) * math.factorial(k + j)
        total += term
    return total


class TestBesselSpectrum:
    def test_amplitude_ratios_match_power_series(self):
        m = 2.4
        spec = make_spectrum(m=m, epsilon=0.2)
        base = {k: abs(bessel_series(abs(k), m)) for k in range(-5, 6)}
        base[-1] *= 1.2
        base[1] *= 0.8
        for k in range(-5, 6):
            assert spec.amplitude(k) / spec.amplitude(0) == pytest.approx(
                base[k] / base[0], rel=1e-12
            )

    def test_total_power_is_exact(self):
        spec = make_spectrum(m=1.7, epsilon=0.1, total_power=POWER)
        assert spec.total_power == pytest.approx(POWER, rel=1e-12)
        assert math.fsum(a * a for a in spec.components.values()) == pytest.approx(
            POWER, rel=1e-12
        )

    def test_epsilon_skews_resonant_pair_only(self):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        ref = make_spectrum(m=2.4, epsilon=0.0)
        assert spec.amplitude(-1) / spec.amplitude(1) == pytest.approx(
            1.2 / 0.8, rel=1e-12
        )
        # other components keep their symmetric ratios
        assert spec.amplitude(2) / spec.amplitude(-2) == pytest.approx(1.0, rel=1e-12)
        assert ref.amplitude(-1) == pytest.approx(ref.amplitude(1), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            bessel_spectrum(m=-0.1, epsilon=0.0, k_max=5, total_power=1.0, Omega=OMEGA)
        with pytest.raises(ParameterError):
            bessel_spectrum(m=2.4, epsilon=1.0, k_max=5, total_power=1.0, Omega=OMEGA)
        with pytest.raises(ParameterError):
            bessel_spectrum(m=2.4, epsilon=0.0, k_max=1, total_power=1.0, Omega=OMEGA)
        with pytest.raises(ParameterError):
            bessel_spectrum(m=2.4, epsilon=0.0, k_max=5, total_power=0.0, Omega=OMEGA)

    @pytest.mark.parametrize("k_max", [5.0, "5"])
    def test_rejects_a_k_max_that_is_not_an_integer(self, k_max):
        match = f"k_max must be an integer, got {k_max!r}"
        with pytest.raises(ParameterError, match=match):
            bessel_spectrum(m=2.4, epsilon=0.0, k_max=k_max, total_power=1.0, Omega=OMEGA)
        with pytest.raises(ParameterError, match=match):
            bessel_amplitudes(np.array([2.0, 2.4]), 0.0, k_max, 1.0)


class TestBesselAmplitudes:
    """The m-array form of the Bessel spectrum and of its couplings."""

    MS = np.linspace(0.0, 5.0, 501)

    @pytest.mark.parametrize("k_max", [2, 5, 8])
    @pytest.mark.parametrize("epsilon", [0.0, 0.13, -0.4])
    def test_columns_equal_bessel_spectrum(self, k_max, epsilon):
        amps = bessel_amplitudes(self.MS, epsilon, k_max, POWER)
        assert amps.shape == (2 * k_max + 1, self.MS.size)
        for m, column in zip(self.MS.tolist(), amps.T.tolist()):
            spec = bessel_spectrum(m, epsilon, k_max, POWER, OMEGA)
            assert column == [a for _, a in spec.sorted_components()]

    @staticmethod
    def assert_couplings_equal(atom, amps, spectra):
        """The couplings of the columns of `amps` as one batch, field by
        field, against `derive_couplings` of each column's spectrum."""
        ks = range(-(len(amps) // 2), len(amps) // 2 + 1)
        batch = amplitude_couplings(atom, dict(zip(ks, amps)), OMEGA)
        for i, spectrum in enumerate(spectra):
            one = derive_couplings(atom, spectrum)
            for name, value in vars(one).items():
                batch_value = getattr(batch, name)  # P is shared, a float
                assert (batch_value if name == "P" else batch_value[i]) == value, (
                    name, i,
                )

    @pytest.mark.parametrize("k_max", [2, 5, 8])
    @pytest.mark.parametrize("epsilon", [-0.9, 0.13, 0.9])
    def test_array_couplings_equal_derive_couplings(self, k_max, epsilon):
        # the depths run from m = 0 (empty resonant pair) past the first
        # zero of J_1 at m = 3.8317
        amps = bessel_amplitudes(self.MS, epsilon, k_max, POWER)
        self.assert_couplings_equal(make_atom(), amps, (
            bessel_spectrum(m, epsilon, k_max, POWER, OMEGA) for m in self.MS.tolist()
        ))

    def test_servo_sized_batch_equals_derive_couplings(self):
        # 3,000 spectra, each scaled by its own intensity, as a servo run's
        ms = np.linspace(2.0, 2.8, 3000)
        intensity = 1.0 + 0.3 * np.sin(2.0 * math.pi * np.arange(3000) / 400)
        amps = bessel_amplitudes(ms, 0.2, 5, POWER) * np.sqrt(intensity)
        self.assert_couplings_equal(make_atom(), amps, (
            FieldSpectrum(OMEGA, dict(zip(range(-5, 6), column)))
            for column in amps.T.tolist()
        ))

    def test_rejects_a_negative_depth_in_the_array(self):
        with pytest.raises(ParameterError, match="m must be >= 0, got -0.1"):
            bessel_amplitudes(np.array([2.0, -0.1, 3.0]), 0.0, 5, POWER)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_depth_by_value(self, bad):
        # NaN compares False, so the >= 0 check alone would let it through
        match = f"modulation depth m must be finite, got {bad}$"
        with pytest.raises(ParameterError, match=match):
            bessel_amplitudes(bad, 0.0, 5, POWER)
        with pytest.raises(ParameterError, match=match):
            bessel_amplitudes(np.array([2.0, bad, 3.0]), 0.0, 5, POWER)
        with pytest.raises(ParameterError, match=match):
            bessel_family(0.0, 5, POWER, OMEGA).amplitudes(np.array([bad, 2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_total_power(self, bad):
        # NaN compares False, so the <= 0 check alone would let it through
        match = f"^bessel_amplitudes.total_power must be finite, got {bad}$"
        with pytest.raises(ParameterError, match=match):
            bessel_amplitudes(np.array([2.0, 2.4]), 0.0, 5, bad)
        with pytest.raises(ParameterError, match=match):
            bessel_spectrum(2.4, 0.0, 5, bad, OMEGA)


class TestFieldSpectrum:
    def test_rejects_bad_components(self):
        with pytest.raises(ParameterError):
            FieldSpectrum(Omega=OMEGA, components={})
        with pytest.raises(ParameterError):
            FieldSpectrum(Omega=OMEGA, components={1: -1.0, -1: 1.0})
        for index in (0.5, "1", math.nan, math.inf):
            with pytest.raises(ParameterError, match="index must be an integer"):
                FieldSpectrum(Omega=OMEGA, components={index: 1.0})
        with pytest.raises(ParameterError):
            FieldSpectrum(Omega=-1.0, components={1: 1.0})

    @pytest.mark.parametrize(
        "Omega,components",
        [
            (math.nan, {-1: 1.0, 1: 1.0}),
            (math.inf, {-1: 1.0, 1: 1.0}),
            (OMEGA, {-1: math.nan, 1: 1.0}),
            (OMEGA, {-1: 1.0, 1: math.inf}),
        ],
    )
    def test_rejects_non_finite(self, Omega, components):
        with pytest.raises(ParameterError, match="finite"):
            FieldSpectrum(Omega=Omega, components=components)

    def test_sigma_and_amplitude(self):
        spec = FieldSpectrum(Omega=OMEGA, components={-1: 3.0, 1: 4.0})
        assert spec.total_power == 25.0
        assert spec.sigma(-1) == pytest.approx(9.0 / 25.0)
        assert spec.amplitude(7) == 0.0

    def test_scaled_preserves_fractions(self):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        up = spec.scaled(1.7)
        assert up.total_power == pytest.approx(1.7 * spec.total_power, rel=1e-12)
        for k in spec.components:
            assert up.sigma(k) == pytest.approx(spec.sigma(k), rel=1e-12)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_scaled_rejects_non_finite_factor_by_name(self, factor):
        with pytest.raises(
            ParameterError,
            match=f"^FieldSpectrum.scaled.power_factor must be finite, got {factor}$",
        ):
            make_spectrum(m=2.4).scaled(factor)

    def test_resonant_attenuation_touches_only_first_sidebands(self):
        spec = make_spectrum(m=2.4)
        att = resonant_attenuation(spec, 0.25)
        assert att.amplitude(-1) == pytest.approx(0.5 * spec.amplitude(-1), rel=1e-12)
        assert att.amplitude(1) == pytest.approx(0.5 * spec.amplitude(1), rel=1e-12)
        for k in (-5, -4, -3, -2, 0, 2, 3, 4, 5):
            assert att.amplitude(k) == spec.amplitude(k)


class TestAtomAndModulationValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("omega_g", 0.0),
            ("omega_e", -1.0),
            ("Gamma", 0.0),
            ("Gamma_g", 0.0),
            ("gamma", -2.0),
            ("dipole_ratio_sq", 1.5),
            ("dipole_ratio_sq", -0.1),
        ],
    )
    def test_atom_rejects(self, field, value):
        with pytest.raises(ParameterError):
            make_atom(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("omega_g", math.nan),
            ("omega_e", math.inf),
            ("Gamma", math.nan),
            ("Gamma_g", math.inf),
            ("gamma", math.nan),
            ("dipole_ratio_sq", math.nan),
            ("Delta_L", math.nan),
            ("Delta_L", -math.inf),
        ],
    )
    def test_atom_rejects_non_finite(self, field, value):
        with pytest.raises(ParameterError, match=f"AtomParams.{field} must be finite"):
            make_atom(**{field: value})

    def test_wide_line_warns(self):
        # (Gamma/Omega)^2 crosses the adiabatic-elimination bound at 380 MHz
        with pytest.warns(UserWarning, match="adiabatic elimination"):
            make_atom(Gamma=TWO_PI * 380e6)

    def test_modulation_rejects(self):
        with pytest.raises(ParameterError):
            ModulationParams(a=-0.1, omega_m=1.0)
        with pytest.raises(ParameterError):
            ModulationParams(a=0.1, omega_m=0.0)
        assert ModulationParams(a=0.6, omega_m=1.0).beyond_recommended_index
        assert not ModulationParams(a=0.5, omega_m=1.0).beyond_recommended_index

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=math.nan, omega_m=1.0),
            dict(a=math.inf, omega_m=1.0),
            dict(a=0.2, omega_m=math.inf),
            dict(a=0.2, omega_m=math.nan),
            dict(a=0.2, omega_m=1.0, alpha=math.nan),
            dict(a=0.2, omega_m=1.0, alpha=math.inf),
        ],
    )
    def test_modulation_rejects_non_finite(self, kwargs):
        with pytest.raises(ParameterError, match="must be finite"):
            ModulationParams(**kwargs)


class TestLockInResult:
    def test_phase_rotation_composes(self):
        res = LockInResult(S=0.7, Q=-0.3)
        back = res.at_phase(0.4).at_phase(-0.4)
        assert back.S == pytest.approx(res.S, abs=1e-15)
        assert back.Q == pytest.approx(res.Q, abs=1e-15)

    def test_quarter_turn_swaps_channels(self):
        res = LockInResult(S=0.7, Q=-0.3)
        rot = res.at_phase(math.pi / 2.0)
        assert rot.S == pytest.approx(0.3, abs=1e-15)
        assert rot.Q == pytest.approx(0.7, abs=1e-15)


class TestDeriveCouplings:
    def test_requires_resonant_slots(self):
        atom = make_atom()
        with pytest.raises(ParameterError):
            derive_couplings(atom, FieldSpectrum(Omega=OMEGA, components={0: 1.0}))

    def test_frozen_dispersive_weight(self):
        # Gamma * (disp_u + r disp_d) at Gamma/2pi = 1000 MHz,
        # Delta_L/2pi = -87 MHz, omega_e/2pi = 817 MHz, r = 1/3
        with pytest.warns(UserWarning, match="adiabatic elimination"):
            atom = make_atom(
                Gamma=TWO_PI * 1000e6,
                Delta_L=-TWO_PI * 87e6,
                omega_e=TWO_PI * 817e6,
            )
        spec = pair_spectrum()
        c = derive_couplings(atom, spec)
        weight = atom.Gamma * c.K / (c.calV_L * c.calV_R)
        assert weight == pytest.approx(0.07239406985628868, rel=1e-13)

    def test_power_scaling(self):
        rng = np.random.default_rng(11)
        atom = make_atom()
        comps = {k: float(rng.uniform(0.1, 1.0)) * 1e4 for k in range(-3, 4)}
        spec = FieldSpectrum(Omega=OMEGA, components=comps)
        c1 = derive_couplings(atom, spec)
        c2 = derive_couplings(atom, spec.scaled(2.5))
        for name in ("V_L", "V_R", "V_LR", "K", "delta_r", "delta_nr"):
            assert getattr(c2, name) == pytest.approx(
                2.5 * getattr(c1, name), rel=1e-12
            )
        assert c2.P == pytest.approx(c1.P, rel=1e-15)
        assert c2.Gamma_g_tilde == pytest.approx(
            GAMMA_G + c2.V_L + c2.V_R, rel=1e-12
        )

    def test_P_range(self):
        rng = np.random.default_rng(7)
        spec = pair_spectrum()
        for _ in range(50):
            atom = make_atom(Delta_L=float(rng.uniform(-3, 3)) * OMEGA_E)
            c = derive_couplings(atom, spec)
            assert 0.0 < c.P <= 2.0

    def test_asymmetry_couplings_vanish_for_single_lambda_on_resonance(self):
        atom = make_atom(dipole_ratio_sq=0.0, Delta_L=0.0)
        c = derive_couplings(atom, make_spectrum(epsilon=0.3))
        assert c.K == 0.0
        assert c.delta_r == 0.0

    def test_delta_r_is_minus_K_times_imbalance(self):
        # delta_r = -(E_L^2 - E_R^2)(disp_u + r disp_d) = -K (E_L^2-E_R^2)/(E_L E_R)
        atom = make_atom()
        c = derive_couplings(atom, make_spectrum(epsilon=0.2))
        imbalance = (c.calV_L**2 - c.calV_R**2) / (c.calV_L * c.calV_R)
        assert c.delta_r == pytest.approx(-c.K * imbalance, rel=1e-12)
        sym = derive_couplings(atom, make_spectrum(epsilon=0.0))
        assert sym.delta_r == pytest.approx(0.0, abs=1e-9 * abs(c.delta_r))


class TestNonresonantShift:
    def test_weights_per_component(self):
        atom = make_atom()
        r = atom.dipole_ratio_sq
        E = 1e4
        expected = {
            -3: 0.25,
            -2: 2.0 / 3.0,
            -1: -0.5,
            0: -2.0,
            1: -0.5,
            2: 2.0 / 3.0,
            3: 0.25,
        }
        spec = FieldSpectrum(Omega=OMEGA, components={k: E for k in expected})
        parts = nonresonant_shift_components(atom, spec)
        for k, w in expected.items():
            assert parts[k] == pytest.approx(
                (1.0 + r) * E * E * w / OMEGA, rel=1e-12
            )

    def test_carrier_only_value(self):
        atom = make_atom()
        E = 2e4
        spec = FieldSpectrum(Omega=OMEGA, components={-1: 0.0, 0: E, 1: 0.0})
        c = derive_couplings(atom, spec)
        assert c.delta_nr == pytest.approx(
            -2.0 * (1.0 + atom.dipole_ratio_sq) * E * E / OMEGA, rel=1e-12
        )

    def test_total_against_double_sum_oracle(self):
        # independent form: sum over the two lambda pairings each component
        # detunes, skipping the resonant pairing
        rng = np.random.default_rng(23)
        atom = make_atom()
        comps = {k: float(rng.uniform(0.0, 1.0)) * 1e4 for k in range(-4, 5)}
        spec = FieldSpectrum(Omega=OMEGA, components=comps)
        total = 0.0
        for k, amp in comps.items():
            if k != 1:
                total += amp * amp / ((k - 1) * OMEGA)
            if k != -1:
                total -= amp * amp / ((k + 1) * OMEGA)
        total *= 1.0 + atom.dipole_ratio_sq
        c = derive_couplings(atom, spec)
        assert c.delta_nr == pytest.approx(total, rel=1e-12)

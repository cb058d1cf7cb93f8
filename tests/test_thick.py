"""Cell z-averaging: slab quadrature, thick roots, and the IP residual."""

import math

import pytest

from conftest import make_atom, make_modulation, make_spectrum
from cptsim import (
    CellParams,
    ParameterError,
    averaged_signal,
    derive_couplings,
    linearized_signals,
    thick_ip_residual,
    thick_zero_crossing,
    zero_crossing,
)

LENGTH = 0.02


def modulation_for(atom, spectrum, a=0.2, w=0.5):
    gt = derive_couplings(atom, spectrum).Gamma_g_tilde
    return make_modulation(a=a, omega_m=w * gt)


class TestAveragedSignal:
    def test_transparent_cell_equals_thin_signal(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.0)
        mod = modulation_for(atom, spec)
        cell = CellParams(length=LENGTH, beta=0.0, n_slabs=64)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        for off in (-0.05, 0.02, 0.08):
            delta = off * gt
            thick = averaged_signal(atom, spec, mod, cell, delta)
            thin = linearized_signals(atom, spec, mod, delta)
            assert thick.S == thin.S
            assert thick.Q == thin.Q

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_matches_per_slab_reference_loop(self, atom, alpha):
        # asymmetric spectrum with K != 0: every coupling moves along the cell
        spec = make_spectrum(m=2.4, epsilon=0.2)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        assert derive_couplings(atom, spec).K != 0.0
        mod = make_modulation(a=0.2, omega_m=0.5 * gt, alpha=alpha)
        cell = CellParams(LENGTH, 0.43 / LENGTH, 64)
        dz = LENGTH / 64
        for off in (-0.3, 0.05, 0.4):
            delta = off * gt
            slabs = [
                linearized_signals(
                    atom,
                    spec.with_resonant_attenuation(math.exp(-cell.beta * (i + 0.5) * dz)),
                    mod,
                    delta,
                )
                for i in range(64)
            ]
            res = averaged_signal(atom, spec, mod, cell, delta, allow_asymmetric=True)
            assert res.S == pytest.approx(sum(r.S for r in slabs) / 64, rel=1e-12)
            assert res.Q == pytest.approx(sum(r.Q for r in slabs) / 64, rel=1e-12)
            assert res.alpha == alpha

    def test_warnings_once_at_worst_slab(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.0)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        mod = make_modulation(a=0.7, omega_m=0.5 * gt)
        cell = CellParams(LENGTH, 0.43 / LENGTH, 64)
        res = averaged_signal(atom, spec, mod, cell, gt)
        worst = 0.0
        for i in range(64):
            slab = spec.with_resonant_attenuation(
                math.exp(-cell.beta * (i + 0.5) * LENGTH / 64)
            )
            c = derive_couplings(atom, slab)
            x = 2.0 * gt + c.delta_r + c.delta_nr
            worst = max(worst, abs(x) / c.Gamma_g_tilde)
            assert linearized_signals(atom, slab, mod, gt).warnings
        detuning = [w for w in res.warnings if "2 delta_tilde" in w]
        assert detuning == [
            f"|2 delta_tilde| = {worst:.3g} Gamma_g_tilde exceeds 0.05 Gamma_g_tilde"
        ]
        assert sum("a = 0.7" in w for w in res.warnings) == 1

    def test_slab_count_convergence(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.0)
        mod = modulation_for(atom, spec)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        delta = 0.1 * gt
        coarse = averaged_signal(
            atom, spec, mod, CellParams(LENGTH, 0.43 / LENGTH, 64), delta
        )
        fine = averaged_signal(
            atom, spec, mod, CellParams(LENGTH, 0.43 / LENGTH, 4096), delta
        )
        assert coarse.S == pytest.approx(fine.S, rel=1e-3)
        assert coarse.Q == pytest.approx(fine.Q, rel=1e-3)

    def test_asymmetric_needs_opt_in(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.2)
        mod = modulation_for(atom, spec)
        cell = CellParams(LENGTH, 0.163 / LENGTH, 64)
        with pytest.raises(ParameterError, match="symmetric resonant sidebands"):
            averaged_signal(atom, spec, mod, cell, 0.0)
        res = averaged_signal(atom, spec, mod, cell, 0.0, allow_asymmetric=True)
        assert math.isfinite(res.S) and math.isfinite(res.Q)


class TestThickRoots:
    def test_weighted_crossing_matches_signal_root(self, atom):
        spec = make_spectrum(m=2.3, epsilon=0.0)
        mod = modulation_for(atom, spec)
        gt = derive_couplings(atom, spec).Gamma_g_tilde
        cell = CellParams(LENGTH, 0.43 / LENGTH, 64)
        weighted = thick_zero_crossing(atom, spec, mod, cell)
        brentq_root = zero_crossing(
            atom, spec, mod, path="thick", cell=cell, xtol=1e-10 * gt
        )
        assert weighted == pytest.approx(brentq_root, abs=1e-6 * gt)

    def test_transparent_cell_root_is_half_shift(self, atom):
        spec = make_spectrum(m=2.3, epsilon=0.0)
        mod = modulation_for(atom, spec)
        c = derive_couplings(atom, spec)
        cell = CellParams(LENGTH, 0.0, 64)
        assert thick_zero_crossing(atom, spec, mod, cell) == pytest.approx(
            -c.delta_nr / 2.0, rel=1e-12
        )

    def test_thin_residual_equals_shift_slope(self, atom):
        # transparent cell: 2 delta_0 = -delta_nr and delta_nr scales with
        # E^2, so the residual d(-2 delta_0)/dE^2 must equal delta_nr / E^2
        spec = make_spectrum(m=2.3, epsilon=0.0)
        mod = modulation_for(atom, spec)
        c = derive_couplings(atom, spec)
        cell = CellParams(LENGTH, 0.0, 64)
        res = thick_ip_residual(atom, spec, mod, cell)
        assert res == pytest.approx(c.delta_nr / spec.total_power, rel=1e-6)

    def test_absorption_splits_ip_from_pzd(self, atom):
        # at the thin-limit PZD the thin residual vanishes; absorption
        # makes it finite, separating the two special points
        spec_pzd = make_spectrum(m=2.40483, epsilon=0.0)
        mod = modulation_for(atom, spec_pzd)
        thin = thick_ip_residual(
            atom, spec_pzd, mod, CellParams(LENGTH, 0.0, 64)
        )
        thick = thick_ip_residual(
            atom, spec_pzd, mod, CellParams(LENGTH, 0.43 / LENGTH, 64)
        )
        assert abs(thick) > 50.0 * abs(thin)

    def test_symmetric_only_guards(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.1)
        mod = modulation_for(atom, spec)
        cell = CellParams(LENGTH, 0.163 / LENGTH, 64)
        with pytest.raises(ParameterError, match="E_-1"):
            thick_zero_crossing(atom, spec, mod, cell)
        with pytest.raises(ParameterError, match="E_-1"):
            thick_ip_residual(atom, spec, mod, cell)

    def test_flat_signal_has_no_crossing(self, atom):
        spec = make_spectrum(m=2.3, epsilon=0.0)
        mod = make_modulation(a=0.0, omega_m=1e3)
        with pytest.raises(ParameterError, match="no slope"):
            thick_zero_crossing(atom, spec, mod, CellParams(LENGTH, 0.43 / LENGTH))

    def test_residual_step_validation(self, atom):
        spec = make_spectrum(m=2.4, epsilon=0.0)
        mod = modulation_for(atom, spec)
        cell = CellParams(LENGTH, 0.0, 64)
        with pytest.raises(ParameterError, match="rel_step"):
            thick_ip_residual(atom, spec, mod, cell, rel_step=0.5)


class TestCellParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            CellParams(length=0.0)
        with pytest.raises(ParameterError):
            CellParams(length=0.02, beta=-1.0)
        with pytest.raises(ParameterError):
            CellParams(length=0.02, n_slabs=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(length=math.nan),
            dict(length=math.inf),
            dict(length=0.02, beta=math.nan),
            dict(length=0.02, beta=math.inf),
        ],
    )
    def test_rejects_non_finite(self, kwargs):
        with pytest.raises(ParameterError, match="CellParams.* must be finite"):
            CellParams(**kwargs)

"""Per-call layer timings and work counts on the test-suite atom.

The committed form of the hand-taken layer table in ROADMAP.md: one median
per-call time for each layer, and the work counts of the two 9-point
IP/PZD sweeps.  Inputs are fixed (the test-suite atom of tests/conftest.py
at m = 2.4, a = 0.2, omega_m = Gamma_g_tilde/2), so the counts repeat
exactly and can be compared across machines; the timings cannot.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import cptsim
from cptsim import harmonic, sweep, thick, timedomain
from cptsim.core import bessel_spectrum, derive_couplings

from tracer import Tracer
from workloads import ATOM, K_MAX, OMEGA, TWO_PI

POWER = (TWO_PI * 750e3) ** 2
GRID9 = np.linspace(2.0, 2.8, 9)


def per_call_s(fn, batch: int, batches: int) -> float:
    """Median over `batches` of the mean time of `batch` back-to-back calls."""
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)


def _cases():
    spec = bessel_spectrum(2.4, 0.2, K_MAX, POWER, OMEGA)
    sym = bessel_spectrum(2.4, 0.0, K_MAX, POWER, OMEGA)
    c = derive_couplings(ATOM, spec)
    mod = cptsim.ModulationParams(a=0.2, omega_m=0.5 * c.Gamma_g_tilde)
    sym_gt = derive_couplings(ATOM, sym).Gamma_g_tilde
    sym_mod = cptsim.ModulationParams(a=0.2, omega_m=0.5 * sym_gt)
    cell = thick.CellParams(length=0.02, beta=0.43 / 0.02, n_slabs=64)
    family = sweep.bessel_family(0.2, K_MAX, POWER, OMEGA)
    sym_family = sweep.bessel_family(0.0, K_MAX, POWER, OMEGA)

    def td_point():
        trace = timedomain.integrate_ground_state(ATOM, spec, mod, 0.0)
        return timedomain.lockin(trace)

    # (metric, unit scale, batch, batches, call)
    timings = [
        ("micro.bessel_spectrum_us", 1e6, 200, 15,
         lambda: bessel_spectrum(2.4, 0.2, K_MAX, POWER, OMEGA)),
        ("micro.derive_couplings_us", 1e6, 500, 15,
         lambda: derive_couplings(ATOM, spec)),
        ("micro.fourier_solve_us", 1e6, 200, 15,
         lambda: harmonic.solve_fourier_amplitudes(c, 0.0, mod)),
        ("micro.harmonic_signals_us", 1e6, 200, 15,
         lambda: harmonic.harmonic_signals(ATOM, spec, mod, 0.0)),
        ("micro.linearized_signals_us", 1e6, 500, 15,
         lambda: harmonic.linearized_signals(ATOM, spec, mod, 0.0)),
        ("micro.averaged_signal_64_us", 1e6, 5, 15,
         lambda: thick.averaged_signal(ATOM, sym, sym_mod, cell, 0.0)),
        ("micro.td_point_ms", 1e3, 1, 9, td_point),
        ("micro.zc_harmonic_ms", 1e3, 20, 9,
         lambda: sweep.zero_crossing(ATOM, spec, mod, path="harmonic")),
        ("micro.zc_td_ms", 1e3, 1, 3,
         lambda: sweep.zero_crossing(ATOM, spec, mod, path="time-domain")),
        ("micro.ips_harmonic9_ms", 1e3, 1, 5,
         lambda: sweep.find_ips_and_pzds(ATOM, mod, family, GRID9)),
        ("micro.ips_thick9_ms", 1e3, 1, 3,
         lambda: sweep.find_ips_and_pzds(
             ATOM, sym_mod, sym_family, GRID9, path="thick", cell=cell)),
    ]
    counts = [
        ("micro.ips_harmonic9.fourier_solves", "harmonic.solve_fourier_amplitudes",
         lambda: sweep.find_ips_and_pzds(ATOM, mod, family, GRID9)),
        ("micro.ips_thick9.slab_evals", "thick.slab_linearized_signals",
         lambda: sweep.find_ips_and_pzds(
             ATOM, sym_mod, sym_family, GRID9, path="thick", cell=cell)),
    ]
    return timings, counts


def micro_table() -> tuple[dict[str, tuple[float, str]], list[str]]:
    """(metric -> (value, unit), missing bindings) for the layer table."""
    timings, counts = _cases()
    out: dict[str, tuple[float, str]] = {}
    for metric, scale, batch, batches, fn in timings:
        fn()  # deferred imports and first-call set-up stay out of the median
        unit = "us" if scale == 1e6 else "ms"
        out[metric] = (per_call_s(fn, batch, batches) * scale, unit)
    missing: list[str] = []
    for metric, span, fn in counts:
        tracer = Tracer()
        if span not in tracer.present:
            missing.extend(tracer.missing)
            continue
        with tracer.installed():
            tracer.op_id = 0
            fn()
        out[metric] = (float(tracer.calls[span]), "count")
    return out, sorted(set(missing))

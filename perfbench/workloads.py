"""The four benchmark workloads: seeded inputs, one op each, and its check.

Every workload draws its inputs from the benchmark seed; cptsim only ever
sees the generated parameters or YAML configs.  Each workload provides

* ``inputs(i)``: the inputs of op ``i`` (op 0 is the untimed warm-up),
* ``op(inputs)``: the timed call into cptsim's public API,
* ``check(inputs, answer)``: the correctness check, run outside the timed
  region, returning a list of problems (empty when the answer is right),
* ``first_use(inputs)``: one signal evaluation and one ``zero_crossing`` on
  the workload's signal path, which the cold-start probe makes so that
  imports cptsim defers to first use are paid inside ``setup_s``.

Draws are low-discrepancy (``SeededDraws``): the first n ops of a run
cover each range evenly for every n, whatever the seed.  Op cost depends
on the draws (a time-domain op at omega_m = Gamma_g_tilde/4 integrates four
times as many RK4 steps as one at omega_m = Gamma_g_tilde), and i.i.d.
draws would make the per-run medians and tails depend on the seed more than
on the code.

The ranges below were checked to give exactly one IP and one PZD per
sweep, no ``BracketError``, and passing checks on every draw.

The ops call cptsim through module attributes (``sweep.zero_crossing``,
``runner.run_scenario``) at call time, so the wrappers a traced run
installs there see the benchmark's own calls too.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass

import numpy as np

import cptsim
from cptsim import sweep
from cptsim.core import bessel_spectrum, derive_couplings

TWO_PI = 2.0 * math.pi

# Laboratory constants shared by every sample config in configs/.
ATOM_YAML = """\
atom:
  omega_g_mhz: 6834.682610904
  omega_e_mhz: 816.656
  gamma_opt_mhz: 330.0
  gamma_g_hz: 300.0
  gamma_e_mhz: 6.0
"""
# The same atom in angular units, with the -28 MHz one-photon detuning of
# configs/thin_m_sweep.yaml (and of the test-suite atom in tests/conftest.py).
ATOM = cptsim.AtomParams(
    omega_g=TWO_PI * 6834.682610904e6,
    omega_e=TWO_PI * 816.656e6,
    Gamma=TWO_PI * 330e6,
    Gamma_g=TWO_PI * 300.0,
    gamma=TWO_PI * 6e6,
    dipole_ratio_sq=1.0 / 3.0,
    Delta_L=-TWO_PI * 28e6,
)
OMEGA = ATOM.omega_g / 2.0
K_MAX = 5
A_INDEX = 0.2
M_REF = 2.4  # omega_m is drawn as a multiple of Gamma_g_tilde at this m
POINT_RABI_KHZ = 750.0  # Rabi frequency of td_reference and servo_lock

# A crossing counts as reproduced within the public zero_crossing tolerance.
CROSSING_TOL = 1e-4  # in units of Gamma_g_tilde
# Internal tolerance of the IP/PZD sweeps, used for the reference crossings.
TIGHT_XTOL = 1e-8  # in units of Gamma_g_tilde


# Steps of the additive-recurrence draws: fractional parts of quadratic
# irrationals, whose small continued-fraction terms keep every prefix of
# each axis evenly spread (the golden ratio's are all 1).
STEPS = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0,
         math.sqrt(7.0) - 2.0)


class SeededDraws:
    """Seeded low-discrepancy draws over named ranges (at most four).

    ``draws[i]`` maps each range's name to lo + (hi - lo) * frac(s + i * a),
    with a step a from STEPS per range and offsets s drawn from the seed, so
    the first n draws cover each range evenly for every n.  ``random.Random``
    seeded with a string is stable across Python versions and platforms,
    so the same seed gives the same draws everywhere.
    """

    def __init__(self, name: str, seed: int, ranges: dict[str, tuple[float, float]]):
        if len(ranges) > len(STEPS):
            raise ValueError(f"at most {len(STEPS)} ranges, got {len(ranges)}")
        rng = random.Random(f"{name}:{seed}")
        self._axes = [
            (key, lo, hi, rng.random(), step)
            for (key, (lo, hi)), step in zip(ranges.items(), STEPS)
        ]

    def __getitem__(self, i: int) -> dict[str, float]:
        return {
            key: lo + (hi - lo) * ((offset + i * step) % 1.0)
            for key, lo, hi, offset, step in self._axes
        }


def _gamma_tilde(atom, epsilon: float, rabi_khz: float) -> float:
    spectrum = bessel_spectrum(
        M_REF, epsilon, K_MAX, (TWO_PI * 1e3 * rabi_khz) ** 2, atom.omega_g / 2.0
    )
    return derive_couplings(atom, spectrum).Gamma_g_tilde


def _first_use(atom, spectrum, modulation, path, cell=None) -> None:
    kw = dict(path=path, cell=cell, allow_asymmetric=True)
    sweep.make_signal_function(atom, spectrum, modulation, **kw)(0.0)
    sweep.zero_crossing(atom, spectrum, modulation, **kw)


# --------------------------------------------------------------------------
# Scenario workloads: one `run_scenario` on a generated m-axis config.


@dataclass(frozen=True)
class ScenarioInputs:
    yaml_text: str
    config: object  # cptsim.config.ScenarioConfig
    out_dir: str


def read_roots(path: str) -> list[tuple[str, float, float]]:
    """(kind, m, delta0 in rad/s) for each row of a roots CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            (row["kind"], float(row["m"]), TWO_PI * float(row["delta0_hz"]))
            for row in csv.DictReader(fh)
        ]


class _ScenarioWorkload:
    """m-axis sweep over 2.0-2.8 on 17 points, written by `run_scenario`."""

    path = "harmonic"
    ranges: dict[str, tuple[float, float]] = {}

    def __init__(self, seed: int, work_dir: str):
        from cptsim import runner  # imports pydantic; only scenarios need it

        self.runner = runner
        self.draws = SeededDraws(self.name, seed, self.ranges)
        self.out_dir = os.path.join(work_dir, "out", self.name)

    def _yaml(self, d: dict[str, float], omega_m_hz: float) -> str:
        raise NotImplementedError

    def inputs(self, i: int) -> ScenarioInputs:
        from cptsim.config import parse_config

        d = self.draws[i]
        # omega_m is drawn relative to Gamma_g_tilde, which needs the atom the
        # config resolves (the thick config solves its one-photon detuning).
        probe = parse_config(self._yaml(d, 1.0))
        gt = _gamma_tilde(probe.atom.to_params(), d["epsilon"], d["rabi_khz"])
        text = self._yaml(d, d["wm_ratio"] * gt / TWO_PI)
        return ScenarioInputs(text, parse_config(text), self.out_dir)

    def op(self, inp: ScenarioInputs):
        return self.runner.run_scenario(inp.config, inp.out_dir)

    def model(self, config):
        """(atom, modulation, spectrum family, cell or None) of a config."""
        atom = config.atom.to_params()
        modulation = config.modulation.to_params()
        family = sweep.bessel_family(
            config.spectrum.epsilon, config.spectrum.k_max,
            config.spectrum.total_power, atom.omega_g / 2.0,
        )
        cell = None
        if config.sweep.curves is not None:
            _, (beta_l,) = config.sweep.curves.items()
            cell = config.cell.to_params(beta_l / config.cell.length_m)
        return atom, modulation, family, cell

    def first_use(self, inp: ScenarioInputs) -> None:
        atom, modulation, family, cell = self.model(inp.config)
        _first_use(atom, family(inp.config.spectrum.m), modulation, self.path, cell)

    def observe(self, inp: ScenarioInputs, result) -> dict[str, float]:
        """Densification rounds (from records against grid points) and bytes."""
        (records_path,) = result.csv_paths
        with open(records_path, encoding="utf-8") as fh:
            n_records = sum(1 for _ in fh) - 1
        points = inp.config.sweep.points
        paths = result.csv_paths + result.roots_paths + (result.manifest_path,)
        return {
            "sweep.refine_rounds": math.log2((n_records - 1) / (points - 1)),
            "runner.bytes_written": sum(os.path.getsize(p) for p in paths),
        }

    def answer_roots(self, result) -> list[tuple[str, float, float]]:
        (roots_path,) = result.roots_paths
        return read_roots(roots_path)

    def check(self, inp: ScenarioInputs, result) -> list[str]:
        return self.check_roots(inp, self.answer_roots(result))

    def check_roots(self, inp: ScenarioInputs, roots) -> list[str]:
        """One IP and one PZD, each reproduced by a fresh crossing at its m."""
        ips = [r for r in roots if r[0] == "IP"]
        pzds = [r for r in roots if r[0] == "PZD"]
        if len(ips) != 1 or len(pzds) != 1:
            return [f"expected 1 IP and 1 PZD, got {len(ips)} and {len(pzds)}"]
        atom, modulation, family, cell = self.model(inp.config)
        problems = []
        for kind, m, delta0 in (ips[0], pzds[0]):
            spectrum = family(m)
            gt = derive_couplings(atom, spectrum).Gamma_g_tilde
            fresh = sweep.zero_crossing(
                atom, spectrum, modulation, path=self.path, cell=cell,
                xtol=TIGHT_XTOL * gt, allow_asymmetric=True,
            )
            if abs(delta0 - fresh) > CROSSING_TOL * gt:
                problems.append(
                    f"{kind} at m = {m:.6f}: delta0 {delta0:.6g} rad/s but a "
                    f"fresh crossing gives {fresh:.6g} rad/s "
                    f"(off by {abs(delta0 - fresh) / gt:.2e} Gt)"
                )
        return problems


class HarmonicSweep(_ScenarioWorkload):
    """`run_scenario` on a configs/thin_m_sweep.yaml-shaped config.

    Why: it is the CLI's main job and heavy on root finding, about 1,150
    Fourier solves and 117 zero crossings per op (about 0.1 s), while the
    thick and time-domain layers do no work.  It exercises the implicit-derivative
    crossing change, spectrum caching and Fourier-solve speed-ups.
    Draws: epsilon in [0.1, 0.3], omega_m/Gamma_g_tilde in [0.25, 1] (at
    m = 2.4), Rabi 600-900 kHz; delta_L = -28 MHz, a = 0.2, k_max = 5.
    Check: one IP and one PZD; the PZD's crossing is zero and the IP's
    delta0 equals a fresh `zero_crossing`, both within 1e-4 Gamma_g_tilde.
    """

    name = "harmonic_sweep"
    ranges = {"epsilon": (0.1, 0.3), "wm_ratio": (0.25, 1.0), "rabi_khz": (600.0, 900.0)}

    def _yaml(self, d, omega_m_hz):
        return ATOM_YAML + f"""\
  delta_l_mhz: -28.0
modulation:
  a: {A_INDEX!r}
  omega_m_hz: {omega_m_hz!r}
spectrum:
  m: {M_REF!r}
  epsilon: {d["epsilon"]!r}
  k_max: {K_MAX}
  rabi_khz: {d["rabi_khz"]!r}
sweep:
  axis: m
  start: 2.0
  stop: 2.8
  points: 17
  path: harmonic
output:
  prefix: thin_m
"""


class ThickSweep(_ScenarioWorkload):
    """`run_scenario` on a configs/thick_beta_curves.yaml-shaped config.

    Why: about 44,000 per-slab `linearized_signals` calls per op (about
    1.2 s) and zero Fourier solves.  Closed-form, vectorised slabs show
    here; Fourier-solve work should not move it.
    Draws: one beta*l curve in [0.2, 0.5], 64 slabs, the symmetrizing
    one-photon detuning (delta_l unset), and the harmonic_sweep draws of
    epsilon, omega_m/Gamma_g_tilde and Rabi frequency.
    Check: as harmonic_sweep on the thick path, plus an IP-PZD gap in m
    above 1e-3 (acceptance criterion 6).  The gap closes as beta*l and
    omega_m/Gamma_g_tilde shrink: at beta*l = 0.15 and omega_m =
    Gamma_g_tilde/4 it is 0.75e-3 to 0.95e-3, at beta*l = 0.2 it is
    1.3e-3 or more, hence the lower end of the beta*l range.
    """

    name = "thick_sweep"
    path = "thick"
    ranges = {
        "beta_l": (0.2, 0.5),
        "epsilon": (0.1, 0.3),
        "wm_ratio": (0.25, 1.0),
        "rabi_khz": (600.0, 900.0),
    }
    min_gap = 1e-3

    def _yaml(self, d, omega_m_hz):
        return ATOM_YAML + f"""\
modulation:
  a: {A_INDEX!r}
  omega_m_hz: {omega_m_hz!r}
spectrum:
  m: {M_REF!r}
  epsilon: {d["epsilon"]!r}
  k_max: {K_MAX}
  rabi_khz: {d["rabi_khz"]!r}
cell:
  length_m: 0.02
  n_slabs: 64
sweep:
  axis: m
  start: 2.0
  stop: 2.8
  points: 17
  path: thick
  curves:
    beta_l: [{d["beta_l"]!r}]
output:
  prefix: thick_m
"""

    def check_roots(self, inp, roots):
        problems = super().check_roots(inp, roots)
        if problems:
            return problems
        (_, m_ip, _), (_, m_pzd, _) = sorted(roots)  # IP sorts before PZD
        if abs(m_ip - m_pzd) <= self.min_gap:
            problems.append(
                f"IP-PZD gap {abs(m_ip - m_pzd):.2e} in m is not above {self.min_gap}"
            )
        return problems


# --------------------------------------------------------------------------
# Direct API workloads.


@dataclass(frozen=True)
class PointInputs:
    atom: cptsim.AtomParams
    spectrum: cptsim.FieldSpectrum
    modulation: cptsim.ModulationParams


class TdReference:
    """One time-domain `zero_crossing` at m = 2.4.

    Why: more than 95% of an op (about 0.15 s) is RK4 plus lock-in, and each
    root-finder step costs a full integration.  A periodic-steady-state or
    batched integrator shows here; the harmonic and thick layers stay idle.
    Draws: epsilon in [0, 0.3], omega_m/Gamma_g_tilde in [0.25, 1]; Rabi
    750 kHz, delta_L = -28 MHz, a = 0.2.  The RK4 step count scales as
    Gamma_g_tilde/omega_m, so op cost varies fourfold over the range.
    Check: the crossing is within 1e-4 Gamma_g_tilde of the harmonic one
    and within 5% of Gamma_g_tilde of `asymmetry_shift`'s prediction
    (acceptance criterion 2).
    """

    name = "td_reference"
    path = "time-domain"
    ranges = {"epsilon": (0.0, 0.3), "wm_ratio": (0.25, 1.0)}

    def __init__(self, seed: int, work_dir: str):
        self.draws = SeededDraws(self.name, seed, self.ranges)

    def inputs(self, i: int) -> PointInputs:
        d = self.draws[i]
        power = (TWO_PI * 1e3 * POINT_RABI_KHZ) ** 2
        spectrum = bessel_spectrum(M_REF, d["epsilon"], K_MAX, power, OMEGA)
        gt = derive_couplings(ATOM, spectrum).Gamma_g_tilde
        modulation = cptsim.ModulationParams(a=A_INDEX, omega_m=d["wm_ratio"] * gt)
        return PointInputs(ATOM, spectrum, modulation)

    def op(self, inp: PointInputs) -> float:
        return sweep.zero_crossing(
            inp.atom, inp.spectrum, inp.modulation, path="time-domain"
        )

    def observe(self, inp: PointInputs, delta0: float) -> dict[str, float]:
        return {}

    def first_use(self, inp: PointInputs) -> None:
        _first_use(inp.atom, inp.spectrum, inp.modulation, self.path)

    def check(self, inp: PointInputs, delta0: float) -> list[str]:
        gt = derive_couplings(inp.atom, inp.spectrum).Gamma_g_tilde
        harmonic = sweep.zero_crossing(
            inp.atom, inp.spectrum, inp.modulation, path="harmonic",
            xtol=TIGHT_XTOL * gt,
        )
        predicted = cptsim.asymmetry_shift(
            inp.atom, inp.spectrum, inp.modulation
        ).delta_0_predicted
        problems = []
        if abs(delta0 - harmonic) > CROSSING_TOL * gt:
            problems.append(
                f"time-domain crossing {delta0:.6g} rad/s is "
                f"{abs(delta0 - harmonic) / gt:.2e} Gt from the harmonic one"
            )
        if abs(delta0 - predicted) > 0.05 * gt:
            problems.append(
                f"time-domain crossing {delta0:.6g} rad/s is "
                f"{abs(delta0 - predicted) / gt:.2%} of Gt from the prediction"
            )
        return problems


@dataclass(frozen=True)
class ServoInputs:
    atom: cptsim.AtomParams
    modulation: cptsim.ModulationParams
    epsilon: float
    scenario: cptsim.ServoScenario

    def family(self):
        power = (TWO_PI * 1e3 * POINT_RABI_KHZ) ** 2
        return sweep.bessel_family(self.epsilon, K_MAX, power, self.atom.omega_g / 2.0)


class ServoLock:
    """One `servo_lock_experiment`, m ramped 2.0 -> 3.2 in 3,000 steps.

    Why: the only use of `core` and `harmonic` with no root finder and a
    fresh spectrum at every step (about 0.35 s an op), so it bypasses what
    speeds up the sweeps, and a crossing/sensitivity refactor could slow it.
    Without it `servo_lock_experiment` would go unmeasured.
    Draws: epsilon in [0.1, 0.3], omega_m/Gamma_g_tilde in [0.25, 1]; Rabi
    750 kHz, intensity period 250 steps, depth 0.3, gain 0.05.
    Check: the lock holds and the response minimum lies within one grid
    cell (0.05 in m) of the IP `find_ips_and_pzds` finds over the same range
    (acceptance criterion 9).
    """

    name = "servo_lock"
    path = "harmonic"
    ranges = {"epsilon": (0.1, 0.3), "wm_ratio": (0.25, 1.0)}
    m_start, m_stop = 2.0, 3.2
    # The IP is refined by root finding whatever the grid; 9 points keep the
    # check cheap and still isolate the one IP in range.
    grid = np.linspace(m_start, m_stop, 9)
    cell = 0.05  # the grid step of acceptance criterion 9's 25-point grid

    def __init__(self, seed: int, work_dir: str):
        self.draws = SeededDraws(self.name, seed, self.ranges)

    def inputs(self, i: int) -> ServoInputs:
        d = self.draws[i]
        gt = _gamma_tilde(ATOM, d["epsilon"], POINT_RABI_KHZ)
        return ServoInputs(
            atom=ATOM,
            modulation=cptsim.ModulationParams(a=A_INDEX, omega_m=d["wm_ratio"] * gt),
            epsilon=d["epsilon"],
            scenario=cptsim.ServoScenario(
                m_start=self.m_start, m_stop=self.m_stop,
                n_steps=3000, intensity_period_steps=250,
            ),
        )

    def op(self, inp: ServoInputs):
        return sweep.servo_lock_experiment(
            inp.atom, inp.modulation, inp.family(), inp.scenario
        )

    def first_use(self, inp: ServoInputs) -> None:
        _first_use(inp.atom, inp.family()(M_REF), inp.modulation, self.path)

    def observe(self, inp: ServoInputs, trace) -> dict[str, float]:
        return {"sweep.servo.steps": trace.m.size}

    @staticmethod
    def response_minimum(trace) -> float:
        return float(trace.response_m[int(np.argmin(trace.response_amplitude))])

    def check(self, inp: ServoInputs, trace) -> list[str]:
        if trace.lock_lost:
            return [f"lock lost at step {trace.lock_lost_step}"]
        return self.check_minimum(inp, self.response_minimum(trace))

    def check_minimum(self, inp: ServoInputs, m_min: float) -> list[str]:
        ips = sweep.find_ips_and_pzds(
            inp.atom, inp.modulation, inp.family(), self.grid
        ).ip_roots
        if len(ips) != 1:
            return [f"expected 1 harmonic IP on the grid, got {len(ips)}"]
        gap = abs(m_min - ips[0].m)
        if gap > self.cell:
            return [
                f"servo response minimum at m = {m_min:.4f} is {gap:.4f} from "
                f"the IP at {ips[0].m:.4f} (more than one {self.cell:.2f} cell)"
            ]
        return []


WORKLOADS = {w.name: w for w in (HarmonicSweep, ThickSweep, TdReference, ServoLock)}


def make(name: str, seed: int, work_dir: str):
    """The workload called `name`, drawing its inputs from `seed`."""
    return WORKLOADS[name](seed, work_dir)

"""Scenario execution: drives sweeps from a validated config to CSV files.

One scenario produces, per curve, a records CSV (one row per grid point)
and, for m-axis sweeps, a roots CSV listing the refined IP and PZD
locations.  A manifest JSON embeds the resolved configuration, package
version, and the exact grids used, so no output file is separable from its
parameters; it names each output by its file name, relative to the
manifest's own directory, so it does not depend on where it was written.
Outputs are deterministic: rerunning the same config yields byte-identical
files.

CSV conventions: UTF-8, comma separator, header row, 12 significant digits,
newline-terminated final line.  Frequency columns are in Hz of ordinary
frequency (angular values divided by 2 pi); E2 and derivative columns stay
in angular units.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import __version__
from .config import ScenarioConfig
from .sweep import (
    SweepResult,
    bessel_family,
    crossing_and_sensitivity,
    find_ips_and_pzds,
)

__all__ = ["RunResult", "emit_csv", "run_scenario"]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RunResult:
    """Paths written by a scenario run."""

    csv_paths: tuple[str, ...]
    roots_paths: tuple[str, ...]
    manifest_path: str


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return f"{value:.12g}"


def emit_csv(path: str, fieldnames: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows as CSV: UTF-8, comma-separated, 12 significant digits.

    An empty row iterable produces a header-only file; the final line is
    always newline-terminated.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            if len(row) != len(fieldnames):
                raise ValueError(
                    f"row width {len(row)} does not match header "
                    f"width {len(fieldnames)}"
                )
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _grid(start: float, stop: float, points: int) -> list[float]:
    if points == 0:
        return []
    if points == 1:
        return [start]
    step = (stop - start) / (points - 1)
    return [start + i * step for i in range(points)]


def run_scenario(config: ScenarioConfig, out_dir: str | None = None) -> RunResult:
    """Execute a scenario and write records, roots, and manifest files.

    `out_dir` overrides the config's output directory (CLI/env plumbing).
    """
    out = out_dir if out_dir is not None else config.output.dir
    os.makedirs(out, exist_ok=True)
    prefix = config.output.prefix

    atom = config.atom.to_params()
    Omega = atom.omega_g / 2.0
    sweep = config.sweep

    curve_list = [(None, None)]
    if sweep.curves is not None:
        curve_key, curve_values = sweep.curves.items()
        curve_list = [(curve_key, v) for v in curve_values]

    csv_paths: list[str] = []
    roots_paths: list[str] = []
    manifest_curves = []

    for curve_key, curve_value in curve_list:
        omega_m_hz = None
        beta_per_m = None
        epsilon = None
        suffix = ""
        if curve_key == "omega_m_hz":
            omega_m_hz = curve_value
            suffix = f"_wm{_fmt(curve_value)}"
        elif curve_key == "beta_l":
            beta_per_m = curve_value / config.cell.length_m
            suffix = f"_bl{_fmt(curve_value)}"
        elif curve_key == "epsilon":
            epsilon = curve_value
            suffix = f"_eps{_fmt(curve_value)}"

        modulation = config.modulation.to_params(omega_m_hz)
        cell = None if config.cell is None else config.cell.to_params(beta_per_m)
        spec_cfg = config.spectrum
        family = bessel_family(
            epsilon=spec_cfg.epsilon if epsilon is None else epsilon,
            k_max=spec_cfg.k_max,
            total_power=spec_cfg.total_power,
            Omega=Omega,
        )

        grid = _grid(sweep.start, sweep.stop, sweep.points)
        records_path = os.path.join(out, f"{prefix}{suffix}.csv")
        axis_grid: list[float] = list(grid)

        if sweep.axis == "m":
            rows: list[tuple] = []
            root_rows: list[tuple] = []
            if grid:  # an empty grid writes header-only files
                result: SweepResult = find_ips_and_pzds(
                    atom, modulation, family, grid,
                    path=sweep.path, cell=cell,
                )
                rows = [
                    (r.m, r.E2, r.delta0 / TWO_PI, r.dDelta0_dE2)
                    for r in result.records
                ]
                root_rows = [
                    ("IP", ip.m, ip.delta0 / TWO_PI, ip.nearest_pzd_m, ip.m_gap)
                    for ip in result.ip_roots
                ] + [("PZD", m, 0.0, None, None) for m in result.pzd_roots]
                axis_grid = [r.m for r in result.records]
            emit_csv(records_path, ["m", "E2", "delta0_hz", "dDelta0_dE2"], rows)
            roots_path = os.path.join(out, f"{prefix}{suffix}_roots.csv")
            emit_csv(
                roots_path,
                ["kind", "m", "delta0_hz", "nearest_pzd_m", "m_gap"],
                root_rows,
            )
            csv_paths.append(records_path)
            roots_paths.append(roots_path)
        else:
            axis_col = {
                "omega_m": "omega_m_hz",
                "beta": "beta_per_m",
                "epsilon": "epsilon",
                "power": "power_scale",
            }[sweep.axis]
            rows = []
            for value in grid:
                mod_v = modulation
                cell_v = cell
                spectrum = spec_cfg.to_spectrum(Omega, epsilon=epsilon)
                if sweep.axis == "omega_m":
                    mod_v = config.modulation.to_params(value)
                elif sweep.axis == "beta":
                    cell_v = config.cell.to_params(value)
                elif sweep.axis == "epsilon":
                    spectrum = spec_cfg.to_spectrum(Omega, epsilon=value)
                elif sweep.axis == "power":
                    spectrum = spectrum.scaled(value)
                d0, dd = crossing_and_sensitivity(
                    atom, spectrum, mod_v, path=sweep.path, cell=cell_v,
                    allow_asymmetric=True,
                )
                rows.append((value, spectrum.total_power, d0 / TWO_PI, dd))
            emit_csv(
                records_path,
                [axis_col, "E2", "delta0_hz", "dDelta0_dE2"],
                rows,
            )
            csv_paths.append(records_path)

        manifest_curves.append(
            {
                "curve": {curve_key: curve_value} if curve_key else {},
                "grid": axis_grid,
                "records": os.path.basename(records_path),
                **(
                    {"roots": os.path.basename(roots_paths[-1])}
                    if sweep.axis == "m" else {}
                ),
            }
        )

    manifest_path = os.path.join(out, f"{prefix}_manifest.json")
    manifest = {
        "version": __version__,
        "config": config.model_dump(mode="json"),
        "resolved": {
            "Delta_L_hz": atom.Delta_L / TWO_PI,
            "Omega_hz": Omega / TWO_PI,
            "total_power": config.spectrum.total_power,
        },
        "curves": manifest_curves,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return RunResult(
        csv_paths=tuple(csv_paths),
        roots_paths=tuple(roots_paths),
        manifest_path=manifest_path,
    )

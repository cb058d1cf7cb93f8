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

import numpy as np

from . import __version__
from .config import CURVE_KEYS, POINT_FIELDS, SWEEP_AXES, ScenarioConfig, curve_suffix
from .sweep import _applied, _lane_pairs, bessel_family, find_ips_and_pzds

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
    sweep, spec = config.sweep, config.spectrum
    family = bessel_family(spec.epsilon, spec.k_max, spec.total_power, atom.omega_g / 2)
    modulation = config.modulation.to_params()
    cell = config.cell.to_params() if config.cell else None
    axis_field = SWEEP_AXES[sweep.axis]
    _, axis_column, axis_factor = POINT_FIELDS[axis_field]
    grid = _grid(sweep.start, sweep.stop, sweep.points)

    # (manifest curve entry, lane columns, file suffix) per curve
    curves: list[tuple[dict, dict, str]] = [({}, {}, "")]
    if sweep.curves is not None:
        key, values = sweep.curves.items()
        field, _, per_length = CURVE_KEYS[key]
        _, column, factor = POINT_FIELDS[field]
        length = config.cell.length_m if per_length else 1.0
        curves = [
            ({key: v}, {column: factor * (v / length)}, curve_suffix(key, v))
            for v in values
        ]

    csv_paths: list[str] = []
    roots_paths: list[str] = []
    manifest_curves = []

    for curve, columns, suffix in curves:
        records_path = os.path.join(out, f"{prefix}{suffix}.csv")
        entry = {"curve": curve, "grid": list(grid)}
        if sweep.axis == "m":
            rows: list[tuple] = []
            root_rows: list[tuple] = []
            if grid:  # an empty grid writes header-only files
                fam, mod, curve_cell = _applied(family, modulation, cell, columns)
                result = find_ips_and_pzds(atom, mod, fam, grid, sweep.path, curve_cell)
                rows = [
                    (r.m, r.E2, r.delta0 / TWO_PI, r.dDelta0_dE2)
                    for r in result.records
                ]
                root_rows = [
                    ("IP", ip.m, ip.delta0 / TWO_PI, ip.nearest_pzd_m, ip.m_gap)
                    for ip in result.ip_roots
                ] + [("PZD", m, 0.0, None, None) for m in result.pzd_roots]
                entry["grid"] = [r.m for r in result.records]
            roots_path = os.path.join(out, f"{prefix}{suffix}_roots.csv")
            emit_csv(
                roots_path,
                ["kind", "m", "delta0_hz", "nearest_pzd_m", "m_gap"],
                root_rows,
            )
            roots_paths.append(roots_path)
            entry["roots"] = os.path.basename(roots_path)
        else:  # every point a lane of one pair solve, the curve's value shared
            pairs = _lane_pairs(
                atom, modulation, family, sweep.path, cell, True,
                {"m": spec.m, **columns, axis_column: axis_factor * np.array(grid)},
                axis_field, grid,
            )
            rows = [(v, E2, d0 / TWO_PI, dd) for v, (d0, dd, E2) in zip(grid, pairs)]
        emit_csv(
            records_path, [axis_field, "E2", "delta0_hz", "dDelta0_dE2"], rows
        )
        csv_paths.append(records_path)
        entry["records"] = os.path.basename(records_path)
        manifest_curves.append(entry)

    manifest_path = os.path.join(out, f"{prefix}_manifest.json")
    manifest = {
        "version": __version__,
        "config": config.model_dump(mode="json"),
        "resolved": {
            "Delta_L_hz": atom.Delta_L / TWO_PI,
            "Omega_hz": family.Omega / TWO_PI,
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

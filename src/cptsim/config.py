"""Scenario configuration: parsing, validation, and unit conversion.

Config files are YAML with frequencies in laboratory units (MHz/kHz/Hz of
ordinary frequency); everything is converted to angular rad/s when the
physical parameter objects are built.  Validation collects every error in
one pass and rejects unknown keys, so a typo never silently falls back to a
default.
"""

from __future__ import annotations

import math
from typing import get_args

import yaml
from pydantic import (
    BaseModel,
    ConfigDict,
    Field,
    ValidationError,
    create_model,
    field_validator,
    model_validator,
)

from .core import AtomParams, FieldSpectrum, ModulationParams, bessel_spectrum
from .sweep import SignalPath, symmetrizing_detuning
from .thick import MAX_SLABS, CellParams

__all__ = [
    "ConfigError",
    "AtomConfig",
    "ModulationConfig",
    "SpectrumConfig",
    "CellConfig",
    "CurvesConfig",
    "SweepConfig",
    "OutputConfig",
    "ScenarioConfig",
    "curve_suffix",
    "parse_config",
    "serialize_config",
]

TWO_PI = 2.0 * math.pi

# The sweep vocabulary.  A sweep point maps point fields to the values that
# replace the config's own.  Axis -> the point field it sets, which also
# heads its records column:
SWEEP_AXES = {
    "m": "m",
    "omega_m": "omega_m_hz",
    "beta": "beta_per_m",
    "epsilon": "epsilon",
    "power": "power_scale",
}
# Curve key -> (point field, file tag, whether values are divided by the
# cell length); files are <prefix><curve_suffix>.csv.  beta_l is beta*l.
CURVE_KEYS = {
    "omega_m_hz": ("omega_m_hz", "wm", False),
    "beta_l": ("beta_per_m", "bl", True),
    "epsilon": ("epsilon", "eps", False),
}


def curve_suffix(key: str, value: float) -> str:
    """File-name suffix of the curve at `value` of curve key `key`:
    _<tag><value to 12 significant digits>."""
    return f"_{CURVE_KEYS[key][1]}{value:.12g}"

# Point field -> ((block, field) of the config value it replaces, its lane
# column in `sweep._lane_pairs`, the factor to that column's unit).  Axis ends
# and curve values keep the replaced field's limits; power_scale replaces none.
POINT_FIELDS = {
    "m": (("spectrum", "m"), "m", 1.0),
    "omega_m_hz": (("modulation", "omega_m_hz"), "omega_m", TWO_PI),
    "beta_per_m": (("cell", "beta_per_m"), "beta", 1.0),
    "epsilon": (("spectrum", "epsilon"), "epsilon", 1.0),
    "power_scale": (None, "power_scale", 1.0),
}


class ConfigError(ValueError):
    """Invalid scenario configuration; message lists every detected error."""


class _Block(BaseModel):
    model_config = ConfigDict(extra="forbid", allow_inf_nan=False)


class AtomConfig(_Block):
    """Atomic constants in laboratory units (ordinary frequency)."""

    omega_g_mhz: float = Field(gt=0, description="ground hyperfine splitting")
    omega_e_mhz: float = Field(gt=0, description="excited-state splitting")
    gamma_opt_mhz: float = Field(gt=0, description="optical relaxation Gamma")
    gamma_g_hz: float = Field(gt=0, description="ground relaxation Gamma_g")
    gamma_e_mhz: float = Field(gt=0, description="upper excited decay gamma")
    dipole_ratio_sq: float = 1.0 / 3.0
    delta_l_mhz: float | None = Field(
        default=None,
        description="one-photon detuning; null solves the symmetrizing value",
    )

    @field_validator("dipole_ratio_sq")
    @classmethod
    def _ratio_range(cls, v: float) -> float:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"dipole_ratio_sq must lie in [0, 1], got {v}")
        return v

    def resolved_delta_l(self) -> float:
        """One-photon detuning in rad/s, solving the K = 0 value if unset."""
        if self.delta_l_mhz is not None:
            return TWO_PI * 1e6 * self.delta_l_mhz
        return symmetrizing_detuning(
            TWO_PI * 1e6 * self.gamma_opt_mhz,
            TWO_PI * 1e6 * self.omega_e_mhz,
            self.dipole_ratio_sq,
        )

    def to_params(self) -> AtomParams:
        return AtomParams(
            omega_g=TWO_PI * 1e6 * self.omega_g_mhz,
            omega_e=TWO_PI * 1e6 * self.omega_e_mhz,
            Gamma=TWO_PI * 1e6 * self.gamma_opt_mhz,
            Gamma_g=TWO_PI * self.gamma_g_hz,
            gamma=TWO_PI * 1e6 * self.gamma_e_mhz,
            dipole_ratio_sq=self.dipole_ratio_sq,
            Delta_L=self.resolved_delta_l(),
        )


class ModulationConfig(_Block):
    a: float = Field(ge=0)
    omega_m_hz: float = Field(gt=0, description="modulation frequency")
    alpha: float = 0.0

    def to_params(self) -> ModulationParams:
        return ModulationParams(self.a, TWO_PI * self.omega_m_hz, self.alpha)


class SpectrumConfig(_Block):
    """Truncated Bessel family: modulation depth m, asymmetry, total power."""

    m: float = Field(ge=0, description="comb modulation depth")
    epsilon: float = 0.0
    k_max: int = Field(default=5, ge=2)
    rabi_khz: float = Field(gt=0, description="sqrt of total power, E")

    @field_validator("epsilon")
    @classmethod
    def _epsilon_range(cls, v: float) -> float:
        if not -1.0 < v < 1.0:
            raise ValueError(f"epsilon must satisfy |epsilon| < 1, got {v}")
        return v

    @property
    def total_power(self) -> float:
        return (TWO_PI * 1e3 * self.rabi_khz) ** 2

    def to_spectrum(self, Omega: float) -> FieldSpectrum:
        return bessel_spectrum(
            self.m, self.epsilon, self.k_max, self.total_power, Omega
        )


class CellConfig(_Block):
    length_m: float = Field(gt=0)
    beta_per_m: float = Field(default=0.0, ge=0)
    n_slabs: int = Field(default=64, ge=8, le=MAX_SLABS)

    def to_params(self, beta_per_m: float | None = None) -> CellParams:
        beta = self.beta_per_m if beta_per_m is None else beta_per_m
        return CellParams(length=self.length_m, beta=beta, n_slabs=self.n_slabs)


class _Curves(_Block):
    """Optional curve multiplexing: one output file per listed value.

    Its fields are the keys of CURVE_KEYS, and exactly one is set.
    """

    @model_validator(mode="after")
    def _exactly_one(self) -> "_Curves":
        keys = list(type(self).model_fields)
        set_keys = [k for k in keys if getattr(self, k) is not None]
        if len(set_keys) != 1:
            raise ValueError(
                f"curves must set exactly one of {', '.join(keys)}; "
                f"got {set_keys or 'none'}"
            )
        if not getattr(self, set_keys[0]):
            raise ValueError(f"curves.{set_keys[0]} must be a non-empty list")
        return self

    def items(self) -> tuple[str, list[float]]:
        """The one key that is set, and its values."""
        return next((k, v) for k, v in self if v is not None)


CurvesConfig = create_model(
    "CurvesConfig", __base__=_Curves, __module__=__name__,
    **{key: (list[float] | None, None) for key in CURVE_KEYS},
)


class SweepConfig(_Block):
    axis: str = Field(description="a key of SWEEP_AXES")
    start: float
    stop: float
    points: int = Field(
        ge=0,
        le=1000,
        description=(
            "grid points, at most 1000 to bound one run's work: each point "
            "costs one crossing solve, up to eight times over after "
            "m-grid densification"
        ),
    )
    path: str = "harmonic"
    curves: CurvesConfig | None = None

    @field_validator("axis")
    @classmethod
    def _axis_known(cls, v: str) -> str:
        allowed = tuple(SWEEP_AXES)
        if v not in allowed:
            raise ValueError(f"axis must be one of {allowed}, got {v!r}")
        return v

    @field_validator("path")
    @classmethod
    def _path_known(cls, v: str) -> str:
        allowed = get_args(SignalPath)
        if v not in allowed:
            raise ValueError(f"path must be one of {allowed}, got {v!r}")
        return v

    @model_validator(mode="after")
    def _range_sane(self) -> "SweepConfig":
        if self.points > 0 and not self.stop > self.start:
            raise ValueError(
                f"sweep stop ({self.stop}) must exceed start ({self.start})"
            )
        if self.axis == "m" and 0 < self.points < 3:
            raise ValueError("m-axis sweeps need points >= 3 (or 0 for empty)")
        return self


class OutputConfig(_Block):
    dir: str = "out"
    prefix: str = "sweep"


class ScenarioConfig(_Block):
    atom: AtomConfig
    modulation: ModulationConfig
    spectrum: SpectrumConfig
    sweep: SweepConfig
    cell: CellConfig | None = None
    output: OutputConfig = OutputConfig()

    @model_validator(mode="after")
    def _cross_block(self) -> "ScenarioConfig":
        problems: list[str] = []
        sweep = self.sweep
        # who sets each point field: the axis, then the curves
        setters = {SWEEP_AXES[sweep.axis]: f"axis {sweep.axis}"}
        if sweep.curves is not None:
            key, _ = sweep.curves.items()
            field = CURVE_KEYS[key][0]
            if field in setters:
                problems.append(
                    f"curves.{key} sets {field}, which {setters[field]} "
                    f"already sweeps"
                )
            setters.setdefault(field, f"curves.{key}")
        beta_setter = setters.get("beta_per_m")
        if self.cell is None and (sweep.path == "thick" or beta_setter):
            problems.append(
                f"cell block is required for {beta_setter or 'the thick path'}"
            )
        if beta_setter and sweep.path != "thick":
            problems.append(
                f"{beta_setter} sets the cell's beta_per_m, which only the "
                f"thick path uses; path {sweep.path!r} ignores the cell"
            )
        axis_field = SWEEP_AXES[sweep.axis]
        values = [
            (f"axis {sweep.axis} {end}", axis_field, v)
            for end, v in (("start", sweep.start), ("stop", sweep.stop))
        ]
        if sweep.curves is not None:
            key, curve_values = sweep.curves.items()
            field, _, per_length = CURVE_KEYS[key]
            length = self.cell.length_m if per_length and self.cell else 1.0
            values += [(f"curves.{key} {v}", field, v / length) for v in curve_values]
            first: dict[str, float] = {}  # records file -> the value that writes it
            for v in curve_values:
                name = f"{self.output.prefix}{curve_suffix(key, v)}.csv"
                if name in first:
                    problems.append(
                        f"curves.{key} {first[name]} and {v} both write {name}"
                    )
                first.setdefault(name, v)
        for where, field, value in values:
            problem = self._out_of_range(field, value)
            if problem:
                problems.append(f"{where}: {problem}")
        if problems:
            raise ValueError("; ".join(problems))
        return self

    def _out_of_range(self, field: str, value: float) -> str | None:
        """Why `value` of point field `field` breaks the limits of the
        config field it replaces, or None."""
        if field == "power_scale":
            return None if value > 0 else "power scale factors must be > 0"
        block_name, name = POINT_FIELDS[field][0]
        block = getattr(self, block_name)
        if block is None:  # a missing cell block is reported on its own
            return None
        try:
            type(block).model_validate({**block.model_dump(), name: value})
        except ValidationError as exc:
            return f"{block_name}.{name} = {value}: {exc.errors()[0]['msg']}"
        return None


def _format_errors(exc: ValidationError) -> str:
    lines = []
    for err in exc.errors():
        loc = ".".join(str(p) for p in err["loc"]) or "<root>"
        lines.append(f"{loc}: {err['msg']}")
    return "\n".join(lines)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a YAML scenario document.

    Raises ConfigError whose message lists every problem found, not just
    the first.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if raw is None:
        raise ConfigError("empty configuration document")
    if not isinstance(raw, dict):
        raise ConfigError(
            f"top level must be a mapping of blocks, got {type(raw).__name__}"
        )
    try:
        return ScenarioConfig.model_validate(raw)
    except ValidationError as exc:
        raise ConfigError(_format_errors(exc)) from exc


def serialize_config(config: ScenarioConfig) -> str:
    """YAML rendering that `parse_config` reparses to an equal config."""
    return yaml.safe_dump(
        config.model_dump(mode="json", exclude_none=True), sort_keys=True
    )

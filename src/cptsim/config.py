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
    field_validator,
    model_validator,
)

from .core import AtomParams, FieldSpectrum, ModulationParams, bessel_spectrum
from .sweep import SignalPath, symmetrizing_detuning
from .thick import CellParams

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
    "parse_config",
    "serialize_config",
]

TWO_PI = 2.0 * math.pi


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

    def to_params(self, omega_m_hz: float | None = None) -> ModulationParams:
        hz = self.omega_m_hz if omega_m_hz is None else omega_m_hz
        return ModulationParams(a=self.a, omega_m=TWO_PI * hz, alpha=self.alpha)


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

    def to_spectrum(self, Omega: float, m: float | None = None,
                    epsilon: float | None = None) -> FieldSpectrum:
        return bessel_spectrum(
            m=self.m if m is None else m,
            epsilon=self.epsilon if epsilon is None else epsilon,
            k_max=self.k_max,
            total_power=self.total_power,
            Omega=Omega,
        )


class CellConfig(_Block):
    length_m: float = Field(gt=0)
    beta_per_m: float = Field(default=0.0, ge=0)
    n_slabs: int = Field(default=64, ge=8)

    def to_params(self, beta_per_m: float | None = None) -> CellParams:
        beta = self.beta_per_m if beta_per_m is None else beta_per_m
        return CellParams(length=self.length_m, beta=beta, n_slabs=self.n_slabs)


class CurvesConfig(_Block):
    """Optional curve multiplexing: one output file per listed value."""

    omega_m_hz: list[float] | None = None
    beta_l: list[float] | None = None
    epsilon: list[float] | None = None

    @model_validator(mode="after")
    def _exactly_one(self) -> "CurvesConfig":
        set_keys = [
            k for k in ("omega_m_hz", "beta_l", "epsilon")
            if getattr(self, k) is not None
        ]
        if len(set_keys) != 1:
            raise ValueError(
                f"curves must set exactly one of omega_m_hz, beta_l, epsilon; "
                f"got {set_keys or 'none'}"
            )
        key = set_keys[0]
        values = getattr(self, key)
        if not values:
            raise ValueError(f"curves.{key} must be a non-empty list")
        return self

    def items(self) -> tuple[str, list[float]]:
        for k in ("omega_m_hz", "beta_l", "epsilon"):
            v = getattr(self, k)
            if v is not None:
                return k, v
        raise ConfigError("curves must set one of omega_m_hz, beta_l, epsilon")


class SweepConfig(_Block):
    axis: str = Field(description="m, omega_m, beta, epsilon, or power")
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
        allowed = ("m", "omega_m", "beta", "epsilon", "power")
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
        needs_cell = (
            self.sweep.path == "thick"
            or self.sweep.axis == "beta"
            or (self.sweep.curves is not None and self.sweep.curves.beta_l is not None)
        )
        if needs_cell and self.cell is None:
            problems.append(
                "cell block is required for the thick path, the beta axis, "
                "or beta_l curves"
            )
        if self.sweep.axis == "epsilon":
            hi = max(abs(self.sweep.start), abs(self.sweep.stop))
            if hi >= 1.0:
                problems.append("epsilon axis range must stay within |epsilon| < 1")
        if self.sweep.axis == "power" and self.sweep.start <= 0:
            problems.append("power axis values are scale factors and must be > 0")
        if problems:
            raise ValueError("; ".join(problems))
        return self


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

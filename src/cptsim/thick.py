"""Optically thick medium: z-averaging of the error signal along the cell.

In a dense cell the resonant sidebands are absorbed while propagating, so
E_{-1}^2 and E_{+1}^2 decay as e^{-beta z} and every slab of the cell sees a
different power broadening, pumping rate, and light shift.  The detected
signal is the average of the slab-local in-phase signal over the cell
length.  Because the slab weight A(z) no longer cancels against the slab
shift, the z-average breaks the thin-medium degeneracy between insensitivity
points and points of zero displacement.

The slab-local signal is the closed-form linearized one; the cell integral
is a composite midpoint sum over `n_slabs` slabs (the default count is
convergence-checked: doubling it moves the averaged signal by well under
0.1% in the regimes of interest).  `cell_signal` builds the couplings of
every slab at once, as numpy arrays over z, from the entrance couplings of
one spectrum or of many (the lanes of a sweep grid), and
`harmonic.ClosedFormSignal` evaluates them in one pass; no slab is visited
in Python.  A thin point is a cell of one transparent slab, so the
linearized path is built by the same constructor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AtomParams,
    DerivedCouplings,
    FieldSpectrum,
    LockInResult,
    ModulationParams,
    ParameterError,
    _nonresonant_terms,
    derive_couplings,
    lane_values,
    require_finite,
    require_integer,
)
from .harmonic import ClosedFormSignal

# perfbench/tracer.py counts per-slab calls through this binding; it stays
# bound so the count reads 0 rather than missing.
from .harmonic import linearized_signals  # noqa: F401

__all__ = [
    "CellParams",
    "cell_signal",
    "averaged_signal",
]

# A thick lane batch holds arrays of lanes x slabs, about 150 KiB per lane
# per 1,024 slabs at its peak (tracemalloc): 0.6 GiB for a sweep's largest
# batch, 1,024 lanes, at this bound.
MAX_SLABS = 4096


@dataclass(frozen=True)
class CellParams:
    """Cell geometry and resonant-sideband absorption.

    `beta` is the intensity decay constant (1/m) of the resonant sidebands,
    or an array of lanes; carrier and higher sidebands propagate
    unattenuated.  beta * length is the total optical depth (0.163 for 15%
    absorption, 0.43 for 35%).
    """

    length: float
    beta: float = 0.0
    n_slabs: int = 64

    def __post_init__(self) -> None:
        require_integer("CellParams", n_slabs=self.n_slabs)
        require_finite("CellParams", length=self.length, beta=self.beta)
        if self.length <= 0:
            raise ParameterError(f"cell length must be positive, got {self.length}")
        if (lowest := min(lane_values(self.beta))) < 0:
            raise ParameterError(f"beta must be >= 0, got {lowest}")
        if not 8 <= self.n_slabs <= MAX_SLABS:
            raise ParameterError(
                f"n_slabs must be in [8, {MAX_SLABS}], got {self.n_slabs}"
            )


# A thin point: a transparent cell, one slab holding the couplings exactly.
_THIN = CellParams(length=1.0)


def cell_signal(
    atom: AtomParams,
    couplings: DerivedCouplings,
    Omega: float,
    modulation: ModulationParams,
    cell: CellParams | None,
    allow_asymmetric: bool = False,
) -> ClosedFormSignal:
    """In-phase signal averaged over the slabs of the cell.

    `couplings` are the `derive_couplings` of the field at the cell
    entrance, floats for one spectrum or numpy arrays over lanes (P
    shared, and `cell.beta` one value or one per lane), and Omega its
    sideband spacing; the signal's width is the entrance Gamma_g_tilde.
    The slab couplings, at the midpoints z_i = (i + 1/2) length/n_slabs,
    go on a new last axis.  Only the resonant pair is attenuated, by
    t = e^{-beta z} in power, so V_L, V_R, V_LR, K and delta_r scale with
    t, calV_L and calV_R with sqrt(t), Gamma_g_tilde = Gamma_g + t (V_L +
    V_R), and delta_nr keeps its non-resonant part plus t times the
    resonant pair's share.  A transparent cell (beta = 0 in every lane) is
    one slab holding the entrance values exactly, and so is a thin point
    (`cell` None), which takes any spectrum.

    The z-average is derived for symmetric resonant sidebands; pass
    `allow_asymmetric=True` to average asymmetric spectra anyway (an
    extension beyond the symmetric treatment).
    """
    EL, ER = couplings.calV_L, couplings.calV_R
    if cell is None:
        cell, allow_asymmetric = _THIN, True
    if not allow_asymmetric and np.any(abs(EL - ER) > 1e-12 * np.maximum(EL, ER)):
        raise ParameterError(
            "the thick-cell average requires symmetric resonant sidebands "
            f"(E_-1 = {EL}, E_+1 = {ER})"
        )
    # the slabs of every lane go on a new last axis
    c = {k: np.asarray(v)[..., None] for k, v in vars(couplings).items()}
    beta = cell.beta[:, None] if np.ndim(cell.beta) else cell.beta  # lanes, slabs
    n = cell.n_slabs if np.count_nonzero(beta) else 1
    t = np.exp(-beta * ((np.arange(n) + 0.5) * (cell.length / n)))
    loss = 1.0 - t  # written as a loss so that t = 1 reproduces c exactly
    root = np.sqrt(t)
    shares = _nonresonant_terms(atom, {-1: c["calV_L"], 1: c["calV_R"]}, Omega)
    slabs = DerivedCouplings(
        V_L=t * c["V_L"],
        V_R=t * c["V_R"],
        V_LR=t * c["V_LR"],
        K=t * c["K"],
        Gamma_g_tilde=c["Gamma_g_tilde"] - loss * (c["V_L"] + c["V_R"]),
        P=couplings.P,
        delta_r=t * c["delta_r"],
        delta_nr=c["delta_nr"] - loss * (shares[-1] + shares[1]),
        calV_L=root * c["calV_L"],
        calV_R=root * c["calV_R"],
    )
    return ClosedFormSignal(atom, slabs, modulation, couplings.Gamma_g_tilde)


def averaged_signal(
    atom: AtomParams,
    spectrum: FieldSpectrum,
    modulation: ModulationParams,
    cell: CellParams | None,
    delta: float,
    allow_asymmetric: bool = False,
) -> LockInResult:
    """Cell-averaged linearized lock-in signal at detuning `delta`.

    `spectrum` is the field at the cell entrance (`cell` None: a thin
    point).  Each regime warning of the linearized form is reported once,
    at its worst slab.
    """
    require_finite("averaged_signal", delta=delta)
    c = derive_couplings(atom, spectrum)
    signal = cell_signal(atom, c, spectrum.Omega, modulation, cell, allow_asymmetric)
    return signal.signals(delta)

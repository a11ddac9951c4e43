"""Spectral structure of a quantum particle in a box with a point interaction.

The package computes the complete bound-state structure of the problem: the
lattice of singular wave numbers and its interval partition (`lattice`), the
coupling-dispersion relation and its root solver (`spectrum`), normalized
eigenfunctions and strong-coupling limit states (`wavefn`), their sine-basis
expansions (`fourier`), probability ratios, mean positions, and amplitude
envelopes (`observables`), and an independent finite-difference cross-check
(`oracle`).  The `cli` module surfaces everything as CSV/JSON tables.
"""

from .errors import (
    BracketError,
    ConvergenceError,
    DeltaBoxError,
    DomainError,
    GridMismatch,
    InK,
    NotInK,
    SingularPoint,
)
from .model import (
    RationalX0,
    RealX0,
    Setup,
    X0Spec,
    energy_from_nu,
    make_setup,
    nu_n,
    phi_mode,
)

__all__ = [
    "BracketError",
    "ConvergenceError",
    "DeltaBoxError",
    "DomainError",
    "GridMismatch",
    "InK",
    "NotInK",
    "SingularPoint",
    "RationalX0",
    "RealX0",
    "Setup",
    "X0Spec",
    "energy_from_nu",
    "make_setup",
    "nu_n",
    "phi_mode",
]

__version__ = "0.1.0"

"""Monotone-iteration solver for a generalized vortex equation on integer lattices."""

__version__ = "0.1.0"

from .calculus import LatticeField
from .chern_simons import ModelParams, VortexConfig, solve_domain
from .exhaustion import ExhaustionSchedule, run_exhaustion
from .lattice import LatticeDomain, make_ball, make_box

# The library path the CLI is built on; README "Library use" lists the same
# names. Everything else is imported from its submodule.
__all__ = [
    "LatticeDomain",
    "make_box",
    "make_ball",
    "LatticeField",
    "ModelParams",
    "VortexConfig",
    "solve_domain",
    "ExhaustionSchedule",
    "run_exhaustion",
]

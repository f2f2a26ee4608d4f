"""Monotone-iteration solver for a generalized vortex equation on integer lattices."""

import os

__version__ = "0.1.0"


def _apply_thread_cap():
    """Copy LATTICE_VORTEX_THREADS into the BLAS thread variables left unset.

    BLAS reads these once, when numpy loads, so this runs before any
    submodule imports numpy.
    """
    cap = os.environ.get("LATTICE_VORTEX_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_apply_thread_cap()


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

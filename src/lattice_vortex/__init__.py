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


from .calculus import (
    LatticeField,
    bilinear_energy,
    dirichlet_energy,
    from_interior,
    gns_ratio,
    gradient_form,
    green_identity_defect,
    laplacian,
    lq_norm,
    seminorm_1q,
    zeros,
)
from .chern_simons import (
    IterationTrace,
    ModelParams,
    VortexConfig,
    functional_j,
    iterate_step,
    max_principle_check,
    nonlinearity,
    residual,
    solve_domain,
    source_h,
    verify_subsolution_dominance,
)
from .exhaustion import (
    ExhaustionSchedule,
    GlobalSolutionEstimate,
    decay_profile,
    null_extend,
    run_exhaustion,
    verify_global_negativity,
)
from .lattice import (
    LatticeDomain,
    LatticePoint,
    is_nested,
    l1_distance,
    make_ball,
    make_box,
    neighbors,
)
from .linsolve import ShiftedLaplacianSystem, assemble, solve
from .oracle import jacobian_fd_check, newton_solve

__all__ = [
    "LatticeDomain",
    "LatticeField",
    "LatticePoint",
    "ModelParams",
    "VortexConfig",
    "IterationTrace",
    "ExhaustionSchedule",
    "GlobalSolutionEstimate",
    "ShiftedLaplacianSystem",
    "assemble",
    "bilinear_energy",
    "decay_profile",
    "dirichlet_energy",
    "from_interior",
    "functional_j",
    "gns_ratio",
    "gradient_form",
    "green_identity_defect",
    "is_nested",
    "iterate_step",
    "jacobian_fd_check",
    "l1_distance",
    "laplacian",
    "lq_norm",
    "make_ball",
    "make_box",
    "max_principle_check",
    "neighbors",
    "newton_solve",
    "nonlinearity",
    "null_extend",
    "residual",
    "run_exhaustion",
    "seminorm_1q",
    "solve",
    "solve_domain",
    "source_h",
    "verify_global_negativity",
    "verify_subsolution_dominance",
    "zeros",
]

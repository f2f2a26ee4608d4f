"""Seeded inputs for the benchmark workloads.

There are two workloads. `solve-mix` cycles through three kinds of solver
command: p >= 1 solves on a 2D box (thousands of outer steps), p = 0
exhaustion chains on 2D boxes with CG, and p = 0 solves on a 3D box with
sparse LU. `verify-suites` runs the randomized verify suites, the only path
into oracle and verify. The solver kinds share one workload, not one each,
so that a run can last long enough to average out the host's speed swings
(see README.md, Noise).

Every workload is a short list of instance slots. A slot fixes the
structure that sets a command's cost: the command, p, the box, a vortex
pattern (offsets and multiplicities) and a nominal lambda, chosen so that
the slots of one kind cost about the same. The seed then draws what
should not move the cost much: lambda within 5% of nominal, a one-site
shift of the pattern, one of the box's symmetries (axis permutation and
reflections) and a translation of the whole problem. With balanced slots
and the kinds interleaved, the mean and tail of a run do not depend on
where its time budget ends.

Standard library only: the runner imports this module before numpy loads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# A written solution further than this from the reference fails the command.
ERR_LIMIT = 1e-6

LAM_JITTER = 0.05
TRANSLATION = 20


@dataclass
class Instance:
    """One CLI command with its generated config and what the check needs."""

    command: str
    config: dict | None = None
    args: list[str] = field(default_factory=list)
    # Box that holds the written solution.csv: dimension, half-width, center.
    box: tuple[int, int, tuple[int, ...]] | None = None

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        if self.config is None:
            return [self.command, *self.args]
        return [self.command, config_path, "--out", out_dir, *self.args]


def _model(rng: random.Random, dimension: int, p: int, lam: float, pattern) -> tuple[dict, list[int]]:
    """Model part of a config, and the translated center it is placed around.

    `pattern` lists (offset, multiplicity) pairs relative to the center.
    """
    axes = list(range(dimension))
    rng.shuffle(axes)
    signs = [rng.choice((-1, 1)) for _ in axes]
    shift = [rng.randint(-1, 1) for _ in axes]
    center = [rng.randint(-TRANSLATION, TRANSLATION) for _ in axes]
    vortices = [
        {
            "point": [center[d] + signs[d] * (offset[axes[d]] + shift[d]) for d in range(dimension)],
            "multiplicity": multiplicity,
        }
        for offset, multiplicity in pattern
    ]
    model = {
        "dimension": dimension,
        "vortices": vortices,
        "lambda": lam * (1.0 + LAM_JITTER * (2.0 * rng.random() - 1.0)),
        "p": p,
    }
    return model, center


def _solve(rng, dimension, half_width, p, lam, pattern, args=()) -> Instance:
    cfg, center = _model(rng, dimension, p, lam, pattern)
    cfg["domain"] = {"kind": "box", "size": half_width, "center": center}
    return Instance("solve", cfg, list(args), box=(dimension, half_width, tuple(center)))


def solve_p1_2d(rng: random.Random, tiny: bool) -> list[Instance]:
    """p in {1, 2} on a 2D box: thousands of outer steps per solve."""
    hw = 3 if tiny else 8
    far = 1 if tiny else 3
    two = [((0, 0), 1), ((far, 0), 1)]
    three = two + [((0, far), 1)]
    # Lambda per slot balances the slots near 2,200 outer steps each.
    slots = [
        (1, 0.8, [((0, 0), 2)]),
        (2, 0.55, two),
        (1, 0.75, three),
    ]
    return [_solve(rng, 2, hw, p, lam, pattern) for p, lam, pattern in slots]


def chain_p0_2d(rng: random.Random, tiny: bool) -> list[Instance]:
    """p = 0 exhaustion over nested 2D boxes, CG backend."""
    radii = [2, 4, 6] if tiny else [4, 8, 16, 32]
    out = []
    # Lambda of at least 1.1 keeps the final gap under the default 1e-5
    # certificate by more than 30x on this chain.
    for lam in (1.2, 1.5, 1.8):
        cfg, center = _model(rng, 2, 0, lam, [((1, 0), 1)])
        cfg.update({"shape": "box", "radii": radii, "center": center})
        if tiny:
            # A three-box chain this small cannot meet the default certificate
            # thresholds; the self-test checks the plumbing, not the decay.
            cfg["tolerances"] = {"global": 0.5, "decay": 0.05}
        out.append(Instance("exhaust", cfg, box=(2, radii[-1], tuple(center))))
    return out


def solve_3d_direct(rng: random.Random, tiny: bool) -> list[Instance]:
    """p = 0 on a 3D box with the direct (sparse LU) backend."""
    hw = 3 if tiny else 8
    # Lambda per slot balances the slots near 90 outer steps each.
    slots = [
        (2.0, [((0, 0, 0), 1)]),
        (0.55, [((0, 0, 0), 1), ((2, 1, 0), 1)]),
        (0.5, [((0, 0, 0), 2)]),
    ]
    return [_solve(rng, 3, hw, 0, lam, pattern, ["--backend", "direct"]) for lam, pattern in slots]


def verify_suites(rng: random.Random, tiny: bool) -> list[Instance]:
    """The randomized verify suites, one generator seed per slot."""
    sizes = "1" if tiny else "1,3,7"
    return [
        Instance("verify", args=["--seed", str(rng.randrange(2**31)), "--sizes", sizes])
        for _ in range(5)
    ]


def solve_mix(rng: random.Random, tiny: bool) -> list[Instance]:
    """The three solver kinds, three slots each, interleaved one of each kind at a time.

    Interleaving keeps the mix of kinds in a run the same wherever its
    time budget ends.
    """
    kinds = [solve_p1_2d(rng, tiny), chain_p0_2d(rng, tiny), solve_3d_direct(rng, tiny)]
    return [inst for group in zip(*kinds, strict=True) for inst in group]


WORKLOADS = {
    "solve-mix": solve_mix,
    "verify-suites": verify_suites,
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Instance]:
    """The instance slots of `workload`; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), tiny)

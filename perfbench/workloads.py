"""Seeded job generators for the benchmark workloads.

Each generator returns a list of distinct CLI jobs (plain JSON-able dicts
with the command under ``"command"``).  The same seed gives the same jobs.
Job structure (command mix, measure shapes, sweep rows) is
fixed per workload and only the numbers are drawn from the seed, so that the
cost of a run does not depend on which seed it got.
"""
from __future__ import annotations

import math
import random

INV_PI = 1.0 / math.pi

#: The paper's worked example: d(sigma)/dt = 1/(pi sqrt t) on (0, inf).
PAPER_MEASURE = {
    "pieces": [{"lo": 0.0, "hi": 1.0, "kind": "power_law",
                "coeff": INV_PI, "exponent": -0.5}],
    "tail": {"T": 1.0, "coeff": INV_PI, "exponent": 0.5},
    "infinite_mass": True,
}
ZERO_POTENTIAL = {"a": 0.0, "q": {"kind": "zero"}}
#: Distinct jobs of quad-sweep (a quarter of them sweeps) and rows per sweep.
QUAD_SWEEP_JOBS = 32
SWEEP_ROWS = 4000


def verify_paper(rng: random.Random) -> list:
    """verify on the worked example: gamma = 0, > 0, < 0 and one of either sign."""
    gammas = [0.0, rng.uniform(0.2, 3.0), -rng.uniform(0.2, 3.0),
              rng.choice((1.0, -1.0)) * rng.uniform(0.2, 3.0)]
    return [{"command": "verify", "measure": PAPER_MEASURE, "gamma": g,
             "potential": ZERO_POTENTIAL} for g in gammas]


def _table_potential(rng: random.Random, q_inf: float) -> dict:
    """Four linear segments with |slope| bounded away from 0, values in [0, 3].

    q >= 0 everywhere, so no lambda < 0 is a Dirichlet eigenvalue and the
    m0 oracle's zero-energy solution stays away from a node.
    """
    a = rng.uniform(0.0, 1.0)
    grid = [a]
    for _ in range(4):
        grid.append(grid[-1] + rng.uniform(0.4, 1.2))
    values = [rng.uniform(0.0, 3.0)]
    for _ in range(4):
        step = rng.choice((1.0, -1.0)) * rng.uniform(0.3, 1.2)
        if not 0.0 <= values[-1] + step <= 3.0:
            step = -step
        values.append(values[-1] + step)
    return {"a": a, "q": {"kind": "table", "grid": grid, "values": values,
                          "cutoff": grid[-1] + rng.uniform(0.3, 1.5),
                          "q_inf": q_inf}}


def table_potentials(seed: int, n: int) -> list:
    """Seeded table potentials for the m_inf(-0) probe; q_inf = 0 on even ones."""
    rng = random.Random(f"m0-probe:{seed}")
    return [_table_potential(rng, 0.0 if i % 2 == 0 else rng.uniform(0.1, 1.0))
            for i in range(n)]


def _table_piece(rng: random.Random, lo: float, hi: float, n_knots: int,
                 v0: float) -> dict:
    knots = [lo + (hi - lo) * k / (n_knots - 1) for k in range(n_knots)]
    knots = [knots[0]] + [t + rng.uniform(-0.3, 0.3) * (hi - lo) / (n_knots - 1)
                          for t in knots[1:-1]] + [knots[-1]]
    values = [v0] + [rng.uniform(0.05, 1.0) for _ in knots[1:]]
    return {"kind": "table", "knots": knots, "values": values}


def _quad_measure(rng: random.Random, shape: int) -> dict:
    """Shapes 0, 1 are SL0K (b = inf), shapes 2, 3 are SL01K (b < inf).

    0: origin-singular power law then a table; 1: table with positive
    density at 0; 2: vanishing power law at 0 then a table; 3: table with
    zero density at 0.  Every shape has 200 knots, atoms and a tail.
    """
    T = rng.uniform(4.0, 8.0)
    t1 = rng.uniform(0.3, 1.0)
    if shape in (0, 2):
        exponent = rng.uniform(-0.8, -0.2) if shape == 0 else rng.uniform(0.2, 1.5)
        pieces = [{"lo": 0.0, "hi": t1, "kind": "power_law",
                   "coeff": rng.uniform(0.2, 1.5), "exponent": exponent},
                  _table_piece(rng, t1, T, 200, rng.uniform(0.05, 1.0))]
    else:
        v0 = rng.uniform(0.2, 1.0) if shape == 1 else 0.0
        pieces = [_table_piece(rng, 0.0, T, 200, v0)]
    atoms = [{"t": rng.uniform(0.1, T), "w": rng.uniform(0.05, 0.5)}
             for _ in range(2)]
    tail = {"T": T, "coeff": rng.uniform(0.1, 1.0), "exponent": rng.uniform(0.2, 1.0)}
    return {"atoms": atoms, "pieces": pieces, "tail": tail, "infinite_mass": True}


def _operator(rng: random.Random, b_infinite: bool) -> dict:
    m = rng.uniform(-0.5, 0.5)
    if b_infinite:
        return {"m": m, "c": rng.uniform(0.3, 1.5)}
    return {"theta": -m + rng.uniform(0.1, 2.0), "m": m}


def _sweep_measure(rng: random.Random, b_infinite: bool) -> dict:
    """Power law on [0, 1] plus a tail from T = 1; finite b lands in [2, 6]."""
    s = rng.uniform(0.3, 1.0)
    if b_infinite:
        piece_exp, c1, c2 = rng.uniform(-0.8, -0.2), rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)
    else:
        b = rng.uniform(2.0, 6.0)
        piece_exp = rng.uniform(0.3, 1.0)
        f = rng.uniform(0.3, 0.7)
        c1, c2 = f * b * piece_exp, (1.0 - f) * b * s
    return {"pieces": [{"lo": 0.0, "hi": 1.0, "kind": "power_law",
                        "coeff": c1, "exponent": piece_exp}],
            "tail": {"T": 1.0, "coeff": c2, "exponent": s},
            "infinite_mass": True}


def quad_sweep(rng: random.Random) -> list:
    """moments / classify / restore on 200-knot measures, and sweep, in rotation.

    The first three run on the four 200-knot shapes with explicit operator
    data and no potential.  Sweeps run on a power law plus tail, b = inf and
    finite b >= 2 in turn; finite-b ranges start below -b, so they span both
    extremal roots of gamma^2 + b gamma + 1 = 0 and the non-accretive gap.
    """
    jobs = []
    for i in range(QUAD_SWEEP_JOBS):
        command = ("moments", "classify", "restore", "sweep")[i % 4]
        if command == "sweep":
            b_infinite = (i // 4) % 2 == 0
            lo = -rng.uniform(1.0, 5.0) if b_infinite else -(7.0 + rng.uniform(0.0, 3.0))
            jobs.append({"command": "sweep", "measure": _sweep_measure(rng, b_infinite),
                         "gamma_range": [lo, rng.uniform(1.0, 5.0), SWEEP_ROWS],
                         "operator": _operator(rng, b_infinite)})
            continue
        shape = (i // 4) % 4
        job = {"command": command, "measure": _quad_measure(rng, shape)}
        if command != "moments":
            job["gamma"] = rng.uniform(-3.0, 3.0)
        if command == "restore":
            job["operator"] = _operator(rng, shape < 2)
        jobs.append(job)
    return jobs


WORKLOADS = {
    "verify-paper": verify_paper,
    "quad-sweep": quad_sweep,
}


def make_jobs(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))

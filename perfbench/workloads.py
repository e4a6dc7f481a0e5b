"""Workload table and seeded instance documents for the qudotn benchmark.

Instance documents are written here, from the benchmark seed alone, in the
instance file format that ``parse_instance`` reads.  The program therefore
sees only parsed input, and the inputs stay the same when the program's own
``random_instance`` generator changes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    kind: str
    n: int
    d: int
    k: int
    lin: bool = False


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    An operation solves one pool instance with every method in ``methods``,
    in order, through ``solve_instance``.  ``shapes`` are cycled over the
    pool, so every seed gives the same mix of sizes.  ``reference`` names
    the result each operation is checked against besides its own cost:
    ``waterfall`` (assignment of a waterfall solve of the same instance) or
    ``brute`` (the exhaustive optimum).
    """

    name: str
    methods: tuple
    shapes: tuple
    pool: int
    tau: float = 50.0
    tau_grid: tuple | None = None
    reference: str | None = None


WORKLOADS = {w.name: w for w in (
    # Tiny per-row arrays and a 25-point grid: Python/numpy dispatch and the
    # driver's grid loop (chain_view, ChainFactors, evaluate_cost per point)
    # dominate.  The only workload that exercises tau batching.
    Workload("tau-grid", ("waterfall",),
             tuple(Shape("qudo", 40, d, 1) for d in range(2, 7)), pool=40,
             tau_grid=(0.1, 500.0, 25)),
    # No grid loop: cost is the per-row backward transfer and the
    # per-variable forward marginal of the two message routes.
    Workload("long-chain", ("matrix", "tensor"),
             (Shape("qudo", 500, 2, 2, lin=True),), pool=16,
             reference="waterfall"),
    # 81-entry messages: array arithmetic dominates dispatch, and waterfall's
    # d**(2k+1)-cell candidate tables weigh against matrix's d**(k+1).
    Workload("wide-window", ("matrix", "tensor", "waterfall"),
             (Shape("tqudo", 100, 3, 4),), pool=16),
    # All-pairs coupling (k = n-1): the only workload in dense_solver and the
    # only one with an exact optimum to compare against.  The n=16 shape takes
    # twice as long as the n=10 one, and the machine's speed swings by half
    # over seconds.  Mixed 1:2, the median is the 75th percentile of the n=10
    # solves and the p90 the 70th of the n=16 ones, both in the slow state
    # unless the fast one lasts most of a run; an even mix puts the median in
    # the gap between the shapes, and 2:1 puts it where the state flips it.
    Workload("dense-allpairs", ("dense",),
             (Shape("qudo", 16, 2, 15, lin=True), Shape("qudo", 10, 3, 9, lin=True),
              Shape("qudo", 10, 3, 9, lin=True)),
             pool=18, reference="brute"),
)}


def instance_document(rng: np.random.Generator, shape: Shape) -> str:
    """JSON instance with every band coefficient uniform on [-1, 1]."""
    n, d, k = shape.n, shape.d, shape.k
    pairs = [(i, j) for i in range(n) for j in range(i, min(i + k, n - 1) + 1)]
    doc = {"kind": shape.kind, "n": n, "d": d}
    if shape.kind == "tqudo":
        keys = [(i, j, a, b) for i, j in pairs for a in range(d) for b in range(d)
                if i != j or a == b]
        vals = rng.uniform(-1.0, 1.0, len(keys)).tolist()
        doc["qhat"] = [[*key, v] for key, v in zip(keys, vals)]
    else:
        vals = rng.uniform(-1.0, 1.0, len(pairs)).tolist()
        doc["q"] = [[i, j, v] for (i, j), v in zip(pairs, vals)]
        if shape.lin:
            doc["lin"] = [[i, v] for i, v in enumerate(rng.uniform(-1.0, 1.0, n).tolist())]
    return json.dumps(doc)


def pool_documents(workload: Workload, seed: int) -> list:
    """The workload's instance documents; equal seeds give equal documents."""
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([seed, index])
    shapes = workload.shapes
    return [instance_document(rng, shapes[i % len(shapes)])
            for i in range(workload.pool)]

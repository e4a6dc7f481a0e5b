"""Problem classes: QUBO / QUDO / T-QUDO cost models and instance I/O.

Coefficients are stored sparsely as upper-triangular maps; a missing key is an
exact zero.  QUBO is stored as a d=2 QUDO with an empty linear map, so all
downstream code has a single code path per representation (quadratic maps or
the tensor map of T-QUDO).
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InstanceFormatError, InvalidAssignmentError, NotAChainError

KINDS = ("qubo", "qudo", "tqudo")


@dataclass
class Problem:
    """A QUBO, QUDO or T-QUDO instance.

    quad maps (i, j) with i <= j to Q_ij (qubo/qudo), lin maps i to the linear
    coefficient D_i (qudo only), qhat maps (i, j, a, b) with i <= j to the
    tensor cost entry (tqudo only).  Instances are treated as immutable after
    construction and are safe to share across workers.
    """

    kind: str
    n: int
    d: int
    quad: dict = field(default_factory=dict)
    lin: dict = field(default_factory=dict)
    qhat: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.kind == "qubo":
            if self.d != 2:
                raise ValueError("qubo requires d = 2")
            if self.lin:
                raise ValueError("qubo absorbs the linear term; lin must be empty")
        if self.kind == "tqudo":
            if self.quad or self.lin:
                raise ValueError("tqudo stores coefficients in qhat only")
            self._check_pairs(self.qhat)
            if self.qhat:
                _, _, a, b = zip(*self.qhat)
                if not (0 <= min(a + b) and max(a + b) < self.d):
                    bad = next(key for key in self.qhat
                               if not (0 <= key[2] < self.d and 0 <= key[3] < self.d))
                    raise ValueError(f"value index out of range in qhat key {bad}")
        else:
            if self.qhat:
                raise ValueError(f"{self.kind} does not use qhat")
            self._check_pairs(self.quad)
            if self.lin and not (0 <= min(self.lin) and max(self.lin) < self.n):
                bad = next(i for i in self.lin if not 0 <= i < self.n)
                raise ValueError(f"lin index {bad} out of range")

    def _check_pairs(self, keys):
        if not keys:
            return
        i, j = list(zip(*keys))[:2]
        if not (0 <= min(i) and max(j) < self.n and all(map(operator.le, i, j))):
            bad = next(key[:2] for key in keys if not 0 <= key[0] <= key[1] < self.n)
            raise ValueError(f"coefficient pair {bad} violates 0 <= i <= j < n")

    @property
    def bandwidth(self) -> int:
        """Smallest k such that every stored pair (i, j) has j - i <= k."""
        keys = self.qhat if self.kind == "tqudo" else self.quad
        return max((j - i for (i, j, *_) in keys), default=0)


def check_assignment(p: Problem, x) -> list:
    """Validate an assignment against a problem; returns it as a list of ints."""
    vals = [int(v) for v in x]
    if len(vals) != p.n:
        raise InvalidAssignmentError(f"assignment length {len(vals)} != n={p.n}")
    for v in vals:
        if not 0 <= v < p.d:
            raise InvalidAssignmentError(f"value {v} outside [0, {p.d})")
    return vals


def evaluate_cost(p: Problem, x) -> float:
    """Exact cost of an assignment under the instance's cost model.

    Terms are accumulated in sorted key order so the result is reproducible
    bit-for-bit regardless of map construction order.
    """
    vals = check_assignment(p, x)
    total = 0.0
    if p.kind == "tqudo":
        for (i, j, a, b) in sorted(p.qhat):
            if vals[i] == a and vals[j] == b:
                total += p.qhat[(i, j, a, b)]
        return total
    for (i, j) in sorted(p.quad):
        total += p.quad[(i, j)] * vals[i] * vals[j]
    for i in sorted(p.lin):
        total += p.lin[i] * vals[i]
    return total


@dataclass
class ChainProblem:
    """k-neighbor view of a problem whose bandwidth fits inside the band.

    diag_cost[m, z] is the local cost of variable m taking value z (self term
    plus linear term).  cross_cost[m, j-1, a, b] is the interaction cost
    between variable m at value a and variable m+j at value b; slices past the
    chain end are zero.
    """

    problem: Problem | None
    k: int
    n: int
    d: int
    diag_cost: np.ndarray
    cross_cost: np.ndarray


def chain_view(p: Problem, k: int) -> ChainProblem:
    """Expose the k-neighbor local factors of p; fails if the bandwidth exceeds k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    keys = p.qhat if p.kind == "tqudo" else p.quad
    for key in sorted(keys):
        i, j = key[0], key[1]
        if j - i > k:
            raise NotAChainError((i, j), k)
    n, d = p.n, p.d
    diag = np.zeros((n, d))
    cross = np.zeros((n, k, d, d))
    if p.kind == "tqudo":
        for (i, j, a, b), v in p.qhat.items():
            if i == j:
                if a == b:
                    diag[i, a] += v
            else:
                cross[i, j - i - 1, a, b] += v
    else:
        vals = np.arange(d, dtype=float)
        for (i, j), q in p.quad.items():
            if i == j:
                diag[i] += q * vals * vals
            else:
                cross[i, j - i - 1] += q * np.outer(vals, vals)
        for i, dc in p.lin.items():
            diag[i] += dc * vals
    return ChainProblem(problem=p, k=k, n=n, d=d, diag_cost=diag, cross_cost=cross)


def to_tqudo(p: Problem) -> Problem:
    """Embed a QUBO/QUDO instance into the T-QUDO representation.

    Uses the same scalar expressions as the quadratic evaluation, so the
    embedded instance reproduces costs and solver factor tables exactly.
    """
    if p.kind == "tqudo":
        return p
    qhat = {}
    for (i, j), q in p.quad.items():
        if i == j:
            for a in range(1, p.d):
                qhat[(i, i, a, a)] = q * a * a
        else:
            for a in range(1, p.d):
                for b in range(1, p.d):
                    # grouped as q * (a*b) to match the vectorized outer
                    # product used by the chain view bit-for-bit
                    qhat[(i, j, a, b)] = q * (a * b)
    for i, dc in p.lin.items():
        for a in range(1, p.d):
            key = (i, i, a, a)
            qhat[key] = qhat.get(key, 0.0) + dc * a
    return Problem(kind="tqudo", n=p.n, d=p.d, qhat=qhat)


def random_instance(kind: str, n: int, d: int, k: int, seed: int,
                    lin_enabled: bool = False) -> Problem:
    """Seeded random banded instance with coefficients uniform on [-1, 1].

    Q_{i,i+j} is drawn for every j in [0, k]; for T-QUDO the corresponding
    tensor entries are drawn instead.  The draw order is fixed, so equal seeds
    give bit-identical instances.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    if not 1 <= k < max(n, 2):
        raise ValueError("need 1 <= k < n")
    if kind == "qubo" and d != 2:
        raise ValueError("qubo requires d = 2")
    if lin_enabled and kind != "qudo":
        raise ValueError("the linear term only exists for qudo")
    rng = np.random.default_rng(seed)
    if kind == "tqudo":
        qhat = {}
        for i in range(n):
            for j in range(i, min(i + k, n - 1) + 1):
                if i == j:
                    for a in range(d):
                        qhat[(i, i, a, a)] = float(rng.uniform(-1.0, 1.0))
                else:
                    for a in range(d):
                        for b in range(d):
                            qhat[(i, j, a, b)] = float(rng.uniform(-1.0, 1.0))
        return Problem(kind=kind, n=n, d=d, qhat=qhat)
    quad = {}
    for i in range(n):
        for j in range(i, min(i + k, n - 1) + 1):
            quad[(i, j)] = float(rng.uniform(-1.0, 1.0))
    lin = {}
    if lin_enabled:
        for i in range(n):
            lin[i] = float(rng.uniform(-1.0, 1.0))
    return Problem(kind=kind, n=n, d=d, quad=quad, lin=lin)


def serialize_instance(p: Problem) -> str:
    """Instance as a UTF-8 JSON document; parse(serialize(p)) == p."""
    doc = {"kind": p.kind, "n": p.n, "d": p.d}
    if p.kind == "tqudo":
        doc["qhat"] = [[i, j, a, b, v] for (i, j, a, b), v in sorted(p.qhat.items())]
    else:
        doc["q"] = [[i, j, v] for (i, j), v in sorted(p.quad.items())]
        if p.lin:
            doc["lin"] = [[i, v] for i, v in sorted(p.lin.items())]
    return json.dumps(doc)


def _reject_constant(name: str):
    raise InstanceFormatError(f"non-finite coefficient {name}")


def parse_instance(text: str) -> Problem:
    """Parse an instance document, rejecting malformed or duplicate entries.

    Indices must be JSON integers and coefficients finite numbers; NaN,
    Infinity and literals that overflow to infinity are rejected.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    try:
        kind = doc["kind"]
        n = int(doc["n"])
        d = int(doc["d"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"missing or invalid header field: {exc}") from exc
    if kind not in KINDS:
        raise InstanceFormatError(f"unknown kind {kind!r}")

    def load_entries(name, arity):
        rows = doc.get(name, [])
        if type(rows) is not list:
            raise InstanceFormatError(f"{name} must be a list of entries")
        if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {arity + 1}):
            bad = next(r for r in rows if type(r) is not list or len(r) != arity + 1)
            raise InstanceFormatError(f"malformed {name} entry {bad!r}")
        columns = list(zip(*rows)) or [()] * (arity + 1)
        # bool is a subclass of int, so types are compared exactly
        if not set(map(type, itertools.chain.from_iterable(columns[:arity]))) <= {int}:
            bad = next(r for r in rows if not all(type(v) is int for v in r[:arity]))
            raise InstanceFormatError(f"non-integer index in {name} entry {bad!r}")
        if not set(map(type, columns[arity])) <= {int, float}:
            bad = next(r for r in rows if type(r[arity]) not in (int, float))
            raise InstanceFormatError(f"non-numeric value in {name} entry {bad!r}")
        try:
            values = list(map(float, columns[arity]))
        except OverflowError as exc:  # an integer literal beyond float range
            raise InstanceFormatError(f"coefficient out of range in {name}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise InstanceFormatError(f"non-finite coefficient in {name}")
        keys = list(zip(*columns[:arity]))
        entries = dict(zip(keys, values))
        if len(entries) != len(keys):
            seen = set()
            for key in keys:
                if key in seen:
                    raise InstanceFormatError(f"duplicate {name} entry for {key}")
                seen.add(key)
        return entries

    quad = load_entries("q", 2)
    lin = {k[0]: v for k, v in load_entries("lin", 1).items()}
    qhat = load_entries("qhat", 4)
    try:
        return Problem(kind=kind, n=n, d=d, quad=quad, lin=lin, qhat=qhat)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc

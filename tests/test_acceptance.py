"""End-to-end acceptance suite.

Each test covers one release criterion at its stated instance counts and
tolerances and prints a single PASS/FAIL line (visible with pytest -s, or in
the captured output on failure).
"""
import csv
import json
import math
import time

import numpy as np
import pytest

from qudotn import (
    Problem,
    brute_force,
    build_stair,
    chain_view,
    contract_marginal,
    direct_marginal,
    normalize,
    random_instance,
    solve_matrix,
    solve_tensor,
    solve_waterfall,
    to_tqudo,
    transfer_operator_dense,
)
from qudotn.cli import COMPARE_COLUMNS, main as cli_main
from qudotn.driver import solve_instance
from qudotn.tn_core import (
    SolverConfig,
    copy_node,
    cross_interaction_node,
    last_row_cross_node,
    self_interaction_node,
)

GRID = (0.1, 500.0, 100)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} [{name}] failed{suffix}"


def test_criterion_1_dense_marginal_oracle():
    start = time.perf_counter()
    taus = [0.5, 1.0, 2.0]
    worst = 0.0
    for idx in range(200):
        n = 2 + idx % 9            # 2..10
        d = 2 + idx % 2            # {2, 3}
        tau = taus[idx % 3]
        p = random_instance("qudo", n, d, max(n - 1, 1), seed=1000 + idx,
                            lin_enabled=True)
        net = build_stair(p, SolverConfig(tau=tau))
        fixed = {}
        for i in range(n):
            vec = contract_marginal(net, i, fixed).entries
            oracle, _ = normalize(np.asarray(direct_marginal(p, i, fixed, tau)))
            worst = max(worst, float(np.max(np.abs(vec - oracle))))
            fixed[i] = int(np.argmax(vec))
    elapsed = time.perf_counter() - start
    report(1, "dense marginal vs oracle", worst <= 1e-10 and elapsed < 120,
           f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_cross_method_equality():
    start = time.perf_counter()
    ns = [5, 8, 12, 20, 30, 50, 80, 120, 160, 200]
    mism = 0
    worst = 0.0
    for idx in range(200):
        n = ns[idx % len(ns)]
        d = 2 + idx % 3            # {2, 3, 4}
        k = 1 + idx % 3            # {1, 2, 3}
        tau = [1.0, 10.0, 50.0][idx % 3]
        p = random_instance("qudo", n, d, k, seed=2000 + idx, lin_enabled=True)
        ch = chain_view(p, k)
        cfg = SolverConfig(tau=tau)
        a = solve_matrix(ch, cfg)
        b = solve_tensor(ch, cfg)
        c = solve_waterfall(ch, cfg)
        if not (a.assignment == b.assignment == c.assignment):
            mism += 1
        for x, y in zip(a.marginals, b.marginals):
            worst = max(worst, float(np.max(np.abs(x.entries - y.entries))))
    elapsed = time.perf_counter() - start
    report(2, "matrix = tensor = waterfall",
           mism == 0 and worst <= 1e-9 and elapsed < 300,
           f"{mism} mismatches, marginal dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_optimality_rate():
    hits = 0
    below = 0
    for idx in range(200):
        n = 4 + idx % 9            # 4..12
        d = 2 + idx % 2            # {2, 3}
        k = 1 + idx % 3
        p = random_instance("qudo", n, d, k, seed=3000 + idx, lin_enabled=True)
        out = solve_instance(p, "matrix", SolverConfig(tau=50.0, tau_grid=GRID),
                             k=k)
        ref = brute_force(p)
        if out.cost < ref.best_cost - 1e-9:
            below += 1
        if abs(out.cost - ref.best_cost) <= 1e-9:
            hits += 1
    report(3, "tau-grid optimality", hits >= 190 and below == 0,
           f"{hits}/200 optimal, {below} below optimum")


def test_criterion_4_linear_scaling():
    start = time.perf_counter()

    def timed(n, seed):
        p = random_instance("qudo", n, 2, 2, seed=seed)
        ch = chain_view(p, 2)
        t0 = time.perf_counter()
        solve_matrix(ch, SolverConfig(tau=50.0))
        return time.perf_counter() - t0

    # the sizes alternate, so a swing in machine speed hits both sides
    times1, times2 = [], []
    for r in range(5):
        times1.append(timed(1000, 40 + r))
        times2.append(timed(2000, 40 + r))
    ratio = float(np.median(times2) / np.median(times1))
    elapsed = time.perf_counter() - start
    report(4, "linear-in-n scaling", 1.5 <= ratio <= 3.0 and elapsed < 180,
           f"ratio {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_5_sparsity_structure():
    ok = True
    detail = ""
    for d in range(2, 6):
        p = random_instance("qudo", 6, d, 3, seed=50 + d, lin_enabled=True)
        if np.count_nonzero(self_interaction_node(p, 1, 1.0)) != d:
            ok, detail = False, f"self node d={d}"
        if np.count_nonzero(cross_interaction_node(p, 1, 2, 1.0)) != d * d:
            ok, detail = False, f"cross node d={d}"
        if np.count_nonzero(last_row_cross_node(p, 3, 1.0)) != d * d:
            ok, detail = False, f"last-row node d={d}"
        if np.count_nonzero(copy_node(d)) != d:
            ok, detail = False, f"copy node d={d}"
        for k in range(1, 4):
            ch = chain_view(random_instance("qudo", k + 3, d, k, seed=d * 7 + k),
                            k)
            op = transfer_operator_dense(ch, 1, tau=1.0)
            if np.count_nonzero(op) != d ** (k + 1):
                ok, detail = False, f"operator d={d} k={k}"
    report(5, "sparsity structure", ok, detail or "all counts exact")


def test_criterion_6_waterfall_probability_trend():
    start = time.perf_counter()
    ds = [2, 3, 4, 5, 6]
    means = []
    errs = []
    for d in ds:
        probs = []
        for inst in range(50):
            p = random_instance("qudo", 200, d, 1, seed=6000 + 100 * d + inst,
                                lin_enabled=True)
            out = solve_instance(p, "waterfall",
                                 SolverConfig(tau=50.0, tau_grid=GRID), k=1)
            probs.append(out.stats.w_prob)
        means.append(float(np.mean(probs)))
        errs.append(float(np.std(probs, ddof=1) / math.sqrt(len(probs))))
    trend_ok = all(
        means[i + 1] <= means[i] + math.hypot(errs[i], errs[i + 1])
        for i in range(len(ds) - 1))
    decoupled_ok = True
    for d in ds:
        p = Problem(kind="qudo", n=200, d=d,
                    quad={(i, i): float(np.sin(i)) for i in range(200)})
        res = solve_waterfall(chain_view(p, 1), SolverConfig(tau=50.0))
        if res.stats.w_prob != 1.0:
            decoupled_ok = False
    elapsed = time.perf_counter() - start
    report(6, "waterfall probability trend",
           trend_ok and decoupled_ok and elapsed < 600,
           "means " + ", ".join(f"{m:.3f}" for m in means) +
           f", {elapsed:.0f}s")


def test_criterion_7_waterfall_memory():
    ok = True
    detail = ""
    for seed in range(10):
        n = 40
        k = 1 + seed % 2
        rng = np.random.default_rng(700 + seed)
        quad = {}
        for i in range(n):
            for j in range(i, min(i + k, n - 1) + 1):
                # zero out every coupling that crosses the midpoint
                if i < n // 2 <= j:
                    quad[(i, j)] = 0.0
                else:
                    quad[(i, j)] = float(rng.uniform(-1.0, 1.0))
        p = Problem(kind="qudo", n=n, d=2, quad=quad)
        ch = chain_view(p, k)
        res = solve_waterfall(ch, SolverConfig(tau=50.0))
        held = res.stats.peak_tables_held
        messages = solve_matrix(ch, SolverConfig(tau=50.0)).messages_held
        if held > n // 2 + k or messages != n - 1:
            ok, detail = False, f"seed {seed}: held {held}, messages {messages}"
    report(7, "waterfall memory release", ok, detail or "peak within n/2 + k")


def test_criterion_8_tqudo_and_embedding():
    hits = 0
    below = 0
    for idx in range(100):
        n = 4 + idx % 7            # 4..10
        d = 2 + idx % 2            # {2, 3}
        k = 1 + idx % 2            # {1, 2}
        p = random_instance("tqudo", n, d, k, seed=8000 + idx)
        out = solve_instance(p, "matrix", SolverConfig(tau=50.0, tau_grid=GRID),
                             k=k)
        ref = brute_force(p)
        if out.cost < ref.best_cost - 1e-9:
            below += 1
        if abs(out.cost - ref.best_cost) <= 1e-9:
            hits += 1
    embed_ok = True
    for idx in range(40):
        kind = "qubo" if idx % 2 else "qudo"
        d = 2 if kind == "qubo" else 3
        k = 1 + idx % 2
        p = random_instance(kind, 6 + idx % 5, d, k, seed=8500 + idx,
                            lin_enabled=(kind == "qudo"))
        t = to_tqudo(p)
        for tau in (1.0, 50.0):
            a = solve_matrix(chain_view(p, k), SolverConfig(tau=tau))
            b = solve_matrix(chain_view(t, k), SolverConfig(tau=tau))
            if a.assignment != b.assignment:
                embed_ok = False
    report(8, "tqudo correctness + embedding",
           hits >= 95 and below == 0 and embed_ok,
           f"{hits}/100 optimal, {below} below, embedding {'ok' if embed_ok else 'broken'}")


def test_criterion_9_determinism(tmp_path, capsys):
    # library-level: identical assignments, costs and marginal bytes
    lib_ok = True
    for seed in range(5):
        p = random_instance("qudo", 30, 3, 2, seed=900 + seed, lin_enabled=True)
        ch = chain_view(p, 2)
        a = solve_matrix(ch, SolverConfig(tau=10.0))
        b = solve_matrix(ch, SolverConfig(tau=10.0))
        if a.assignment != b.assignment or a.cost != b.cost:
            lib_ok = False
        for x, y in zip(a.marginals, b.marginals):
            if x.entries.tobytes() != y.entries.tobytes():
                lib_ok = False
    # CLI level: byte-identical CSV modulo the wall_time column
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "qudo", "n": 8, "d": 3,
        "q": [[i, i + 1, 0.3 * (i - 2)] for i in range(7)]}))
    snapshots = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli_main(["compare", "--input", str(inst), "--tau", "10",
                         "--k", "1", "--output", str(out)])
        capsys.readouterr()
        assert code == 0
        ti = COMPARE_COLUMNS.index("wall_time")
        rows = [r[:ti] + r[ti + 1:]
                for r in csv.reader(out.read_text().splitlines())]
        snapshots.append(rows)
    gen = []
    for name in ("g1.json", "g2.json"):
        out = tmp_path / name
        code = cli_main(["generate", "--n", "9", "--d", "3", "--k", "2",
                         "--seed", "77", "--output", str(out)])
        capsys.readouterr()
        assert code == 0
        gen.append(out.read_bytes())
    cli_ok = snapshots[0] == snapshots[1] and gen[0] == gen[1]
    report(9, "determinism", lib_ok and cli_ok,
           f"library {'ok' if lib_ok else 'broken'}, cli {'ok' if cli_ok else 'broken'}")

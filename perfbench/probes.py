"""Layer probes for the traced run.

Probes are installed from outside the program: each public function a layer
calls is rebound, in the namespace of the module that imported it, to a
wrapper that records a span (name, start, end, parent span, operation id,
exception name).  The per-element cost lookups and argmax calls get a
tally instead (count and summed seconds, no span).  Spans stay in memory and
are written out when the run ends.  Layer names are the qudotn modules that
do the work.
"""
from __future__ import annotations

import csv
import gzip
import statistics
from collections import defaultdict
from time import perf_counter

SOLVER_ENTRIES = ("chain_solver.solve_matrix", "chain_solver.solve_tensor",
                  "waterfall.solve_waterfall", "dense_solver.solve_dense")

# (importing module, name bound there) -> span name
SPANS = {
    ("driver", "chain_view"): "problem.chain_view",
    ("driver", "solve_matrix"): "chain_solver.solve_matrix",
    ("driver", "solve_tensor"): "chain_solver.solve_tensor",
    ("driver", "solve_waterfall"): "waterfall.solve_waterfall",
    ("driver", "solve_dense"): "dense_solver.solve_dense",
    ("chain_solver", "ChainFactors"): "chain_solver.ChainFactors",
    ("waterfall", "ChainFactors"): "chain_solver.ChainFactors",
    ("chain_solver", "backward_pass_matrix"): "chain_solver.backward_pass_matrix",
    ("chain_solver", "marginal_matrix"): "chain_solver.marginal_matrix",
    ("chain_solver", "evaluate_cost"): "problem.evaluate_cost",
    ("dense_solver", "evaluate_cost"): "problem.evaluate_cost",
    ("chain_solver", "normalize"): "tn_core.normalize",
    ("dense_solver", "normalize"): "tn_core.normalize",
    ("waterfall", "candidate_table"): "waterfall.candidate_table",
    ("waterfall", "check_cascade"): "waterfall.check_cascade",
}

TALLIES = {
    ("chain_solver", "argmax_extract"): "tn_core.argmax_extract",
    ("dense_solver", "argmax_extract"): "tn_core.argmax_extract",
    ("dense_solver", "self_cost"): "dense_solver.cost_lookup",
    ("dense_solver", "cross_cost"): "dense_solver.cost_lookup",
}


def _chain_notes(args, result):
    chain = args[0]
    return {}, {"message_bytes": result.messages_held * chain.d ** chain.k * 8}


def _waterfall_notes(args, result):
    chain, stats = args[0], result.stats
    return ({"cascade_events": stats.uniform_events, "waterfall_rows": chain.n},
            {"peak_tables_held": stats.peak_tables_held,
             "table_bytes": stats.peak_tables_held * chain.d ** chain.k * 8})


def _dense_notes(args, result):
    p = args[0]
    # solve_dense stores the boundary over x_0..x_{m-1} for m = 1..n-1
    return {}, {"boundary_bytes": sum(p.d ** m for m in range(1, p.n)) * 8}


def _backward_notes(args, result):
    return {"backward_rows": len(result)}, {}


def _candidate_notes(args, result):
    message, chain, m = args[0], args[1], args[2]
    states = message.length if message is not None else 0
    return {"candidate_cells": chain.d ** (min(chain.k, m) + 1 + states)}, {}


# span name -> function(args, result) -> (summed counters, peak counters)
NOTES = {
    "chain_solver.solve_matrix": _chain_notes,
    "chain_solver.solve_tensor": _chain_notes,
    "waterfall.solve_waterfall": _waterfall_notes,
    "dense_solver.solve_dense": _dense_notes,
    "chain_solver.backward_pass_matrix": _backward_notes,
    "waterfall.candidate_table": _candidate_notes,
}


class Tracer:
    """Span and tally recorder for one traced run, single-threaded."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent, op, error)
        self.stack = []
        self.op = -1
        self.sums = defaultdict(lambda: defaultdict(float))   # op -> key -> sum
        self.peaks = defaultdict(lambda: defaultdict(float))  # op -> key -> max
        self._installed = []

    def span(self, name, fn):
        notes = NOTES.get(name)

        def wrapper(*args, **kwargs):
            index, parent, error = len(self.spans), self.stack[-1] if self.stack else -1, ""
            self.spans.append(None)
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                # a tuple of atoms, which the cyclic GC stops tracking, so a
                # long span list does not slow the collections it triggers
                self.spans[index] = (name, start, perf_counter(), parent, self.op, error)
                self.stack.pop()
            if notes is not None:
                sums, peaks = notes(args, result)
                for key, value in sums.items():
                    self.sums[self.op][key] += value
                for key, value in peaks.items():
                    slot = self.peaks[self.op]
                    slot[key] = max(slot[key], value)
            return result

        return wrapper

    def tally(self, name, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot = self.sums[self.op]
                slot[name + ".calls"] += 1
                slot[name + ".s"] += perf_counter() - start

        return wrapper

    def install(self, modules: dict):
        """Rebind every probed name; modules maps short name -> module."""
        for table, make in ((SPANS, self.span), (TALLIES, self.tally)):
            for (mod_name, attr), name in table.items():
                mod = modules[mod_name]
                original = getattr(mod, attr)
                self._installed.append((mod, attr, original))
                setattr(mod, attr, make(name, original))

    def uninstall(self):
        while self._installed:
            mod, attr, original = self._installed.pop()
            setattr(mod, attr, original)

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start", "end", "parent", "op", "error"))
            out.writerows(self.spans)


def _per_op(tracer: Tracer, ops: list):
    """Per operation: summed duration, call count and self time per span name."""
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, op, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    dur = {op: defaultdict(float) for op in ops}
    calls = {op: defaultdict(int) for op in ops}
    self_time = {op: defaultdict(float) for op in ops}
    faults = {op: 0 for op in ops}
    for i, (name, start, end, parent, op, error) in enumerate(tracer.spans):
        if op not in dur:
            continue
        dur[op][name] += end - start
        calls[op][name] += 1
        self_time[op][name] += end - start - child_time[i]
        if name in SOLVER_ENTRIES and error == "NumericFaultError":
            faults[op] += 1
    return dur, calls, self_time, faults


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: list) -> dict:
    """Per-layer metrics: each summed per operation, median over operations.

    Ratios (``*_frac``) are taken over the totals of all traced operations.
    ``*_bytes`` are computed from result fields, not measured.
    """
    dur, calls, self_time, faults = _per_op(tracer, ops)
    sums, peaks = tracer.sums, tracer.peaks

    def med(values):
        return statistics.median(values) if values else 0.0

    def each(fn):
        return med([fn(op) for op in ops])

    points = {op: sum(calls[op][name] for name in SOLVER_ENTRIES) for op in ops}
    return {
        "driver.grid_points": (each(lambda op: points[op]), "count"),
        "driver.grid_faults": (each(lambda op: faults[op]), "count"),
        "driver.grid_fault_frac": (_ratio(sum(faults.values()), sum(points.values())), "1"),
        "driver.self_s": (each(lambda op: self_time[op]["driver.solve_instance"]), "s"),
        "problem.chain_view_s": (each(lambda op: dur[op]["problem.chain_view"]), "s"),
        "problem.chain_view_calls": (each(lambda op: calls[op]["problem.chain_view"]), "count"),
        "problem.evaluate_cost_s": (each(lambda op: dur[op]["problem.evaluate_cost"]), "s"),
        "problem.evaluate_cost_calls": (
            each(lambda op: calls[op]["problem.evaluate_cost"]), "count"),
        "chain_solver.factors_s": (each(lambda op: dur[op]["chain_solver.ChainFactors"]), "s"),
        "chain_solver.factors_calls": (
            each(lambda op: calls[op]["chain_solver.ChainFactors"]), "count"),
        "chain_solver.backward_s": (
            each(lambda op: dur[op]["chain_solver.backward_pass_matrix"]), "s"),
        "chain_solver.backward_row_us": (each(lambda op: 1e6 * _ratio(
            dur[op]["chain_solver.backward_pass_matrix"], sums[op]["backward_rows"])), "us"),
        "chain_solver.forward_s": (each(lambda op: dur[op]["chain_solver.marginal_matrix"]), "s"),
        "chain_solver.forward_var_us": (each(lambda op: 1e6 * _ratio(
            dur[op]["chain_solver.marginal_matrix"],
            calls[op]["chain_solver.marginal_matrix"])), "us"),
        "chain_solver.tensor_s": (each(lambda op: dur[op]["chain_solver.solve_tensor"]), "s"),
        "chain_solver.message_bytes": (each(lambda op: peaks[op]["message_bytes"]), "B"),
        "waterfall.candidate_table_s": (
            each(lambda op: dur[op]["waterfall.candidate_table"]), "s"),
        "waterfall.candidate_cells": (each(lambda op: sums[op]["candidate_cells"]), "count"),
        "waterfall.check_cascade_s": (each(lambda op: dur[op]["waterfall.check_cascade"]), "s"),
        "waterfall.self_s": (each(lambda op: self_time[op]["waterfall.solve_waterfall"]), "s"),
        "waterfall.cascade_frac": (_ratio(sum(sums[op]["cascade_events"] for op in ops),
                                          sum(sums[op]["waterfall_rows"] for op in ops)), "1"),
        "waterfall.peak_tables_held": (each(lambda op: peaks[op]["peak_tables_held"]), "count"),
        "waterfall.table_bytes": (each(lambda op: peaks[op]["table_bytes"]), "B"),
        "dense_solver.solve_s": (each(lambda op: dur[op]["dense_solver.solve_dense"]), "s"),
        "dense_solver.cost_lookups": (
            each(lambda op: sums[op]["dense_solver.cost_lookup.calls"]), "count"),
        "dense_solver.table_build_s": (
            each(lambda op: sums[op]["dense_solver.cost_lookup.s"]), "s"),
        "dense_solver.boundary_bytes": (each(lambda op: peaks[op]["boundary_bytes"]), "B"),
        "tn_core.normalize_calls": (each(lambda op: calls[op]["tn_core.normalize"]), "count"),
        "tn_core.normalize_s": (each(lambda op: dur[op]["tn_core.normalize"]), "s"),
        "tn_core.argmax_calls": (
            each(lambda op: sums[op]["tn_core.argmax_extract.calls"]), "count"),
    }

"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/out/set-a.json
    python3 perfbench/spread.py --seeds 1-10 --compare perfbench/out/set-a.json
    python3 perfbench/spread.py --workloads tau-grid --seeds 1-5 --trace 1

For every workload and metric it prints the median over seeds and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--trace 0`` it flags an end-to-end metric whose spread exceeds a third of
its bound in BENCHMARK.json (``setup_s`` is exempt), and with ``--compare``
one whose median is worse than the earlier set's by more than its bound.
Runs are sequential, one process at a time.  Exit status 1 when any run
failed or any flag was raised.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable if arg == "python3" else arg for arg in bench["command"]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr)
        return None
    return result


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else float("inf"))
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    parser.add_argument("--compare", type=Path, help="an earlier --out file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    summary, status = {}, 0
    for workload in workloads:
        values: dict = {}
        for seed in seed_list(args.seeds):
            result = run_once(bench, workload, seed, seconds, args.trace)
            if result is None:
                print(f"{workload} seed {seed}: run failed")
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        if not values or len(next(iter(values.values()))) < 2:
            continue
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            flags = []
            spec = bounds.get(name) if not args.trace else None
            if spec and name != "setup_s" and s["spread"] > spec["bound"] / 3:
                flags.append(f"spread above bound/3 ({spec['bound'] / 3:.3f})")
            before = earlier.get(workload, {}).get(name)
            if spec and before:
                worse = (s["median"] - before["median"]) / abs(before["median"])
                if spec["better"] == "higher":
                    worse = -worse
                if worse > spec["bound"]:
                    flags.append(f"median worse than the earlier set by {worse:.3f}")
            status |= bool(flags)
            print(f"{workload:15s} {name:30s} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} n={len(s['values'])} {'; '.join(flags)}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())

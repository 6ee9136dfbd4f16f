"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload drive_at --seeds 1-10 --save runs.json
    python3 perfbench/spread.py --compare first.json second.json

The spread of a metric is the distance between the first and third quartile
of its per-seed values (``statistics.quantiles(values, n=4)``) as a share of
their median; a steady metric keeps it below a third of its bound in
BENCHMARK.json.  ``--compare`` checks that the second set's median is not
worse than the first's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(workload: str, seeds: list[int], trace: int) -> list[dict]:
    results = []
    for seed in seeds:
        cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["record"] = json.loads(lines[-2])["record"]
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    return results


def medians(results: list[dict]) -> dict[str, float]:
    names = results[0]["metrics"]
    return {n: statistics.median(r["metrics"][n]["value"] for r in results) for n in names}


def report(results: list[dict]) -> bool:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    steady = True
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        ok = bound is None or name == "setup_s" or spread < bound / 3
        steady &= ok
        print(f"{name:<24} median {med:<12.6g} spread {spread:8.4f}  bound {bound}"
              f"{'' if ok else '  WIDE'}")
    return steady


def compare(first: list[dict], second: list[dict]) -> bool:
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    a, b = medians(first), medians(second)
    agree = True
    for name, m in spec.items():
        change = (b[name] - a[name]) / a[name]
        worse = change if m["better"] == "lower" else -change
        ok = worse <= m["bound"]
        agree &= ok
        print(f"{name:<24} {a[name]:<12.6g} -> {b[name]:<12.6g} {100 * change:+7.2f}%"
              f"{'' if ok else '  WORSE THAN BOUND'}")
    return agree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    if args.compare:
        sets = [json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare]
        return 0 if compare(*sets) else 1
    results = collect(args.workload, _seeds(args.seeds), args.trace)
    if args.save:
        Path(args.save).write_text(json.dumps(results), encoding="utf-8")
    ok = all(r["correct"] for r in results)
    return 0 if (report(results) if args.trace == 0 else True) and ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the untraced benchmark once per seed and summarise each metric's spread.

    python3 bench/spread.py --seeds 1-10 --workloads ett_c7 wide_c321 \
        --out bench/out/spread.json

For every workload and metric it reports the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median. Runs are made
one after the other, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(result, env) of one run; env also holds the run's wall time and the
    status of its gradient check."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds",
                           str(seconds), "--trace", "0"],
                          capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    env["wall_s"] = time.perf_counter() - started
    env["gradient_check"] = next((line.split()[2] for line in lines
                                  if line.strip().startswith("gradient check:")),
                                 "missing")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        results, walls, grads = [], [], []
        for seed in seeds_from(args.seeds):
            result, env = run_once(workload, seed, args.seconds)
            results.append(result)
            walls.append(env.pop("wall_s"))
            grads.append(env.pop("gradient_check"))
            record.setdefault("env", {k: v for k, v in env.items()
                                      if k not in ("workload", "seed")})
        metrics = {name: summarise([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        record["workloads"][workload] = {
            "seeds": seeds_from(args.seeds),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "run_wall_s": walls,
            "gradient_check": grads,
            "metrics": metrics}
        print(f"{workload}  runs of {min(walls):.1f}-{max(walls):.1f} s  "
              f"gradient check {' '.join(grads)}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            if bound is None:
                flag = ""
            elif m["spread"] < bound / 3:
                flag = "ok"
            else:
                flag = "within bound" if m["spread"] <= bound else "OVER BOUND"
            print(f"  {name:<34} median {m['median']:<12.6g} spread "
                  f"{m['spread']:.3f}  {flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

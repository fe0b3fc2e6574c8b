"""The wallspan benchmark.

    python3 perfbench/run.py --workload accept-grid --seed 42 --seconds 35 --trace 0

Runs passes of one workload, one fresh interpreter at a time (see worker.py),
for about `--seconds` seconds and at least MIN_PASSES passes.  Every input is
timed in every pass, next to a fixed reference loop of the kind of work
that dominates the workload (worker.REFERENCE).  Since the host's own speed
moves by up to 2x, times are reported in seconds at the reference loop's
quiet speed: wall time / reference time * REF_S.  `pass_s` sums each
input's median scaled time over the passes.  `setup_s` is the median scaled
start-up of the SETUPS import-only interpreters run before each pass.
`peak_rss_mb` is the highest peak memory of any pass.
With `--trace 1` one traced pass runs first and the run prints the
per-layer metrics instead.  Every pass's outputs are checked against
oracle.py; the last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from worker import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MIN_PASSES = 3
SETUPS = 4
PASS_TIMEOUT_S = 60
MODULES = ("__init__", "acceptance", "cli", "clifford", "f2cohomology", "fields", "harness", "invariants")


def run_pass(workload: str, seed: int, quick: bool, trace: bool) -> dict:
    """One worker interpreter; returns its result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "trace": trace,
        "out": str(RESULTS / f"trace-{workload}.txt"),
    }
    args["spawned"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(args)],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=PASS_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"pass of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def check_pass(workload: str, outputs) -> tuple[int, int]:
    """(attempted, failed) operations of one pass; failures go to stderr."""
    if workload == "accept-grid":
        rows = [oracle.check_accept(outputs["verdict"], outputs["report"])]
    elif workload == "clifford-ladder":
        rows = [oracle.check_clifford(row) for row in outputs]
    else:
        rows = [
            oracle.check_obstruction(row, oracle.rendered_total_sw(row["m"], row["n"]))
            for row in outputs
        ]
    for bad in rows:
        for line in bad:
            print(f"check failed: {line}", file=sys.stderr)
    return len(rows), sum(1 for bad in rows if bad)


def scaled(res: dict) -> dict[str, float]:
    """Each input's time of one pass, in seconds at the reference loop's quiet speed."""
    return {key: t / res["refs"][key] * REF_S for key, t in res["times"].items()}


def loc() -> dict[str, int]:
    """Non-blank lines per module; a module that was deleted counts 0."""
    out = {}
    for module in MODULES:
        path = ROOT / "src" / "wallspan" / f"{module}.py"
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        out[f"{module.strip('_')}.loc"] = sum(1 for line in text.splitlines() if line.strip())
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("accept-grid", "clifford-ladder", "obstruction-sweep"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wallspan" / "__init__.py").is_file():
        print(f"no wallspan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)

    started = time.monotonic()
    attempted = failed = 0
    reports: list[str] = []

    def one(trace: bool) -> dict:
        nonlocal attempted, failed
        res = run_pass(args.workload, args.seed, args.quick, trace)
        a, f = check_pass(args.workload, res["outputs"])
        if args.workload == "accept-grid":
            reports.append(res["outputs"]["report"])
            bad = oracle.check_repeats([reports[0], reports[-1]])
            for line in bad:
                print(f"check failed: {line}", file=sys.stderr)
            f = max(f, len(bad))
        attempted += a
        failed += f
        return res

    traced = one(True) if args.trace else None
    setups: list[dict] = []
    passes: list[dict] = []
    walls: list[float] = []
    while True:
        began = time.monotonic()
        setups += [run_pass("setup", args.seed, args.quick, False) for _ in range(SETUPS)]
        passes.append(one(False))
        walls.append(time.monotonic() - began)
        spent = time.monotonic() - started
        if len(passes) >= MIN_PASSES and spent + statistics.mean(walls) > args.seconds:
            break

    per_pass = [scaled(p) for p in passes]
    typical = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    pass_s = sum(typical.values())
    if traced is None:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] / s["ref_s"] * REF_S for s in setups), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": max(p["rss_mb"] for p in passes), "unit": "MB"},
        }
    else:
        metrics = {}
        for name, value in {**traced["layers"], **loc()}.items():
            unit = "ms" if "_ms" in name else "lines" if name.endswith(".loc") else "count"
            metrics[name] = {"value": value, "unit": unit}
        traced_s = sum(scaled(traced).values())
        metrics["trace.overhead_s"] = {"value": traced_s - pass_s, "unit": "s"}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "setups": setups,
        "round_walls_s": walls,
        "median_input_s": typical,
        "pass_scaled_s": [sum(p.values()) for p in per_pass],
        "pass_wall_s": [sum(p["times"].values()) for p in passes],
        "fastest_wall_sum_s": sum(min(p["times"][key] for p in passes) for key in typical),
        "input_refs_s": [p["refs"] for p in passes],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

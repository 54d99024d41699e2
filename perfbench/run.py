#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench program from source and runs it.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --workload all --seed N --trace 1   # every workload
  python3 perfbench/run.py --scale --seed N                    # k = 1, 4, 16, 64

NAME is one of the workloads in BENCHMARK.json. The program prints every
metric it measured with its unit and sample count; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`, holding the BENCHMARK.json end-to-end metrics (--trace 0) or its
per-layer metrics (--trace 1). Exits non-zero when the build fails, an
operation fails or an output check does not hold.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; the benchmark's own spans of a traced run are written
there too.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170
SCALE_FACTORS = (1, 4, 16, 64)


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build() -> Path:
    """Configures (once) and builds the program; build output goes to stderr."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    return out / "perfbench"


def run_binary(binary: Path, argv: list, timeout: float) -> dict:
    """Runs the program, echoes its report and returns its result object."""
    try:
        proc = subprocess.run([str(binary)] + argv, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: program timed out after {timeout:.0f}s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(proc.stdout)
        sys.exit(f"perfbench: program exited {proc.returncode} without a result")
    result["exit_code"] = proc.returncode
    return result


def select(result: dict, specs: list, end_to_end: bool) -> tuple:
    """The contract's metric set, plus errors for anything missing or bad."""
    metrics, errors = {}, []
    measured = result["metrics"]
    for spec in specs:
        name = spec["name"]
        m = measured.get(name)
        if m is None:
            if end_to_end:
                errors.append(f"end-to-end metric {name} was not measured")
                continue
            # A layer the workload does not exercise reads zero.
            m = {"value": 0.0, "unit": spec["unit"], "n": 0}
            print(f"  {name}: not exercised on this workload (0 {spec['unit']})")
        value = float(m["value"])
        if not math.isfinite(value):
            errors.append(f"metric {name} is not a finite number")
            continue
        if m["unit"] != spec["unit"]:
            errors.append(f"metric {name} has unit {m['unit']}, expected {spec['unit']}")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics, errors


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rt-lead-ms", type=float, default=6.0,
                        help="rt_jobs read deadline after submission")
    parser.add_argument("--smoke", action="store_true", help="shrink every workload")
    parser.add_argument("--time-cap-s", type=float, default=0,
                        help="simulated-time cap of a sim run (0: workload default)")
    parser.add_argument("--scale", action="store_true",
                        help="sim_swim_scale at k = 1, 4, 16, 64 (diagnostic, ungated)")
    args = parser.parse_args()
    if not args.scale and args.workload is None:
        parser.error("--workload or --scale is required")

    binary = build()
    if args.scale:
        # One process per factor, so each peak RSS is its own.
        print(f"{'k':>4} {'nodes':>6} {'jobs':>6} {'sim.events':>11} {'sim.ns_per_event':>17}"
              f" {'sim_wall_s':>11} {'peak_rss_mb':>12}")
        ok = True
        for k in SCALE_FACTORS:
            r = run_binary(binary, ["--scale-k", str(k), "--seed", str(args.seed)], timeout=900)
            m = {name: v["value"] for name, v in r["metrics"].items()}
            ok = ok and r["correct"] and r["exit_code"] == 0
            print(f"{k:>4} {m['nodes']:>6.0f} {m['jobs']:>6.0f} {m['sim.events']:>11.0f}"
                  f" {m['sim.ns_per_event']:>17.1f} {m['sim_wall_s']:>11.3f}"
                  f" {m['peak_rss_mb']:>12.1f}")
        return 0 if ok else 1

    workloads = names if args.workload == "all" else [args.workload]
    specs = config["per_layer"] if args.trace else config["end_to_end"]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        argv = ["--workload", workload, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace), "--rt-lead-ms",
                str(args.rt_lead_ms)]
        if args.trace:
            spans = build_dir() / "spans" / f"{workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            argv += ["--spans-out", str(spans)]
        if args.smoke:
            argv.append("--smoke")
        if args.time_cap_s > 0:
            argv += ["--time-cap-s", str(args.time_cap_s)]
        print(f"== {workload} (seed {args.seed}, trace {args.trace})", flush=True)
        result = run_binary(binary, argv, timeout=RUN_TIMEOUT_S)
        metrics, errors = select(result, specs, end_to_end=not args.trace)
        for e in errors:
            print(f"CHECK FAILED: {e}")
        correct = result["correct"] and result["exit_code"] == 0 and not errors
        total["correct"] = total["correct"] and correct
        total["attempted"] += int(result["attempted"])
        total["failed"] += int(result["failed"])
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for name, m in metrics.items():
            total["metrics"][prefix + name] = m
    total["correct"] = total["correct"] and total["attempted"] > 0 and total["failed"] == 0
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

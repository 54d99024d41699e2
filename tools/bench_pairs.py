#!/usr/bin/env python3
"""Alternating parent/change runs of two perfbench binaries.

Usage (from the repository root):

  python3 tools/bench_pairs.py --parent PARENT/perfbench --change CHANGE/perfbench \\
      [--pairs 10] [--seed 1] [--workloads all|W1,W2] [--claim WORKLOAD/METRIC] \\
      [--counts] [--registry-counts FILE.json] [--out BENCH_paper_pressure.json] [--append] \\
      [--what TEXT]

Each pair runs both binaries once per workload at the BENCHMARK.json
settings (`--seconds run_seconds --trace 0` plus the `--rt-lead-ms` that
BENCHMARK.json's command passes); which side goes first alternates by pair.
It prints one table row per workload and end-to-end metric: q1 / median /
q3 of each side (inclusive quartiles), the pairs the change won, the change
in the median and the metric's bound. A metric is unresolved when the
parent's own quartile distance exceeds its bound.

--claim checks one metric the way a claimed gain is judged: the change must
win at least 9 of 10 pairs (the same share of any N), and the medians must
differ by more than the parent's quartile distance.

--counts runs each binary once more with `--trace 1` on sim_paper_pressure
and records the deterministic work counts its report prints (sim.events,
exec.tasks, dyrs.migrations.*). --registry-counts adds counts read some other
way (a JSON object {"counts": {...}, "note": "..."}), recorded beside them.

--out writes every run, the summary and the host's core count as JSON;
--append adds this series to the file's list instead of replacing it.
Uses only the standard library.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RT_LEAD_MS = "6"  # BENCHMARK.json's command: perfbench/run.py --rt-lead-ms 6
COUNT_PREFIXES = ("sim.events", "exec.tasks", "dyrs.migrations.")


def run(binary, workload, seed, seconds, trace):
    argv = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--rt-lead-ms", RT_LEAD_MS]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=600)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    return {
        "exit_code": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(xs):
    if len(xs) == 1:
        return [xs[0]] * 3
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], statistics.median(xs), q[2]]


def fmt(workload, spec, values):
    """q1 / median / q3 in the units EXPERIMENTS.md uses."""
    unit, scale, pattern = spec["unit"], 1.0, "{:.4f}"
    if unit == "s" and workload.startswith("rt_") and spec["name"] != "sim_wall_s":
        unit, scale, pattern = "ms", 1e3, "{:.2f}"
    elif unit == "s" and values[1] >= 1:
        pattern = "{:.3f}"
    elif unit == "MiB":
        pattern = "{:.2f}"
    elif unit == "blocks/s":
        pattern = "{:,.0f}"
    text = " / ".join(pattern.format(v * scale) for v in values)
    return text + (f" {unit}" if unit in ("s", "ms") else "")


def summarize(runs, workload, spec, pairs):
    name, better = spec["name"], spec["better"]
    side = {s: [r["metrics"][name] for r in runs if r["workload"] == workload and r["side"] == s]
            for s in ("parent", "change")}
    p, c = side["parent"], side["change"]
    qp, qc = quartiles(p), quartiles(c)
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    delta = (qc[1] - qp[1]) / qp[1] if qp[1] else 0.0
    spread = (qp[2] - qp[0]) / qp[1] if qp[1] else 0.0
    return {
        "parent": qp, "change": qc, "wins": wins, "pairs": pairs,
        "identical": p == c, "median_delta": delta, "parent_spread": spread,
        "bound": spec["bound"], "resolved": spread <= spec["bound"],
        "better": better,
    }


def row(workload, spec, s):
    par, chg = fmt(workload, spec, s["parent"]), fmt(workload, spec, s["change"])
    if s["identical"]:
        verdict = f"identical in all {s['pairs']} pairs"
    else:
        verdict = (f"{s['wins']} of {s['pairs']} ({s['median_delta'] * 100:+.1f}%; "
                   f"bound {s['bound'] * 100:.0f}%")
        if not s["resolved"]:
            verdict += f"; unresolved, parent spread {s['parent_spread'] * 100:.1f}%"
        verdict += ")"
    return f"| {workload} | {spec['name']} | {par} | {chg} | {verdict} |"


def host():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=config["run_seconds"])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--claim", help="WORKLOAD/METRIC to judge as a claimed gain")
    ap.add_argument("--counts", action="store_true")
    ap.add_argument("--registry-counts", type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--append", action="store_true")
    ap.add_argument("--what", help="what the change is, recorded in --out")
    args = ap.parse_args()
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    binaries = {"parent": args.parent, "change": args.change}

    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for position, side in enumerate(order):
                r = run(binaries[side], workload, args.seed, args.seconds, 0)
                r.update(pair=pair, side=side, first=position == 0, workload=workload)
                runs.append(r)
                print(f"pair {pair + 1}/{args.pairs} {workload} {side}: sim_wall_s "
                      f"{r['metrics'].get('sim_wall_s', 0):.4f} correct {r['correct']} "
                      f"failed {r['failed']}", file=sys.stderr, flush=True)

    summary = {}
    print("| workload | metric | parent | change | change wins |")
    print("|---|---|---|---|---|")
    for workload in workloads:
        summary[workload] = {}
        for spec in config["end_to_end"]:
            s = summarize(runs, workload, spec, args.pairs)
            summary[workload][spec["name"]] = s
            print(row(workload, spec, s))
    failed = sum(r["failed"] for r in runs)
    bad = [r for r in runs if not r["correct"] or r["exit_code"] != 0]
    print(f"\n{len(runs)} runs, {failed} failed operations, {len(bad)} runs not correct")

    series = {"seed": args.seed, "pairs": args.pairs, "seconds": args.seconds,
              "workloads": workloads, "summary": summary, "runs": runs}
    if args.claim:
        workload, metric = args.claim.split("/")
        s = summary[workload][metric]
        distance = s["parent"][2] - s["parent"][0]
        gap = abs(s["change"][1] - s["parent"][1])
        sign = -1.0 if s["better"] == "lower" else 1.0
        need = -(-9 * args.pairs // 10)
        holds = s["wins"] >= need and gap > distance and sign * (s["change"][1] - s["parent"][1]) > 0
        series["claim"] = {"metric": args.claim, "wins": s["wins"], "wins_needed": need,
                           "median_gap": gap, "parent_quartile_distance": distance,
                           "holds": holds}
        print(f"claim {args.claim}: {s['wins']} of {args.pairs} wins (need {need}), median gap "
              f"{gap:.4g} vs parent quartile distance {distance:.4g}: "
              f"{'holds' if holds else 'does not hold'}")

    if args.counts:
        counts = {}
        for side, binary in binaries.items():
            r = run(binary, "sim_paper_pressure", args.seed, 0, 1)
            counts[side] = {k: v for k, v in r["metrics"].items() if k.startswith(COUNT_PREFIXES)}
            print(f"{side} counts: {json.dumps(counts[side], sort_keys=True)}")
        series["work_counts"] = counts
    if args.registry_counts:
        series["registry_counts"] = json.loads(args.registry_counts.read_text())

    if args.out:
        doc = {"bench": args.out.stem.removeprefix("BENCH_"), "host": host(), "series": []}
        if args.append and args.out.exists():
            doc = json.loads(args.out.read_text())
        if args.what:
            doc["what"] = args.what
        doc["command"] = ("perfbench --workload W --seed S --seconds run_seconds --trace 0 "
                          "--rt-lead-ms 6, one process per run (tools/bench_pairs.py); "
                          "parent and change alternate, and which goes first alternates by pair")
        doc["series"].append(series)
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if failed == 0 and not bad else 1


if __name__ == "__main__":
    sys.exit(main())

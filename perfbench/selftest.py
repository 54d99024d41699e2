#!/usr/bin/env python3
"""Self-test of the repository benchmark (smoke-sized, about a minute).

  python3 perfbench/selftest.py

Builds the program like run.py does, then checks that:
  * every workload runs correctly at smoke size, traced and untraced;
  * every end-to-end metric of BENCHMARK.json is printed, with its unit, on
    every workload, and every per-layer metric on the workloads of its
    layer, each with a sample count;
  * a sim run whose time cap is shorter than its workload reports the
    unfinished jobs as failed operations (and exits non-zero), not as a
    fast run;
  * run.py's last line follows the output contract.
Exits non-zero on the first failed check.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own build and run helpers)

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SIM_LAYERS = ("sim.", "exec.", "dfs.", "cluster.", "dyrs.", "obs.", "wl.")
RT_LAYERS = ("rt.", "core.", "obs.", "wl.")


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def run_program(binary: Path, argv: list) -> tuple:
    proc = subprocess.run([str(binary)] + argv, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.rstrip("\n").split("\n")
    return proc.returncode, json.loads(lines[-1]), "\n".join(lines[:-1])


def check_metrics(workload: str, result: dict, report: str, specs: list) -> None:
    measured = result["metrics"]
    for spec in specs:
        name = spec["name"]
        m = measured.get(name)
        check(m is not None and m["unit"] == spec["unit"],
              f"{workload}: {name} measured in {spec['unit']}")
        check("n" in m, f"{workload}: {name} states its sample count")
        if re.search(r"_p\d\d$", name) and m["value"] != 0:
            check(m["n"] > 0, f"{workload}: percentile {name} has samples")
        line = re.compile(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(spec['unit'])}\s+n=\d+$", re.M)
        check(line.search(report) is not None, f"{workload}: {name} printed with unit and n")


def main() -> int:
    binary = run.build()
    per_layer = CONFIG["per_layer"]
    covered = set()
    for w in (w["name"] for w in CONFIG["workloads"]):
        layers = SIM_LAYERS if w.startswith("sim_") else RT_LAYERS
        for trace in (0, 1):
            code, result, report = run_program(binary, ["--workload", w, "--seed", "3",
                                                        "--seconds", "1", "--trace", str(trace),
                                                        "--smoke"])
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{w} (trace {trace}) runs correctly: {result['attempted']} operations")
            specs = CONFIG["end_to_end"] if not trace else [
                s for s in per_layer if s["name"].startswith(layers)]
            check_metrics(w, result, report, specs)
            covered |= {s["name"] for s in specs if trace}
    check(covered == {s["name"] for s in per_layer}, "every per-layer metric has a workload")

    code, result, _ = run_program(binary, ["--workload", "sim_paper_pressure", "--seed", "3",
                                           "--seconds", "0", "--smoke", "--time-cap-s", "1800"])
    check(code != 0 and not result["correct"] and result["failed"] > 0,
          f"capped sim run reports {result['failed']} of {result['attempted']} jobs failed")

    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "rt_jobs",
                           "--seed", "3", "--seconds", "1", "--smoke"],
                          stdout=subprocess.PIPE, text=True, timeout=300)
    last = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    check(proc.returncode == 0 and set(last) == {"correct", "attempted", "failed", "metrics"},
          "run.py prints the result object last")
    check(set(last["metrics"]) == {m["name"] for m in CONFIG["end_to_end"]} and all(
        set(v) == {"value", "unit"} for v in last["metrics"].values()),
          "run.py reports exactly the end-to-end metrics, each with value and unit")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

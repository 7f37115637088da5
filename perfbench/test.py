#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the repository:

    python3 perfbench/test.py

1. Builds perfbench/ and runs its ctest suite (the gates must reject a
   macro moved outside the die, overlapping, missing or duplicated
   macros, a stopped job, a changed digest and a vacuous flow comparison).
2. Runs every workload at --size tiny, untraced and traced, and checks
   that the result line is correct and names every metric of
   BENCHMARK.json with its unit, and nothing else.
3. Checks that run.py fails without printing a result when the library
   sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (build if build.is_absolute() else ROOT / build) / "perfbench"


def check(ok: bool, what: str, failures: list) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    failures: list = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build = build_dir()
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build), "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", str(build), "-j", jobs], check=True,
                   stdout=subprocess.DEVNULL)
    ctest = subprocess.run(["ctest", "--output-on-failure"], cwd=build)
    check(ctest.returncode == 0, "gate tests pass", failures)

    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", trace, "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                check(False, f"{workload} trace {trace}: prints a JSON result", failures)
                print(proc.stderr[-2000:])
                continue
            check(proc.returncode == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{workload} trace {trace}: correct, {result['attempted']} jobs", failures)
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            check(got == expected, f"{workload} trace {trace}: every metric with its unit", failures)
            if got != expected:
                print("  missing:", sorted(set(expected) - set(got)),
                      "extra:", sorted(set(got) - set(expected)),
                      "unit mismatch:", sorted(k for k in got if k in expected and got[k] != expected[k]))
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  f"{workload} trace {trace}: numeric values", failures)

    # A directory holding only BENCHMARK.json and perfbench/ must fail.
    bare = build / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "suite_eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "fails without a result when the sources are missing", failures)
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

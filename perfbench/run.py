#!/usr/bin/env python3
"""Builds and runs the HiDaP end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload <ingest_place|suite_eval|session_mix> \
        --seed N --seconds S --trace <0|1> [--size full|tiny]

The first run configures and builds perfbench/ (which pulls in the
library from the repository root) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. The last line of standard output is the result JSON of the
benchmark binary; traced runs also write their spans under
<build dir>/traces/. Build output goes to standard error.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"error: HiDaP sources not found next to {BENCH_DIR.name}/", file=sys.stderr)
        return 2
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build.is_absolute():
        build = Path.cwd() / build
    build = build / "perfbench"
    jobs = str(os.cpu_count() or 1)
    if not (build / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build), "-j", jobs, "--target", "hidap_perfbench"],
                   check=True, stdout=sys.stderr)

    # The benchmark runs at its documented settings: HIDAP_* variables
    # (HIDAP_FAST, HIDAP_THREADS, ...) would change what it measures.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HIDAP_")}
    args = sys.argv[1:]
    if "--trace-dir" not in args:
        args += ["--trace-dir", str(build / "traces")]
    return subprocess.run([str(build / "hidap_perfbench"), *args], env=env).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as error:
        print(f"error: build step failed: {error}", file=sys.stderr)
        sys.exit(2)

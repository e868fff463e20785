#!/usr/bin/env python3
"""Build and run one workload of the EEWA benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/;
later runs only rebuild what changed. The workload runs in its own
process; its last stdout line, a JSON object with the keys correct,
attempted, failed and metrics (name -> value), is printed as this
script's last line with each metric's unit from BENCHMARK.json attached.
Each result is also written, with the host fingerprint and a digest of
the sources, to .bench_build/results/. The exit code is nonzero when the
build fails, an output check fails, or the program misses an end-to-end
metric or prints one BENCHMARK.json does not define. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build eewa_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    cmake_dir = BUILD / "cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(cmake_dir), "--target", "eewa_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return cmake_dir / "eewa_perfbench"


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Set-ups and the warm-up round run outside the timed window.
    timeout_s = 2 * args.seconds + 110
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout_s} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        fail(f"{args.workload} exited {proc.returncode} without a result")
    result = json.loads(lines[-1])

    # The program prints {name: value} for the metrics it measured; the
    # names and units are BENCHMARK.json's. Every end-to-end metric must
    # be measured; a per-layer metric of a layer the workload does not
    # load reads 0.
    values = result["metrics"]
    defined = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    unknown = sorted(set(values) - defined)
    if unknown:
        fail(f"{args.workload} printed metrics BENCHMARK.json does not define: {unknown}")
    missing = sorted(m["name"] for m in bench["end_to_end"] if m["name"] not in values)
    if missing:
        fail(f"{args.workload} did not measure end-to-end metrics {missing}")
    kind = "per_layer" if args.trace else "end_to_end"
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0.0),
                                     "unit": m["unit"]} for m in bench[kind]}

    host = {}
    for line in lines:
        if line.startswith("host: "):
            host = json.loads(line[len("host: "):])
    host["source_sha256"] = source_digest()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "result": result}
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"fingerprint: {json.dumps(host)}")

    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the host-cost benchmark from the root of a source checkout.

    python3 hostbench/run.py --workload <pe_scale|rma_mix|lbm> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 hostbench/run.py --selftest

The first call configures and builds hostbench/ (which compiles ../src) into
.bench_build/hostbench; later calls rebuild incrementally. Build output goes
to stderr; the last line of stdout is the benchmark's JSON result. With
--trace 1 the spans of the last traced episode are written to
.bench_build/spans/<workload>-seed<n>.tsv.

--selftest runs the benchmark's determinism self-test on small sizes, then
checks that the metric names and units the benchmark prints match
BENCHMARK.json.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "hostbench"
BINARY = BUILD / "hostbench"


def build():
    if not (ROOT / "src" / "core" / "runtime.hpp").is_file():
        sys.exit("hostbench: runtime sources (src/) not found next to hostbench/")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    # Keep the compiler's temporary files inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            sys.exit(f"hostbench: build step failed: {' '.join(cmd)}")


def run_binary(args):
    sys.stdout.flush()
    return subprocess.run([str(BINARY)] + args).returncode


def metric_names(args):
    out = subprocess.run([str(BINARY)] + args, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        return None
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return [(k, v["unit"]) for k, v in result["metrics"].items()]


def selftest():
    if run_binary(["--selftest"]) != 0:
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = [(m["name"], m["unit"]) for m in spec[key]]
            got = metric_names(["--workload", w["name"], "--seed", "1",
                                "--seconds", "0.01", "--trace", trace, "--small"])
            ok = got == want
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {w['name']}: --trace {trace} prints "
                  f"the {key} metrics of BENCHMARK.json")
    return 1 if failures else 0


def flag(args, name):
    i = args.index(name) if name in args else -1
    return args[i + 1] if 0 <= i < len(args) - 1 else None


def main():
    args = sys.argv[1:]
    build()
    if args == ["--selftest"]:
        return selftest()
    if flag(args, "--trace") == "1" and "--spans" not in args:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        name = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}.tsv"
        args += ["--spans", str(spans / name)]
    return run_binary(args)


if __name__ == "__main__":
    sys.exit(main())

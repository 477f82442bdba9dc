#!/usr/bin/env python3
"""Repository benchmark: builds rfsmd and the benchmark client from source,
checks the benchmark's own invariants, runs one workload, and prints the
result as the last line of standard output.

    python3 perfbench/run.py --workload batch-ea --seed 1 --seconds 45 --trace 0

Everything it writes lives under .bench_build/ at the repository root.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build") / "perfbench"  # relative: keeps socket paths short
CLIENT_TIMEOUT_S = 150  # leaves the caller's 180 s limit some slack


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds rfsmd and perfbench_client."""
    env = dict(os.environ)
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    if not (ROOT / BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs,
         "--target", "rfsmd", "perfbench_client"],
        cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    return ROOT / BUILD / "perfbench_client", BUILD / "rfsm" / "tools" / "rfsmd"


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def capture(args):
    return subprocess.run(args, cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def self_test(client, workload, seed):
    """The benchmark's own invariants; returns a list of failures."""
    failures = []
    digest = lambda s: capture([str(client), "--digest", "--workload",
                                workload, "--seed", str(s)]).strip()
    first, again, other = digest(seed), digest(seed), digest(seed + 1)
    if first != again:
        failures.append(f"seed {seed} gave digests {first} and {again}")
    if first == other:
        failures.append(f"seeds {seed} and {seed + 1} gave the same input "
                        f"digest {first}")
    end_to_end, per_layer, _ = declared()
    listed = {"end_to_end": {}, "per_layer": {}}
    for line in capture([str(client), "--list-metrics"]).splitlines():
        kind, name, unit = line.split()
        listed[kind][name] = unit
    if listed["end_to_end"] != end_to_end:
        failures.append("client end-to-end metrics differ from BENCHMARK.json")
    if listed["per_layer"] != per_layer:
        failures.append("client per-layer metrics differ from BENCHMARK.json")
    return failures


def check_result(line, trace):
    """Returns the parsed result line, or raises ValueError."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    end_to_end, per_layer, _ = declared()
    want = per_layer if trace else end_to_end
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        undeclared = sorted(set(got) - set(want))
        missing = sorted(set(want) - set(got))
        raise ValueError(f"metrics not as declared: undeclared {undeclared}, "
                         f"missing {missing}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        _, _, workloads = declared()
        client, rfsmd = build()
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r} (one of {workloads})")
        return 64
    failures = self_test(client, args.workload, args.seed)
    for failure in failures:
        log(f"self-test failed: {failure}")
    if failures:
        return 1

    work = Path(".bench_build") / f"run-{os.getpid()}"
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work).mkdir(parents=True)
    command = [str(client), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--rfsmd", str(rfsmd),
               "--work-dir", str(work),
               "--trace-out", str(BUILD / f"trace-{args.workload}.json")]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        log(f"client did not finish within {CLIENT_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(ROOT / work, ignore_errors=True)

    lines = stdout.strip().splitlines()
    if not lines:
        log(f"client exited {proc.returncode} without a result")
        return proc.returncode or 1
    try:
        result = check_result(lines[-1], args.trace == 1)
    except ValueError as e:
        log(f"bad result line: {e}")
        return 1
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log(f"output check failed ({result['failed']} of "
            f"{result['attempted']} operations)")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

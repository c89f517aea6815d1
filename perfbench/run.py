#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload steps --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --compare before.txt after.txt

The first run builds perfbench/ (and the simulator libraries it links) into
.bench_build/. With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json: wall_s (the sum over the workload's ops of each op's
fastest wall time in the run), peak_rss_mb (the measuring process) and setup_s (median over five
fresh processes); with --trace 1 the per-layer metrics of a separate traced
run. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The line before it, "record {...}",
holds the full result with the host fingerprint; --compare reads those
lines and refuses to compare results from different hosts or builds.

Every op's result must match its layer-by-layer route bit-for-bit, and at
the default seed (seed-independent ops: at every seed) the digests
committed in perfbench/digests.json.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ["steps", "faults"]
DEFAULT_SEED = 1
# Fresh set-up-only processes per run, half before and half after the
# measuring one: this host's speed drifts over seconds, and spacing the
# probes over the run keeps one slow stretch from setting the median.
SETUP_PROBES = 4
RUN_BUDGET_S = 170  # every process of one run, after the build
# Fingerprint fields that must match for two results to be comparable.
COMPARABLE = ("cores", "cpu_model", "compiler", "build_type")


class BenchError(Exception):
    """A failure that ends the run with a message and no result."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError(f"build failed ({' '.join(step)}):\n{tail}")


def run_binary(args, deadline):
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench {' '.join(args)} timed out")
    if done.returncode != 0:
        raise BenchError(f"perfbench {' '.join(args)} exited "
                         f"{done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def source_sha256():
    """Identity of the simulator sources, for checkouts without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(result):
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model,
        "compiler": result["compiler"],
        "build_type": result["build_type"],
        "commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def check_digests(workload, seed, size, ops):
    """Failed runs and problems from ops whose digest is not the committed one."""
    with open(DIGESTS) as f:
        committed = json.load(f).get(size, {}).get(workload, {})
    failed, problems = 0, []
    for op in ops:
        if op["seeded"] and seed != DEFAULT_SEED:
            continue
        want = committed.get(op["name"])
        if want != op["digest"]:
            failed += op["runs"] - op["failed"]
            problems.append(f"{op['name']}: digest {op['digest']} is not the "
                            f"committed {want}")
    return failed, problems


def record_digests(workload, size, ops):
    with open(DIGESTS) as f:
        digests = json.load(f)
    digests.setdefault(size, {})[workload] = {
        op["name"]: op["digest"] for op in ops}
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")


def run_workload(spec, workload, seed, seconds, trace, size, record):
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed), "--size", size]

    def probe_setups():
        return [] if trace else [
            run_binary(common + ["--mode", "setup"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES // 2)]

    setups = probe_setups()
    main_args = common + ["--seconds", str(seconds)]
    if trace:
        spans = os.path.join(BUILD_DIR, f"spans-{workload}-{seed}.jsonl")
        main_args += ["--mode", "trace", "--spans", spans]
    else:
        main_args += ["--mode", "run"]
    result = run_binary(main_args, deadline)
    setups += probe_setups()
    if record:
        if seed != DEFAULT_SEED:
            raise BenchError(f"record digests at the default seed {DEFAULT_SEED}")
        record_digests(workload, size, result["ops"])

    digest_failed, digest_problems = check_digests(workload, seed, size,
                                                   result["ops"])
    failed = sum(op["failed"] for op in result["ops"]) + digest_failed
    problems = result["problems"] + digest_problems

    if trace:
        wanted = spec["per_layer"]
        values = result["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": sum(op["min_s"] for op in result["ops"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups + [result["setup_s"]]),
        }
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise BenchError(f"{workload} did not measure {metric['name']}")
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "fingerprint": fingerprint(result),
        "ops": result["ops"],
        "rounds": result["rounds"],
        "self_ms": result.get("self_ms", {}),
        "problems": problems,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def print_record(rec):
    ratio = rec["failed"] / rec["attempted"]
    print(f"perfbench {rec['workload']} seed={rec['seed']} size={rec['size']} "
          f"trace={rec['trace']}: {len(rec['ops'])} ops x {rec['rounds']} rounds")
    for name, metric in rec["metrics"].items():
        print(f"  {name:<26} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_op_ratio':<26} {ratio:.6g} fraction "
          f"({rec['failed']}/{rec['attempted']} ops)")
    if rec["self_ms"]:
        total = sum(rec["self_ms"].values())
        print("  self time per span (ms per round, share):")
        for name, ms in sorted(rec["self_ms"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<34} {ms:10.3f} {100 * ms / total:5.1f}%")
    for problem in rec["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print("record " + json.dumps(rec, sort_keys=True))


def compare(before_path, after_path):
    """Median of each metric per workload, before vs after, same host only."""
    def load(path):
        records = {}
        with open(path) as f:
            for line in f:
                if line.startswith("record "):
                    rec = json.loads(line[len("record "):])
                    records.setdefault((rec["workload"], rec["trace"]),
                                       []).append(rec)
        return records

    before, after = load(before_path), load(after_path)
    comparable = True
    for key in sorted(set(before) & set(after)):
        a, b = before[key][0]["fingerprint"], after[key][0]["fingerprint"]
        diffs = [f for f in COMPARABLE if a.get(f) != b.get(f)]
        if diffs:
            comparable = False
            print(f"{key[0]} trace={key[1]}: not comparable, fingerprints "
                  f"differ in {', '.join(diffs)}")
            continue
        for name in before[key][0]["metrics"]:
            old = statistics.median(r["metrics"][name]["value"]
                                    for r in before[key])
            new = statistics.median(r["metrics"][name]["value"]
                                    for r in after[key])
            change = f"{100 * (new - old) / old:+.1f}%" if old else "n/a"
            unit = before[key][0]["metrics"][name]["unit"]
            print(f"{key[0]:<18} {name:<26} {old:12.6g} -> {new:12.6g} "
                  f"{unit:<8} {change} (n={len(before[key])}/{len(after[key])})")
    return 0 if comparable else 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long input sizes (the benchmark's test)")
    parser.add_argument("--record-digests", action="store_true",
                        help="overwrite the committed digests of this workload")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare the record lines of two saved outputs")
    args = parser.parse_args(argv)
    if args.compare:
        return args
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if args.seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    if not 1 <= args.seconds <= 60:
        parser.error(f"--seconds must be in [1, 60], got {args.seconds}")
    return args


def main(argv):
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    spec = load_spec()
    build()
    size = "smoke" if args.smoke else "full"
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    records = [run_workload(spec, w, args.seed, args.seconds, args.trace,
                            size, args.record_digests) for w in workloads]
    for rec in records:
        print_record(rec)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": value for r in records
                   for name, value in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)

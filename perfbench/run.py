#!/usr/bin/env python3
"""Repository benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the library through the repository's own CMakeLists.txt,
plus the benchmark binary from perfbench/src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs one workload.
The binary generates its inputs from --seed, measures for --seconds, and
checks its outputs. This script prints a readable report, one
{"envelope": ...} line describing the host and build, and, as the last
line, the result object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a per-layer metric of a layer the workload
does not exercise reads 0.

Exit codes: 0 = ran and every output check passed; 1 = the build failed,
the run failed or timed out, or an output check failed.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import shlex
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
# A per-layer ns/cost-unit figure this many times the median of the
# others is flagged as an outlier.
OUTLIER_FACTOR = 4.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return out / "perfbench"


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        lines = out.stdout.strip().splitlines()
        return lines[0] if out.returncode == 0 and lines else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """sha256 over the library sources, build file and benchmark."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for p in sorted(files):
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def compiler_and_flags(out):
    """The compiler and the flags one library source was compiled with."""
    compiler, flags = None, None
    try:
        for entry in json.loads((out / "compile_commands.json").read_text()):
            if "/src/" in entry["file"] and "/perfbench/" not in entry["file"]:
                tokens = shlex.split(entry["command"])
                compiler = first_line([tokens[0], "--version"]) or tokens[0]
                keep, skip = [], False
                for t in tokens[1:]:
                    if skip:
                        skip = False
                    elif t in ("-o", "-c", "-I", "-isystem"):
                        skip = True
                    elif t.startswith("-") and not t.startswith("-I"):
                        keep.append(t)
                flags = " ".join(keep)
                break
    except (OSError, ValueError, KeyError, IndexError):
        pass
    return compiler, flags


def git_sha():
    """HEAD of the checkout, or None when the checkout is not a repository
    of its own."""
    top = first_line(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"])
    if top is None or Path(top).resolve() != ROOT:
        return None
    return first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])


def envelope(args, out, run):
    compiler, flags = compiler_and_flags(out)
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "date": datetime.datetime.now(datetime.timezone.utc)
                .isoformat(timespec="seconds"),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "flags": flags,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": run.get("threads"),
        "samples": run.get("samples"),
        "latency_samples": run.get("latency_samples"),
        "params": run.get("params"),
        "per_sample": {k[len("raw_"):]: v for k, v in run.items()
                       if k.startswith("raw_")},
    }


def ns_per_cost_unit_table(out, workload, value):
    """Keeps the latest traced ns/cost-unit per workload in the build dir and
    prints them side by side, flagging any far above the others."""
    path = out / "ns_per_cost_unit.json"
    try:
        table = json.loads(path.read_text())
    except (OSError, ValueError):
        table = {}
    table[workload] = value
    path.write_text(json.dumps(table, indent=1, sort_keys=True))
    print("core.ns_per_cost_unit by workload (latest traced run of each):")
    for name, v in sorted(table.items()):
        others = sorted(x for n, x in table.items() if n != name)
        flag = ""
        if others:
            mid = others[len(others) // 2] if len(others) % 2 else \
                0.5 * (others[len(others) // 2 - 1] + others[len(others) // 2])
            if mid > 0 and v > OUTLIER_FACTOR * mid:
                flag = "  OUTLIER (%.1fx the median of the others)" % (v / mid)
        print("  %-18s %12.1f ns%s" % (name, v, flag))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("unknown workload", args.workload)
        return 1
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    try:
        binary = build(out)
    except RuntimeError as e:
        log("perfbench:", e)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("perfbench: binary exited with", proc.returncode)
        return 1
    run = json.loads(lines[-1])

    metrics, problems = {}, []
    for m in declared:
        got = run["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                problems.append("missing end-to-end metric " + m["name"])
                continue
            got = {"value": 0.0, "unit": m["unit"]}  # layer not exercised
        if got["unit"] != m["unit"]:
            problems.append("%s: unit %s, declared %s"
                            % (m["name"], got["unit"], m["unit"]))
        if not isinstance(got["value"], (int, float)):
            problems.append("%s: not a finite number" % m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for name in run["metrics"]:
        if name not in metrics:
            problems.append("undeclared metric " + name)

    print("workload %s  seed %d  trace %d  samples %s  (%.1f s)"
          % (args.workload, args.seed, args.trace, run.get("samples"),
             time.monotonic() - start))
    for c in run["checks"]:
        print("  check %-32s %s  %s"
              % (c["name"], "ok  " if c["ok"] else "FAIL", c["detail"]))
    for p_ in problems:
        print("  check %-32s FAIL  %s" % ("metric_set", p_))
    for name, m in metrics.items():
        print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    if args.trace and "core.ns_per_cost_unit" in run["metrics"]:
        ns_per_cost_unit_table(out, args.workload,
                               run["metrics"]["core.ns_per_cost_unit"]["value"])

    correct = bool(run["correct"]) and not problems
    print(json.dumps({"envelope": envelope(args, out, run)}))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

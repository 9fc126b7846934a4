#!/usr/bin/env python3
"""The repository benchmark: builds the simulator, runs one workload, checks
its outputs and prints the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. It configures and builds
perfbench/CMakeLists.txt (which builds the library with the repository's own
build file) into .bench_build, then runs the mmbench binary. With --trace 0
the result carries every end-to-end metric listed in BENCHMARK.json, with
--trace 1 every per-layer metric; the traced run also writes its host
wall-clock layer spans as a Chrome trace (loadable in Perfetto) under
.bench_out/.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is a report with the build's provenance, the sample count
behind every percentile and each output check. The command exits non-zero
when the build fails, when an output check fails or when mmbench's report
breaks the harness rules below.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)

# Seeds recorded for comparisons across changes: the default, and a held-out
# seed that is never used while tuning the benchmark or a change.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PERCENTILE_RE = re.compile(r"_p(\d+(?:\.\d+)?)_")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
MMBENCH_TIMEOUT_S = 170


class HarnessError(Exception):
    """mmbench's report breaks a harness rule: no result is printed."""


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def valid_name(name):
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def percentile_of(name):
    """The percentile a metric name reports (sim_p99_ms -> 99), or None."""
    m = PERCENTILE_RE.search("_" + name + "_")
    return float(m.group(1)) if m else None


def percentile_allowed(p, n):
    """A p-th percentile needs at least 10 of its n samples beyond it."""
    return round(n * (100.0 - p), 6) >= 1000.0


def expected_metrics(spec, trace):
    """(name, unit) pairs a run must report, from BENCHMARK.json."""
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def validate_report(report, expected):
    """Checks mmbench's report against the harness rules and returns the
    metrics as {name: {"value", "unit"}} in BENCHMARK.json order."""
    if not isinstance(report, dict):
        raise HarnessError("report is not a JSON object")
    for key in ("attempted", "failed"):
        if not isinstance(report.get(key), int) or report[key] < 0:
            raise HarnessError("bad %s: %r" % (key, report.get(key)))
    if report["attempted"] < 1:
        raise HarnessError("no query attempted")
    got = {}
    for m in report.get("metrics", []):
        name = m.get("name")
        if not valid_name(name):
            raise HarnessError("metric name breaks the grammar: %r" % name)
        if not valid_unit(m.get("unit")):
            raise HarnessError("bad unit for %s: %r" % (name, m.get("unit")))
        if name in got:
            raise HarnessError("metric reported twice: " + name)
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            raise HarnessError("%s is not a finite number: %r" % (name, value))
        p = percentile_of(name)
        if p is not None and not percentile_allowed(p, m.get("n", 0)):
            raise HarnessError("%s from %s samples: fewer than 10 beyond it"
                               % (name, m.get("n", 0)))
        got[name] = m
    names = [n for n, _ in expected]
    missing = [n for n in names if n not in got]
    extra = [n for n in got if n not in names]
    if missing or extra:
        raise HarnessError("metrics differ from BENCHMARK.json: missing %s, "
                           "unexpected %s" % (missing, extra))
    out = {}
    for name, unit in expected:
        if got[name]["unit"] != unit:
            raise HarnessError("%s reported in %s, BENCHMARK.json says %s"
                               % (name, got[name]["unit"], unit))
        out[name] = {"value": got[name]["value"], "unit": unit}
    return out


def result_line(correct, attempted, failed, metrics):
    """The contract's last line: exactly RESULT_KEYS, as one JSON object."""
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics},
                      allow_nan=False)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configures (once) and builds mmbench; returns its path."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise HarnessError("no %s next to perfbench/: run.py needs the "
                               "repository's sources" % need)
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", PERFBENCH, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "mmbench", "-j",
                    jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "mmbench")


def source_digest():
    """sha256 over the sources the benchmark builds, for trees without git."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".cc", ".h", ".txt", ".py")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance():
    """Where the numbers came from: sources, compiler and flags, machine."""
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 cwd=ROOT, timeout=30)
            return out.stdout.splitlines()[0] if out.returncode == 0 else None
        except (OSError, IndexError, subprocess.TimeoutExpired):
            return None

    cache = {}
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                key, sep, value = line.rstrip("\n").partition("=")
                if sep:
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    flags = None
    try:
        with open(os.path.join(build_dir(), "compile_commands.json")) as f:
            for entry in json.load(f):
                if entry["file"].endswith(os.path.join("src", "query",
                                                       "session.cc")):
                    flags = entry.get("command")
    except (OSError, ValueError, KeyError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER")
    git_sha = (first_line(["git", "rev-parse", "HEAD"])
               if shutil.which("git") and os.path.exists(
                   os.path.join(ROOT, ".git")) else None)
    return {
        "git_sha": git_sha,
        "source_sha256": source_digest(),
        "compiler": compiler,
        "compiler_version": first_line([compiler, "--version"])
        if compiler else None,
        "compile_command": flags,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise HarnessError("unknown workload %r (have %s)"
                               % (args.workload, ", ".join(names)))
        seconds = args.seconds or spec["run_seconds"]
        binary = build()
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(out_dir, stem + ".trace.json")]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=MMBENCH_TIMEOUT_S)
        if proc.returncode != 0:
            raise HarnessError("mmbench exited with %d" % proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise HarnessError("mmbench printed no report")
        try:
            report = json.loads(lines[-1])
        except ValueError as e:
            raise HarnessError("report is not JSON: %s" % e)
        metrics = validate_report(report, expected_metrics(spec, args.trace))
    except (HarnessError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1

    failed_checks = [c for c in report.get("checks", []) if not c.get("ok")]
    correct = not failed_checks
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "sample_counts": {m["name"]: m["n"] for m in report["metrics"]
                          if m.get("n")},
        "checks": report.get("checks", []),
    }
    line = result_line(correct, report["attempted"], report["failed"],
                       metrics)
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(dict(detail, result=json.loads(line)), f, indent=1)
    for c in failed_checks:
        log("output check %s failed: %s" % (c.get("name"), c.get("detail")))
    print(json.dumps(detail))
    print(line, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

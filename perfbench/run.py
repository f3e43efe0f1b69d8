#!/usr/bin/env python3
"""Preset-sweep benchmark of the wakeup library.

Usage (from the repository root):

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Builds perfbench/ (perfbench_sweep plus the library, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then measures
one workload for --seconds seconds:

  --trace 0  end to end, obs off.  Alternates a 1-thread leg (inline pool;
             a 1-worker fleet for `fleet`) and a min(nproc, 4)-thread leg
             (that many single-threaded workers for `fleet`), each a fresh
             perfbench_sweep process, and reports their medians.
  --trace 1  per layer.  Repeats the traced single-threaded replay
             and reports per-metric medians; the first rep writes a
             Perfetto-loadable span file to .bench_out/.

Every leg's reports and cell records must match byte for byte across reps
and thread counts (and, for `fleet`, a single-process run of the same
grid); every replayed record must match run_sweep's.  The last stdout line
is the result object {"correct", "attempted", "failed", "metrics"}, where
attempted/failed count cells.  A failed check still prints it, with
correct = false, and exits 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SETUP_REPS = 50
LEG_TIMEOUT_S = 150

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench_sweep; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_sweep")


def run_binary(binary, args):
    """Runs one perfbench_sweep process and returns its JSON result line."""
    proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=LEG_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("perfbench_sweep %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library sources and the benchmark, for the stamp."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def declared(kind):
    """The entries BENCHMARK.json declares under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[kind]


def declared_metrics(kind):
    """(name, unit) of each metric BENCHMARK.json declares under `kind`."""
    return [(m["name"], m["unit"]) for m in declared(kind)]


def summary(values):
    """Median and quartiles of a sample, with its size."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def time_for_another(started, deadline):
    """True when one more rep as long as the one begun at `started` ends
    before the deadline, so a run measures for at most --seconds."""
    now = time.monotonic()
    return now + (now - started) <= deadline


class CellCheck:
    """Counts attempted and failed cells against a reference leg."""

    def __init__(self):
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def add(self, leg):
        self.attempted += leg["cells_total"]
        failed = leg["cells_bad"] + leg["cells_total"] - leg["cells_run"]
        if self.reference is None:
            self.reference = leg
        else:
            ref_cells = self.reference["cells"]
            cells = leg["cells"]
            failed += sum(1 for a, b in zip(cells, ref_cells) if a != b)
            failed += abs(len(ref_cells) - len(cells))
            if leg["reports"] != self.reference["reports"]:
                failed = max(failed, 1)
        self.failed += min(failed, leg["cells_total"])


def measure_end_to_end(binary, workload, seed, seconds, out):
    mt = min(os.cpu_count() or 1, 4)
    fleet = workload == "fleet"
    check = CellCheck()
    common = ["--workload", workload, "--seed", str(seed)]
    legs = {"1t": [], "mt": []}
    count = 0

    def leg(extra):
        nonlocal count
        count += 1
        leg_out = os.path.join(out, "leg%d" % count)
        result = run_binary(binary, ["leg"] + common + ["--out", leg_out] + extra)
        shutil.rmtree(leg_out, ignore_errors=True)
        check.add(result)
        return result

    if fleet:
        leg(["--threads", "0"])  # the single-process run the fleets must reproduce
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        legs["1t"].append(leg(["--fleet-workers", "1"] if fleet else ["--threads", "0"]))
        mt_args = ["--fleet-workers", str(mt)] if fleet else ["--threads", str(mt)]
        legs["mt"].append(leg(mt_args + ["--setup-reps", str(SETUP_REPS)]))
        if not time_for_another(started, deadline):
            break

    samples = {
        "wall_1t_s": [l["wall_s"] for l in legs["1t"]],
        "wall_mt_s": [l["wall_s"] for l in legs["mt"]],
        "setup_s": [l["setup_s"] for l in legs["mt"]],
        "peak_rss_mb": [l["rss_kb"] / 1024.0 for l in legs["1t"]],
    }
    samples["cells_ok_frac"] = [1.0 - check.failed / check.attempted]
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in declared_metrics("end_to_end")}
    detail = {name: summary(v) for name, v in samples.items()}
    detail["fleet_resumes"] = sum(l["fleet_resumes"] for l in legs["1t"] + legs["mt"])
    return check, metrics, detail, legs["1t"][0]


def measure_per_layer(binary, workload, seed, seconds, out):
    trace_file = os.path.join(ROOT, ".bench_out", "trace-%s-seed%d.json" % (workload, seed))
    check = CellCheck()
    reps = []
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        rep_out = os.path.join(out, "replay%d" % len(reps))
        args = ["replay", "--workload", workload, "--seed", str(seed), "--out", rep_out]
        if not reps:
            args += ["--trace-file", trace_file]
        result = run_binary(binary, args)
        shutil.rmtree(rep_out, ignore_errors=True)
        check.attempted += result["cells_total"]
        check.failed += result["cells_bad"]
        reps.append(result)
        if not time_for_another(started, deadline):
            break
    metrics = {}
    detail = {}
    for name, unit in declared_metrics("per_layer"):
        values = [r["metrics"][name] for r in reps]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        detail[name] = summary(values)
    detail["trace_file"] = os.path.relpath(trace_file, ROOT)
    return check, metrics, detail, reps[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared("workloads")])
    parser.add_argument("--seed", type=int, default=20130522)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # Compiler temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    out = os.path.join(ROOT, ".bench_out", "run-%d" % os.getpid())
    started = time.monotonic()
    try:
        measure = measure_per_layer if args.trace else measure_end_to_end
        check, metrics, detail, first = measure(binary, args.workload, args.seed, args.seconds,
                                                out)
    except (OSError, KeyError, RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        log("run failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": first["nproc"], "simd": first["simd"], "build_type": first["build_type"],
        "commit": commit(), "source_digest": source_digest(),
        "elapsed_s": round(time.monotonic() - started, 3),
    }
    print("perfbench " + json.dumps({"stamp": stamp, "samples": detail}, sort_keys=True))
    correct = check.failed == 0
    print(json.dumps({"correct": correct, "attempted": check.attempted, "failed": check.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

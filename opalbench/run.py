#!/usr/bin/env python3
"""OpalSim end-to-end benchmark (see README.md next to this file).

Run from the root of an OpalSim checkout:

    python3 opalbench/run.py --workload calib84 --seed 1 --seconds 30 --trace 0
    python3 opalbench/run.py --smoke              # all workloads, reduced size
    python3 opalbench/run.py --record-reference   # rewrite reference.json

Builds the library sources under src/ together with the opalbench binary into
.bench_build/opalbench (CMake, RelWithDebInfo), runs one workload and prints,
as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones.  The line before it is a human-readable
summary that also carries the host-shape stamp and failed_frac.  --out FILE
additionally writes the whole result (stamp, samples, metrics) as JSON;
compare.py compares two such files.  Exit code 0 when every correctness
oracle held, 1 when one failed, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "opalbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "opalbench"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ("calib84", "large_nocut_p7", "middleware_ft")
DEFAULT_SEED = 1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no OpalSim sources under {ROOT / 'src'}")
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(workload, seed, seconds, trace, smoke=False):
    """Runs the binary once and returns its raw result record."""
    # Hermetic: no OPALSIM_* knob of the caller's environment (tracing,
    # metrics, checkpoints, thread counts, engine choice) reaches the runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPALSIM_")}
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", str(OUT_DIR)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"opalbench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """q-th percentile (0 < q < 100), linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(raw):
    samples = raw["scenario_s"]
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "scenarios_per_s": (len(samples) / raw["wall_s"], "1/s"),
        "scenario_s.p50": (statistics.median(samples), "s"),
        "scenario_s.p88": (percentile(samples, 88), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def reference_failures(raw):
    """Default-seed oracles: RunMetrics digests and the F4 calibration fit.
    Returns the failure messages and the scenario names that failed."""
    if raw["seed"] != DEFAULT_SEED or raw["smoke"]:
        return [], set()
    ref = json.loads(REFERENCE.read_text())
    failures, names = [], set()
    for name, digest in ref["digests"][raw["workload"]].items():
        got = raw["digests"].get(name)
        if got is not None and got != digest:
            failures.append(f"{name}: RunMetrics digest {got} != reference "
                            f"{digest}")
            names.add(name)
    if raw["fit"] is not None:
        for key, (value, tol) in ref["fit_f4"].items():
            got = raw["fit"][key]
            if abs(got - value) > tol:
                failures.append(f"calibration fit {key} = {got:.6g}, "
                                f"EXPERIMENTS.md F4 says {value} +- {tol}")
    return failures, names


def evaluate(raw):
    """Turns a raw result record into (result line, summary)."""
    ref_failures, ref_names = reference_failures(raw)
    failures = raw["failures"] + ref_failures
    attempted = len(raw["scenario"])
    failed = sum(1 for name, ok in zip(raw["scenario"], raw["ok"])
                 if not ok or name in ref_names)
    if failures and not failed:
        failed = 1  # the calibration fit, which is no single scenario's
    if raw["trace"]:
        metrics = {k: (v["value"], v["unit"]) for k, v in raw["layers"].items()}
    else:
        metrics = end_to_end(raw)
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }
    summary = {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "trace": raw["trace"],
        "stamp": raw["stamp"],
        "samples": len(raw["scenario_s"]),
        "failed_frac": line["failed"] / attempted,
        "failures": failures,
    }
    return line, summary


def smoke():
    """Runs every workload at reduced size, traced and not, and checks that
    every metric BENCHMARK.json names is emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in names:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line, summary = evaluate(
                run_binary(workload, DEFAULT_SEED, 0.5, trace, smoke=True))
            for m in spec[key]:
                got = line["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{workload}: {m['name']} not emitted")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{workload}: {m['name']} in "
                                    f"{got['unit']}, declared {m['unit']}")
            if not line["correct"]:
                problems.extend(summary["failures"])
            log(f"smoke {workload} trace={int(trace)}: "
                f"{len(line['metrics'])} metrics, failed {line['failed']}")
    for p in problems:
        log(f"smoke: {p}")
    print(json.dumps({"smoke_ok": not problems}))
    return 0 if not problems else 1


def record_reference():
    """Rewrites the default-seed RunMetrics digests in reference.json."""
    ref = json.loads(REFERENCE.read_text())
    for workload in WORKLOADS:
        raw = run_binary(workload, DEFAULT_SEED, 1, False)
        if raw["failures"]:
            raise RuntimeError(f"{workload}: {raw['failures']}")
        ref["digests"][workload] = dict(sorted(raw["digests"].items()))
    REFERENCE.write_text(json.dumps(ref, indent=2) + "\n")
    log(f"wrote {REFERENCE}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result here (JSON)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.smoke:
            return smoke()
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            ap.error("--workload is required")
        raw = run_binary(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (RuntimeError, OSError, subprocess.CalledProcessError,
            ValueError) as e:
        log(f"opalbench: {e}")
        return 2
    line, summary = evaluate(raw)
    for f in summary["failures"]:
        log(f"FAILED {f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"summary": summary, "result": line,
             "scenario_s": raw["scenario_s"], "setup_s": raw["setup_s"]},
            indent=2) + "\n")
    print(json.dumps(summary))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Regression gate for bench_host_speed (BENCH_host.json).

Compares a fresh bench run against the committed baseline
(bench/baselines/BENCH_host_baseline.json) and fails on:

  * any equivalence failure ("agree": false anywhere) — an optimized host
    path stopped producing the byte-identical result of its reference;
  * the Auto path not taking the cell list at bench scale
    ("cell_path_taken": false) — the crossover model regressed into
    leaving the fast path unused where it is known to win;
  * a crossover point whose Auto choice is measurably wrong
    ("model_ok": false): the heuristic picked a path that loses by more
    than the noise band at that size;
  * a relative speedup regression: the update (brute vs cell list) or
    nbint (AoS vs SoA) speedup dropping more than --tolerance (default
    25%) below the baseline's.  Speedups are ratios of two runs on the
    same machine, so the gate is hardware-independent, unlike raw seconds;
  * an absolute floor violation: update speedup below --min-update-speedup
    or kernel speedup below --min-kernel-speedup (conservative CI values;
    the committed baseline records the real measured margins).

The sweep (serial vs pooled) floor --min-sweep-speedup applies only when
the pool ran with >= 4 threads AND the host has >= 4 hardware threads —
on smaller hosts pooling cannot win and the sweep result is recorded,
not gated.

Usage:
  check_bench_host.py CURRENT_JSON [--baseline PATH] [--tolerance 0.25]
                      [--min-update-speedup 2.0] [--min-kernel-speedup 1.05]
                      [--min-sweep-speedup 1.2]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
DEFAULT_BASELINE = (
    REPO_ROOT / "bench" / "baselines" / "BENCH_host_baseline.json"
)


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: pathlib.Path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read {path}: {exc}")
    raise AssertionError  # unreachable


def check_agreement(current: dict) -> None:
    for section in ("update", "nbint_kernel", "sweep"):
        if not current.get(section, {}).get("agree", False):
            fail(f"{section} section: optimized path disagrees with the "
                 "reference")
    for point in current.get("crossover", []):
        if not point.get("agree", False):
            fail(f"crossover n={point.get('n')} p={point.get('p', 1)}: "
                 "active lists differ between paths")


def check_crossover_model(current: dict) -> None:
    if not current.get("update", {}).get("cell_path_taken", False):
        fail("Auto path fell back to brute force at bench scale — "
             "crossover model regressed")
    for point in current.get("crossover", []):
        if not point.get("model_ok", True):
            fail(f"crossover n={point.get('n')} p={point.get('p', 1)}: "
                 f"Auto picked "
                 f"{'cells' if point.get('auto_cells') else 'brute'} but "
                 f"the other path wins by more than the noise band "
                 f"(speedup {point.get('speedup', 0.0):.2f})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=pathlib.Path,
                        help="BENCH_host.json from the run under test")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative speedup drop vs baseline")
    parser.add_argument("--min-update-speedup", type=float, default=2.0,
                        help="absolute floor for brute vs cell-list speedup")
    parser.add_argument("--min-kernel-speedup", type=float, default=1.05,
                        help="absolute floor for AoS vs SoA speedup")
    parser.add_argument("--min-sweep-speedup", type=float, default=1.2,
                        help="absolute floor for serial vs pooled speedup "
                             "(gated only on >= 4 threads and hardware)")
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)
    check_agreement(current)
    check_crossover_model(current)

    ok = True
    for section, key in (("update", "speedup"), ("nbint_kernel", "speedup")):
        cur = float(current.get(section, {}).get(key, 0.0))
        base = float(baseline.get(section, {}).get(key, 0.0))
        floor = base * (1.0 - args.tolerance)
        status = "ok" if cur >= floor else "REGRESSION"
        if cur < floor:
            ok = False
        print(f"{section}.{key}: current {cur:.3f} vs baseline {base:.3f} "
              f"(floor {floor:.3f}) — {status}")

    update = float(current.get("update", {}).get("speedup", 0.0))
    if update < args.min_update_speedup:
        ok = False
        print(f"update speedup {update:.3f} below absolute floor "
              f"{args.min_update_speedup:.2f} — REGRESSION")
    kernel = float(current.get("nbint_kernel", {}).get("speedup", 0.0))
    if kernel < args.min_kernel_speedup:
        ok = False
        print(f"nbint kernel speedup {kernel:.3f} below absolute floor "
              f"{args.min_kernel_speedup:.2f} — REGRESSION")

    sweep = current.get("sweep", {})
    threads = int(sweep.get("threads", 1))
    hw = int(sweep.get("hardware_threads", 1))
    speedup = float(sweep.get("speedup", 0.0))
    if threads >= 4 and hw >= 4:
        if speedup < args.min_sweep_speedup:
            ok = False
            print(f"sweep speedup {speedup:.3f} with {threads} threads "
                  f"({hw} hardware) below floor "
                  f"{args.min_sweep_speedup:.2f} — REGRESSION")
        else:
            print(f"sweep speedup {speedup:.3f} with {threads} threads — ok")
    else:
        print(f"sweep speedup {speedup:.3f} with {threads} threads "
              f"({hw} hardware) — recorded, not gated (< 4 threads)")

    if not ok:
        fail("bench_host_speed regressed against the committed baseline")
    print("bench_host_speed within baseline envelope")


if __name__ == "__main__":
    main()

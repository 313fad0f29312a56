#!/usr/bin/env python3
"""Compares two results written by `run.py --out FILE`.

    python3 opalbench/compare.py BASE.json NEW.json

Refuses (exit 3) to compare results from different host classes: the host
shape stamp (nproc, pool participants, compiler id/version, build type,
OPALSIM_ARCH) and the workload must match.  Otherwise prints every metric
with its relative change and the bound BENCHMARK.json fixes for it, and exits
1 if a metric got worse by more than its bound, else 0.  Timings of one run
each are noisy; compare medians of several runs before trusting a verdict.
"""

import json
import sys
from pathlib import Path

HOST_CLASS = ("nproc", "participants", "compiler", "build_type", "arch")


def main(base_path, new_path):
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bs, ns = base["summary"], new["summary"]
    mismatch = [f"{k}: {bs['stamp'][k]!r} vs {ns['stamp'][k]!r}"
                for k in HOST_CLASS if bs["stamp"][k] != ns["stamp"][k]]
    mismatch += [f"{k}: {bs[k]!r} vs {ns[k]!r}"
                 for k in ("workload", "trace") if bs[k] != ns[k]]
    if mismatch:
        print("REFUSED: the results come from different host classes or "
              "workloads; their numbers are not comparable:", file=sys.stderr)
        for m in mismatch:
            print(f"  {m}", file=sys.stderr)
        return 3
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for name, b in base["result"]["metrics"].items():
        n = new["result"]["metrics"].get(name)
        m = specs.get(name)
        if n is None or m is None or b["value"] == 0:
            continue
        change = (n["value"] - b["value"]) / abs(b["value"])
        regression = change if m["better"] == "lower" else -change
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "WORSE" if regression > bound else "ok"
            worse += regression > bound
        print(f"{name:32s} {b['value']:14.6g} {n['value']:14.6g} "
              f"{100 * change:+8.2f}%  bound {bound}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))

#!/usr/bin/env python3
"""Determinism self-check: runs each workload twice with one seed (traced)
and requires every deterministic count to repeat exactly.

    python3 perfbench/selfcheck.py [--seed N] [workload ...]

The counts are code_size_ratio and dyn_insn_ratio (spec-optimize), and
the per-layer visits, memory bytes, instructions removed, lint findings,
query visits and largest SCC. Exit code 0 when all repeat, 1 otherwise.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["spec-optimize", "pc-analyze", "serve-edit"]
COUNTS = {
    "code_size_ratio", "dyn_insn_ratio", "callgraph.largest_scc", "core.phase1_visits",
    "core.phase2_visits", "core.stack_visits", "core.memory_bytes", "core.query_visits",
    "opt.insns_removed", "lint.findings",
}


def counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True).stdout
    found = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] in ("metric", "layer") and parts[1] in COUNTS:
            found[parts[1]] = parts[3]
    return found


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for w in args.workloads:
        first, second = counts(w, args.seed), counts(w, args.seed)
        for name in sorted(first):
            same = first[name] == second.get(name)
            ok &= same
            print(f"{w:<14} {name:<22} {first[name]:>14} {'repeats' if same else 'DIFFERS: ' + str(second.get(name))}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

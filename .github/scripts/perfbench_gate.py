"""CI gate: the repository benchmark on the parent commit versus this one.

Usage, from the root of a git checkout that includes its parent commit::

    python3 .github/scripts/perfbench_gate.py

The parent commit (``HEAD^1``) is checked out in a temporary git
worktree, and this commit's ``perfbench/`` is copied over it, so both
sides run the same benchmark code. Every workload in ``BENCHMARK.json``
then runs ``perfbench/run.py --seed 0 --seconds 8 --trace 0`` as two
pairs in alternating order: parent first, then head first.

The gate fails when, for any workload:

- a head run reports ``correct: false``, or either side yields no result;
- a head run fails more operations than the parent run of its pair;
- an end-to-end metric is worse than its paired parent value by more
  than ``FACTOR`` in both pairs. ``better`` in ``BENCHMARK.json`` says
  which direction is worse.

Exit status: 0 pass, 1 fail.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
FACTOR = 1.5
RUN_ARGS = ("--seed", "0", "--seconds", "8", "--trace", "0")
ORDERS = (("parent", "head"), ("head", "parent"))


def run_bench(tree: Path, workload: str) -> dict | None:
    """One benchmark run in ``tree``; its closing JSON line, or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *RUN_ARGS],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    print(proc.stdout, end="")
    print(proc.stderr, end="", file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])


def worse_by(better: str, parent: float, head: float) -> float:
    """How many times worse the head value is (below 1: better)."""
    num, den = (head, parent) if better == "lower" else (parent, head)
    if den == 0:
        return 1.0 if num == 0 else math.inf
    return num / den


def judge(workload: str, pairs: list[dict], end_to_end: list[dict]) -> list[str]:
    """Print the paired comparison; return the gate failures."""
    failures = []
    for number, pair in enumerate(pairs, 1):
        head, parent = pair["head"], pair["parent"]
        for side, result in pair.items():
            if result is None:
                failures.append(f"{workload} pair {number}: {side} run gave no result")
        if head is None or parent is None:
            continue
        if not head["correct"]:
            failures.append(f"{workload} pair {number}: head reports correct: false")
        if head["failed"] > parent["failed"]:
            failures.append(
                f"{workload} pair {number}: head failed {head['failed']} "
                f"operations, parent {parent['failed']}"
            )
    if failures:
        return failures
    print(f"\n{workload}: parent -> head per pair (worse-by factor)")
    for metric in end_to_end:
        name = metric["name"]
        values = [
            (pair["parent"]["metrics"].get(name), pair["head"]["metrics"].get(name))
            for pair in pairs
        ]
        if any(parent is None or head is None for parent, head in values):
            print(f"  {name:<13} not reported")
            continue
        factors = [
            worse_by(metric["better"], parent["value"], head["value"])
            for parent, head in values
        ]
        cells = "   ".join(
            f"{parent['value']:.4g} -> {head['value']:.4g} ({factor:.2f}x)"
            for (parent, head), factor in zip(values, factors)
        )
        print(f"  {name:<13} {cells}")
        if all(factor > FACTOR for factor in factors):
            failures.append(
                f"{workload}: {name} worse by more than {FACTOR}x in both pairs "
                f"({', '.join(f'{f:.2f}x' for f in factors)})"
            )
    return failures


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    with tempfile.TemporaryDirectory(prefix="perfbench-gate-") as tmp:
        parent_tree = Path(tmp) / "parent"
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach",
             str(parent_tree), "HEAD^1"],
            check=True,
        )
        try:
            shutil.rmtree(parent_tree / "perfbench", ignore_errors=True)
            shutil.copytree(
                ROOT / "perfbench",
                parent_tree / "perfbench",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            trees = {"parent": parent_tree, "head": ROOT}
            for workload in (w["name"] for w in spec["workloads"]):
                pairs = []
                for order in ORDERS:
                    pair = {}
                    for side in order:
                        print(f"== {workload}: {side}", flush=True)
                        pair[side] = run_bench(trees[side], workload)
                    pairs.append(pair)
                failures += judge(workload, pairs, spec["end_to_end"])
        finally:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force",
                 str(parent_tree)],
                check=False,
            )
    print()
    for failure in failures:
        print(f"perfbench-gate FAIL: {failure}")
    if not failures:
        print("perfbench-gate: pass")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

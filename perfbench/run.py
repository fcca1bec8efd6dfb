"""The repository benchmark: one command, three workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload fresh-probes --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload serve-mixed --trace 1
    python3 perfbench/run.py --ablate [--workload megatorus] [--scale small]

A run executes its workload in three fresh subprocesses (``child.py``),
one per shard of the seeded input stream. ``--seconds`` sets the run
length as a fixed amount of work: each shard runs a third of it divided
by the workload's nominal unit cost (``UNIT_S``), so two commits compared
at one setting run exactly the same operations, and a timing wobble
never adds or drops a unit. It
prints every metric by name with its unit, as the value over all shards
beside the spread across shards, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` reports the per-layer metrics instead: shard 0 runs
untraced, traced with timing wrappers installed (see ``tracing.py``),
and untraced again, so the tracing overhead is the traced wall time
minus the untraced median over identical work. Spans are written
to ``.perfbench-out/``.

``--ablate`` is a leave-one-out seam table, off the timed gate: for each
registered ``repro.seams`` seam it flips that one flag, re-runs shard
0's operations, and prints the change in ``op_p50_ms`` beside
the medium's round-memo hits and slot-memo hit ratio.

``--pin`` rewrites ``pinned.json`` with the output digests of seed 0.

Exit codes: 0 success, 1 an output check failed, 2 the program or a
shard failed to run, 3 the workload was skipped (megatorus without
NumPy).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned.json"
WORKLOADS = ("fresh-probes", "serve-mixed", "megatorus")
SHARDS = 3
DEFAULT_SECONDS = 24
# Percentiles tried for a tail metric, highest first: the tail is the
# highest one with at least ten samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SHARD_TIMEOUT_S = 170
# Nominal run time per work unit on a 2-core x86 container, output checks
# included: a probe generation, a request pair (whose misses are computed
# again for the byte check), a megatorus run.
UNIT_S = {"fresh-probes": 4.5, "serve-mixed": 0.045, "megatorus": 1.5}
# Extra set-up-only subprocesses per run: setup_s is the median over these
# and the shards. Serve set-up spawns a pool and computes its hot set, so
# it gets none.
SETUP_ONLY = {"fresh-probes": 2, "serve-mixed": 0, "megatorus": 2}


def units_for(workload: str, seconds: float) -> int:
    """Work units per shard for a run of ``seconds``."""
    units = max(1, round(seconds / SHARDS / UNIT_S[workload]))
    if workload == "fresh-probes":
        # Cache hits repeat probes of earlier generations.
        units = max(2, units)
    if workload == "megatorus":
        # Whole grid sides (one cold run, then warm ones), at least two.
        units = max(3, 3 * round(units / 3))
    return units


class ShardFailed(Exception):
    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def run_shard(cfg: dict, timeout: float) -> dict:
    """Run one shard in a fresh interpreter and return its raw result."""
    cfg = dict(cfg, t0=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ShardFailed(f"{cfg['workload']} shard {cfg['shard']} timed out") from None
    finally:
        # Also reached on SIGTERM (see main): never leave a shard behind.
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode == 3:
        raise ShardFailed(f"{cfg['workload']} skipped", code=3)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ShardFailed(
            f"{cfg['workload']} shard {cfg['shard']} exited {proc.returncode}"
        )
    return json.loads(lines[-1])


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >=10 beyond it.

    Below 20 samples no percentile qualifies and the median stands in.
    """
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return percentile(values, pct), pct
    return percentile(values, 50.0), 50.0


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    return f"{min(values):.4g}..{max(values):.4g}"


def end_to_end(
    workload: str, shards: list[dict], setups: list[float]
) -> tuple[dict, list[str]]:
    """Aggregate shard results into the end-to-end metrics."""
    metrics: dict[str, tuple[float, str]] = {}
    lines: list[str] = []

    def put(name: str, value: float, unit: str, per_shard: list[float], note: str = "") -> None:
        metrics[name] = (value, unit)
        lines.append(
            f"  {name:<12} {value:>12.4f} {unit:<6} shards {spread(per_shard):<22} {note}"
        )

    put(
        "setup_s",
        statistics.median(setups),
        "s",
        setups,
        f"median of {len(setups)} set-ups",
    )
    window = sum(s["window_s"] for s in shards)
    ops = sum(s["ops"] for s in shards)
    put(
        "ops_per_s",
        ops / window,
        "1/s",
        [s["ops"] / s["window_s"] for s in shards],
        f"{ops} ops in {window:.2f} s",
    )
    for prefix, key in (("op", "op_ms"), ("hit", "hit_ms"), ("miss", "miss_ms")):
        pooled = [v for s in shards for v in s[key]]
        if not pooled:
            raise ShardFailed(f"{workload}: no {prefix} samples")
        put(
            f"{prefix}_p50_ms",
            statistics.median(pooled),
            "ms",
            [statistics.median(s[key]) for s in shards if s[key]],
            f"n={len(pooled)}",
        )
        value, pct = tail(pooled)
        lines.append(f"  {prefix + '_tail_ms':<12} {value:>12.4f} ms     p{pct:g} (per-layer metric)")
    attempted = sum(s["attempted"] for s in shards)
    failed = sum(s["failed"] for s in shards)
    put(
        "ok_frac",
        (attempted - failed) / attempted,
        "ratio",
        [(s["attempted"] - s["failed"]) / s["attempted"] for s in shards],
        f"{failed} failed of {attempted}",
    )
    put(
        "peak_rss_mb",
        statistics.median(s["peak_rss_mb"] for s in shards),
        "MB",
        [s["peak_rss_mb"] for s in shards],
        "median of shard peaks (process + pool workers)",
    )
    return metrics, lines


def combined_digest(shards: list[dict]) -> str:
    return hashlib.sha256(
        "".join(s["digest_pinned"] for s in shards).encode()
    ).hexdigest()


def base_cfg(args, workload: str) -> dict:
    return {
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": False,
        "units": units_for(workload, args.seconds),
    }


def measure(args) -> int:
    cfg = base_cfg(args, args.workload)
    shards = [run_shard(dict(cfg, shard=i), SHARD_TIMEOUT_S) for i in range(SHARDS)]
    setups = [s["setup_s"] for s in shards] + [
        run_shard(dict(cfg, shard=i, setup_only=True), SHARD_TIMEOUT_S)["setup_s"]
        for i in range(SETUP_ONLY[args.workload])
    ]
    errors = [e for s in shards for e in s["errors"]]
    pinned_ok = check_pinned(args, shards, errors)
    metrics, lines = end_to_end(args.workload, shards, setups)
    print(f"{args.workload} seed={args.seed} scale={args.scale}: {SHARDS} fresh shards")
    print("\n".join(lines))
    if pinned_ok is not None:
        print(f"  pinned output digest: {'match' if pinned_ok else 'MISMATCH'}")
    for error in errors:
        print(f"  check failed: {error}")
    correct = not errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(s["attempted"] for s in shards),
                "failed": sum(s["failed"] for s in shards),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def check_pinned(args, shards: list[dict], errors: list[str]) -> bool | None:
    """Compare seed 0's output digest with pinned.json (None: not pinned)."""
    if args.seed != 0 or args.scale != "full" or args.workload == "serve-mixed":
        return None
    digest = combined_digest(shards)
    if args.pin:
        pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
        pinned[args.workload] = digest
        PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        return True
    want = json.loads(PINNED.read_text()).get(args.workload)
    if want != digest:
        errors.append(f"output digest {digest[:16]} differs from pinned {str(want)[:16]}")
        return False
    return True


def traced(args) -> int:
    """Per-layer metrics from a traced shard, bracketed by untraced ones."""
    cfg = dict(base_cfg(args, args.workload), shard=0)
    untraced = run_shard(cfg, SHARD_TIMEOUT_S)
    same = dict(cfg, reference_check=False)
    trace = run_shard(dict(same, trace=True), SHARD_TIMEOUT_S)
    again = run_shard(same, SHARD_TIMEOUT_S)
    errors = [e for s in (untraced, trace, again) for e in s["errors"]]
    layers = trace["layers"]
    untraced_s = statistics.median([untraced["window_s"], again["window_s"]])
    overhead = trace["window_s"] - untraced_s
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_frac"] = overhead / untraced_s
    # Tails vary too much between runs to gate on; they are reported here,
    # from the first untraced shard.
    tails = []
    for prefix, key in (("op", "op_ms"), ("hit", "hit_ms"), ("miss", "miss_ms")):
        if not untraced[key]:
            raise ShardFailed(f"{args.workload}: no {prefix} samples")
        value, pct = tail(untraced[key])
        layers[f"{prefix}_tail_ms"] = value
        tails.append(f"{prefix}_tail_ms {value:.4f} ms (p{pct:g}, n={len(untraced[key])})")

    # The traced run must have taken the production path.
    if not trace["digest_all"] == untraced["digest_all"] == again["digest_all"]:
        errors.append("traced outputs differ from the untraced run")
    if args.workload == "fresh-probes":
        if layers["protocols.flat.build_engine.calls"] != trace["computed"]:
            errors.append(
                f"flat engine built {layers['protocols.flat.build_engine.calls']} "
                f"times for {trace['computed']} computed probes"
            )
        if layers["protocols.vectorized.engaged"] != 0:
            errors.append("vector kernel engaged on fresh-probes")
    if args.workload == "megatorus" and layers["protocols.vectorized.engaged"] != trace["ops"]:
        errors.append(
            f"vector kernel engaged {layers['protocols.vectorized.engaged']} "
            f"times in {trace['ops']} runs"
        )

    print(f"{args.workload} seed={args.seed}: traced shard, {trace['ops']} ops")
    print(trace["table"])
    print(
        f"tracing overhead: {overhead:.3f} s over {untraced_s:.3f} s untraced "
        f"({100 * overhead / untraced_s:.1f}%); {trace['spans']} spans in "
        f"{trace['spans_file']}"
    )
    print("untraced tails: " + "; ".join(tails))
    print("path assertions: " + ("pass" if not errors else "FAIL"))
    for error in errors:
        print(f"  check failed: {error}")
    units = layer_units()
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": trace["attempted"],
                "failed": trace["failed"],
                "metrics": {
                    name: {"value": layers[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if not errors else 1


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def ablate(args) -> int:
    """Leave-one-out seam table (not part of the timed gate)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro import seams

    names = [seam.name for seam in seams.load_seam_sites()]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    rows = []
    for workload in workloads:
        cfg = dict(base_cfg(args, workload), shard=0, medium_counters=True)
        try:
            base = run_shard(cfg, SHARD_TIMEOUT_S)
        except ShardFailed as exc:
            print(f"{workload}: {exc}")
            continue
        base_p50 = statistics.median(base["op_ms"])
        rows.append((workload, "(none)", base_p50, 0.0, base))
        for name in names:
            flipped = run_shard(
                dict(cfg, flip=[name], reference_check=False), 10 * SHARD_TIMEOUT_S
            )
            if flipped["digest_all"] != base["digest_all"]:
                print(f"{workload}: flipping {name} changed the outputs")
                return 1
            p50 = statistics.median(flipped["op_ms"])
            rows.append((workload, name, p50, p50 - base_p50, flipped))
    print(
        f"{'workload':<13} {'seam flipped':<14} {'op_p50_ms':>10} {'delta_ms':>9} "
        f"{'delta':>7} {'round_memo.hits':>15} {'memo_hit_ratio':>14}"
    )
    for workload, name, p50, delta, result in rows:
        layers = result.get("layers", {})
        base_p50 = p50 - delta
        memo = "-" if workload == "serve-mixed" else layers.get("radio.medium.round_memo.hits", 0)
        ratio = (
            "-"
            if workload == "serve-mixed"
            else f"{layers.get('radio.medium.resolve.memo_hit_ratio', 0.0):.3f}"
        )
        print(
            f"{workload:<13} {name:<14} {p50:>10.3f} {delta:>+9.3f} "
            f"{100 * delta / base_p50:>+6.1f}% {memo!s:>15} {ratio:>14}"
        )
    print(
        "(serve-mixed computes in its pool worker, where the medium counters "
        "are not installed)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small", "tiny"), default=None)
    parser.add_argument("--ablate", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if args.scale is None:
        args.scale = "small" if args.ablate else "full"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.ablate:
            return ablate(args)
        if args.workload is None:
            parser.error("--workload is required")
        return traced(args) if args.trace else measure(args)
    except ShardFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())

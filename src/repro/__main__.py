"""Command-line entry point: regenerate the paper's experiments.

Usage::

    python -m repro list                        # show available experiments
    python -m repro run e2                      # run one experiment
    python -m repro run e2 e7 --workers 4       # several, in parallel
    python -m repro run all --cache-dir .cache  # everything, memoized
    python -m repro run e2 --profile            # cProfile one serial run
    python -m repro scenario list               # bundled scenario presets
    python -m repro scenario dump figure2       # preset as editable JSON
    python -m repro scenario run my.json        # run a JSON scenario file
    python -m repro scenario run figure2 --workers 2 --cache-dir .cache
    python -m repro fuzz run --cases 200 --seed 0 --workers 4
    python -m repro fuzz run --time-budget 60 --seed 0
    python -m repro fuzz replay tests/corpus    # re-execute repro files
    python -m repro serve --port 8642 --cache-dir .cache --workers 4
    python -m repro serve --stdin-batch < specs.jsonl
    python -m repro cache stats .cache          # inventory a result cache
    python -m repro cache prune .cache --max-bytes 500M --max-age 30
    python -m repro atlas --quick --cache-dir .cache
    python -m repro atlas theorem2 --axes m,mf --out atlas/
    python -m repro chaos run                   # replay fault plans, check bytes
    python -m repro chaos run quickstart --plan plan.json --no-serve
    python -m repro chaos sample --seed 3       # print a sampled FaultPlan

``--workers N`` fans each experiment's sweep points out over ``N``
spawn-safe worker processes (``0`` = one per CPU); results are
bit-identical to a serial run. ``--cache-dir`` memoizes per-point results
as JSON keyed by a stable hash of the point, so re-running only computes
points whose configuration changed.

``scenario run`` executes declarative :class:`repro.scenario.ScenarioSpec`
scenarios — bundled presets by name, or JSON files (one scenario object,
or a list of them) that need no Python edits at all. Specs sweep through
the same parallel/cache substrate as the experiments, keyed by each
scenario's stable content hash.

``serve`` starts the long-lived scenario service (:mod:`repro.serve`):
ScenarioSpec JSON over HTTP on ``POST /run``, answered with the exact
bytes a direct ``run(spec)`` report serializes to, deduplicating
concurrent identical requests and layering an in-memory LRU over the
same on-disk cache ``--cache-dir`` sweeps use. ``--stdin-batch`` is the
one-shot piped mode: one spec JSON per input line, one result JSON per
output line, in order. ``cache stats`` inventories a ``--cache-dir``
directory (entries, bytes, corrupt files) without touching its
contents; ``cache prune`` evicts entries by age and/or total size
(oldest first, ``--dry-run`` to preview) — safe at any time, since
invalidation is structural and pruned points are simply recomputed.

``atlas`` maps each preset's empirical success/failure frontier along
the ``m``/``t``/``mf`` axes by adaptive bisection and writes a
browsable ``atlas.md`` + ``atlas.json`` artifact pair (deterministic:
same scenarios → byte-identical files). Probes batch through the same
sweep substrate as everything else, so ``--cache-dir`` makes re-runs
incremental.

``run``/``scenario run`` sweeps treat SIGTERM like Ctrl-C: workers are
stopped, a ``sweep interrupted: N/M points completed`` note goes to
stderr, and already-cached points survive for the next run to reuse.

``--profile`` (on ``run`` and ``scenario run``) cProfiles one point
serially and prints the top cumulative entries — the tooling future
perf PRs should start from before touching code.

``chaos run`` arms seeded :class:`repro.chaos.FaultPlan` fault schedules
(worker kills, slow workers, cache corruption, failed cache writes,
connection resets) against real parallel sweeps and a real in-process
daemon, asserting every response stays byte-identical to the fault-free
run — the executable form of the "faults cost latency, never bytes"
standing rule. ``chaos sample`` prints the plan a seed expands to.

``fuzz run`` samples random scenarios from the component registries and
differentially verifies every fast/reference implementation pair plus
the :mod:`repro.fuzz.oracles` invariants on each; failures are shrunk
and written to ``--corpus`` as replayable JSON repros (see README
"Fuzzing"). ``fuzz replay`` re-executes repro files or whole corpus
directories.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import signal
import sys
import time
from pathlib import Path

from repro.errors import ReproError
from repro.experiments import registry
from repro.runner.parallel import ResultCache, SweepProgress
from repro.runner.parallel import sweep as parallel_sweep
from repro.scenario import (
    ScenarioSpec,
    outcome_table,
    preset,
    preset_names,
    run_summary,
)
from repro.serve import service as serve_defaults


#: How many cumulative-time rows ``--profile`` prints.
PROFILE_TOP_N = 25


def _print_profile(profile: cProfile.Profile, label: str) -> None:
    stats = pstats.Stats(profile, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative")
    print(f"-- cProfile: {label} (top {PROFILE_TOP_N} by cumulative time) --")
    stats.print_stats(PROFILE_TOP_N)


def run_experiment(
    exp_id: str,
    *,
    workers: int = 1,
    cache_dir: str | None = None,
    show_progress: bool = True,
    position: tuple[int, int] | None = None,
    profile: bool = False,
) -> None:
    """Run one experiment and print its regenerated table.

    ``profile`` wraps the (forced-serial, uncached) run in cProfile and
    prints the top cumulative entries after the table — the starting
    point for perf work on an experiment's hot path.
    """
    experiment = registry.get(exp_id)
    prefix = f"[{position[0]}/{position[1]}] " if position else ""
    print(f"== {prefix}{exp_id}: {experiment.description} ==")
    cache = (
        ResultCache(cache_dir, namespace=exp_id)
        if cache_dir is not None and not profile
        else None
    )
    progress = SweepProgress(exp_id) if show_progress and not profile else None
    start = time.perf_counter()
    if profile:
        profiler = cProfile.Profile()
        profiler.enable()
        result = experiment.run(workers=1, cache=None, progress=None)
        profiler.disable()
    else:
        result = experiment.run(workers=workers, cache=cache, progress=progress)
    elapsed = time.perf_counter() - start
    print(experiment.format(result))
    if profile:
        _print_profile(profiler, f"{exp_id}, serial, cache off")
    suffix = ""
    if cache is not None:
        suffix = f"; cache: {cache.stats.hits} hits, {cache.stats.stores} stored"
    print(f"[{exp_id} finished in {elapsed:.1f}s{suffix}]\n")


def _load_scenarios(target: str) -> list[ScenarioSpec]:
    """Resolve one `scenario run` argument: JSON file path or preset name."""
    path = Path(target)
    if path.suffix == ".json" or path.exists():
        payload = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(payload, list):
            return [ScenarioSpec.from_dict(item) for item in payload]
        return [ScenarioSpec.from_dict(payload)]
    return [preset(target)]


def run_scenarios(
    targets: list[str],
    *,
    workers: int = 1,
    cache_dir: str | None = None,
    show_progress: bool = True,
    profile: bool = False,
) -> None:
    """Run scenario files/presets through the parallel sweep substrate.

    ``profile`` cProfiles the *first* scenario point serially and prints
    the top cumulative entries; its outcome is reused in the final table
    (the point is not recomputed, and not stored in the result cache).
    """
    specs: list[ScenarioSpec] = []
    for target in targets:
        specs.extend(_load_scenarios(target))
    profiled_outcome = None
    if profile and specs:
        profiler = cProfile.Profile()
        profiler.enable()
        profiled_outcome = run_summary(specs[0])
        profiler.disable()
        _print_profile(
            profiler, f"scenario {specs[0].content_hash()[:12]}, serial"
        )
    cache = (
        ResultCache(cache_dir, namespace="scenario")
        if cache_dir is not None
        else None
    )
    progress = SweepProgress("scenario") if show_progress else None
    start = time.perf_counter()
    sweep_specs = specs[1:] if profiled_outcome is not None else specs
    result = parallel_sweep(
        sweep_specs, run_summary, workers=workers, cache=cache, progress=progress
    )
    elapsed = time.perf_counter() - start
    points = list(result.points)
    outcomes = list(result.results)
    if profiled_outcome is not None:
        points.insert(0, specs[0])
        outcomes.insert(0, profiled_outcome)
    print(
        outcome_table(
            points,
            outcomes,
            title=f"scenario run: {', '.join(targets)}",
        )
    )
    suffix = ""
    if cache is not None:
        suffix = f"; cache: {cache.stats.hits} hits, {cache.stats.stores} stored"
    print(f"[{len(specs)} scenario(s) in {elapsed:.1f}s{suffix}]")


def _sigterm_as_interrupt() -> None:
    """Treat a supervisor's SIGTERM like Ctrl-C during sweeps.

    ``sweep`` already drains its workers and reports ``N/M points
    completed`` on :class:`KeyboardInterrupt`; routing SIGTERM into the
    same path means a timed-out CI job or a ``systemctl stop`` keeps the
    cached points and the progress note instead of dying mid-write.
    """

    def _raise(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError, AttributeError):
        pass  # non-main thread, or a platform without SIGTERM


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ids = registry.experiment_ids()

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's figures/theorems as experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="show available experiments")
    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        choices=[*ids, "all"],
        metavar="exp",
        help=f"experiment id ({', '.join(ids)}) or 'all'",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per sweep (0 = one per CPU; default 1)",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk JSON result cache (default: off)",
    )
    run_parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress per-sweep progress/ETA output",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile one serial run and print the top cumulative entries",
    )
    scenario_parser = sub.add_parser(
        "scenario", help="declarative ScenarioSpec scenarios (JSON/presets)"
    )
    scenario_sub = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_run = scenario_sub.add_parser(
        "run", help="run scenario JSON files and/or bundled presets"
    )
    scenario_run.add_argument(
        "scenarios",
        nargs="+",
        metavar="file.json|preset",
        help=(
            "scenario JSON file (one object or a list) or a preset name "
            f"({', '.join(preset_names())})"
        ),
    )
    scenario_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the scenario sweep (0 = one per CPU)",
    )
    scenario_run.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk JSON result cache (default: off)",
    )
    scenario_run.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress progress/ETA output",
    )
    scenario_run.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the first scenario point and print the top entries",
    )
    scenario_sub.add_parser("list", help="show bundled scenario presets")
    scenario_dump = scenario_sub.add_parser(
        "dump", help="print a preset's JSON (start here for custom files)"
    )
    scenario_dump.add_argument(
        "preset", choices=preset_names(), help="preset name"
    )
    check_parser = sub.add_parser(
        "check",
        help="project-invariant static analysis (repro.check)",
    )
    check_parser.add_argument(
        "--root",
        default=None,
        help="project root to scan (default: auto-detected)",
    )
    check_parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON of findings to exclude (default: "
        ".repro-check-baseline.json at the root, which must stay empty)",
    )
    check_parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit findings as JSON on stdout",
    )
    check_parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="snapshot current findings to FILE and exit 0 (staged cleanups)",
    )
    check_parser.add_argument(
        "--rules",
        action="store_true",
        help="list the rule catalog and exit",
    )
    fuzz_parser = sub.add_parser(
        "fuzz",
        help="randomized-scenario differential verification (repro.fuzz)",
    )
    fuzz_sub = fuzz_parser.add_subparsers(dest="fuzz_command", required=True)
    fuzz_run = fuzz_sub.add_parser(
        "run", help="sample scenarios and differentially verify each"
    )
    fuzz_run.add_argument(
        "--cases",
        type=int,
        default=None,
        help="number of scenarios to sample (mutually exclusive with "
        "--time-budget)",
    )
    fuzz_run.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="keep sampling batches until this much wall-clock has passed",
    )
    fuzz_run.add_argument(
        "--seed", type=int, default=0, help="master sampling seed (default 0)"
    )
    fuzz_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the case sweep (0 = one per CPU)",
    )
    fuzz_run.add_argument(
        "--corpus",
        default="fuzz-corpus",
        help="directory minimized failure repros are written to "
        "(default: fuzz-corpus)",
    )
    fuzz_run.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress progress/ETA output",
    )
    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-execute repro JSON files or corpus directories"
    )
    fuzz_replay.add_argument(
        "targets",
        nargs="+",
        metavar="file.json|dir",
        help="repro file(s) and/or corpus directories",
    )
    serve_parser = sub.add_parser(
        "serve",
        help="long-lived scenario service: spec JSON in, report bytes out",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (0 = ephemeral; default 8642)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="persistent compute workers (0 = one per CPU; default 0)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache shared with `scenario run --cache-dir` "
        "(default: off)",
    )
    serve_parser.add_argument(
        "--lru-size",
        type=int,
        default=serve_defaults.DEFAULT_LRU_SIZE,
        help="in-memory response LRU entries (0 disables; default "
        f"{serve_defaults.DEFAULT_LRU_SIZE})",
    )
    serve_parser.add_argument(
        "--queue-limit",
        type=int,
        default=serve_defaults.DEFAULT_QUEUE_LIMIT,
        help="queued computations before 503 + Retry-After (default "
        f"{serve_defaults.DEFAULT_QUEUE_LIMIT})",
    )
    serve_parser.add_argument(
        "--batch-max",
        type=int,
        default=serve_defaults.DEFAULT_BATCH_MAX,
        help="max specs coalesced into one worker chunk (default "
        f"{serve_defaults.DEFAULT_BATCH_MAX})",
    )
    serve_parser.add_argument(
        "--batch-window",
        type=float,
        default=serve_defaults.DEFAULT_BATCH_WINDOW,
        help="seconds to wait for batchmates after a miss (default "
        f"{serve_defaults.DEFAULT_BATCH_WINDOW})",
    )
    serve_parser.add_argument(
        "--request-timeout",
        type=float,
        default=serve_defaults.DEFAULT_REQUEST_TIMEOUT,
        help="per-request deadline in seconds before a 504 (0 disables; "
        f"default {serve_defaults.DEFAULT_REQUEST_TIMEOUT:g})",
    )
    serve_parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here once listening (harness discovery)",
    )
    serve_parser.add_argument(
        "--stdin-batch",
        action="store_true",
        help="one-shot mode: read spec JSON lines from stdin, write one "
        "result JSON line each (in input order), then exit",
    )
    cache_parser = sub.add_parser(
        "cache", help="inspect on-disk result caches"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entries/bytes/corruption inventory of a cache dir"
    )
    cache_stats.add_argument("directory", help="the --cache-dir directory")
    cache_stats.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the inventory as JSON on stdout",
    )
    cache_prune = cache_sub.add_parser(
        "prune",
        help="evict cache entries by age and/or size (oldest first)",
    )
    cache_prune.add_argument("directory", help="the --cache-dir directory")
    cache_prune.add_argument(
        "--max-bytes",
        default=None,
        metavar="SIZE",
        help="shrink the directory to at most SIZE (e.g. 500M, 2G)",
    )
    cache_prune.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="DAYS",
        help="remove entries not rewritten in the last DAYS days",
    )
    cache_prune.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without unlinking anything",
    )
    atlas_parser = sub.add_parser(
        "atlas",
        help="adaptive frontier atlas: search presets, emit md+json report",
    )
    atlas_parser.add_argument(
        "presets",
        nargs="*",
        metavar="preset",
        help="preset names to map (default: the bundled atlas slice)",
    )
    atlas_parser.add_argument(
        "--quick",
        action="store_true",
        help="CI slice: map only the quick preset set",
    )
    atlas_parser.add_argument(
        "--axes",
        default=None,
        metavar="m,t,mf",
        help="comma-separated axis subset (default: all registered axes)",
    )
    atlas_parser.add_argument(
        "--refine",
        type=int,
        default=1,
        help="probe radius around each frontier after bisection (default 1)",
    )
    atlas_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per probe batch (0 = one per CPU; default 1)",
    )
    atlas_parser.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk probe cache shared with `scenario run`/`serve` "
        "(default: off; set it to make re-runs incremental)",
    )
    atlas_parser.add_argument(
        "--out",
        default="atlas",
        metavar="DIR",
        help="directory the atlas.md/atlas.json artifacts land in "
        "(default: atlas)",
    )
    atlas_parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress per-generation progress output on stderr",
    )
    chaos_parser = sub.add_parser(
        "chaos",
        help="fault-injection harness: replay FaultPlans, assert bytes",
    )
    chaos_sub = chaos_parser.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_sub.add_parser(
        "run",
        help="replay fault plans against sweeps and the serve daemon",
    )
    chaos_run.add_argument(
        "targets",
        nargs="*",
        metavar="preset",
        help="preset names to exercise (default: quickstart theorem2)",
    )
    chaos_run.add_argument(
        "--plan",
        default=None,
        metavar="FILE",
        help="replay this FaultPlan JSON instead of full+sampled plans",
    )
    chaos_run.add_argument(
        "--sample",
        type=int,
        default=2,
        help="sampled plans to add beside the full plan (default 2)",
    )
    chaos_run.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed for sampled plans (default 0)",
    )
    chaos_run.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes for the sweep/serve legs (default 2)",
    )
    chaos_run.add_argument(
        "--no-serve",
        action="store_true",
        help="skip the serve (daemon) leg; sweep legs only",
    )
    chaos_run.add_argument(
        "--points",
        type=int,
        default=3,
        help="seed-varied points per target preset (default 3)",
    )
    chaos_sample = chaos_sub.add_parser(
        "sample", help="print the FaultPlan(s) a seed expands to"
    )
    chaos_sample.add_argument(
        "--seed", type=int, default=0, help="first plan seed (default 0)"
    )
    chaos_sample.add_argument(
        "--count", type=int, default=1, help="how many plans (default 1)"
    )
    args = parser.parse_args(argv)

    if args.command == "serve":
        from repro.serve.cli import serve_command

        try:
            return serve_command(
                host=args.host,
                port=args.port,
                workers=args.workers,
                cache_dir=args.cache_dir,
                lru_size=args.lru_size,
                queue_limit=args.queue_limit,
                batch_max=args.batch_max,
                batch_window=args.batch_window,
                request_timeout=args.request_timeout,
                port_file=args.port_file,
                stdin_batch=args.stdin_batch,
            )
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "chaos":
        from repro.chaos.cli import chaos_run_command, chaos_sample_command

        try:
            if args.chaos_command == "sample":
                return chaos_sample_command(seed=args.seed, count=args.count)
            return chaos_run_command(
                args.targets,
                plan_file=args.plan,
                sample=args.sample,
                seed=args.seed,
                workers=args.workers,
                serve_leg=not args.no_serve,
                points=args.points,
            )
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "cache":
        from repro.serve.cli import cache_prune_command, cache_stats_command

        if args.cache_command == "prune":
            return cache_prune_command(
                args.directory,
                max_bytes=args.max_bytes,
                max_age_days=args.max_age,
                dry_run=args.dry_run,
            )
        return cache_stats_command(args.directory, as_json=args.as_json)

    if args.command == "atlas":
        from repro.analysis.atlas import atlas_command

        _sigterm_as_interrupt()
        try:
            return atlas_command(
                args.presets,
                quick=args.quick,
                axes=args.axes,
                refine=args.refine,
                workers=args.workers,
                cache_dir=args.cache_dir,
                out_dir=args.out,
                show_progress=not args.no_progress,
            )
        except KeyboardInterrupt:
            return 130
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "check":
        from repro.check.cli import check_command

        return check_command(
            root=args.root,
            baseline=args.baseline,
            as_json=args.as_json,
            write_baseline_path=args.write_baseline,
            show_rules=args.rules,
        )

    if args.command == "fuzz":
        from repro.fuzz.cli import fuzz_replay_command, fuzz_run_command

        try:
            if args.fuzz_command == "replay":
                return fuzz_replay_command(args.targets)
            return fuzz_run_command(
                cases=args.cases,
                time_budget=args.time_budget,
                seed=args.seed,
                workers=args.workers,
                corpus_dir=args.corpus,
                show_progress=not args.no_progress,
            )
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "scenario":
        try:
            if args.scenario_command == "run":
                _sigterm_as_interrupt()
            if args.scenario_command == "list":
                width = max(len(name) for name in preset_names())
                for name in preset_names():
                    spec = preset(name)
                    print(
                        f"{name.ljust(width)}  {spec.protocol} / "
                        f"{spec.grid.width}x{spec.grid.height} r={spec.grid.r} "
                        f"[{spec.content_hash()[:12]}]"
                    )
            elif args.scenario_command == "dump":
                print(preset(args.preset).to_json())
            else:
                run_scenarios(
                    args.scenarios,
                    workers=args.workers,
                    cache_dir=args.cache_dir,
                    show_progress=not args.no_progress,
                    profile=args.profile,
                )
        except KeyboardInterrupt:
            return 130  # sweep already reported completed/total on stderr
        except (ReproError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "list":
        width = max(len(exp_id) for exp_id in ids)
        for experiment in registry.all_experiments():
            print(f"{experiment.exp_id.ljust(width)}  {experiment.description}")
        return 0

    targets = list(ids) if "all" in args.experiments else args.experiments
    _sigterm_as_interrupt()
    overall = time.perf_counter()
    for index, exp_id in enumerate(targets, start=1):
        try:
            run_experiment(
                exp_id,
                workers=args.workers,
                cache_dir=args.cache_dir,
                show_progress=not args.no_progress,
                position=(index, len(targets)) if len(targets) > 1 else None,
                profile=args.profile,
            )
        except KeyboardInterrupt:
            return 130  # sweep already reported completed/total on stderr
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if len(targets) > 1:
        print(f"[{len(targets)} experiments in {time.perf_counter() - overall:.1f}s]")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pipe reader (e.g. `... | head`) closed early; exit
        # quietly instead of tracebacking. Point stdout at devnull so the
        # interpreter's shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)

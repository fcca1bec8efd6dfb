"""The scenario atlas: adaptive frontier maps over bundled scenarios.

``python -m repro atlas`` locates the empirical success/failure
frontier of each bundled preset along every searchable axis
(:data:`repro.analysis.search.FRONTIER_AXES`: good budget ``m``,
adversary density ``t``, adversary budget ``mf``) and publishes the
result as a browsable artifact pair — ``atlas.md`` (per-axis frontier
tables, probe-by-probe evidence, theory brackets) and ``atlas.json``
(the same data, machine-readable) — in the declarative
measures→generated-report style.

The atlas is *searched, not enumerated*: every ``(scenario, axis)``
pair runs an :class:`~repro.analysis.search.AxisSearch` bisection, and
each generation gathers the pending probes of **all** live searches
into one :func:`repro.runner.parallel.probe_batch`, so probes run in
parallel, are deduplicated across searches, and are cache-keyed by
``spec.content_hash()`` — a re-run with the same ``--cache-dir``
answers almost entirely from the :class:`~repro.runner.parallel.
ResultCache` and only computes what changed.

Artifacts are deterministic by construction: no timestamps, no cache
provenance, no machine identifiers — the same scenarios and seeds
produce byte-identical files, so artifact diffs mean *frontier* diffs.
Cache/runtime statistics go to stdout via the CLI instead.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.analysis.bounds import m0, max_locally_bounded_t
from repro.analysis.search import (
    FRONTIER_AXES,
    AxisFrontier,
    AxisSearch,
)
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.runner.parallel import ResultCache
    from repro.scenario.spec import ScenarioSpec

#: Presets a full atlas maps, in report order. ``megatorus`` is excluded
#: (each probe is a 10^6-node run — perfbench's megatorus workload covers
#: it) and ``stripe-impossibility`` is included to show a frontier from
#: the failing side.
DEFAULT_ATLAS_PRESETS = (
    "quickstart",
    "stripe-impossibility",
    "theorem2",
    "figure2",
    "reactive",
)

#: The ``--quick`` slice: enough to exercise every axis and both report
#: renderers in CI without minutes of probing.
QUICK_ATLAS_PRESETS = ("quickstart",)

#: Axis order in reports (the registry's insertion order).
DEFAULT_AXES = tuple(FRONTIER_AXES)

#: Artifact file names inside the output directory.
MARKDOWN_NAME = "atlas.md"
JSON_NAME = "atlas.json"

#: Schema version stamped into ``atlas.json``.
ATLAS_VERSION = 1


@dataclass(frozen=True)
class AtlasEntry:
    """One scenario's frontier map: the spec and a frontier per axis."""

    name: str
    spec: "ScenarioSpec"
    frontiers: tuple[AxisFrontier, ...]


@dataclass(frozen=True)
class AtlasResult:
    """A built atlas plus the probe economics of building it.

    ``computed``/``cached``/``deduped`` aggregate the
    :class:`~repro.runner.parallel.ProbeBatch` counters across all
    generations — ``cached`` over their sum is the incremental-re-run
    ratio the acceptance gate checks. They describe the *run*, not the
    atlas, and are deliberately kept out of the artifacts.
    """

    entries: tuple[AtlasEntry, ...]
    generations: int
    computed: int
    cached: int
    deduped: int
    elapsed_s: float

    @property
    def probes(self) -> int:
        return self.computed + self.cached

    @property
    def cached_fraction(self) -> float:
        return self.cached / self.probes if self.probes else 0.0


def build_atlas(
    scenarios: Sequence[tuple[str, "ScenarioSpec"]],
    *,
    axes: Sequence[str] = DEFAULT_AXES,
    refine: int = 1,
    workers: int | None = 1,
    cache: "ResultCache | None" = None,
    log: Callable[[str], None] | None = None,
) -> AtlasResult:
    """Run every ``(scenario, axis)`` frontier search, batching probes.

    All live searches contribute their pending probe specs to one shared
    :func:`~repro.runner.parallel.probe_batch` per generation — probes
    common to several searches (or several scenarios) execute once, and
    with ``cache`` set each unique probe is memoized on disk by content
    hash. ``log`` (when given) receives one progress line per
    generation.
    """
    from repro.runner.parallel import probe_batch
    from repro.scenario.runner import run_summary

    for axis in axes:
        if axis not in FRONTIER_AXES:
            known = ", ".join(FRONTIER_AXES)
            raise ConfigurationError(
                f"unknown atlas axis {axis!r}; known axes: {known}"
            )
    searches = [
        (name, spec, axis, AxisSearch(spec, axis, refine=refine))
        for name, spec in scenarios
        for axis in axes
    ]
    generations = computed = cached = deduped = 0
    started = time.perf_counter()
    while True:
        pending: list["ScenarioSpec"] = []
        for _name, _spec, _axis, search in searches:
            if not search.done:
                pending.extend(search.pending)
        if not pending:
            break
        batch = probe_batch(pending, run_summary, workers=workers, cache=cache)
        outcomes = {
            spec.content_hash(): outcome
            for spec, outcome in zip(pending, batch.results)
        }
        for _name, _spec, _axis, search in searches:
            if not search.done:
                search.feed(outcomes)
        generations += 1
        computed += batch.computed
        cached += batch.cached
        deduped += batch.deduped
        if log is not None:
            live = sum(1 for *_rest, s in searches if not s.done)
            log(
                f"generation {generations}: {len(pending)} probes "
                f"({batch.cached} cached, {batch.deduped} deduped), "
                f"{live} searches still open"
            )
    entries = []
    for name, spec in scenarios:
        frontiers = tuple(
            search.result()
            for sname, _spec, _axis, search in searches
            if sname == name
        )
        entries.append(AtlasEntry(name=name, spec=spec, frontiers=frontiers))
    return AtlasResult(
        entries=tuple(entries),
        generations=generations,
        computed=computed,
        cached=cached,
        deduped=deduped,
        elapsed_s=time.perf_counter() - started,
    )


# -- renderers -----------------------------------------------------------------


def _axis_label(frontier: AxisFrontier) -> str:
    direction = "min working" if frontier.increasing else "max tolerated"
    return f"{frontier.axis} ({direction})"


def _baseline_row(spec: "ScenarioSpec") -> dict:
    bound = m0(spec.grid.r, spec.t, spec.mf)
    return {
        "grid": (
            f"{spec.grid.width}x{spec.grid.height} r={spec.grid.r}"
            f"{' torus' if spec.grid.torus else ''}"
        ),
        "protocol": spec.protocol,
        "behavior": spec.behavior,
        "placement": type(spec.placement).__name__,
        "t": spec.t,
        "mf": spec.mf,
        "m": spec.m,
        "m0": bound,
        "sufficient_m": 2 * bound,
        "t_cap": max_locally_bounded_t(spec.grid.r),
        "seed": spec.seed,
    }


def atlas_to_dict(result: AtlasResult) -> dict:
    """The deterministic JSON artifact payload (no run provenance)."""
    return {
        "atlas_version": ATLAS_VERSION,
        "scenarios": [
            {
                "name": entry.name,
                "content_hash": entry.spec.content_hash(),
                "baseline": _baseline_row(entry.spec),
                "axes": [
                    {
                        "axis": f.axis,
                        "increasing": f.increasing,
                        "frontier": f.frontier,
                        "last_failing": f.last_failing,
                        "evaluations": f.evaluations,
                        "note": f.note,
                        "invalid": list(f.invalid),
                        "violations": [
                            {
                                "axis": v.axis,
                                "succeeded_at": v.succeeded_at,
                                "failed_at": v.failed_at,
                            }
                            for v in f.violations
                        ],
                        "probes": [
                            {
                                "value": p.value,
                                "success": p.success,
                                "decided_good": p.decided_good,
                                "total_good": p.total_good,
                                "rounds": p.rounds,
                            }
                            for p in sorted(f.probes, key=lambda p: p.value)
                        ],
                    }
                    for f in entry.frontiers
                ],
            }
            for entry in result.entries
        ],
    }


def render_json(result: AtlasResult) -> str:
    return json.dumps(atlas_to_dict(result), indent=2, sort_keys=True) + "\n"


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def render_markdown(result: AtlasResult) -> str:
    """The browsable artifact: frontier tables + probe evidence per axis."""
    out = [
        "# Scenario atlas",
        "",
        "Empirical success/failure frontiers of the bundled scenarios, "
        "located by adaptive bisection (`repro.analysis.search`) along "
        "each axis. `m` reports the minimum working good-node budget "
        "(the paper brackets it in `[m0, 2*m0]`); `t` and `mf` report "
        "the largest adversary density/budget the scenario tolerates. "
        "A ⚠ marks a monotonicity violation: a strictly more favorable "
        "configuration that failed where a less favorable one succeeded.",
        "",
    ]
    for entry in result.entries:
        base = _baseline_row(entry.spec)
        out.append(f"## {entry.name}")
        out.append("")
        out.append(
            f"`{base['grid']}` · protocol `{base['protocol']}` · behavior "
            f"`{base['behavior']}` · placement `{base['placement']}` · "
            f"spec `{entry.spec.content_hash()[:12]}`"
        )
        out.append("")
        out.append(
            f"Baseline: t={base['t']}, mf={base['mf']}, m={base['m']}; "
            f"theory: m0={base['m0']}, sufficient 2·m0={base['sufficient_m']}, "
            f"locally-bounded t ≤ {base['t_cap']}."
        )
        out.append("")
        out.append(
            _md_table(
                ["axis", "frontier", "last failing", "probes", "note"],
                [
                    [
                        _axis_label(f),
                        "—" if f.frontier is None else f.frontier,
                        "—" if f.last_failing is None else f.last_failing,
                        f.evaluations,
                        ("⚠ " if f.violations else "") + (f.note or ""),
                    ]
                    for f in entry.frontiers
                ],
            )
        )
        out.append("")
        for frontier in entry.frontiers:
            out.append(f"### {entry.name} · axis `{frontier.axis}`")
            out.append("")
            if frontier.violations:
                for v in frontier.violations:
                    out.append(
                        f"- ⚠ **monotonicity violation**: "
                        f"`{v.axis}={v.succeeded_at}` succeeded although the "
                        f"more favorable `{v.axis}={v.failed_at}` failed."
                    )
                out.append("")
            if frontier.invalid:
                out.append(
                    "Invalid (out-of-domain) values skipped: "
                    + ", ".join(str(v) for v in frontier.invalid)
                    + "."
                )
                out.append("")
            out.append(
                _md_table(
                    ["value", "outcome", "decided/good", "rounds"],
                    [
                        [
                            p.value,
                            "success" if p.success else "fail",
                            f"{p.decided_good}/{p.total_good}",
                            p.rounds,
                        ]
                        for p in sorted(
                            frontier.probes, key=lambda p: p.value
                        )
                    ],
                )
            )
            out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


def write_artifacts(result: AtlasResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Write ``atlas.md`` + ``atlas.json`` into ``out_dir``; return paths."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    md_path = directory / MARKDOWN_NAME
    json_path = directory / JSON_NAME
    md_path.write_text(render_markdown(result), encoding="utf-8")
    json_path.write_text(render_json(result), encoding="utf-8")
    return md_path, json_path


# -- CLI body ------------------------------------------------------------------


def atlas_command(
    targets: Sequence[str] = (),
    *,
    quick: bool = False,
    axes: str | None = None,
    refine: int = 1,
    workers: int = 1,
    cache_dir: str | None = None,
    out_dir: str = "atlas",
    show_progress: bool = True,
) -> int:
    """Entry point behind ``python -m repro atlas``.

    ``targets`` are preset names (default: the full atlas slice, or
    :data:`QUICK_ATLAS_PRESETS` with ``quick``). ``axes`` is a
    comma-separated subset of the axis registry. With ``cache_dir``
    every probe is memoized, so repeated invocations are incremental;
    stats print to stdout and never enter the artifacts.
    """
    from repro.runner.parallel import ResultCache
    from repro.scenario.presets import preset

    names = list(targets) or list(
        QUICK_ATLAS_PRESETS if quick else DEFAULT_ATLAS_PRESETS
    )
    axis_names = (
        tuple(a.strip() for a in axes.split(",") if a.strip())
        if axes
        else DEFAULT_AXES
    )
    scenarios = [(name, preset(name)) for name in names]
    cache = (
        ResultCache(cache_dir, namespace="scenario")
        if cache_dir is not None
        else None
    )
    log = (lambda line: print(line, file=sys.stderr)) if show_progress else None
    result = build_atlas(
        scenarios,
        axes=axis_names,
        refine=refine,
        workers=workers,
        cache=cache,
        log=log,
    )
    md_path, json_path = write_artifacts(result, out_dir)
    for entry in result.entries:
        parts = []
        for frontier in entry.frontiers:
            shown = "—" if frontier.frontier is None else frontier.frontier
            flag = "⚠" if frontier.violations else ""
            parts.append(f"{frontier.axis}={shown}{flag}")
        print(f"{entry.name}: {', '.join(parts)}")
    print(
        f"[atlas: {len(result.entries)} scenarios, {result.probes} probes "
        f"({result.cached} cached, {result.deduped} deduped) in "
        f"{result.generations} generations, {result.elapsed_s:.1f}s]"
    )
    print(f"[artifacts: {md_path}, {json_path}]")
    return 0

"""Per-layer tracing for the benchmark's traced runs.

Timing wrappers are installed from here around public functions and
methods of ``repro`` by replacing module and class attributes inside the
benchmark process; nothing under ``src/`` changes. Names are patched
where they are looked up: :mod:`repro.scenario.runner` imports ``Grid``,
``NodeTable``, ``RoundDriver``, ``collect_outcome`` and
``collect_costs`` into its own namespace, so those are replaced there.

``repro.sim.trace.Tracer`` is never enabled: it forces the reference
path, and a traced run must execute the code production executes.

The :class:`Recorder` keeps spans in memory (name, start, end, parent,
operation id) for the coarse layers and only call counts and busy time
for the hot per-slot ones (adversary hooks, slot resolution), whose
spans would outnumber everything else. Budget checks are counted, never
timed. A layer's self time is its busy time minus the busy time of the
wrapped calls nested inside it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable

perf_counter = time.perf_counter


def _wraps(wrapper: Callable, fn: Callable) -> Callable:
    # updated=() keeps a wrapped class's attributes out of the function.
    return functools.update_wrapper(wrapper, fn, updated=())


class Recorder:
    """In-memory spans, busy/self time and counters of one traced run."""

    def __init__(self) -> None:
        self.active = False
        self.op: Any = None
        self.calls: Counter = Counter()
        # Plain dicts: a name appears in ``busy`` only once a timing
        # wrapper has recorded it, which tells timed from counted names.
        self.busy: dict[str, float] = {}
        self.child: dict[str, float] = {}
        self.counters: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self.spans: list[list] = []
        self._stack: list[list] = []  # [child seconds, span index]

    def timed(
        self,
        name: str,
        fn: Callable,
        *,
        span: bool = True,
        after: Callable[[Any, tuple], None] | None = None,
    ) -> Callable:
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            index = None
            if span:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.op])
            frame = [0.0, index if span else parent]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self.calls[name] += 1
                self.busy[name] = self.busy.get(name, 0.0) + elapsed
                self.child[name] = self.child.get(name, 0.0) + frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if index is not None:
                    spans[index][1] = start
                    spans[index][2] = end
            if after is not None:
                after(result, args)
            return result

        return _wraps(wrapper, fn)

    def counted(
        self,
        name: str,
        fn: Callable,
        *,
        after: Callable[[Any, tuple], None] | None = None,
    ) -> Callable:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self.calls[name] += 1
                if after is not None:
                    after(result, args)
            return result

        return _wraps(wrapper, fn)

    def timed_async(
        self, name: str, fn: Callable, *, after: Callable[[Any, float], None]
    ) -> Callable:
        """Wall time of a coroutine, awaits included; outside the stack.

        Interleaved tasks would corrupt a shared nesting stack, so async
        spans carry no parent and feed no self time.
        """

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not self.active:
                return await fn(*args, **kwargs)
            start = perf_counter()
            result = await fn(*args, **kwargs)
            end = perf_counter()
            self.calls[name] += 1
            self.busy[name] = self.busy.get(name, 0.0) + end - start
            # Serve requests carry no operation counter: the scenario
            # content hash identifies them instead.
            op = self.op if self.op is not None else getattr(result, "scenario", None)
            self.spans.append([name, start, end, None, op])
            after(result, end - start)
            return result

        return wrapper

    def self_time(self, name: str) -> float:
        return self.busy.get(name, 0.0) - self.child.get(name, 0.0)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


class Patcher:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
        else:
            raw = getattr(owner, attr)
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _adversary_classes() -> list[type]:
    import repro.adversary.jamming  # noqa: F401  (registers subclasses)
    import repro.adversary.lying  # noqa: F401
    from repro.adversary.base import Adversary
    from repro.protocols.reactive import CodedJammerAdversary

    # dict.fromkeys: a class reached through two bases is wrapped once.
    return list(dict.fromkeys([*_subclasses(Adversary), CodedJammerAdversary]))


def install(rec: Recorder, patcher: Patcher) -> None:
    """Wrap every traced layer; :meth:`Patcher.restore` undoes it."""
    import repro.protocols.flat as flat
    import repro.protocols.vectorized as vectorized
    import repro.runner.parallel as parallel
    import repro.scenario.runner as runner
    import repro.serve.service as service
    from repro.network.node import NodeTable
    from repro.radio.budget import BudgetLedger
    from repro.radio.mac import RoundDriver
    from repro.runner.supervise import SupervisedPool
    from repro.scenario.registries import Registry, behaviors, protocols
    from repro.scenario.spec import ScenarioSpec

    replace = patcher.replace
    counters = rec.counters

    # -- scenario.runner ---------------------------------------------------
    replace(runner, "run", lambda fn: rec.timed("scenario.run", fn))

    def world(fn):
        inner = rec.timed("scenario.world", fn)

        def wrapper(spec):
            before = rec.calls["network.grid.Grid"]
            result = inner(spec)
            if rec.active:
                built = rec.calls["network.grid.Grid"] > before
                counters["scenario.world.builds" if built else "scenario.world.reuses"] += 1
            return result

        return wrapper

    replace(runner, "_world_for", world)

    # -- scenario.spec -----------------------------------------------------
    replace(ScenarioSpec, "from_dict", lambda fn: rec.timed("scenario.spec.from_dict", fn))
    replace(
        ScenarioSpec,
        "content_hash",
        lambda fn: rec.timed("scenario.spec.content_hash", fn, span=False),
    )

    # -- network.grid / radio.schedule, network.node -----------------------
    replace(runner, "Grid", lambda fn: rec.timed("network.grid.Grid", fn))
    replace(runner, "TdmaSchedule", lambda fn: rec.timed("network.grid.TdmaSchedule", fn))
    replace(runner, "NodeTable", lambda fn: rec.timed("network.node.NodeTable", fn))
    replace(
        NodeTable,
        "validate_locally_bounded",
        lambda fn: rec.timed("network.node.validate", fn),
    )

    # -- protocols and adversary assembly: registry entries ----------------
    wrapped_entries: dict[int, Any] = {}

    def registry_get(fn):
        def get(self, name):
            entry = fn(self, name)
            if self is protocols:
                label = "protocols.build"
            elif self is behaviors:
                label = "adversary.build"
            else:
                return entry
            key = id(entry)
            cached = wrapped_entries.get(key)
            if cached is None or cached[0] is not entry:
                cached = (
                    entry,
                    dataclasses.replace(entry, build=rec.timed(label, entry.build)),
                )
                wrapped_entries[key] = cached
            return cached[1]

        return get

    replace(Registry, "get", registry_get)

    replace(
        flat,
        "build_flat_engine",
        lambda fn: rec.timed("protocols.flat.build_engine", fn),
    )
    for engine_cls in (flat.FlatThresholdEngine, flat.FlatCpaEngine):
        replace(
            engine_cls,
            "sync_nodes",
            lambda fn: rec.timed("protocols.flat.sync_nodes", fn),
        )

    def engaged(result, _args):
        if result is not None:
            counters["protocols.vectorized.engaged"] += 1

    replace(
        vectorized,
        "try_vector_run",
        lambda fn: rec.timed("protocols.vectorized", fn, after=engaged),
    )

    # -- adversary hooks (hot: no spans) -----------------------------------
    for cls in _adversary_classes():
        for hook in ("on_slot", "observe"):
            raw = cls.__dict__.get(hook)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            replace(
                cls,
                hook,
                lambda fn, hook=hook: rec.timed(f"adversary.{hook}", fn, span=False),
            )

    # -- radio.mac -----------------------------------------------------------
    def driver_stats(stats, _args):
        counters["radio.mac.rounds"] += stats.rounds
        counters["radio.mac.deliveries"] += stats.deliveries

    replace(
        RoundDriver,
        "run",
        lambda fn: rec.timed("radio.mac.driver", fn, after=driver_stats),
    )

    # -- radio.medium --------------------------------------------------------
    _install_medium(rec, patcher, timed=True)

    # -- radio.budget (count only) -----------------------------------------
    replace(BudgetLedger, "charge", lambda fn: rec.counted("radio.budget.charge", fn))
    replace(BudgetLedger, "can_send", lambda fn: rec.counted("radio.budget.can_send", fn))

    # -- analysis.verify -----------------------------------------------------
    replace(runner, "collect_outcome", lambda fn: rec.timed("analysis.verify.outcome", fn))
    replace(runner, "collect_costs", lambda fn: rec.timed("analysis.verify.costs", fn))

    # -- runner.parallel -----------------------------------------------------
    def cache_hit(result, _args):
        if result[0]:
            counters["runner.cache.get.hits"] += 1

    replace(
        parallel.ResultCache,
        "get",
        lambda fn: rec.timed("runner.cache.get", fn, after=cache_hit),
    )
    replace(parallel.ResultCache, "put", lambda fn: rec.timed("runner.cache.put", fn))

    def probe_counts(batch, _args):
        counters["runner.probe_batch.computed"] += batch.computed
        counters["runner.probe_batch.cached"] += batch.cached
        counters["runner.probe_batch.deduped"] += batch.deduped

    replace(
        parallel,
        "probe_batch",
        lambda fn: rec.timed("runner.probe_batch", fn, after=probe_counts),
    )

    content_hash = ScenarioSpec.content_hash

    def pool_submit(fn):
        def submit(self, run, point):
            start = perf_counter()
            future = fn(self, run, point)
            if rec.active:
                rec.calls["runner.pool.submit"] += 1
                keys = [content_hash(spec) for spec in point]
                rec.samples["serve.service.batch_size"].append(len(keys))

                def done(_future):
                    elapsed = perf_counter() - start
                    rec.samples["runner.pool.roundtrip_s"].append(elapsed)
                    for key in keys:
                        rec.samples["pool_roundtrip_by_key"].append((key, elapsed))

                future.add_done_callback(done)
            return future

        return submit

    replace(SupervisedPool, "submit", pool_submit)

    # -- serve.service -------------------------------------------------------
    def submitted(result, elapsed):
        rec.samples["submit_payload"].append((result.source, elapsed))

    replace(
        service.ScenarioService,
        "submit_payload",
        lambda fn: rec.timed_async("serve.service.submit_payload", fn, after=submitted),
    )

    def lru(result, _args):
        counters["serve.service.lru.misses" if result is None else "serve.service.lru.hits"] += 1

    replace(service.LruCache, "get", lambda fn: rec.counted("serve.service.lru.get", fn, after=lru))
    replace(service, "canonical_bytes", lambda fn: rec.timed("serve.service.serialize", fn))


#: ``/stats`` counters reported per layer for serve-mixed.
SERVE_STATS = ("lru_hits", "disk_hits", "deduped", "computed", "batches", "rejected", "timeouts")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(rec: Recorder, extra: dict[str, float]) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json."""
    calls, counters, samples = rec.calls, rec.counters, rec.samples
    busy: dict[str, float] = defaultdict(float, rec.busy)
    resolve_calls = calls["radio.medium.resolve"]
    attempts = calls["protocols.vectorized"]
    driver_busy = busy["radio.mac.driver"]
    hit_sources = ("lru", "disk")
    submit_hits = [e for s, e in samples["submit_payload"] if s in hit_sources]
    metrics = {
        "scenario.run.calls": calls["scenario.run"],
        "scenario.run.busy_s": busy["scenario.run"],
        "scenario.world.builds": counters["scenario.world.builds"],
        "scenario.world.reuses": counters["scenario.world.reuses"],
        "scenario.spec.from_dict.busy_s": busy["scenario.spec.from_dict"],
        "scenario.spec.content_hash.calls": calls["scenario.spec.content_hash"],
        "scenario.spec.content_hash.busy_s": busy["scenario.spec.content_hash"],
        "network.grid.builds": calls["network.grid.Grid"],
        "network.grid.busy_s": busy["network.grid.Grid"] + busy["network.grid.TdmaSchedule"],
        "network.node.table.busy_s": busy["network.node.NodeTable"] + busy["network.node.validate"],
        "protocols.build.busy_s": busy["protocols.build"],
        "protocols.flat.build_engine.calls": calls["protocols.flat.build_engine"],
        "protocols.flat.build_engine.busy_s": busy["protocols.flat.build_engine"],
        "protocols.flat.sync_nodes.busy_s": busy["protocols.flat.sync_nodes"],
        "protocols.vectorized.attempts": attempts,
        "protocols.vectorized.engaged": counters["protocols.vectorized.engaged"],
        "protocols.vectorized.busy_s": busy["protocols.vectorized"],
        "protocols.vectorized.engaged_ratio": (
            counters["protocols.vectorized.engaged"] / attempts if attempts else 0.0
        ),
        "adversary.build.busy_s": busy["adversary.build"],
        "adversary.on_slot.calls": calls["adversary.on_slot"],
        "adversary.on_slot.busy_s": busy["adversary.on_slot"],
        "adversary.observe.calls": calls["adversary.observe"],
        "adversary.observe.busy_s": busy["adversary.observe"],
        "radio.mac.driver.busy_s": driver_busy,
        "radio.mac.driver.self_s": rec.self_time("radio.mac.driver"),
        "radio.mac.rounds": counters["radio.mac.rounds"],
        "radio.mac.deliveries": counters["radio.mac.deliveries"],
        "radio.mac.deliveries_per_s": (
            counters["radio.mac.deliveries"] / driver_busy if driver_busy else 0.0
        ),
        "radio.medium.resolve.calls": resolve_calls,
        "radio.medium.resolve.busy_s": busy["radio.medium.resolve"],
        "radio.medium.resolve.memo_hit_ratio": (
            counters["radio.medium.resolve.memo_hits"] / resolve_calls
            if resolve_calls
            else 0.0
        ),
        "radio.medium.round_memo.gets": calls["radio.medium.round_memo.gets"],
        "radio.medium.round_memo.hits": counters["radio.medium.round_memo.hits"],
        "radio.budget.charge.calls": calls["radio.budget.charge"],
        "radio.budget.can_send.calls": calls["radio.budget.can_send"],
        "analysis.verify.projection.busy_s": (
            busy["analysis.verify.outcome"] + busy["analysis.verify.costs"]
        ),
        "runner.cache.get.calls": calls["runner.cache.get"],
        "runner.cache.get.hits": counters["runner.cache.get.hits"],
        "runner.cache.get.busy_s": busy["runner.cache.get"],
        "runner.cache.put.calls": calls["runner.cache.put"],
        "runner.cache.put.busy_s": busy["runner.cache.put"],
        "runner.probe_batch.computed": counters["runner.probe_batch.computed"],
        "runner.probe_batch.cached": counters["runner.probe_batch.cached"],
        "runner.probe_batch.deduped": counters["runner.probe_batch.deduped"],
        "runner.pool.submits": calls["runner.pool.submit"],
        "runner.pool.roundtrip_s": _median(samples["runner.pool.roundtrip_s"]),
        "serve.service.submit_payload.busy_s": busy["serve.service.submit_payload"],
        "serve.service.lru.hits": counters["serve.service.lru.hits"],
        "serve.service.lru.misses": counters["serve.service.lru.misses"],
        "serve.service.serialize.busy_s": busy["serve.service.serialize"],
        "serve.service.batch_size": (
            statistics.fmean(samples["serve.service.batch_size"])
            if samples["serve.service.batch_size"]
            else 0.0
        ),
        "serve.service.submit_payload.hit_p50_s": _median(submit_hits),
        # Joined from client latencies and daemon state by the serve shard.
        "serve.service.queue_wait_s": 0.0,
        "serve.http.overhead_s": 0.0,
        "runner.pool.restarts": 0,
    }
    for name in SERVE_STATS:
        metrics[f"serve.stats.{name}"] = 0
    metrics.update(extra)
    return metrics


#: Layer rows of the printed table: (label, recorder names).
TABLE_LAYERS = (
    ("scenario.runner", ("scenario.run", "scenario.world")),
    ("scenario.spec", ("scenario.spec.from_dict", "scenario.spec.content_hash")),
    ("network.grid", ("network.grid.Grid", "network.grid.TdmaSchedule")),
    ("network.node", ("network.node.NodeTable", "network.node.validate")),
    ("protocols", ("protocols.build", "protocols.flat.build_engine", "protocols.flat.sync_nodes")),
    ("protocols.vectorized", ("protocols.vectorized",)),
    ("adversary", ("adversary.build", "adversary.on_slot", "adversary.observe")),
    ("radio.mac", ("radio.mac.driver",)),
    ("radio.medium", ("radio.medium.resolve", "radio.medium.round_memo.gets")),
    ("radio.budget", ("radio.budget.charge", "radio.budget.can_send")),
    ("analysis.verify", ("analysis.verify.outcome", "analysis.verify.costs")),
    ("runner.parallel", ("runner.probe_batch", "runner.cache.get", "runner.cache.put", "runner.pool.submit")),
    ("serve.service", ("serve.service.submit_payload", "serve.service.serialize", "serve.service.lru.get")),
)


def wrapper_cost_s() -> tuple[float, float]:
    """Per-call cost of a timed and a counting wrapper around a no-op."""
    rec = Recorder()
    rec.active = True

    def noop(*_args):
        return None

    timed = rec.timed("calibration", noop, span=False)
    counted = rec.counted("calibration", noop)
    n = 50_000
    costs = []
    for wrapped in (timed, counted):
        start = perf_counter()
        for _ in range(n):
            wrapped()
        middle = perf_counter()
        for _ in range(n):
            noop()
        end = perf_counter()
        costs.append(max(0.0, ((middle - start) - (end - middle)) / n))
    return costs[0], costs[1]


def format_table(rec: Recorder, ops: int) -> str:
    """Busy time, self time and counts per layer, plus wrapper overhead."""
    timed_cost, counted_cost = wrapper_cost_s()
    lines = [
        f"{'layer':<22} {'call site':<34} {'calls':>9} {'busy_s':>9} "
        f"{'self_s':>9} {'ms/op':>8} {'wrap_s':>8}"
    ]
    for label, names in TABLE_LAYERS:
        for name in names:
            calls = rec.calls[name]
            if not calls:
                continue
            timed = name in rec.busy  # counting wrappers record no time
            busy = rec.busy.get(name, 0.0)
            cost = (timed_cost if timed else counted_cost) * calls
            if timed:
                lines.append(
                    f"{label:<22} {name:<34} {calls:>9} {busy:>9.4f} "
                    f"{rec.self_time(name):>9.4f} {busy * 1e3 / max(ops, 1):>8.3f} "
                    f"{cost:>8.4f}"
                )
            else:
                lines.append(
                    f"{label:<22} {name:<34} {calls:>9} {'-':>9} {'-':>9} "
                    f"{'-':>8} {cost:>8.4f}"
                )
    lines.append(
        f"wrapper cost per call: timed {timed_cost * 1e6:.2f} us, "
        f"counted {counted_cost * 1e6:.2f} us (wrap_s = calls x cost; it "
        "inflates the busy time of every enclosing layer)"
    )
    return "\n".join(lines)


class _SeenBatches:
    """Identity memo of returned DeliveryBatch objects.

    Batches are identity-stable, so a slot-memo hit returns a batch the
    medium has returned before. They have ``__slots__`` and take no weak
    references: the map holds them strongly and is dropped wholesale past
    twice the medium's own memo size, which can only undercount hits.
    """

    LIMIT = 4096

    def __init__(self, counters: Counter) -> None:
        self._counters = counters
        self._seen: dict[int, Any] = {}

    def __call__(self, batch, _args) -> None:
        if self._seen.get(id(batch)) is batch:
            self._counters["radio.medium.resolve.memo_hits"] += 1
            return
        if len(self._seen) >= self.LIMIT:
            self._seen.clear()
        self._seen[id(batch)] = batch


def _install_medium(rec: Recorder, patcher: Patcher, *, timed: bool) -> None:
    from repro.radio.medium import Medium

    seen = _SeenBatches(rec.counters)

    def round_memo(result, _args):
        if result is not None:
            rec.counters["radio.medium.round_memo.hits"] += 1

    def wrap(fn):
        if timed:
            return rec.timed("radio.medium.resolve", fn, span=False, after=seen)
        return rec.counted("radio.medium.resolve", fn, after=seen)

    patcher.replace(Medium, "resolve_slot", wrap)
    patcher.replace(
        Medium,
        "round_memo_get",
        lambda fn: rec.counted("radio.medium.round_memo.gets", fn, after=round_memo),
    )


def install_medium_counters(rec: Recorder, patcher: Patcher) -> None:
    """Count-only medium wrappers, for the seam ablation table."""
    _install_medium(rec, patcher, timed=False)


def medium_metrics(rec: Recorder) -> dict[str, float]:
    resolves = rec.calls["radio.medium.resolve"]
    return {
        "radio.medium.round_memo.hits": rec.counters["radio.medium.round_memo.hits"],
        "radio.medium.resolve.memo_hit_ratio": (
            rec.counters["radio.medium.resolve.memo_hits"] / resolves if resolves else 0.0
        ),
    }

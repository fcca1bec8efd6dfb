"""One benchmark shard, run in a fresh subprocess by ``run.py``.

Usage (``run.py`` builds the argument)::

    python3 perfbench/child.py '<json config>'

The config names the workload, workload seed, shard, how many work
units to run (``units``: probe generations, request pairs or megatorus
runs), whether to trace, which seams to flip, and ``t0``: the parent's
``time.monotonic()`` just before it started this process, so
``setup_s`` counts interpreter start and imports. The shard prints its raw measurements as one JSON line on
stdout; the parent aggregates shards into the reported metrics.

Output checks run after the timed window; a mismatch sets
``correct: false`` and the parent exits nonzero.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from itertools import islice
from pathlib import Path

import flags

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
perf_counter = time.perf_counter

# Operations of each shard's output digest that the pinned digest covers:
# the first generation of fresh-probes, the first runs of megatorus.
MEGATORUS_PINNED_RUNS = 2
# Fresh probes re-run per shard with every seam forced to its reference.
REFERENCE_SAMPLE = 2
MEGATORUS_REPLICA_SIDE = 100
SCALES = {
    # megatorus sides, fresh-probes presets (None: the streams.py defaults)
    "full": (None, None),
    "small": ((295, 300, 305), None),
    "tiny": ((45, 50, 55), ("quickstart", "reactive")),
}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class reference_mode:
    """Force every registered seam flag to its reference twin (False)."""

    def __enter__(self):
        from repro import seams

        self._saved = []
        for seam in seams.load_seam_sites():
            module = seam.resolve_flag_module()
            self._saved.append((module, seam.flag_attr, getattr(module, seam.flag_attr)))
            setattr(module, seam.flag_attr, False)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)


class Shard:
    """Measurements and check results of one shard."""

    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.setup_s = 0.0
        self.window_s = 0.0
        self.ops = 0
        self.units = 0
        self.op_ms: list[float] = []
        self.hit_ms: list[float] = []
        self.miss_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: list[bytes] = []
        self.pinned_ops = 0
        self.extra: dict = {}

    def done(self) -> bool:
        return self.units >= self.cfg["units"]

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def result(self) -> dict:
        digest = hashlib.sha256()
        for body in self.outputs[: self.pinned_ops]:
            digest.update(body)
        prefix = digest.hexdigest()
        for body in self.outputs[self.pinned_ops:]:
            digest.update(body)
        return {
            "setup_s": self.setup_s,
            "window_s": self.window_s,
            "ops": self.ops,
            "op_ms": self.op_ms,
            "hit_ms": self.hit_ms,
            "miss_ms": self.miss_ms,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "correct": not self.errors,
            "digest_pinned": prefix,
            "digest_all": digest.hexdigest(),
            "peak_rss_mb": peak_rss_mb(),
            **self.extra,
        }


def scratch_dir() -> str:
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(dir=OUT / "tmp")


# -- fresh-probes --------------------------------------------------------------


def fresh_probes(shard: Shard, rec) -> None:
    import repro.runner.parallel as parallel
    import repro.scenario.runner as runner
    from repro.errors import SimulationError
    from repro.serve.service import serialize_outcome
    from streams import FRESH_PRESETS, FreshProbeStream

    presets = SCALES[shard.cfg["scale"]][1] or FRESH_PRESETS
    hit_ms, miss_ms, op_ms = shard.hit_ms, shard.miss_ms, shard.op_ms

    class TimedCache(parallel.ResultCache):
        """Times lookups the cache answers and compute-plus-store misses."""

        def get(self, point):
            start = perf_counter()
            hit, value = super().get(point)
            if hit:
                hit_ms.append((perf_counter() - start) * 1e3)
            return hit, value

        def put(self, point, value):
            start = perf_counter()
            super().put(point, value)
            miss_ms.append(last_run_ms[0] + (perf_counter() - start) * 1e3)

    last_run_ms = [0.0]
    computed: list[tuple[float, object]] = []

    def run_probe(spec):
        if rec is not None:
            rec.op = len(computed)
        start = perf_counter()
        outcome = runner.run_summary(spec)
        elapsed = (perf_counter() - start) * 1e3
        last_run_ms[0] = elapsed
        op_ms.append(elapsed)
        computed.append((elapsed, spec))
        return outcome

    stream = FreshProbeStream(shard.cfg["seed"], shard.cfg["shard"], presets=presets)
    directory = scratch_dir()
    try:
        cache = TimedCache(directory, namespace="scenario")
        batch = stream.next_batch()
        shard.setup_s = time.monotonic() - shard.cfg["t0"]
        if shard.cfg.get("setup_only"):
            return
        first_by_key: dict[str, bytes] = {}
        while True:
            if rec is not None:
                rec.active = True
            start = perf_counter()
            try:
                result = parallel.probe_batch(batch, run_probe, workers=1, cache=cache)
            except SimulationError as exc:
                result = None
                shard.failed += len(batch)
                shard.error(f"probe batch failed: {str(exc).splitlines()[0]}")
            shard.window_s += perf_counter() - start
            if rec is not None:
                rec.active = False
            outcomes = result.results if result is not None else ()
            for spec, outcome in zip(batch, outcomes):
                body = serialize_outcome(outcome)
                shard.outputs.append(body)
                key = spec.content_hash()
                earlier = first_by_key.setdefault(key, body)
                if earlier != body:
                    shard.error(f"probe {key[:12]}: repeat answered different bytes")
            shard.ops += len(batch)
            shard.units += 1
            shard.attempted += len(batch)
            if not shard.pinned_ops:
                shard.pinned_ops = len(batch)
            if shard.done():
                break
            batch = stream.next_batch()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    shard.extra["computed"] = len(computed)
    if shard.cfg.get("reference_check", True):
        check_fresh_reference(shard, computed, first_by_key)


def check_fresh_reference(shard: Shard, computed, first_by_key) -> None:
    """Re-run a seeded sample of computed probes on the reference path.

    The sample is drawn from probes at or below the shard's median cost,
    which keeps an all-reference re-run (about 8x slower) within seconds.
    """
    from repro.scenario.runner import run_summary
    from repro.serve.service import serialize_outcome

    if not computed:
        return
    cutoff = sorted(cost for cost, _spec in computed)[len(computed) // 2]
    cheap = [spec for cost, spec in computed if cost <= cutoff]
    rng = random.Random(f"reference:{shard.cfg['seed']}:{shard.cfg['shard']}")
    sample = rng.sample(cheap, min(REFERENCE_SAMPLE, len(cheap)))
    with reference_mode():
        for spec in sample:
            body = serialize_outcome(run_summary(spec))
            if first_by_key[spec.content_hash()] != body:
                shard.error(
                    f"probe {spec.content_hash()[:12]}: fast path differs from "
                    "the all-reference run"
                )


# -- megatorus -----------------------------------------------------------------


def megatorus(shard: Shard, rec) -> None:
    from repro.protocols import vectorized
    from repro.scenario.runner import run_summary
    from repro.serve.service import serialize_outcome
    from streams import MEGATORUS_SIDES, megatorus_stream

    if not vectorized.available():
        print("megatorus: skipped (NumPy is not installed)", file=sys.stderr)
        raise SystemExit(3)
    sides = SCALES[shard.cfg["scale"]][0] or MEGATORUS_SIDES
    stream = megatorus_stream(shard.cfg["seed"], shard.cfg["shard"], sides=sides)
    warm_sides: set[int] = set()
    by_side: dict[int, bytes] = {}
    shard.pinned_ops = MEGATORUS_PINNED_RUNS
    shard.setup_s = time.monotonic() - shard.cfg["t0"]
    if shard.cfg.get("setup_only"):
        return
    while True:
        spec = next(stream)
        side = spec.grid.width
        if rec is not None:
            rec.op = shard.ops
            rec.active = True
        start = perf_counter()
        outcome = run_summary(spec)
        elapsed = (perf_counter() - start) * 1e3
        if rec is not None:
            rec.active = False
        shard.window_s += elapsed / 1e3
        shard.op_ms.append(elapsed)
        (shard.hit_ms if side in warm_sides else shard.miss_ms).append(elapsed)
        warm_sides.add(side)
        body = serialize_outcome(outcome)
        shard.outputs.append(body)
        shard.ops += 1
        shard.units += 1
        shard.attempted += 1
        # A torus is translation invariant: every run on one side must
        # produce the same outcome, whatever its source and budget.
        if by_side.setdefault(side, body) != body:
            shard.error(f"megatorus side {side}: outcome depends on the source")
        if not (outcome.success and outcome.decided_good == outcome.total_good == side * side - 1):
            shard.error(f"megatorus side {side}: broadcast incomplete: {outcome}")
        if shard.ops >= MEGATORUS_PINNED_RUNS and shard.done():
            break
    if shard.cfg["shard"] == 0 and shard.cfg.get("reference_check", True):
        check_megatorus_replica(shard, spec)


def check_megatorus_replica(shard: Shard, spec) -> None:
    """Kernel vs flat engines vs all-reference on a 100x100 replica."""
    import repro.protocols.vectorized as vectorized
    from repro.network.grid import GridSpec
    from repro.scenario import run

    side = MEGATORUS_REPLICA_SIDE
    replica = spec.replace(
        grid=GridSpec(width=side, height=side, r=spec.grid.r, torus=spec.grid.torus),
        source=(spec.source[0] % side, spec.source[1] % side),
    )
    vector_report = run(replica)
    if not isinstance(vector_report.nodes, vectorized.LazyNodeMap):
        shard.error("vector kernel did not engage on the megatorus replica")
    saved = vectorized.DEFAULT_VECTOR
    vectorized.DEFAULT_VECTOR = False
    try:
        flat_report = run(replica)
    finally:
        vectorized.DEFAULT_VECTOR = saved
    with reference_mode():
        reference_report = run(replica)
    for label, other in (("flat", flat_report), ("reference", reference_report)):
        if (
            vector_report.outcome != other.outcome
            or vector_report.costs != other.costs
            or vector_report.stats != other.stats
        ):
            shard.error(f"megatorus replica: vector kernel differs from {label}")


# -- serve-mixed ---------------------------------------------------------------


async def _read_response(reader):
    head = (await reader.readuntil(b"\r\n\r\n")).decode("ascii")
    status_line, *header_lines = head.split("\r\n")
    status = int(status_line.split(" ")[1])
    headers = {}
    for line in header_lines:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


class Connection:
    """One keep-alive client connection; reconnects after an error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def request(self, body: bytes):
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        self.writer.write(
            b"POST /run HTTP/1.1\r\nHost: bench\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        await self.writer.drain()
        return await _read_response(self.reader)

    async def timed(self, request):
        start = perf_counter()
        try:
            status, headers, body = await self.request(request.body)
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            await self.close()
            return request, None, {}, repr(exc).encode(), (perf_counter() - start) * 1e3
        return request, status, headers, body, (perf_counter() - start) * 1e3

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None


def expected_400(body: bytes) -> bytes:
    """The structured error the front door answers for a bad body."""
    from repro.errors import ConfigurationError
    from repro.scenario.registries import behaviors, protocols
    from repro.scenario.spec import ScenarioSpec
    from repro.serve.service import canonical_bytes, error_bytes, error_payload

    try:
        payload = json.loads(body)
    except ValueError as exc:
        return error_bytes(f"request body is not valid JSON: {exc}")
    try:
        spec = ScenarioSpec.from_dict(payload)
        entry = protocols.get(spec.protocol)
        behaviors.get(spec.behavior or entry.default_behavior)
    except ConfigurationError as exc:
        return canonical_bytes(error_payload(exc))
    raise ValueError("planned bad body is a valid spec")


async def serve_mixed_async(shard: Shard, rec) -> None:
    from repro.runner.parallel import PersistentPool, ResultCache
    from repro.serve.http import run_daemon
    from repro.serve.service import ScenarioService, report_bytes, run_serve_chunk
    from streams import ServePlan

    plan = ServePlan(shard.cfg["seed"], shard.cfg["shard"])
    # Drawn before the window: drawing validates specs in this process.
    steps = list(islice(plan.steps(), shard.cfg["units"]))
    directory = scratch_dir()
    chunk_runner = run_serve_chunk
    if shard.cfg.get("flip"):
        chunk_runner = functools.partial(flags.flipped_chunk, tuple(shard.cfg["flip"]))
    pool = PersistentPool(1)
    service = ScenarioService(
        pool=pool,
        cache=ResultCache(directory, namespace="scenario"),
        chunk_runner=chunk_runner,
    )
    ready, stop, log = asyncio.Event(), asyncio.Event(), io.StringIO()
    daemon = asyncio.ensure_future(
        run_daemon(service, host="127.0.0.1", port=0, out=log, ready=ready, stop=stop)
    )
    responses = []
    try:
        await ready.wait()
        port = int(log.getvalue().split("listening on http://127.0.0.1:")[1].split()[0])
        left, right = Connection(port), Connection(port)
        # Warm-up: spawn the pool worker and fill the LRU with the hot set.
        for spec in plan.hot:
            status, _headers, _body = await left.request(spec.to_json(indent=None).encode())
            if status != 200:
                shard.error(f"hot-set warm-up answered {status}")
        shard.setup_s = time.monotonic() - shard.cfg["t0"]
        if shard.cfg.get("setup_only"):
            await left.close()
            return
        before = service.stats_payload()
        if rec is not None:
            rec.active = True
        start = perf_counter()
        for first, second in steps:
            responses.extend(await asyncio.gather(left.timed(first), right.timed(second)))
            shard.ops += 2
            shard.units += 1
        shard.window_s = perf_counter() - start
        if rec is not None:
            rec.active = False
            after = service.stats_payload()
            shard.extra["stats"] = {
                name: after[name] - before.get(name, 0)
                for name in after
                if isinstance(after[name], int)
            }
            shard.extra["pool_restarts"] = pool.restarts
        await left.close()
        await right.close()
    finally:
        stop.set()
        await daemon
        shutil.rmtree(directory, ignore_errors=True)

    check_bytes = shard.cfg.get("reference_check", True)
    references: dict[str, bytes] = {}
    for request, status, headers, body, latency in responses:
        shard.attempted += 1
        shard.op_ms.append(latency)
        source = headers.get("x-source")
        if source in ("lru", "disk"):
            shard.hit_ms.append(latency)
        elif source in ("computed", "dedup"):
            shard.miss_ms.append(latency)
        if status is None or status in (500, 503, 504):
            shard.failed += 1
            continue
        shard.outputs.append(body)
        want_status = 400 if request.kind == "bad" else 200
        if status != want_status:
            shard.failed += 1
            shard.error(f"{request.kind} request answered {status}, expected {want_status}")
            continue
        if not check_bytes:
            continue  # traced and repeat shards compare digests instead
        if request.kind == "bad":
            want = expected_400(request.body)
        else:
            key = request.spec.content_hash()
            if key not in references:
                references[key] = report_bytes(request.spec)
            want = references[key]
        if body != want:
            shard.failed += 1
            shard.error(f"{request.kind} request answered wrong bytes")
    shard.pinned_ops = len(shard.outputs)
    shard.extra["client"] = [
        (headers.get("x-scenario"), headers.get("x-source"), latency)
        for _request, _status, headers, _body, latency in responses
    ]


def serve_mixed(shard: Shard, rec) -> None:
    asyncio.run(serve_mixed_async(shard, rec))


WORKLOADS = {
    "fresh-probes": fresh_probes,
    "serve-mixed": serve_mixed,
    "megatorus": megatorus,
}


def serve_layer_extras(rec, client) -> dict:
    """Serve metrics joined from client latencies and daemon spans."""
    hits = [latency for _key, source, latency in client if source in ("lru", "disk")]
    submit_hits = [e for s, e in rec.samples["submit_payload"] if s in ("lru", "disk")]
    roundtrip: dict[str, float] = {}
    for key, elapsed in rec.samples["pool_roundtrip_by_key"]:
        roundtrip.setdefault(key, elapsed)
    waits = [
        latency / 1e3 - roundtrip[key]
        for key, source, latency in client
        if source == "computed" and key in roundtrip
    ]
    overhead = 0.0
    if hits and submit_hits:
        overhead = statistics.median(hits) / 1e3 - statistics.median(submit_hits)
    return {
        "serve.service.queue_wait_s": statistics.median(waits) if waits else 0.0,
        "serve.http.overhead_s": overhead,
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    if cfg.get("flip"):
        flags.apply_flips(cfg["flip"])
    rec = patcher = None
    if cfg.get("trace"):
        import tracing

        rec, patcher = tracing.Recorder(), tracing.Patcher()
        tracing.install(rec, patcher)
    elif cfg.get("medium_counters"):
        import tracing

        rec, patcher = tracing.Recorder(), tracing.Patcher()
        tracing.install_medium_counters(rec, patcher)
    shard = Shard(cfg)
    WORKLOADS[cfg["workload"]](shard, rec)
    result = shard.result()
    if rec is not None:
        import tracing

        if cfg.get("trace"):
            extra = {}
            if cfg["workload"] == "serve-mixed":
                stats = shard.extra.get("stats", {})
                extra = serve_layer_extras(rec, shard.extra.get("client", []))
                for name in tracing.SERVE_STATS:
                    extra[f"serve.stats.{name}"] = stats.get(name, 0)
                extra["runner.pool.restarts"] = shard.extra.get("pool_restarts", 0)
            result["layers"] = tracing.layer_metrics(rec, extra)
            result["table"] = tracing.format_table(rec, shard.ops)
            OUT.mkdir(parents=True, exist_ok=True)
            spans = OUT / f"spans-{cfg['workload']}-{cfg['seed']}.jsonl"
            rec.write_spans(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
            result["spans"] = len(rec.spans)
        else:
            result["layers"] = tracing.medium_metrics(rec)
        patcher.restore()
    result.pop("client", None)
    result.pop("stats", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

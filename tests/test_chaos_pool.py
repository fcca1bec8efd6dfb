"""SIGKILL-under-load tests: real spawn workers die mid-batch.

These are the expensive end of the chaos suite — every test spawns a
real ``PersistentPool`` (interpreter + import per worker), so the file
stays small and each test earns its spawn. The cheap parent-side fault
paths live in ``test_chaos_inject.py``.

The invariant under test is the standing rule: infrastructure faults may
cost latency (respawn, backoff, resubmission), never bytes.
"""

import asyncio

import pytest

from repro.chaos import inject
from repro.chaos.plan import Fault, FaultPlan
from repro.errors import PoolBrokenError, SimulationError
from repro.runner import supervise
from repro.runner.parallel import (
    PersistentPool,
    ResultCache,
    point_key,
    sweep,
)
from repro.scenario import preset
from repro.scenario.runner import run_summary
from repro.serve.service import (
    ScenarioService,
    canonical_bytes,
    report_bytes,
    run_serve_chunk,
    serialize_outcome,
)


@pytest.fixture(autouse=True)
def _disarmed():
    inject.disarm()
    yield
    inject.disarm()


def spec_with_seed(seed):
    return preset("quickstart").replace(seed=seed)


def explode(point):
    raise ValueError(f"simulated failure on {point!r}")


class TestSigkillRecovery:
    def test_sigkill_mid_batch_respawns_and_bytes_match(self):
        """A worker SIGKILLed while holding a chunk costs a respawn, not bytes."""
        specs = [spec_with_seed(seed) for seed in range(3)]
        goldens = [report_bytes(spec) for spec in specs]
        plan = FaultPlan(faults=(Fault(kind="worker-crash"),))
        with inject.armed(plan):
            with PersistentPool(2) as pool:
                futures = [
                    pool.submit(run_serve_chunk, [spec]) for spec in specs
                ]
                bodies = []
                for spec, future in zip(specs, futures):
                    chunk = PersistentPool.unwrap([spec], future.result())
                    verdict, payload = chunk[0]
                    assert verdict == "ok"
                    bodies.append(canonical_bytes(payload))
                assert pool.restarts >= 1
                assert pool.resubmitted >= 1
                assert pool.alive
            # The break was attributed to (and spent) the armed fault.
            assert inject.counters().get("worker-crash", 0) >= 1
        assert bodies == goldens

    def test_exhausted_pool_goes_dead_then_revives(self):
        spec = spec_with_seed(3)
        plan = FaultPlan(faults=(Fault(kind="worker-crash"),))
        pool = PersistentPool(1, max_restarts=0)
        try:
            with inject.armed(plan):
                future = pool.submit(run_serve_chunk, [spec])
                with pytest.raises(PoolBrokenError):
                    future.result()
                assert pool.alive is False
                with pytest.raises(PoolBrokenError):
                    pool.submit(run_serve_chunk, [spec])
                assert pool.revive() is True
                assert pool.alive
                # The crash was spent on the first break, so the revived
                # executor's fresh invoker snapshot makes progress.
                healed = pool.submit(run_serve_chunk, [spec])
                chunk = PersistentPool.unwrap([spec], healed.result())
                assert chunk[0][0] == "ok"
                assert canonical_bytes(chunk[0][1]) == report_bytes(spec)
        finally:
            pool.shutdown()

    def test_simulation_error_is_not_retried(self):
        """Only infrastructure faults buy retries; user exceptions surface."""
        with PersistentPool(1) as pool:
            future = pool.submit(explode, "p0")
            with pytest.raises(SimulationError, match="simulated failure"):
                PersistentPool.unwrap("p0", future.result())
            assert pool.alive
            assert pool.restarts == 0


class TestServiceUnderCrash:
    """The daemon's service over a real pool whose worker is SIGKILLed."""

    specs = [spec_with_seed(seed) for seed in (30, 31, 32, 33)]

    def serve_each(self, service):
        async def scenario():
            await service.start()
            results = [await service.submit_spec(spec) for spec in self.specs]
            await service.drain()
            return results

        plan = FaultPlan(seed=0, faults=(Fault(kind="worker-crash"),))
        with inject.armed(plan):
            results = asyncio.run(scenario())
        goldens = [report_bytes(spec) for spec in self.specs]
        assert [(r.status, r.body) for r in results] == [
            (200, golden) for golden in goldens
        ]

    def test_supervised_pool_respawns_and_bytes_match(self):
        with PersistentPool(2) as pool:
            service = ScenarioService(pool=pool)
            self.serve_each(service)
            assert pool.restarts >= 1
        assert service.stats.degraded_requests == 0

    def test_pool_without_restart_budget_serves_degraded_bytes(self):
        # A long probe interval keeps the breaker open for the whole run,
        # so the requests after the break are served inline.
        pool = PersistentPool(1, max_restarts=0)
        service = ScenarioService(pool=pool, probe_interval=60.0)
        self.serve_each(service)
        assert service.stats.degraded_requests >= 1


class TestSweepUnderCrash:
    def test_sweep_survives_crash_identical_to_serial(self):
        specs = [spec_with_seed(seed) for seed in (10, 11, 12)]
        goldens = [serialize_outcome(run_summary(spec)) for spec in specs]
        plan = FaultPlan(faults=(Fault(kind="worker-crash"),))
        with inject.armed(plan):
            result = sweep(list(specs), run_summary, workers=2, chunksize=1)
        assert [
            serialize_outcome(outcome) for outcome in result.results
        ] == goldens

    def test_exhausted_sweep_reports_progress_and_resumes(
        self, tmp_path, monkeypatch
    ):
        """A dead pool surfaces completed/total; cached points resume."""
        monkeypatch.setattr(supervise, "DEFAULT_MAX_RESTARTS", 0)
        specs = [spec_with_seed(seed) for seed in (20, 21, 22, 23)]
        goldens = [serialize_outcome(run_summary(spec)) for spec in specs]
        cache = ResultCache(str(tmp_path), namespace="scenario")
        # Pre-cache the first two points so completed/total is
        # deterministic: the crash targets the first *pending* point, so
        # nothing computed in this sweep is consumed before the break.
        for spec in specs[:2]:
            cache.put(spec, run_summary(spec))
        target = point_key(specs[2])[:12]
        plan = FaultPlan(faults=(Fault(kind="worker-crash", target=target),))
        with inject.armed(plan):
            with pytest.raises(PoolBrokenError) as err:
                sweep(
                    list(specs),
                    run_summary,
                    workers=2,
                    chunksize=1,
                    cache=cache,
                )
        assert err.value.completed == 2
        assert err.value.total == 4
        assert "2/4 points completed and cached" in str(err.value)
        assert "re-run to resume" in str(err.value)
        # Disarmed re-run resumes from the cache and finishes the sweep
        # with the fault-free bytes.
        result = sweep(
            list(specs), run_summary, workers=2, chunksize=1, cache=cache
        )
        assert [
            serialize_outcome(outcome) for outcome in result.results
        ] == goldens

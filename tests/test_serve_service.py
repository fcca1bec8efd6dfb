"""Unit tests for the scenario-service core (:mod:`repro.serve.service`).

Everything here runs in-process: the :class:`InlinePool` computes
chunks synchronously, and injectable ``chunk_runner`` hooks count or
fake the compute so the cache/dedup/backpressure machinery is observed
directly. Real end-to-end runs live in ``test_serve_identity.py`` (byte
identity) and ``test_serve_http.py`` (the wire).
"""

import asyncio
import json

import pytest

from repro.errors import ConfigurationError
from repro.runner.parallel import ResultCache
from repro.scenario import preset
from repro.serve.service import (
    InlinePool,
    LruCache,
    ScenarioService,
    canonical_bytes,
    run_serve_chunk,
)


def spec_with_seed(seed):
    """A distinct-but-valid spec per seed; construction is cheap."""
    return preset("quickstart").replace(seed=seed)


def fake_chunk_runner(specs):
    """Deterministic stand-in for ``run_serve_chunk`` (no simulation)."""
    return [("ok", {"seed": spec.seed}) for spec in specs]


def make_service(**overrides):
    options = dict(pool=InlinePool(), chunk_runner=fake_chunk_runner)
    options.update(overrides)
    return ScenarioService(**options)


def serve(service, *specs):
    """Run one request per spec concurrently; returns their results."""

    async def scenario():
        await service.start()
        results = await asyncio.gather(
            *(service.submit_spec(spec) for spec in specs)
        )
        await service.drain()
        return results

    return asyncio.run(scenario())


class TestLruCache:
    def test_eviction_is_least_recently_used(self):
        lru = LruCache(limit=3)
        for key in ("a", "b", "c"):
            lru.put(key, key.encode())
        assert lru.get("a") == b"a"  # refresh a: b is now the oldest
        lru.put("d", b"d")
        assert lru.keys() == ("c", "a", "d")
        assert "b" not in lru
        assert lru.evictions == 1

    def test_put_refreshes_recency(self):
        lru = LruCache(limit=2)
        lru.put("a", b"1")
        lru.put("b", b"2")
        lru.put("a", b"3")  # re-put refreshes and overwrites
        lru.put("c", b"4")
        assert lru.keys() == ("a", "c")
        assert lru.get("a") == b"3"

    def test_zero_limit_disables(self):
        lru = LruCache(limit=0)
        lru.put("a", b"1")
        assert len(lru) == 0
        assert lru.get("a") is None

    def test_counters(self):
        lru = LruCache(limit=2)
        lru.put("a", b"1")
        lru.get("a")
        lru.get("nope")
        assert (lru.hits, lru.misses) == (1, 1)

    def test_negative_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            LruCache(limit=-1)


class TestDedup:
    def test_concurrent_identical_specs_compute_once(self):
        computed = []

        def counting(specs):
            computed.extend(specs)
            return [("ok", {"seed": spec.seed}) for spec in specs]

        service = make_service(chunk_runner=counting)
        spec = spec_with_seed(0)
        results = serve(service, *([spec] * 8))
        assert len(computed) == 1
        bodies = {result.body for result in results}
        assert bodies == {canonical_bytes({"seed": 0})}
        assert all(result.status == 200 for result in results)
        assert service.stats.computed == 1
        assert service.stats.deduped + service.stats.lru_hits == 7
        assert service.stats.requests == 8

    def test_distinct_specs_all_compute(self):
        service = make_service()
        results = serve(service, *(spec_with_seed(i) for i in range(4)))
        assert service.stats.computed == 4
        assert service.stats.deduped == 0
        assert [json.loads(r.body)["seed"] for r in results] == [0, 1, 2, 3]

    def test_repeat_after_completion_hits_lru(self):
        service = make_service()
        spec = spec_with_seed(1)

        async def scenario():
            await service.start()
            first = await service.submit_spec(spec)
            second = await service.submit_spec(spec)
            await service.drain()
            return first, second

        first, second = asyncio.run(scenario())
        assert first.source == "computed"
        assert second.source == "lru"
        assert first.body == second.body
        assert service.stats.lru_hits == 1


class TestDiskCacheLayer:
    def test_miss_fills_disk_then_fresh_service_hits_it(self, tmp_path):
        service = make_service(
            cache=ResultCache(tmp_path, namespace="scenario")
        )
        spec = spec_with_seed(2)
        (first,) = serve(service, spec)
        assert first.source == "computed"

        reborn = make_service(
            cache=ResultCache(tmp_path, namespace="scenario"),
            chunk_runner=None,  # must not be called
        )
        (second,) = serve(reborn, spec)
        assert second.source == "disk"
        assert second.body == first.body
        assert reborn.stats.disk_hits == 1
        # The disk hit also warmed the LRU.
        (third,) = serve(reborn, spec)
        assert third.source == "lru"

    def test_chunk_runner_none_never_computes(self, tmp_path):
        # Guard for the test above: a None runner answers 500 if it is
        # ever dispatched, so a disk-hit test using it cannot silently
        # compute.
        service = make_service(chunk_runner=None)
        (result,) = serve(service, spec_with_seed(3))
        assert result.status == 500


class TestBackpressure:
    def test_saturated_queue_answers_503_with_retry_after(self):
        service = make_service(queue_limit=2, retry_after=7)

        async def scenario():
            # No start(): the batcher isn't draining, so submissions sit
            # in the queue and saturation is deterministic.
            waiters = [
                asyncio.ensure_future(service.submit_spec(spec_with_seed(i)))
                for i in range(2)
            ]
            for _ in range(3):
                await asyncio.sleep(0)  # let them reach their enqueue
            assert service.queue_depth() == 2
            rejected = await service.submit_spec(spec_with_seed(99))
            await service.start()  # now drain the backlog
            served = await asyncio.gather(*waiters)
            await service.drain()
            return rejected, served

        rejected, served = asyncio.run(scenario())
        assert rejected.status == 503
        assert rejected.retry_after == 7
        assert b"saturated" in rejected.body
        assert [r.status for r in served] == [200, 200]
        assert service.stats.rejected == 1

    def test_draining_rejects_fresh_compute_but_serves_cache(self):
        service = make_service()
        spec = spec_with_seed(5)

        async def scenario():
            await service.start()
            first = await service.submit_spec(spec)
            await service.drain()
            cached = await service.submit_spec(spec)
            fresh = await service.submit_spec(spec_with_seed(6))
            return first, cached, fresh

        first, cached, fresh = asyncio.run(scenario())
        assert first.status == 200
        assert cached.status == 200 and cached.source == "lru"
        assert fresh.status == 503
        assert b"draining" in fresh.body

    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            make_service(queue_limit=0)
        with pytest.raises(ConfigurationError):
            make_service(batch_max=0)
        with pytest.raises(ConfigurationError):
            make_service(batch_window=-0.1)


class TestValidation:
    """submit_payload front door: structured 400s, no compute burned."""

    def run_payload(self, service, payload):
        async def scenario():
            await service.start()
            result = await service.submit_payload(payload)
            await service.drain()
            return result

        return asyncio.run(scenario())

    def test_invalid_json_is_400(self):
        service = make_service()
        result = self.run_payload(service, b"{not json")
        assert result.status == 400
        body = json.loads(result.body)
        assert "not valid JSON" in body["error"]
        assert body["field"] is None

    def test_unknown_key_carries_field_and_suggestions(self):
        service = make_service()
        payload = preset("quickstart").to_dict()
        payload["protocl"] = "b"
        result = self.run_payload(service, json.dumps(payload))
        assert result.status == 400
        body = json.loads(result.body)
        assert body["field"] == "protocl"
        assert "protocol" in body["suggestions"]
        assert "did you mean 'protocol'" in body["error"]

    def test_unknown_protocol_name_suggests_close_match(self):
        service = make_service()
        payload = preset("quickstart").to_dict()
        payload["protocol"] = "koo_"
        result = self.run_payload(service, json.dumps(payload))
        assert result.status == 400
        body = json.loads(result.body)
        assert body["field"] == "protocol"
        assert body["suggestions"] == ["koo"]

    def test_unknown_behavior_name_rejected(self):
        service = make_service()
        payload = preset("quickstart").to_dict()
        payload["behavior"] = "jamm"
        result = self.run_payload(service, json.dumps(payload))
        assert result.status == 400
        assert json.loads(result.body)["field"] == "behavior"

    def test_non_integer_count_is_400_naming_the_field(self):
        service = make_service(chunk_runner=run_serve_chunk)
        payload = preset("quickstart").to_dict()
        payload["mf"] = 2.5
        result = self.run_payload(service, json.dumps(payload))
        assert result.status == 400
        assert json.loads(result.body)["field"] == "mf"

    def test_validation_errors_burn_no_compute(self):
        computed = []

        def counting(specs):
            computed.extend(specs)
            return [("ok", {}) for _ in specs]

        service = make_service(chunk_runner=counting)
        self.run_payload(service, b"[1, 2, 3]")
        assert computed == []
        assert service.stats.errors == 1

    def test_deep_validation_fails_in_worker_as_400(self):
        # Passes the cheap front-door checks (names resolve) but fails
        # world construction: the error must come back structured.
        service = make_service(chunk_runner=run_serve_chunk)
        payload = preset("quickstart").to_dict()
        payload["grid"]["torus"] = False
        payload["source"] = [999, 999]
        result = self.run_payload(service, json.dumps(payload))
        assert result.status == 400
        assert "outside bounded grid" in json.loads(result.body)["error"]

    def test_worker_crash_is_500(self):
        def exploding(specs):
            raise RuntimeError("worker exploded")

        service = make_service(chunk_runner=exploding)
        (result,) = serve(service, spec_with_seed(7))
        assert result.status == 500
        assert b"worker exploded" in result.body
        assert service.stats.errors == 1

    def test_per_item_run_error_is_500_without_poisoning_batchmates(self):
        def mixed(specs):
            return [
                ("run", "boom") if spec.seed == 1 else ("ok", {"seed": spec.seed})
                for spec in specs
            ]

        service = make_service(chunk_runner=mixed, batch_max=4)
        results = serve(service, spec_with_seed(0), spec_with_seed(1))
        by_seed = {json.loads(r.body).get("seed"): r for r in results}
        statuses = sorted(r.status for r in results)
        assert statuses == [200, 500]
        assert by_seed.get(0) is not None and by_seed[0].status == 200


class TestStatsPayload:
    def test_counters_track_a_scripted_sequence(self, tmp_path):
        service = make_service(
            cache=ResultCache(tmp_path, namespace="scenario")
        )
        a, b = spec_with_seed(0), spec_with_seed(1)
        serve(service, a, a, b)  # one dedup or lru among the two a's
        payload = service.stats_payload()
        assert payload["requests"] == 3
        assert payload["computed"] == 2
        assert payload["lru_hits"] + payload["deduped"] == 1
        assert payload["queue_depth"] == 0
        assert payload["in_flight"] == 0
        assert payload["draining"] is True
        assert payload["disk_cache"] is True
        assert 0.0 <= payload["cache_hit_rate"] <= 1.0
        assert payload["lru_entries"] == 2

    def test_batching_coalesces_up_to_batch_max(self):
        batches = []

        def recording(specs):
            batches.append(len(specs))
            return [("ok", {"seed": spec.seed}) for spec in specs]

        service = make_service(
            chunk_runner=recording, batch_max=4, batch_window=0.05
        )
        serve(service, *(spec_with_seed(i) for i in range(8)))
        assert sum(batches) == 8
        assert max(batches) <= 4
        assert service.stats.batches == len(batches)

"""Cache-correctness tests: hit/miss, invalidation, corruption recovery."""

import json
from dataclasses import dataclass

import pytest

from repro.__main__ import main
from repro.errors import ConfigurationError
from repro.runner.parallel import (
    STALE_TMP_AGE_S,
    ResultCache,
    decode_result,
    encode_result,
    prune_cache_dir,
    scan_cache_dir,
    sweep,
)
from repro.serve.cli import parse_size


@dataclass(frozen=True)
class RowResult:
    m: int
    rate: float
    success: bool
    label: str
    seeds: tuple


@dataclass(frozen=True)
class ConfigPoint:
    r: int
    t: int
    mf: int


def double(x):
    return x * 2


class TestHitMiss:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, _ = cache.get(ConfigPoint(1, 2, 3))
        assert not hit
        cache.put(ConfigPoint(1, 2, 3), 99)
        hit, value = cache.get(ConfigPoint(1, 2, 3))
        assert hit and value == 99
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_namespaces_are_disjoint(self, tmp_path):
        a = ResultCache(tmp_path, namespace="e1")
        b = ResultCache(tmp_path, namespace="e2")
        a.put((1,), "from-e1")
        hit, _ = b.get((1,))
        assert not hit

    def test_survives_new_instance(self, tmp_path):
        ResultCache(tmp_path).put((5,), 25)
        hit, value = ResultCache(tmp_path).get((5,))
        assert hit and value == 25


class TestInvalidation:
    def test_changed_config_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(ConfigPoint(1, 2, 3), "old")
        hit, _ = cache.get(ConfigPoint(1, 2, 4))  # mf changed
        assert not hit

    def test_sweep_only_recomputes_changed_points(self, tmp_path):
        calls = []

        def counting(x):
            calls.append(x)
            return x * 10

        cache = ResultCache(tmp_path)
        sweep([1, 2, 3], counting, cache=cache)
        sweep([1, 2, 3, 4], counting, cache=cache)  # one new point
        assert calls == [1, 2, 3, 4]


class TestCorruptionRecovery:
    def test_garbage_file_is_a_miss_and_gets_rewritten(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(7, 49)
        path = cache.path_for(7)
        path.write_text("{not json", encoding="utf-8")
        hit, _ = cache.get(7)
        assert not hit
        result = sweep([7], double, cache=cache)
        assert result.results == (14,)
        hit, value = cache.get(7)
        assert hit and value == 14

    def test_truncated_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put((7,), 49)
        path = cache.path_for((7,))
        body = json.loads(path.read_text(encoding="utf-8"))
        del body["result"]
        path.write_text(json.dumps(body), encoding="utf-8")
        hit, _ = cache.get((7,))
        assert not hit

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put((7,), 49)
        path = cache.path_for((7,))
        body = json.loads(path.read_text(encoding="utf-8"))
        body["key"] = "0" * 64
        path.write_text(json.dumps(body), encoding="utf-8")
        hit, _ = cache.get((7,))
        assert not hit

    def test_unserializable_result_rejected_clearly(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ConfigurationError, match="not JSON-serializable"):
            cache.put((1,), object())

    def test_non_string_dict_keys_rejected(self, tmp_path):
        # JSON would stringify int keys, so a warm hit would return a
        # differently-typed result than the cold run; refuse up front.
        cache = ResultCache(tmp_path)
        with pytest.raises(ConfigurationError, match="str-keyed"):
            cache.put((1,), {3: 0.5})

    def test_corrupt_entry_counted_logged_and_overwritten(
        self, tmp_path, caplog
    ):
        # The full recovery story in one pass: a truncated entry is a
        # logged miss that bumps the ``corrupt`` counter, and the next
        # store overwrites it with a healthy entry.
        cache = ResultCache(tmp_path)
        cache.put((7,), 49)
        path = cache.path_for((7,))
        healthy = path.read_text(encoding="utf-8")
        path.write_text(healthy[: len(healthy) // 2], encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.cache"):
            hit, _ = cache.get((7,))
        assert not hit
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert any(
            "corrupt cache entry" in record.message
            and "recomputing" in record.message
            for record in caplog.records
        )
        cache.put((7,), 49)
        hit, value = cache.get((7,))
        assert hit and value == 49
        assert cache.stats.corrupt == 1  # healthy hit adds nothing

    def test_clean_miss_is_not_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, _ = cache.get((1,))
        assert not hit
        assert cache.stats.corrupt == 0

    def test_hit_rate(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.stats.hit_rate() == 0.0  # no traffic yet
        cache.put((1,), 1)
        cache.get((1,))
        cache.get((2,))
        assert cache.stats.hit_rate() == 0.5


class TestScanCacheDir:
    """``python -m repro cache stats`` inventory helper."""

    def test_empty_and_missing_directories(self, tmp_path):
        stats = scan_cache_dir(tmp_path)
        assert (stats.entries, stats.total_bytes, stats.corrupt) == (0, 0, 0)
        missing = scan_cache_dir(tmp_path / "never-created")
        assert missing.entries == 0

    def test_counts_entries_per_namespace(self, tmp_path):
        ResultCache(tmp_path, namespace="e1").put((1,), 10)
        ResultCache(tmp_path, namespace="e1").put((2,), 20)
        ResultCache(tmp_path, namespace="scenario").put((3,), 30)
        stats = scan_cache_dir(tmp_path)
        assert stats.entries == 3
        assert stats.corrupt == 0
        assert stats.total_bytes == sum(
            p.stat().st_size for p in tmp_path.glob("*.json")
        )
        by_name = {row[0]: row[1:] for row in stats.namespaces}
        assert by_name["e1"][0] == 2
        assert by_name["scenario"][0] == 1

    def test_truncated_entry_counts_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put((1,), 10)
        cache.put((2,), 20)
        path = cache.path_for((2,))
        healthy = path.read_text(encoding="utf-8")
        path.write_text(healthy[: len(healthy) // 2], encoding="utf-8")
        stats = scan_cache_dir(tmp_path)
        assert stats.entries == 2
        assert stats.corrupt == 1
        # ...and the regular cache API recovers exactly that entry.
        hit, _ = cache.get((2,))
        assert not hit
        cache.put((2,), 20)
        assert scan_cache_dir(tmp_path).corrupt == 0

    def test_key_mismatch_counts_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put((1,), 10)
        path = cache.path_for((1,))
        body = json.loads(path.read_text(encoding="utf-8"))
        body["key"] = "0" * 64
        path.write_text(json.dumps(body), encoding="utf-8")
        assert scan_cache_dir(tmp_path).corrupt == 1


class TestDataclassRoundTrip:
    def test_flat_dataclass(self, tmp_path):
        cache = ResultCache(tmp_path)
        original = RowResult(m=3, rate=0.12345678901234567, success=True,
                             label="x", seeds=(1, 2, 3))
        cache.put(ConfigPoint(1, 1, 1), original)
        hit, value = cache.get(ConfigPoint(1, 1, 1))
        assert hit
        assert value == original  # floats round-trip exactly through JSON

    def test_tuple_of_dataclasses(self):
        rows = (RowResult(1, 0.5, False, "a", ()), RowResult(2, 1.5, True, "b", (9,)))
        decoded = decode_result(json.loads(json.dumps(encode_result(list(rows)))))
        assert tuple(decoded) == rows


class TestAtomicStore:
    """Tmp-file hygiene: per-process names, no leftovers, crash safety."""

    def test_tmp_name_is_process_unique_and_same_directory(self, tmp_path):
        # Two processes caching the same point concurrently must not
        # share a tmp file, or their writes interleave before the
        # atomic os.replace publishes the entry.
        import os

        cache = ResultCache(tmp_path)
        point = ConfigPoint(1, 2, 3)
        recorded = []
        real_replace = os.replace

        def spying_replace(src, dst):
            recorded.append((str(src), str(dst)))
            return real_replace(src, dst)

        os.replace = spying_replace
        try:
            cache.put(point, 42)
        finally:
            os.replace = real_replace
        (src, dst) = recorded[0]
        assert f".{os.getpid()}.tmp" in src
        assert os.path.dirname(src) == os.path.dirname(dst)
        assert dst == str(cache.path_for(point))

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        for m in range(5):
            cache.put(ConfigPoint(m, m, m), m * m)
        leftovers = list(tmp_path.glob("*.tmp"))
        assert leftovers == []

    def test_stale_foreign_tmp_does_not_break_store(self, tmp_path):
        # A tmp file left by a crashed process (old fixed-name scheme or
        # another pid) must not corrupt or block a fresh store.
        cache = ResultCache(tmp_path)
        point = ConfigPoint(9, 9, 9)
        final = cache.path_for(point)
        final.with_suffix(".tmp").write_text("garbage", encoding="utf-8")
        final.with_name(f"{final.name}.99999.tmp").write_text(
            "{truncated", encoding="utf-8"
        )
        cache.put(point, "fresh")
        hit, value = cache.get(point)
        assert hit and value == "fresh"

    def test_failed_write_cleans_up_tmp(self, tmp_path, monkeypatch):
        import os as _os

        cache = ResultCache(tmp_path)

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(_os, "replace", exploding_replace)
        with pytest.raises(OSError):
            cache.put(ConfigPoint(4, 4, 4), 16)
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.stats.stores == 0


class TestPruneCacheDir:
    def _fill(self, tmp_path, count, *, mtime_start=1000.0):
        """Store ``count`` entries with strictly increasing mtimes."""
        import os

        cache = ResultCache(tmp_path)
        for i in range(count):
            cache.put((i,), {"payload": "x" * 50, "i": i})
            path = cache.path_for((i,))
            os.utime(path, (mtime_start + i, mtime_start + i))
        return cache

    def test_requires_a_policy(self, tmp_path):
        with pytest.raises(ConfigurationError, match="policy"):
            prune_cache_dir(tmp_path)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a cache directory"):
            prune_cache_dir(tmp_path / "nope", max_bytes=0)

    @pytest.mark.parametrize("max_age_s", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_age_rejected(self, tmp_path, max_age_s):
        with pytest.raises(ConfigurationError, match="max_age_s"):
            prune_cache_dir(tmp_path, max_age_s=max_age_s)

    def test_age_policy_removes_only_old_entries(self, tmp_path):
        self._fill(tmp_path, 4, mtime_start=1000.0)
        # now=1103.5: entries at 1000/1001 are older than 102s, 1002/1003 not.
        result = prune_cache_dir(tmp_path, max_age_s=102.0, now=1103.5)
        assert result.removed == 2 and result.kept == 2
        assert scan_cache_dir(tmp_path).entries == 2
        cache = ResultCache(tmp_path)
        assert cache.get((0,)) == (False, None)
        hit, value = cache.get((3,))
        assert hit and value["i"] == 3

    def test_size_policy_evicts_oldest_first(self, tmp_path):
        self._fill(tmp_path, 4)
        total = scan_cache_dir(tmp_path).total_bytes
        per_entry = total // 4
        result = prune_cache_dir(
            tmp_path, max_bytes=2 * per_entry + 1, now=2000.0
        )
        assert result.removed == 2
        cache = ResultCache(tmp_path)
        assert not cache.get((0,))[0] and not cache.get((1,))[0]
        assert cache.get((2,))[0] and cache.get((3,))[0]

    def test_policies_compose(self, tmp_path):
        self._fill(tmp_path, 4, mtime_start=1000.0)
        # Age removes the oldest entry; size then shaves down to one.
        per_entry = scan_cache_dir(tmp_path).total_bytes // 4
        result = prune_cache_dir(
            tmp_path, max_bytes=per_entry, max_age_s=102.5, now=1103.0
        )
        assert result.removed == 3 and result.kept == 1
        assert ResultCache(tmp_path).get((3,))[0]

    def test_dry_run_reports_without_unlinking(self, tmp_path):
        self._fill(tmp_path, 3)
        result = prune_cache_dir(tmp_path, max_bytes=0, dry_run=True)
        assert result.dry_run and result.removed == 3
        assert scan_cache_dir(tmp_path).entries == 3

    def test_dry_run_matches_real_prune(self, tmp_path):
        self._fill(tmp_path, 5)
        preview = prune_cache_dir(
            tmp_path, max_bytes=200, now=3000.0, dry_run=True
        )
        real = prune_cache_dir(tmp_path, max_bytes=200, now=3000.0)
        assert (preview.removed, preview.removed_bytes, preview.kept) == (
            real.removed,
            real.removed_bytes,
            real.kept,
        )
        assert scan_cache_dir(tmp_path).entries == real.kept

    def test_stale_tmp_swept_fresh_tmp_kept(self, tmp_path):
        import os

        self._fill(tmp_path, 1, mtime_start=5000.0)
        stale = tmp_path / "sweep-feedface.json.123.tmp"
        fresh = tmp_path / "sweep-deadbeef.json.456.tmp"
        stale.write_text("{}")
        fresh.write_text("{}")
        os.utime(stale, (5000.0, 5000.0))
        now = 5000.0 + STALE_TMP_AGE_S + 5
        os.utime(fresh, (now, now))
        result = prune_cache_dir(tmp_path, max_age_s=10**6, now=now)
        assert result.removed_tmp == 1
        assert not stale.exists() and fresh.exists()

    def test_pruned_point_is_recomputed_not_failed(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep([1, 2, 3], double, cache=cache)
        prune_cache_dir(tmp_path, max_bytes=0)
        fresh = ResultCache(tmp_path)
        result = sweep([1, 2, 3], double, cache=fresh)
        assert result.results == (2, 4, 6)
        assert fresh.stats.hits == 0 and fresh.stats.stores == 3


class TestPruneCommand:
    @pytest.mark.parametrize(
        "text, size",
        [("1048576", 1048576), ("500M", 500 * 2**20), ("2GB", 2 * 2**30)],
    )
    def test_parse_size_accepts_suffixes(self, text, size):
        assert parse_size(text) == size

    @pytest.mark.parametrize(
        "text", ["-1", "lots", "nan", "inf", "-inf", "1e400", "1e308G"]
    )
    def test_parse_size_rejects_bad_sizes(self, text):
        with pytest.raises(ConfigurationError):
            parse_size(text)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-bytes", "nan"],
            ["--max-bytes", "inf"],
            ["--max-bytes", "1e400"],
            ["--max-age", "nan"],
            ["--max-age", "inf"],
            ["--max-age", "1e305"],
        ],
    )
    def test_non_finite_policy_exits_2(self, tmp_path, capsys, flags):
        assert main(["cache", "prune", str(tmp_path), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")

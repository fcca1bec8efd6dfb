"""Self-tests of the benchmark, kept beside it.

Run from the repository root, either way::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection:
the smoke runs start benchmark subprocesses and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import streams  # noqa: E402


def _fresh_hashes(seed: int, generations: int = 2) -> list[str]:
    stream = streams.FreshProbeStream(seed, 0)
    return [
        spec.content_hash()
        for _ in range(generations)
        for spec in stream.next_batch()
    ]


def _serve_requests(seed: int, steps: int = 40) -> list[bytes]:
    plan = streams.ServePlan(seed, 0)
    return [request.body for pair in islice(plan.steps(), steps) for request in pair]


def _megatorus_hashes(seed: int, runs: int = 6) -> list[str]:
    return [
        spec.content_hash()
        for spec in islice(streams.megatorus_stream(seed, 0), runs)
    ]


def test_same_seed_same_inputs() -> None:
    assert _fresh_hashes(7) == _fresh_hashes(7)
    assert _serve_requests(7) == _serve_requests(7)
    assert _megatorus_hashes(7) == _megatorus_hashes(7)


def test_other_seed_other_inputs() -> None:
    assert _fresh_hashes(7) != _fresh_hashes(8)
    assert _serve_requests(7) != _serve_requests(8)
    assert _megatorus_hashes(7) != _megatorus_hashes(8)


def test_generated_specs_validate() -> None:
    from repro.scenario.runner import validate

    stream = streams.FreshProbeStream(3, 1)
    specs = [spec for _ in range(2) for spec in stream.next_batch()]
    plan = streams.ServePlan(3, 1)
    specs.extend(plan.hot)
    specs.extend(
        request.spec
        for pair in islice(plan.steps(), 40)
        for request in pair
        if request.spec is not None
    )
    # One grid side: the first three megatorus specs share it.
    specs.extend(islice(streams.megatorus_stream(3, 1), 3))
    for spec in specs:
        validate(spec)


def test_no_fresh_probe_is_a_preset_base() -> None:
    from repro.scenario import preset, preset_names

    bases = {preset(name).content_hash() for name in preset_names()}
    for shard in range(3):
        stream = streams.FreshProbeStream(0, shard)
        for _ in range(2):
            assert not bases & {spec.content_hash() for spec in stream.next_batch()}


def test_bad_bodies_get_structured_400s() -> None:
    import child

    plan = streams.ServePlan(0, 0)
    bad = [
        request.body
        for pair in islice(plan.steps(), 200)
        for request in pair
        if request.kind == "bad"
    ]
    assert len(set(bad)) == 3
    for body in bad:
        payload = json.loads(child.expected_400(body))
        assert set(payload) == {"error", "field", "suggestions"}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _smoke(workload: str, trace: str) -> None:
    result = _result(
        _bench("--workload", workload, "--scale", "tiny", "--seconds", "3", "--trace", trace)
    )
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)


def test_smoke_fresh_probes() -> None:
    _smoke("fresh-probes", "0")


def test_smoke_serve_mixed() -> None:
    _smoke("serve-mixed", "0")


def test_smoke_megatorus() -> None:
    _smoke("megatorus", "0")


def test_smoke_traced_fresh_probes() -> None:
    _smoke("fresh-probes", "1")


def test_fails_without_the_program() -> None:
    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-out"))
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "fresh-probes", "--seed", "0", "--seconds", "3", cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

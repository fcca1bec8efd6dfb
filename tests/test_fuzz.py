"""Tests for the repro.fuzz subsystem.

Covers the sampler's determinism and validity contracts, the oracle
registry, the differential case runner, greedy shrinking, the repro
corpus, the CLI — and the acceptance scenario: a seeded *known-bad*
mutation (a capability flag lying about an adversary class) is caught by
the differential check, shrunk, written as a replayable JSON repro, and
stays red on replay until the double is gone.
"""

import json
import re

import pytest

from repro.adversary.jamming import ThresholdGuardJammer
from repro.adversary.lying import SpamLiar
from repro.adversary.placement import RandomPlacement
from repro.errors import ConfigurationError
from repro.fuzz import (
    FuzzCase,
    SpecSampler,
    check_invariants,
    check_spec,
    compare_reports,
    load_repro,
    replay,
    run_case,
    sample_spec,
    shrink_spec,
    validation_probes,
    write_repro,
)
from repro.fuzz.cli import fuzz_run_command
from repro.fuzz.oracles import OracleContext, invariants
from repro.fuzz.runner import _run_mode
from repro.network.grid import Grid, GridSpec
from repro.radio.medium import Medium
from repro.radio.messages import Transmission
from repro.scenario import ScenarioSpec, validate
from repro.scenario.registries import BehaviorEntry, behaviors
from repro.__main__ import main as repro_main


def _tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(
        grid=GridSpec(width=6, height=6, r=1, torus=True),
        t=1,
        mf=2,
        placement=RandomPlacement(t=1, count=2, seed=5),
        protocol="b",
        behavior="jam",
        m=3,
        max_rounds=20,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSampler:
    def test_case_spec_is_pure_in_seed_and_index(self):
        first = [SpecSampler(7).case_spec(i) for i in range(6)]
        second = [SpecSampler(7).case_spec(i) for i in range(6)]
        assert first == second
        # Different master seeds explore different scenarios.
        assert first != [SpecSampler(8).case_spec(i) for i in range(6)]

    def test_sampled_specs_are_valid_and_serializable(self):
        sampler = SpecSampler(0)
        for index in range(20):
            spec = sampler.case_spec(index)
            validate(spec)  # must be runnable as sampled
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_protocol_and_behavior_pinning(self):
        sampler = SpecSampler(3, protocols=("cpa",), behavior="spoof")
        for index in range(5):
            spec = sampler.case_spec(index)
            assert spec.protocol == "cpa"
            assert spec.behavior == "spoof"

    def test_degenerate_shapes_appear(self):
        import random

        shapes = set()
        rng = random.Random(0)
        for _ in range(80):
            spec = sample_spec(rng)
            if 1 in (spec.grid.width, spec.grid.height):
                shapes.add("stripe")
            if spec.mf == 0:
                shapes.add("zero-budget")
            if spec.t == 0:
                shapes.add("no-bad")
            if spec.max_rounds == 1:
                shapes.add("one-round")
        assert shapes == {"stripe", "zero-budget", "no-bad", "one-round"}


class TestOracles:
    def test_bundled_invariants_registered(self):
        names = set(invariants.names())
        assert {
            "validity",
            "agreement",
            "round-cap",
            "budget-conservation",
            "delivery-geometry",
            "decision-consistency",
            "delivery-batch-immutable",
        } <= names

    def test_clean_run_passes_all_invariants(self):
        spec = _tiny_spec()
        report, medium = _run_mode(spec, fast=True)
        ctx = OracleContext(spec=spec, report=report, medium=medium)
        assert check_invariants(ctx) == []

    def test_mutated_batches_trip_delivery_batch_immutable(self):
        # A private medium: the warm one behind _run_mode is shared.
        spec = _tiny_spec()
        report, _ = _run_mode(spec, fast=True)
        grid = Grid(spec.grid)
        medium = Medium(grid)
        honest = [Transmission(0, 1), Transmission(grid.id_of((3, 3)), 1)]
        batch = medium.resolve_slot(honest, [])
        ctx = OracleContext(spec=spec, report=report, medium=medium)
        assert check_invariants(ctx) == []
        batch.reverse()
        failures = check_invariants(ctx)
        assert any(
            "delivery-batch-immutable" in f and "strictly increasing" in f
            for f in failures
        )
        batch.reverse()
        batch.corrupted_count = 1
        failures = check_invariants(ctx)
        assert any("corrupted_count=1" in f for f in failures)

    def test_doctored_stats_trip_delivery_geometry(self):
        spec = _tiny_spec()
        report, _ = _run_mode(spec, fast=True)
        report.stats.corrupted_deliveries = report.stats.deliveries + 1
        ctx = OracleContext(spec=spec, report=report)
        failures = check_invariants(ctx)
        assert any("delivery-geometry" in f for f in failures)

    def test_doctored_ledger_trips_budget_conservation(self):
        spec = _tiny_spec()
        report, _ = _run_mode(spec, fast=True)
        report.stats.honest_transmissions += 1
        failures = check_invariants(OracleContext(spec=spec, report=report))
        assert any("budget-conservation" in f for f in failures)


class TestDifferentialRunner:
    def test_clean_spec_has_no_failures(self):
        assert check_spec(_tiny_spec()) == []

    def test_compare_reports_detects_differences(self):
        spec = _tiny_spec()
        fast, _ = _run_mode(spec, fast=True)
        reference, _ = _run_mode(spec, fast=False)
        assert compare_reports(fast, reference) == []
        reference.stats.deliveries += 1
        failures = compare_reports(fast, reference)
        assert any("stats differ" in f for f in failures)

    def test_run_case_is_deterministic(self):
        case = FuzzCase(index=0, spec=_tiny_spec())
        first = run_case(case)
        second = run_case(case)
        assert first == second
        assert first.ok and first.case_hash == case.spec.content_hash()

    def test_validation_probes_pass(self):
        assert validation_probes() == []


class TestShrinking:
    def test_shrinks_toward_smallest_failing_spec(self):
        # A synthetic failure predicate lets us test the greedy loop
        # without needing a live bug: "fails" while the grid is wide.
        def check(spec):
            return ["too wide"] if spec.grid.width >= 12 else []

        start = _tiny_spec(
            grid=GridSpec(width=24, height=24, r=1, torus=True),
            placement=RandomPlacement(t=1, count=6, seed=5),
            batch_per_slot=3,
        )
        shrunk, failures = shrink_spec(start, ["too wide"], check=check)
        assert failures == ["too wide"]
        assert shrunk.grid.width == 12  # smallest width still failing
        assert shrunk.batch_per_slot == 1  # rode along

    def test_fixpoint_when_nothing_smaller_fails(self):
        def check(spec):
            return ["always"]

        shrunk, failures = shrink_spec(_tiny_spec(), ["always"], check=check)
        assert failures == ["always"]
        validate(shrunk)  # whatever it shrank to still runs


class TestCorpus:
    def test_write_load_round_trip(self, tmp_path):
        spec = _tiny_spec()
        path = write_repro(tmp_path, spec, ["message"], original=_tiny_spec(m=5))
        record = load_repro(path)
        assert record.spec == spec
        assert record.failures == ("message",)
        assert record.original == _tiny_spec(m=5)

    def test_replay_green_on_fixed_corpus(self, tmp_path):
        write_repro(tmp_path, _tiny_spec(), ["historical"])
        results = replay([tmp_path])
        assert len(results) == 1
        assert results[0][1] == []

    def test_load_rejects_junk(self, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="unreadable repro"):
            load_repro(bad)

    def test_committed_corpus_replays_green(self):
        # The permanent regression corpus (CI replays it on every push).
        results = replay(["tests/corpus"])
        assert results, "tests/corpus must hold at least one repro"
        for path, failures in results:
            assert failures == [], f"{path} regressed: {failures[:3]}"


class _WrongSpontaneousLiar(SpamLiar):
    """KNOWN-BAD double: SpamLiar transmits unprompted, flag says not."""

    spontaneous = False


class _WrongStatelessJammer(ThresholdGuardJammer):
    """KNOWN-BAD double: on_slot reads observe-maintained clean counts."""

    observe_stateless = True


class TestKnownBadMutationIsCaught:
    """The acceptance scenario: a lying capability flag is found, shrunk,
    and written as a replayable repro."""

    def _fuzz_behavior(self, name, tmp_path):
        """Fuzz specs pinned to ``name``; shrink+persist the first hit."""
        sampler = SpecSampler(1, protocols=("b",), behavior=name)
        for index in range(40):
            spec = sampler.case_spec(index)
            failures = check_spec(spec)
            if failures:
                shrunk, shrunk_failures = shrink_spec(spec, failures)
                path = write_repro(
                    tmp_path, shrunk, shrunk_failures, original=spec
                )
                return spec, shrunk, shrunk_failures, path
        pytest.fail(f"wrong-flag behavior {name!r} survived 40 fuzz cases")

    def test_wrong_spontaneous_flag(self, tmp_path):
        entry = BehaviorEntry(
            "test-wrong-spontaneous",
            lambda ctx: _WrongSpontaneousLiar(ctx.grid, ctx.table, ctx.ledger),
            "test double with a lying spontaneous flag",
        )
        with behaviors.temporarily("test-wrong-spontaneous", entry):
            original, shrunk, failures, path = self._fuzz_behavior(
                "test-wrong-spontaneous", tmp_path
            )
            # Caught: the skipped empty slots change observable traffic.
            assert failures
            # Shrunk: never larger than the original scenario.
            assert shrunk.grid.width * shrunk.grid.height <= (
                original.grid.width * original.grid.height
            )
            # Replayable: the repro document re-executes and stays red.
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert payload["case"] == shrunk.content_hash()
            (replayed,) = replay([path])
            assert replayed[1], "repro must stay red while the bug lives"

    def test_wrong_observe_stateless_flag(self, tmp_path):
        def build(ctx):
            return _WrongStatelessJammer(
                ctx.grid,
                ctx.table,
                ctx.ledger,
                threshold=ctx.params.threshold,
                protected=ctx.spec.protected,
                vtrue=ctx.spec.vtrue,
            )

        entry = BehaviorEntry(
            "test-wrong-stateless", build, "test double lying about observe"
        )
        with behaviors.temporarily("test-wrong-stateless", entry):
            _, shrunk, failures, path = self._fuzz_behavior(
                "test-wrong-stateless", tmp_path
            )
            assert failures
            assert load_repro(path).spec == shrunk


class TestCli:
    def test_fuzz_run_green_and_deterministic(self, tmp_path, capsys):
        status = fuzz_run_command(
            cases=12,
            time_budget=None,
            seed=0,
            workers=1,
            corpus_dir=str(tmp_path),
            show_progress=False,
        )
        first = capsys.readouterr().out
        assert status == 0
        status = fuzz_run_command(
            cases=12,
            time_budget=None,
            seed=0,
            workers=1,
            corpus_dir=str(tmp_path),
            show_progress=False,
        )
        second = capsys.readouterr().out
        assert status == 0
        digest = re.search(r"digest (\w+)", first)
        assert digest and digest.group(0) in second

    def test_cases_and_time_budget_are_exclusive(self, tmp_path, capsys):
        assert (
            fuzz_run_command(
                cases=None,
                time_budget=None,
                seed=0,
                workers=1,
                corpus_dir=str(tmp_path),
            )
            == 2
        )
        assert (
            fuzz_run_command(
                cases=3,
                time_budget=1.0,
                seed=0,
                workers=1,
                corpus_dir=str(tmp_path),
            )
            == 2
        )
        capsys.readouterr()

    def test_main_wires_fuzz_subcommands(self, tmp_path, capsys):
        assert (
            repro_main(
                [
                    "fuzz",
                    "run",
                    "--cases",
                    "4",
                    "--seed",
                    "1",
                    "--no-progress",
                    "--corpus",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert repro_main(["fuzz", "replay", "tests/corpus"]) == 0
        assert repro_main(["fuzz", "replay", str(tmp_path / "missing")]) == 2
        capsys.readouterr()

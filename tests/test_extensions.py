"""Tests for the extension experiments (E10-E12) and their substrates."""

import pytest

from repro.adversary.placement import BernoulliPlacement
from repro.errors import ConfigurationError, PlacementError
from repro.experiments.e2_figure2 import (
    figure2_midside_quota,
    run_figure2_generalized,
    validate_figure2_attack,
)
from repro.experiments.e10_uncertain_region import lattice_breakable_max_m
from repro.experiments.e11_refined_coding_cost import (
    chain_cost_bits,
    crossover_attacks,
    icode_cost_bits,
    run_refined_cost,
)
from repro.experiments.e12_probabilistic_failures import run_probabilistic_failures
from repro.network.grid import Grid, GridSpec


class TestBernoulliPlacement:
    def test_p_zero_and_one(self):
        grid = Grid(GridSpec(12, 12, r=1, torus=True))
        assert BernoulliPlacement(p=0.0, seed=1).bad_ids(grid, 0) == set()
        everyone = BernoulliPlacement(p=1.0, seed=1).bad_ids(grid, 0)
        assert len(everyone) == grid.n - 1 and 0 not in everyone

    def test_deterministic(self):
        grid = Grid(GridSpec(12, 12, r=1, torus=True))
        a = BernoulliPlacement(p=0.3, seed=7).bad_ids(grid, 0)
        assert a == BernoulliPlacement(p=0.3, seed=7).bad_ids(grid, 0)
        assert a != BernoulliPlacement(p=0.3, seed=8).bad_ids(grid, 0)

    def test_invalid_probability(self):
        grid = Grid(GridSpec(12, 12, r=1, torus=True))
        with pytest.raises(PlacementError):
            BernoulliPlacement(p=1.5, seed=0).bad_ids(grid, 0)


class TestFigure2Generalization:
    def test_quota_formula(self):
        assert figure2_midside_quota(59, 1000) == 3  # 17*59 - 1000
        assert figure2_midside_quota(10, 1000) == 0

    def test_validation_rejects_unfundable(self):
        with pytest.raises(ConfigurationError):
            validate_figure2_attack(m=100, mf=1000)  # 50*100 > 3*1000

    def test_validation_rejects_quota_above_sends(self):
        with pytest.raises(ConfigurationError):
            validate_figure2_attack(m=70, mf=1000)  # quota 190 > m

    def test_validation_rejects_silent_midside(self):
        with pytest.raises(ConfigurationError):
            validate_figure2_attack(m=40, mf=1000)  # 800 < 1001

    def test_paper_instance_valid(self):
        validate_figure2_attack(m=59, mf=1000)

    @pytest.mark.slow
    def test_breakability_frontier(self):
        # m = 60 is the last fundable budget at mf = 1000.
        validate_figure2_attack(m=60, mf=1000)
        with pytest.raises(ConfigurationError):
            validate_figure2_attack(m=61, mf=1000)
        result = run_figure2_generalized(m=60, mf=1000)
        assert result.broadcast_failed

    def test_lattice_breakable_formula(self):
        assert lattice_breakable_max_m(1000) == 60
        assert lattice_breakable_max_m(500) == 30


class TestRefinedCodingCost:
    def test_cost_formulas(self):
        # chain: (a+1) * K; K(32) = 45.
        assert chain_cost_bits(32, 0) == 45
        assert chain_cost_bits(32, 2) == 135
        # icode: 2k + a * (2 + 8).
        assert icode_cost_bits(32, 0) == 64
        assert icode_cost_bits(32, 5) == 114

    def test_crossover_below_one_attack(self):
        for k in (32, 128, 512, 4096):
            assert 0 < crossover_attacks(k) < 1.0

    def test_simulation_matches_model(self):
        result = run_refined_cost(ks=(32,), attack_counts=(0, 3))
        assert result.model_matches_simulation


class TestProbabilisticFailures:
    def test_percolation_trend(self):
        result = run_probabilistic_failures(
            width=18, rs=(1, 2), ps=(0.0, 0.5), trials=2
        )
        assert result.larger_radius_tolerates_more
        assert result.fraction_at(2, 0.0) == 1.0
        assert result.fraction_at(1, 0.5) <= result.fraction_at(2, 0.5)

    def test_no_failures_is_complete(self):
        result = run_probabilistic_failures(width=18, rs=(1,), ps=(0.0,), trials=1)
        assert result.points[0].all_complete


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e2" in out and "e12" in out

    def test_single_experiment_runs(self, capsys):
        from repro.__main__ import main

        assert main(["run", "e11"]) == 0
        out = capsys.readouterr().out
        assert "E11" in out and "finished" in out

"""Microbenchmarks of the simulator's hot paths.

Not paper artifacts — these guard the substrate's performance so the
experiment harnesses stay tractable as the library grows.
"""

from repro.adversary.placement import RandomPlacement
from repro.network.grid import Grid, GridSpec
from repro.network.node import NodeTable
from repro.radio.medium import Medium
from repro.radio.messages import Transmission
from repro.radio.schedule import TdmaSchedule
from repro.scenario import ScenarioSpec
from repro.scenario import run as run_spec

SPEC = GridSpec(width=30, height=30, r=2, torus=True)


def test_grid_construction(benchmark):
    grid = benchmark(Grid, SPEC)
    assert grid.n == 900


def test_medium_slot_resolution(benchmark):
    grid = Grid(SPEC)
    medium = Medium(grid)
    transmitters = [
        Transmission(grid.id_of((x, y)), 1)
        for x in range(0, 30, 5)
        for y in range(0, 30, 5)
    ]
    deliveries = benchmark(medium.resolve_slot, transmitters, [])
    assert len(deliveries) == len(transmitters) * 24


def test_medium_slot_resolution_reference(benchmark):
    # The preserved dict-based resolver: the fast path's referee and
    # the baseline to read test_medium_slot_resolution against.
    grid = Grid(SPEC)
    medium = Medium(grid, fast=False)
    transmitters = [
        Transmission(grid.id_of((x, y)), 1)
        for x in range(0, 30, 5)
        for y in range(0, 30, 5)
    ]
    deliveries = benchmark(medium.resolve_slot, transmitters, [])
    assert len(deliveries) == len(transmitters) * 24


def test_schedule_verification(benchmark):
    grid = Grid(SPEC)
    schedule = TdmaSchedule(grid)
    benchmark(schedule.verify_collision_free)


def test_local_boundedness_validation(benchmark):
    grid = Grid(SPEC)
    bad = RandomPlacement(t=2, count=30, seed=0).bad_ids(grid, 0)
    table = NodeTable(grid, 0, bad)
    benchmark(table.validate_locally_bounded, 2)


def test_full_protocol_b_run(benchmark):
    def run():
        return run_spec(
            ScenarioSpec(
                grid=SPEC,
                t=2,
                mf=2,
                placement=RandomPlacement(t=2, count=20, seed=1),
                protocol="b",
                behavior="jam",
                batch_per_slot=4,
            )
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.success

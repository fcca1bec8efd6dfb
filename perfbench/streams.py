"""Seeded input streams for the three benchmark workloads.

Everything here is a pure function of ``(workload seed, shard)``: the
same pair always yields the same specs, request bodies and order, and
the program under test receives nothing but these generated inputs.
Each benchmark run executes three shards, one per fresh subprocess.

- :class:`FreshProbeStream` — atlas-shaped probe generations over the
  five non-megatorus presets. Every generation holds the same strata
  (preset x axis x anchor) and steps each stratum's value around its
  anchor, so runs with different seeds do comparable work; the seed
  picks every probe's ``spec.seed`` and which probes repeat where.
- :class:`ServePlan` — the ``serve-mixed`` request stream as lockstep
  pairs of requests, one per client connection.
- :func:`megatorus_stream` — distinct ~10^6-node torus specs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator

FRESH_PRESETS = (
    "quickstart",
    "stripe-impossibility",
    "theorem2",
    "figure2",
    "reactive",
)
# Serve misses skip figure2: its probes cost 0.1-2.6 s each, which would
# turn the service workload into a second compute benchmark.
SERVE_PRESETS = ("quickstart", "stripe-impossibility", "theorem2", "reactive")
AXES = ("m", "t", "mf")
# Positions of the probed values inside each axis's [domain_min, soft_cap]
# bracket, where an atlas bisection spends most of its probes.
ANCHORS = (0.3, 0.75)
# Successive draws from one stratum step around its anchor by these many
# 1/40ths of the bracket.
OFFSETS = (0, 2, -2, 1, -1)
# Per generation: probes repeating a probe from an earlier generation
# (answered by the result cache) and duplicates inside the generation
# (folded by probe_batch), as shared base specs do in the atlas.
REPEATS_PER_BATCH = 20
DUPLICATES_PER_BATCH = 2

MEGATORUS_SIDES = tuple(range(985, 1016, 5))
# Runs per grid side before the stream moves to a new side: the first
# run on a side builds its grid, the others reuse the warm world.
MEGATORUS_RUNS_PER_SIDE = 3

HOT_SET_PER_PRESET = 2
# One cycle of the serve plan, as (left, right) request kinds: 18 hits,
# one first-seen spec, one concurrent duplicate pair, one bad body.
SERVE_CYCLE = (
    *(("hit", "hit"),) * 8,
    ("hit", "fresh"),
    ("dup", "dup"),
    ("bad", "hit"),
)


def shard_rng(workload: str, seed: int, shard: int) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{shard}")


def _fresh_seed(rng: random.Random) -> int:
    # Presets use seed 0; a non-zero seed keeps every probe distinct.
    return rng.randrange(1, 2**31)


class StrataSampler:
    """Draws fresh probe specs: one per (preset, axis, anchor) stratum.

    The k-th draw from a stratum probes ``anchor + OFFSETS[k]`` steps of
    its bracket, so every seed does comparable work; the seed supplies
    each probe's ``spec.seed``, which keeps every probe a distinct spec.
    """

    def __init__(
        self, presets: tuple[str, ...], rng: random.Random, *, shard: int = 0
    ) -> None:
        from repro.analysis.search import FRONTIER_AXES, default_validator
        from repro.scenario import preset

        self._rng = rng
        self._axes = FRONTIER_AXES
        self._valid = default_validator
        self.bases = {name: preset(name) for name in presets}
        self.strata = [
            (name, axis, anchor)
            for name in presets
            for axis in AXES
            for anchor in ANCHORS
        ]
        # Shards start at different points of the offset cycle.
        self._draws = dict.fromkeys(self.strata, shard * 2)

    def draw(self, stratum: tuple[str, str, float]):
        """One valid fresh spec for ``stratum``, or ``None`` if none is."""
        name, axis_name, anchor = stratum
        base = self.bases[name]
        axis = self._axes[axis_name]
        lo, soft, _hard = axis.bounds(base)
        span = soft - lo
        offset = OFFSETS[self._draws[stratum] % len(OFFSETS)]
        self._draws[stratum] += 1
        start = lo + round(anchor * span) + offset * max(1, span // 40)
        start = min(max(start, lo), soft)
        seed = _fresh_seed(self._rng)
        # Nudge upward, then downward, past values the validator rejects
        # (t=0 on figure2 and reactive, for example).
        for value in (*range(start, soft + 1), *range(start - 1, lo - 1, -1)):
            spec = axis.apply(base, value).replace(seed=seed)
            if self._valid(spec):
                return spec
        return None


class FreshProbeStream:
    """The ``fresh-probes`` generations for one shard."""

    def __init__(
        self, seed: int, shard: int, *, presets: tuple[str, ...] = FRESH_PRESETS
    ) -> None:
        self._rng = shard_rng("fresh-probes", seed, shard)
        self._sampler = StrataSampler(presets, self._rng, shard=shard)
        self._earlier: list = []

    @property
    def bases(self) -> dict:
        return self._sampler.bases

    def next_batch(self) -> list:
        rng = self._rng
        drawn = [
            (stratum[0], self._sampler.draw(stratum))
            for stratum in self._sampler.strata
        ]
        fresh = [spec for _name, spec in drawn if spec is not None]
        # Repeats are spread evenly over the presets: cache hits on the
        # banded presets read entries several times larger than the rest.
        pool = self._earlier or [pair for pair in drawn if pair[1] is not None]
        per_preset = REPEATS_PER_BATCH // len(self.bases)
        repeats = []
        for name in self.bases:
            specs = [spec for preset, spec in pool if preset == name]
            repeats.extend(rng.sample(specs, min(per_preset, len(specs))))
        duplicates = [rng.choice(fresh) for _ in range(DUPLICATES_PER_BATCH)]
        self._earlier.extend(pair for pair in drawn if pair[1] is not None)
        # Fresh probes keep stratum order, as an atlas generation lists
        # its searches' probes scenario by scenario; the others land at
        # seeded positions.
        batch = list(fresh)
        for spec in repeats + duplicates:
            batch.insert(rng.randrange(len(batch) + 1), spec)
        return batch


def megatorus_stream(
    seed: int, shard: int, *, sides: tuple[int, ...] = MEGATORUS_SIDES
) -> Iterator:
    """Distinct megatorus specs; the grid side changes every few runs."""
    from repro.network.grid import GridSpec
    from repro.scenario import preset

    rng = shard_rng("megatorus", seed, shard)
    base = preset("megatorus")
    side = None
    while True:
        # A new side every group, so each group starts with a grid build.
        side = rng.choice([s for s in sides if s != side])
        grid = GridSpec(width=side, height=side, r=base.grid.r, torus=True)
        for _ in range(MEGATORUS_RUNS_PER_SIDE):
            yield base.replace(
                grid=grid,
                source=(rng.randrange(side), rng.randrange(side)),
                m=rng.randint(1, 8),
                seed=_fresh_seed(rng),
            )


@dataclass(frozen=True)
class Request:
    """One planned ``POST /run`` request."""

    kind: str  # "hit", "fresh", "dup" or "bad"
    body: bytes
    spec: object = None  # the ScenarioSpec for 200 requests


def _bad_bodies(base) -> list[bytes]:
    """Bodies the front door must answer with a structured 400."""
    unknown_protocol = base.to_dict()
    unknown_protocol["protocol"] = base.protocol + "x"
    unknown_behavior = base.to_dict()
    unknown_behavior["behavior"] = "jamer"
    return [
        b'{"grid": {"width": 30, ',
        json.dumps(unknown_protocol, sort_keys=True).encode(),
        json.dumps(unknown_behavior, sort_keys=True).encode(),
    ]


def _body(spec) -> bytes:
    return spec.to_json(indent=None).encode()


class ServePlan:
    """The ``serve-mixed`` stream for one shard: hot set plus step pairs."""

    def __init__(self, seed: int, shard: int) -> None:
        self._rng = shard_rng("serve-mixed", seed, shard)
        self._sampler = StrataSampler(SERVE_PRESETS, self._rng, shard=shard)
        self.hot = [
            base.replace(seed=_fresh_seed(self._rng))
            for base in self._sampler.bases.values()
            for _ in range(HOT_SET_PER_PRESET)
        ]
        self._bad = _bad_bodies(self._sampler.bases[SERVE_PRESETS[0]])
        self._stratum = 0
        self._hot_cursor = 0

    def _fresh(self):
        strata = self._sampler.strata
        while True:
            stratum = strata[self._stratum % len(strata)]
            self._stratum += 1
            spec = self._sampler.draw(stratum)
            if spec is not None:
                return spec

    def _hot(self) -> Request:
        # Round-robin over the hot set: the two requests of one step never
        # share a key, so every hot request is an LRU hit.
        spec = self.hot[self._hot_cursor % len(self.hot)]
        self._hot_cursor += 1
        return Request("hit", _body(spec), spec)

    def steps(self) -> Iterator[tuple[Request, Request]]:
        rng = self._rng
        while True:
            cycle = list(SERVE_CYCLE)
            rng.shuffle(cycle)
            for left, right in cycle:
                if left == "dup":
                    spec = self._fresh()
                    request = Request("dup", _body(spec), spec)
                    yield request, request
                    continue
                pair = []
                for kind in (left, right):
                    if kind == "hit":
                        pair.append(self._hot())
                    elif kind == "fresh":
                        spec = self._fresh()
                        pair.append(Request("fresh", _body(spec), spec))
                    else:
                        pair.append(Request("bad", rng.choice(self._bad)))
                yield pair[0], pair[1]

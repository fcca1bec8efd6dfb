"""The declarative scenario object: one serializable value from grid to adversary.

Every result in the paper is an instance of one shape — a grid, a
bad-node placement, a budget assignment, a protocol, and an adversary
behavior, run to quiescence under a round cap. :class:`ScenarioSpec`
captures that shape as a single frozen, picklable dataclass:

- **composable** — grids, placements, protocols, and behaviors combine
  freely; protocols and behaviors are referenced by registry name (see
  :mod:`repro.scenario.registries`), so new components plug in without
  editing the runner;
- **serializable** — :meth:`to_dict`/:meth:`from_dict` round-trip
  through plain JSON, so a scenario can live in a file and run through
  ``python -m repro scenario run file.json`` with no Python edits;
- **stably hashable** — :meth:`content_hash` digests the canonical JSON
  form; :func:`repro.runner.parallel.point_key` uses the same form (via
  ``__canonical_json__``), so a spec plugs directly into
  :class:`~repro.runner.parallel.ResultCache` and
  :func:`~repro.runner.parallel.point_seed`.

Construction does not touch the registries, so specs can be built while
the package is still importing; names are resolved at run/serialize time.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.adversary.placement import Placement
from repro.analysis.bounds import validate_t
from repro.errors import ConfigurationError, SpecValidationError, require_int
from repro.network.grid import GridSpec
from repro.scenario.registries import placements
from repro.types import VTRUE, Coord, NodeId, Value


# -- placement (de)serialization -----------------------------------------------


def encode_placement(placement: Placement) -> dict[str, Any]:
    """Encode a placement as ``{"kind": name, **fields}`` (recursively)."""
    name = placements.name_of(type(placement))
    encoded: dict[str, Any] = {"kind": name}
    for f in dataclasses.fields(placement):
        encoded[f.name] = _encode_value(getattr(placement, f.name))
    return encoded


def _encode_value(value: Any) -> Any:
    if isinstance(value, Placement):
        return encode_placement(value)
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    return value


def decode_placement(payload: Mapping[str, Any]) -> Placement:
    """Inverse of :func:`encode_placement`; unknown kinds list the registry."""
    if not isinstance(payload, Mapping) or "kind" not in payload:
        raise ConfigurationError(
            f"placement must be an object with a 'kind' key, got {payload!r}"
        )
    cls = placements.get(payload["kind"])
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        if key == "kind":
            continue
        if key not in known:
            raise ConfigurationError(
                f"placement {payload['kind']!r} has no field {key!r}; "
                f"fields: {', '.join(sorted(known))}"
            )
        kwargs[key] = _decode_value(value)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"placement {payload['kind']!r} is incomplete: {exc}"
        ) from None


def _decode_value(value: Any) -> Any:
    if isinstance(value, Mapping) and "kind" in value:
        return decode_placement(value)
    if isinstance(value, list):
        return tuple(_decode_value(item) for item in value)
    return value


# -- the spec itself -----------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete broadcast scenario, from grid to adversary.

    Attributes:
        grid: network topology (:class:`~repro.network.grid.GridSpec`).
        t: locally-bounded adversary density (bad nodes per neighborhood).
        mf: per-bad-node message budget (the adversary's real budget).
        placement: which nodes are bad
            (:class:`~repro.adversary.placement.Placement`).
        protocol: registered protocol name (``"b"``, ``"koo"``,
            ``"heter"``, ``"cpa"``, ``"reactive"``, ...).
        behavior: registered adversary behavior name (``"jam"``,
            ``"lie"``, ``"spoof"``, ``"none"``, ``"coded"``,
            ``"figure2-defense"``, ...); ``None`` uses the protocol's
            default (``"jam"`` for threshold protocols, ``"coded"`` for
            B_reactive).
        m: homogeneous good-node budget; ``None`` uses the protocol's
            sufficient budget.
        mmax: loose upper bound on ``mf`` (reactive scenarios; sets the
            integrity-code length).
        source: source coordinate.
        vtrue: the value being broadcast.
        seed: master seed for every random stream the scenario draws.
        protected: receivers the adversary focuses on (node ids);
            ``None`` protects every good non-source node.
        max_rounds: run cap; ``None`` uses the protocol's generous default.
        batch_per_slot: transmissions a node may make per owned slot.
        validate_local_bound: re-check the placement against ``t``
            (disabled for deliberately unbounded placements, e.g.
            Bernoulli crash faults).
        protocol_params: extra protocol knobs by name (e.g. protocol B's
            ``relay_override``, B_reactive's ``quiet_limit``).
        behavior_params: extra behavior knobs by name (e.g. the coded
            jammer's ``p_forge``/``attack_nacks``, the Figure-2 defense's
            ``midside_quota``).

    Treat instances — including the param mappings — as immutable values:
    equality, pickling, and the content hash all assume the fields never
    change after construction.
    """

    grid: GridSpec
    t: int
    mf: int
    placement: Placement
    protocol: str = "b"
    behavior: str | None = None
    m: int | None = None
    mmax: int | None = None
    source: Coord = (0, 0)
    vtrue: Value = VTRUE
    seed: int = 0
    protected: tuple[NodeId, ...] | None = None
    max_rounds: int | None = None
    batch_per_slot: int = 1
    validate_local_bound: bool = True
    protocol_params: Mapping[str, Any] = field(default_factory=dict)
    behavior_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Normalize sequence-valued fields so that specs built from JSON
        # (lists) and from Python (tuples) compare, hash, and pickle alike.
        object.__setattr__(self, "source", tuple(self.source))
        if self.protected is not None:
            object.__setattr__(self, "protected", tuple(self.protected))
        object.__setattr__(self, "protocol_params", dict(self.protocol_params))
        object.__setattr__(self, "behavior_params", dict(self.behavior_params))
        # Fail at construction, not mid-run: every numeric field that a
        # runner, driver, or protocol builder would reject later is
        # validated here, so a sampled/deserialized spec is either usable
        # or loudly invalid (the fuzz sampler leans on this contract).
        for name in ("t", "mf", "seed", "batch_per_slot"):
            require_int(name, getattr(self, name))
        for name in ("m", "mmax", "max_rounds"):
            value = getattr(self, name)
            if value is not None:
                require_int(name, value)
        for coordinate in self.source:
            require_int("source", coordinate)
        validate_t(self.grid.r, self.t)
        if self.mf < 0:
            raise ConfigurationError(f"mf must be non-negative, got {self.mf}")
        if self.m is not None and self.m < 0:
            raise ConfigurationError(f"m must be non-negative, got {self.m}")
        if self.mmax is not None and self.mmax < 1:
            raise ConfigurationError(f"mmax must be >= 1, got {self.mmax}")
        if self.batch_per_slot < 1:
            raise ConfigurationError(
                f"batch_per_slot must be >= 1, got {self.batch_per_slot}"
            )
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )

    def __hash__(self) -> int:
        # The dataclass-generated hash would raise on the dict-valued
        # param fields; hash the canonical content instead, consistent
        # with __eq__ (equal specs serialize identically).
        return hash(self.content_hash())

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form; exact inverse of :meth:`from_dict`."""
        return {
            "grid": {
                "width": self.grid.width,
                "height": self.grid.height,
                "r": self.grid.r,
                "torus": self.grid.torus,
            },
            "t": self.t,
            "mf": self.mf,
            "placement": encode_placement(self.placement),
            "protocol": self.protocol,
            "behavior": self.behavior,
            "m": self.m,
            "mmax": self.mmax,
            "source": list(self.source),
            "vtrue": self.vtrue,
            "seed": self.seed,
            "protected": (
                None if self.protected is None else list(self.protected)
            ),
            "max_rounds": self.max_rounds,
            "batch_per_slot": self.batch_per_slot,
            "validate_local_bound": self.validate_local_bound,
            "protocol_params": dict(self.protocol_params),
            "behavior_params": dict(self.behavior_params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON).

        Unknown keys are rejected so a typo in a scenario file cannot
        silently fall back to a default.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"scenario must be a JSON object, got {type(payload).__name__}"
            )
        data = dict(payload)
        try:
            grid_payload = data.pop("grid")
            t = data.pop("t")
            mf = data.pop("mf")
            placement_data = data.pop("placement")
        except KeyError as exc:
            raise ConfigurationError(
                f"scenario is missing required key {exc.args[0]!r}"
            ) from None
        if not isinstance(grid_payload, Mapping):
            raise ConfigurationError(
                f"scenario 'grid' must be an object, got {grid_payload!r}"
            )
        grid_data = dict(grid_payload)
        spec_fields = {f.name for f in dataclasses.fields(cls)}
        optional = {}
        for key in list(data):
            if key not in spec_fields:
                close = difflib.get_close_matches(key, sorted(spec_fields), n=3)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                raise SpecValidationError(
                    f"unknown scenario key {key!r}{hint}; expected keys: "
                    f"{', '.join(sorted(spec_fields))}",
                    field=key,
                    suggestions=tuple(close),
                )
            optional[key] = data.pop(key)
        if "source" in optional and optional["source"] is not None:
            try:
                optional["source"] = tuple(optional["source"])
            except TypeError:
                raise ConfigurationError(
                    f"scenario 'source' must be an [x, y] pair, got "
                    f"{optional['source']!r}"
                ) from None
            if len(optional["source"]) != 2:
                raise ConfigurationError(
                    f"scenario 'source' must be an [x, y] pair, got "
                    f"{list(optional['source'])!r}"
                )
        if "protected" in optional and optional["protected"] is not None:
            try:
                optional["protected"] = tuple(optional["protected"])
            except TypeError:
                raise ConfigurationError(
                    f"scenario 'protected' must be a list of node ids, got "
                    f"{optional['protected']!r}"
                ) from None
        for key in ("protocol_params", "behavior_params"):
            if key in optional and not isinstance(optional[key], Mapping):
                raise ConfigurationError(
                    f"scenario {key!r} must be an object, got {optional[key]!r}"
                )
        try:
            grid = GridSpec(**grid_data)
        except TypeError as exc:
            raise ConfigurationError(f"bad scenario grid: {exc}") from None
        return cls(
            grid=grid,
            t=t,
            mf=mf,
            placement=decode_placement(placement_data),
            **optional,
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- identity --------------------------------------------------------------

    def __canonical_json__(self) -> dict[str, Any]:
        """Canonical form used by :func:`repro.runner.parallel.canonical_point`.

        Returning :meth:`to_dict` makes ``point_key(spec)`` equal
        :meth:`content_hash`, so the result cache and ``point_seed`` key
        on the spec's *content*, independent of process, field order, or
        how the spec was constructed.
        """
        return self.to_dict()

    def content_hash(self) -> str:
        """Stable SHA-256 hex digest of the scenario's canonical JSON form."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """A copy with ``changes`` applied (``dataclasses.replace`` sugar)."""
        return dataclasses.replace(self, **changes)

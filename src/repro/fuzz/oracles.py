"""Protocol-independent run oracles, as a pluggable ``Invariant`` registry.

Each :class:`Invariant` is a named predicate over a finished run: it sees
an :class:`OracleContext` (the spec, the live
:class:`~repro.runner.report.BroadcastReport`, and — when the run used
the warm fast path — the :class:`~repro.radio.medium.Medium`) and returns
``None`` when satisfied or a human-readable violation message. The fuzz
runner checks every *applicable* invariant on every case, on both the
fast-path and the reference-path reports.

Invariants register themselves into :data:`invariants` (the same
:class:`~repro.scenario.registries.Registry` machinery protocols and
behaviors use), so a new protocol family can ship its own oracles without
touching this module::

    from repro.fuzz.oracles import OracleContext, invariant

    @invariant("my-protocol-rule", applies=lambda spec: spec.protocol == "mine")
    def _check(ctx: OracleContext) -> str | None:
        ...

The bundled set covers the paper's safety claims (validity and agreement
under the locally-bounded, message-bounded adversary — Lemma 1 makes the
acceptance threshold ``t*mf + 1`` unreachable by wrong values for the
threshold protocols), the run-limit contract (nothing decides after the
round cap), conservation between the driver's statistics and the budget
ledger, delivery geometry, and the immutability contract on memoized
:class:`~repro.radio.medium.DeliveryBatch` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.radio.medium import DeliveryBatch, Medium
from repro.scenario.registries import Registry
from repro.scenario.spec import ScenarioSpec

#: Protocols whose acceptance rule is the ``t*mf + 1`` copy threshold.
#: For them Lemma 1 gives unconditional safety: a receiver hears at most
#: ``t * mf`` wrong copies (``t`` bad nodes per neighborhood, ``mf``
#: messages each), so wrong decisions are impossible whatever the
#: adversary does — the strongest protocol-independent oracle we have.
THRESHOLD_PROTOCOLS = frozenset({"b", "koo", "heter"})


@dataclass(frozen=True)
class OracleContext:
    """Everything an invariant may inspect about one finished run.

    Attributes:
        spec: the scenario that ran.
        report: the live :class:`~repro.runner.report.BroadcastReport`.
        medium: the run's :class:`~repro.radio.medium.Medium` when the
            caller has it (fast-path runs via the warm world); ``None``
            otherwise — medium-dependent invariants skip silently.
        mode: ``"fast"`` or ``"reference"`` (labels failure messages).
    """

    spec: ScenarioSpec
    report: Any
    medium: Medium | None = None
    mode: str = "fast"


@dataclass(frozen=True)
class Invariant:
    """One named run oracle."""

    name: str
    check: Callable[[OracleContext], str | None]
    applies: Callable[[ScenarioSpec], bool]
    description: str = ""


invariants: Registry[Invariant] = Registry("invariant")


def invariant(
    name: str,
    *,
    applies: Callable[[ScenarioSpec], bool] = lambda spec: True,
    description: str = "",
) -> Callable[[Callable[[OracleContext], str | None]], Callable]:
    """Decorator registering a check function as a named invariant."""

    def decorate(check: Callable[[OracleContext], str | None]) -> Callable:
        invariants.register(
            name,
            Invariant(
                name=name, check=check, applies=applies, description=description
            ),
        )
        return check

    return decorate


def check_invariants(ctx: OracleContext) -> list[str]:
    """Run every applicable invariant; collect violations as messages."""
    failures: list[str] = []
    for name in invariants.names():
        inv = invariants.get(name)
        if not inv.applies(ctx.spec):
            continue
        message = inv.check(ctx)
        if message is not None:
            failures.append(f"[{ctx.mode}] {name}: {message}")
    return failures


# -- bundled invariants --------------------------------------------------------


def _threshold_safe(spec: ScenarioSpec) -> bool:
    """Lemma 1 applies: threshold acceptance + locally-bounded bad set."""
    return spec.protocol in THRESHOLD_PROTOCOLS and spec.validate_local_bound


def _decided_good(report: Any) -> list[tuple[int, Any]]:
    """(node id, node) for every decided good non-source node."""
    table = report.table
    return [
        (nid, report.nodes[nid])
        for nid in table.good_ids
        if nid != table.source and report.nodes[nid].decided
    ]


@invariant(
    "validity",
    applies=_threshold_safe,
    description="no good node ever decides a value other than vtrue "
    "(Lemma 1: wrong copies cannot reach t*mf + 1)",
)
def _check_validity(ctx: OracleContext) -> str | None:
    wrong = [
        (nid, node.accepted_value)
        for nid, node in _decided_good(ctx.report)
        if node.accepted_value != ctx.spec.vtrue
    ]
    if wrong:
        return f"good nodes decided wrong values: {wrong[:5]}"
    return None


@invariant(
    "agreement",
    applies=_threshold_safe,
    description="all decided good nodes agree on one value",
)
def _check_agreement(ctx: OracleContext) -> str | None:
    values = {node.accepted_value for _, node in _decided_good(ctx.report)}
    if len(values) > 1:
        return f"decided good nodes disagree: {sorted(map(repr, values))}"
    return None


@invariant(
    "round-cap",
    description="the run respects max_rounds and no node decides after "
    "the final round",
)
def _check_round_cap(ctx: OracleContext) -> str | None:
    stats = ctx.report.stats
    cap = ctx.spec.max_rounds
    if cap is not None and stats.rounds > cap:
        return f"ran {stats.rounds} rounds past the cap {cap}"
    for nid, node in _decided_good(ctx.report):
        decide_round = node.decide_round
        if decide_round is None:
            return f"node {nid} decided without a decide_round"
        if not 0 <= decide_round <= stats.rounds:
            return (
                f"node {nid} decided at round {decide_round} outside the "
                f"run's {stats.rounds} rounds"
            )
    return None


@invariant(
    "budget-conservation",
    description="driver statistics and the budget ledger agree, and no "
    "node exceeds its budget",
)
def _check_budget_conservation(ctx: OracleContext) -> str | None:
    report = ctx.report
    ledger = report.ledger
    table = report.table
    honest_sent = sum(ledger.sent(nid) for nid in table.good_ids)
    bad_sent = sum(ledger.sent(nid) for nid in table.bad_ids)
    if report.stats.honest_transmissions != honest_sent:
        return (
            f"stats count {report.stats.honest_transmissions} honest "
            f"transmissions but the ledger charged {honest_sent}"
        )
    if report.stats.byzantine_transmissions != bad_sent:
        return (
            f"stats count {report.stats.byzantine_transmissions} byzantine "
            f"transmissions but the ledger charged {bad_sent}"
        )
    if report.costs.bad_total != bad_sent:
        return f"costs.bad_total {report.costs.bad_total} != ledger {bad_sent}"
    for nid in range(ledger.n):
        budget = ledger.budget_of(nid)
        if budget is not None and ledger.sent(nid) > budget:
            return f"node {nid} sent {ledger.sent(nid)} with budget {budget}"
    for bad in table.bad_ids:
        budget = ledger.budget_of(bad)
        if budget is None or budget > ctx.spec.mf:
            return f"bad node {bad} holds budget {budget!r} above mf={ctx.spec.mf}"
    return None


@invariant(
    "delivery-geometry",
    description="deliveries are bounded by transmissions x neighborhood "
    "size; corrupted deliveries by total deliveries",
)
def _check_delivery_geometry(ctx: OracleContext) -> str | None:
    stats = ctx.report.stats
    neighborhood = ctx.report.grid.spec.neighborhood_size
    total_tx = stats.honest_transmissions + stats.byzantine_transmissions
    if stats.deliveries > total_tx * neighborhood:
        return (
            f"{stats.deliveries} deliveries from {total_tx} transmissions "
            f"with neighborhoods of {neighborhood}"
        )
    if stats.corrupted_deliveries > stats.deliveries:
        return (
            f"{stats.corrupted_deliveries} corrupted of "
            f"{stats.deliveries} total deliveries"
        )
    return None


@invariant(
    "decision-consistency",
    description="decided/accepted_value/decide_round move together",
)
def _check_decision_consistency(ctx: OracleContext) -> str | None:
    table = ctx.report.table
    for nid in table.good_ids:
        node = ctx.report.nodes[nid]
        if node.decided and node.accepted_value is None:
            return f"node {nid} decided with no accepted value"
        if not node.decided and node.decide_round is not None:
            return f"undecided node {nid} carries decide_round {node.decide_round}"
    return None


@invariant(
    "delivery-batch-immutable",
    description="memoized DeliveryBatch objects still satisfy their own "
    "corrupted_count and stay strictly increasing by receiver (a consumer "
    "mutating resolver output corrupts the memo)",
)
def _check_batch_immutability(ctx: OracleContext) -> str | None:
    medium = ctx.medium
    if medium is None:
        return None
    batches: list[DeliveryBatch] = list(medium._slot_memo.values())
    for cached_round in medium._round_memo.values():
        for slot_batches in cached_round:
            batches.extend(slot_batches)
    for batch in batches:
        if not isinstance(batch, DeliveryBatch):
            return f"memo holds a non-DeliveryBatch {type(batch).__name__}"
        recount = sum(1 for d in batch if d.corrupted)
        if recount != batch.corrupted_count:
            return (
                f"a memoized batch claims corrupted_count="
                f"{batch.corrupted_count} but holds {recount} corrupted "
                "deliveries — resolver output was mutated"
            )
        # The row merge sorts concatenated per-sender rows and relies on
        # one delivery per receiver, in ascending receiver order.
        for prev, nxt in zip(batch, batch[1:]):
            if prev.receiver >= nxt.receiver:
                return (
                    f"a memoized batch is not strictly increasing by "
                    f"receiver ({prev.receiver} then {nxt.receiver})"
                )
    return None

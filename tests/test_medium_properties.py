"""Property-based tests of the radio medium's collision semantics.

Hypothesis generates random sets of non-interfering honest transmitters
plus arbitrary Byzantine transmissions; the medium must always satisfy
the paper's model invariants regardless of configuration. The world and
traffic generators are the shared ones in ``tests/strategies.py``.
"""

from hypothesis import given, settings, strategies as st

import repro.radio.medium as medium_mod
from repro.radio.medium import Medium
from repro.radio.messages import BadTransmission
from strategies import (
    MEDIUM,
    MEDIUM_GRID as GRID,
    MEDIUM_SCHEDULE as SCHEDULE,
    honest_for_slot,
    medium_bad_nodes as bad_nodes,
    slot_classes as slot_class,
)


@settings(max_examples=60, deadline=None)
@given(slot_class, st.integers(0, 5), bad_nodes, st.booleans())
def test_medium_invariants(slot, honest_count, bad, silence):
    honest = honest_for_slot(slot, honest_count)
    honest_senders = {tx.sender for tx in honest}
    byzantine = [
        BadTransmission(nid, 0, silence_at_collision=silence)
        for nid in bad
        if nid not in honest_senders
    ]
    deliveries = MEDIUM.resolve_slot(honest, byzantine)

    bad_senders = {tx.sender for tx in byzantine}
    for delivery in deliveries:
        # 1. No transmitter ever hears anything in its own slot.
        assert delivery.receiver not in honest_senders | bad_senders

        # 2. Every delivery's receiver is within radio range of a
        #    transmitter with the delivered value.
        if not delivery.corrupted:
            assert GRID.distance(delivery.sender, delivery.receiver) <= GRID.r

        # 3. Corruption only happens where an honest and a Byzantine
        #    transmission overlap (or two Byzantine ones).
        if delivery.corrupted:
            in_range_txs = [
                tx
                for tx in (*honest, *byzantine)
                if GRID.distance(tx.sender, delivery.receiver) <= GRID.r
            ]
            assert len(in_range_txs) >= 2
            assert any(isinstance(tx, BadTransmission) for tx in in_range_txs)

    # 4. A receiver in range of exactly one transmitter always hears it
    #    (no spurious loss), with the true value and sender.
    by_receiver = {}
    for delivery in deliveries:
        by_receiver.setdefault(delivery.receiver, []).append(delivery)
    for tx in honest:
        for receiver in GRID.neighbors(tx.sender):
            in_range = [
                other
                for other in (*honest, *byzantine)
                if GRID.distance(other.sender, receiver) <= GRID.r
            ]
            if len(in_range) == 1:
                got = by_receiver.get(receiver, [])
                assert len(got) == 1
                assert got[0].value == tx.value and got[0].sender == tx.sender

    # 5. Each receiver gets at most one delivery per slot.
    for receiver, got in by_receiver.items():
        assert len(got) == 1


@settings(max_examples=30, deadline=None)
@given(slot_class, st.integers(1, 5))
def test_honest_only_slots_deliver_everything(slot, honest_count):
    honest = honest_for_slot(slot, honest_count)
    deliveries = MEDIUM.resolve_slot(honest, [])
    expected = sum(len(GRID.neighbors(tx.sender)) for tx in honest)
    assert len(deliveries) == expected
    assert not any(d.corrupted for d in deliveries)
    assert deliveries == MEDIUM.resolve_slot_reference(honest, [])


def test_row_cache_clear_keeps_batches_identical(monkeypatch):
    # A bound of four rows forces wholesale clears in the middle of a
    # three-sender merge; every batch must still match the reference,
    # and so must the batches rebuilt from fresh rows once the slot memo
    # is gone.
    monkeypatch.setattr(medium_mod, "_ROW_CACHE_LIMIT", 4)
    medium = Medium(GRID)
    slots = [honest_for_slot(slot, 3) for slot in range(SCHEDULE.period)]
    first = []
    for honest in slots:
        batch = medium.resolve_slot(honest, [])
        assert len(medium._rows) <= 4
        assert batch == medium.resolve_slot_reference(honest, [])
        first.append(batch)
    medium._slot_memo.clear()
    for honest, batch in zip(slots, first):
        assert medium.resolve_slot(honest, []) == batch

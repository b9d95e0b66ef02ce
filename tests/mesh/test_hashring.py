"""Properties of the consistent-hash ring.

The mesh's correctness leans on two ring properties: placement is a pure
function of (member names, vnodes) — two rings built from the same shard
map agree — and between two rings whose member lists differ by one, only
the keys whose arc that member covers move.  Both are asserted as
properties over a key population, not as golden owner assignments.  A ring
is immutable: the "after" ring of each movement test is built from its own
member list.
"""

import pytest

from repro.mesh.hashring import HashRing, _ring_hash

KEYS = [f"topic-{i}" for i in range(200)] + [""]  # incl. the topicless key


class TestPlacement:
    def test_deterministic_across_insertion_order(self):
        a = HashRing(["n0", "n1", "n2"])
        b = HashRing(["n2", "n0", "n1"])
        assert [a.owner(k) for k in KEYS] == [b.owner(k) for k in KEYS]

    def test_deterministic_across_instances(self):
        owners = [HashRing(["a", "b", "c"]).owner(k) for k in KEYS]
        assert owners == [HashRing(["a", "b", "c"]).owner(k) for k in KEYS]

    def test_every_member_owns_some_keys(self):
        ring = HashRing([f"n{i}" for i in range(4)])
        assert {ring.owner(k) for k in KEYS} == set(ring.members())

    def test_wraps_past_the_highest_point(self):
        ring = HashRing(["a", "b"], vnodes=1)
        highest = max(ring._points)
        key = next(
            k for k in (f"wrap-{i}" for i in range(10_000))
            if _ring_hash(k) > highest
        )
        # circular: the key past the last point belongs to the first point
        assert ring.owner(key) == ring._owners[0]


class TestMovement:
    def test_join_moves_keys_only_to_the_joiner(self):
        before = HashRing(["n0", "n1", "n2"])
        after = HashRing(["n0", "n1", "n2", "n3"])
        moved = before.moved_keys(after, KEYS)
        assert moved  # with 201 keys and 64 vnodes something must move
        assert all(new == "n3" for _, new in moved.values())

    def test_leave_moves_exactly_the_leavers_keys(self):
        before = HashRing(["n0", "n1", "n2", "n3"])
        after = HashRing(["n0", "n1", "n2"])
        moved = before.moved_keys(after, KEYS)
        assert sorted(moved) == sorted(k for k in KEYS if before.owner(k) == "n3")
        assert all(old == "n3" and new != "n3" for old, new in moved.values())

    def test_movement_is_bounded(self):
        # consistent hashing moves ~1/n of the key space; hash % n would
        # reshuffle ~all of it — assert we are on the right side of that
        before = HashRing([f"n{i}" for i in range(4)])
        after = HashRing([f"n{i}" for i in range(5)])
        moved = before.moved_keys(after, KEYS)
        assert 0 < len(moved) < len(KEYS) / 2

    def test_unmoved_keys_keep_their_owner(self):
        before = HashRing(["n0", "n1"])
        after = HashRing(["n0", "n1", "n2"])
        moved = before.moved_keys(after, KEYS)
        for key in KEYS:
            if key not in moved:
                assert before.owner(key) == after.owner(key)


class TestEdges:
    def test_empty_ring_has_no_owner(self):
        with pytest.raises(LookupError):
            HashRing().owner("k")

    def test_vnodes_must_be_positive(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)

    def test_empty_member_name_rejected(self):
        with pytest.raises(ValueError):
            HashRing(["ok", ""])

    def test_a_duplicate_member_is_placed_once(self):
        ring = HashRing(["a", "a"])
        assert len(ring._points) == ring.vnodes
        assert len(ring) == 1

    def test_a_ring_has_no_add_or_remove(self):
        # membership changes by minting a new shard-map version, never in place
        ring = HashRing(["a"])
        assert not hasattr(ring, "add") and not hasattr(ring, "remove")

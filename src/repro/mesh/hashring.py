"""Consistent hashing: which shard owns a topic.

The mesh partitions the topic space by the *root* of each concrete topic
path (``jobs/status`` → ``jobs``): a root is the coarsest unit a
subscription's topic expression can be pinned to without evaluating
wildcards, so routing at root granularity keeps every expression mappable
to a small, static set of owning shards (see :mod:`repro.mesh.shardmap`).

The ring is classic consistent hashing with virtual nodes: every member is
hashed onto the ring at ``vnodes`` points, and a key is owned by the first
member point at or clockwise-after the key's own hash.  Hashing uses
SHA-256 (stable across processes and Python versions — ``hash()`` is
salted), so ring placement is a pure function of (member names, vnodes),
which the rebalancing tests and the shard-map versioning both rely on.

A ring is an immutable value, built once from its member list: membership
changes only by minting a new shard-map version, whose ring is a new
value.  The property that makes the structure worth its complexity holds
*between* two such rings: the member set of the second differing by one
moves only the keys whose owning arc that member's points cover — on
average ``1/n`` of the key space — instead of re-mapping everything the
way ``hash(key) % n`` would.  Lookups are memoised per ring in a bounded
table (cleared when full), so routing the same roots again is a dict probe.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

#: ring positions per member; more points → smoother key distribution
DEFAULT_VNODES = 64

#: most distinct keys one ring remembers the owner of; the memo is cleared
#: when full, so unbounded distinct topic roots cost re-hashing, never memory
OWNER_MEMO_CAP = 4096


def _ring_hash(text: str) -> int:
    """A stable 64-bit ring position for ``text``."""
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Immutable consistent-hash ring over member names with virtual nodes."""

    def __init__(self, members: Iterable[str] = (), *, vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        names = frozenset(members)
        if "" in names:
            raise ValueError("empty member name")
        self.vnodes = vnodes
        self._members = names
        #: every virtual-node position, hashed and sorted in one pass
        points = sorted(
            (_ring_hash(f"{member}#{replica}"), member)
            for member in names
            for replica in range(vnodes)
        )
        self._points = [position for position, _ in points]
        self._owners = [owner for _, owner in points]
        #: key -> owner, bounded by OWNER_MEMO_CAP
        self._memo: dict[str, str] = {}

    def members(self) -> list[str]:
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    # --- lookup -------------------------------------------------------------

    def owner(self, key: str) -> str:
        """The member owning ``key`` (first point clockwise from its hash)."""
        memo = self._memo
        owner = memo.get(key)
        if owner is not None:
            return owner
        if not self._points:
            raise LookupError("hash ring has no members")
        index = bisect.bisect_right(self._points, _ring_hash(key))
        if index == len(self._points):
            index = 0  # wrap: the ring is circular
        owner = self._owners[index]
        if len(memo) >= OWNER_MEMO_CAP:
            memo.clear()
        memo[key] = owner
        return owner

    def moved_keys(self, other: "HashRing", keys: Iterable[str]) -> dict[str, tuple[str, str]]:
        """Keys whose owner differs between this ring and ``other``, as
        ``{key: (owner_here, owner_there)}`` — the rebalancer's work list."""
        moved: dict[str, tuple[str, str]] = {}
        for key in keys:
            before, after = self.owner(key), other.owner(key)
            if before != after:
                moved[key] = (before, after)
        return moved

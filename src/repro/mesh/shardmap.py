"""The versioned shard map: who owns which slice of the topic space.

A :class:`ShardMap` is an immutable snapshot — a member list, a vnode
count, and a monotonically increasing version — that builds its one
:class:`~repro.mesh.hashring.HashRing` on first use and hands that same
ring to every caller: the cluster, each node holding the version, and the
registry.  The :class:`ShardMapRegistry` is the authority the mesh members
fetch from: ``join``/``leave`` mint a new version (membership never
changes in place), and the registry reports the *moved-key set* between
any two versions so the cutover can be limited to the topics whose owner
actually changed.

Routing keys
------------

Publishes route by the **root** of their concrete topic path; the topicless
WSE-style publish routes by the reserved :data:`TOPICLESS_KEY`.  A
subscription's filter maps to routing keys through
:func:`routing_keys_of_expression`:

- every ``|``-branch with a literal first segment contributes that root;
- a branch starting ``*`` or ``//`` could match any root — the expression
  then needs traffic from **all** shards (``None``, "broadcast");
- a filter with no topic constraint at all (pure content filter, or WSE's
  topic-free Subscribe) likewise needs all shards.

That asymmetry is deliberate: publishes always map to exactly one owner
(each message is processed by one shard — the at-most-once half of the
mesh's conservation story), while subscriptions may fan *in* from many.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from repro.filters.topics import expression_roots
from repro.mesh.hashring import DEFAULT_VNODES, HashRing

#: routing key for publishes that carry no topic (legal in WSE and WSN 1.3)
TOPICLESS_KEY = ""


def routing_key_of_topic(topic: Optional[str]) -> str:
    """The ring key a publish on ``topic`` routes by (its root segment)."""
    if topic is None:
        return TOPICLESS_KEY
    head = topic.strip().lstrip("/").split("/", 1)[0]
    return head or TOPICLESS_KEY


#: the ring keys a subscription's topic expression pins to, or ``None`` for
#: all (broadcast): its roots, as every subscription manager's topic index
#: counts them (``TopicSubscriptionIndex.root_refs``)
routing_keys_of_expression = expression_roots


@dataclass(frozen=True)
class ShardMap:
    """One immutable shard-map version."""

    version: int
    members: tuple[str, ...]
    vnodes: int = DEFAULT_VNODES

    @cached_property
    def ring(self) -> HashRing:
        """This version's one ring, built on first use."""
        return HashRing(self.members, vnodes=self.vnodes)

    def owner(self, key: str) -> str:
        return self.ring.owner(key)


class ShardMapRegistry:
    """The mesh's membership authority; members fetch, never cache forever.

    The registry keeps every historical version (the mesh is small; the
    history *is* the audit trail), so ``moved_keys`` can diff any two
    versions a slow member might straddle.
    """

    def __init__(self, members: Iterable[str] = (), *, vnodes: int = DEFAULT_VNODES) -> None:
        self.vnodes = vnodes
        self._versions: list[ShardMap] = [
            ShardMap(1, tuple(dict.fromkeys(members)), vnodes)
        ]

    # --- fetch --------------------------------------------------------------

    @property
    def current(self) -> ShardMap:
        return self._versions[-1]

    def fetch(self) -> ShardMap:
        """What a member polling the registry receives."""
        return self.current

    def version_at(self, version: int) -> ShardMap:
        for snapshot in self._versions:
            if snapshot.version == version:
                return snapshot
        raise KeyError(f"no shard map version {version}")

    # --- membership changes --------------------------------------------------

    def join(self, member: str) -> ShardMap:
        current = self.current
        if member in current.members:
            raise ValueError(f"member {member!r} already in the shard map")
        return self._publish(current.members + (member,))

    def leave(self, member: str) -> ShardMap:
        current = self.current
        if member not in current.members:
            raise ValueError(f"member {member!r} not in the shard map")
        return self._publish(tuple(m for m in current.members if m != member))

    def _publish(self, members: tuple[str, ...]) -> ShardMap:
        snapshot = ShardMap(self.current.version + 1, members, self.vnodes)
        self._versions.append(snapshot)
        return snapshot

    # --- rebalancing support --------------------------------------------------

    def moved_keys(
        self, keys: Iterable[str], *, since: Optional[int] = None
    ) -> dict[str, tuple[str, str]]:
        """Keys whose owner changed between version ``since`` (default: the
        previous version) and the current one."""
        if len(self._versions) < 2 and since is None:
            return {}
        before = (
            self.version_at(since) if since is not None else self._versions[-2]
        )
        return before.ring.moved_keys(self.current.ring, keys)

"""Amortized expiry: the earliest-expiry heaps must agree with the full scans."""

import pytest

from repro.subscriptions import DeliveryMode, Grant, SubscriptionError, SubscriptionManager
from repro.transport import SimulatedNetwork
from repro.transport.clock import VirtualClock
from repro.util.xstime import format_datetime
from repro.wsrf.lifetime import set_termination_time
from repro.wsrf.resource import ResourceRegistry


class TestRegistrySweepDue:
    def test_sweep_due_expires_exactly_the_overdue(self):
        clock = VirtualClock()
        registry = ResourceRegistry(clock)
        early = registry.create(lifetime=10.0)
        late = registry.create(lifetime=100.0)
        forever = registry.create()
        clock.advance(50.0)
        expired = registry.sweep_due()
        assert [r.key for r in expired] == [early.key]
        assert registry.find(late.key) is late
        assert registry.find(forever.key) is forever

    def test_sweep_due_fires_termination_listeners(self):
        clock = VirtualClock()
        seen = []

        class Recording(ResourceRegistry):
            def _terminate(self, resource, reason, detail=""):
                super()._terminate(resource, reason, detail)
                seen.append(reason)

        registry = Recording(clock)
        registry.create(lifetime=5.0)
        clock.advance(10.0)
        registry.sweep_due()
        registry.sweep_due()
        assert seen == ["expired"]

    def test_destroyed_resource_leaves_only_a_stale_heap_entry(self):
        clock = VirtualClock()
        registry = ResourceRegistry(clock)
        resource = registry.create(lifetime=5.0)
        registry.destroy(resource.key)
        clock.advance(10.0)
        assert registry.sweep_due() == []

    def test_extension_makes_the_old_entry_stale(self):
        clock = VirtualClock()
        registry = ResourceRegistry(clock)
        resource = registry.create(lifetime=5.0)
        set_termination_time(registry, resource, clock.now() + 100.0)
        clock.advance(10.0)  # past the original expiry, not the new one
        assert registry.sweep_due() == []
        assert registry.find(resource.key) is resource
        clock.advance(100.0)
        assert registry.sweep_due() == [resource]

    def test_set_termination_time_to_infinite_never_expires(self):
        clock = VirtualClock()
        registry = ResourceRegistry(clock)
        resource = registry.create(lifetime=5.0)
        set_termination_time(registry, resource, None)
        clock.advance(1000.0)
        assert registry.sweep_due() == []
        assert resource.alive(clock.now())

    def test_sweep_due_agrees_with_full_sweep(self):
        # same population, two registries, two sweep strategies: same deaths
        clock_a, clock_b = VirtualClock(), VirtualClock()
        scan = ResourceRegistry(clock_a)
        heap = ResourceRegistry(clock_b)
        lifetimes = [3.0, 7.0, 7.0, 20.0, None, 1.0]
        for lifetime in lifetimes:
            scan.create(lifetime=lifetime)
            heap.create(lifetime=lifetime)
        for step in (2.0, 3.0, 10.0, 50.0):
            clock_a.advance(step)
            clock_b.advance(step)
            want = sorted(r.key for r in scan.sweep())
            got = sorted(r.key for r in heap.sweep_due())
            assert got == want
            assert len(scan) == len(heap)


class TestStoreSweepDue:
    """The same heap, seen through the subscription manager every family's
    subscriptions live in (it *is* the registry above, specialised)."""

    def _store(self):
        clock = VirtualClock()
        manager = SubscriptionManager(
            SimulatedNetwork(clock),
            family="wse",
            key_prefix="wse-sub",
            default_lifetime=None,
            announce=lambda subscription, reason, detail: None,
        )
        return clock, manager

    def _create(self, store, expires, sub_id=None):
        return store.subscribe(
            Grant(None, {}, mode=DeliveryMode.PULL, sub_id=sub_id),
            None if expires is None else format_datetime(expires),
        )

    def test_sweep_due_matches_sweep_expired(self):
        clock, store = self._store()
        self._create(store, 5.0)
        keeper = self._create(store, 100.0)
        self._create(store, None)
        clock.advance(10.0)
        expired = store.sweep_due()
        assert [s.termination_time for s in expired] == [5.0]
        assert store.lookup(keeper.key) is keeper
        assert store.sweep() == []  # nothing left overdue for the full scan

    def test_renew_through_update_expiry_staleness(self):
        clock, store = self._store()
        subscription = self._create(store, 5.0)
        store.renew(subscription, "PT100S")
        clock.advance(10.0)
        assert store.sweep_due() == []
        assert store.lookup(subscription.key) is subscription

    def test_removed_subscription_is_not_resurrected(self):
        clock, store = self._store()
        subscription = self._create(store, 5.0)
        store.destroy(subscription.key, "unsubscribed")
        clock.advance(10.0)
        assert store.sweep_due() == []

    def test_hooks_fire_on_create_and_every_removal_path(self):
        clock, store = self._store()
        events = []
        store.listeners.append(
            lambda event, s, detail: events.append((event, s.key, detail.get("reason")))
        )
        a = self._create(store, 5.0)
        b = self._create(store, 6.0)
        c = self._create(store, None)
        d = self._create(store, 7.0)
        store.destroy(a.key, "unsubscribed")
        clock.advance(10.0)
        with pytest.raises(SubscriptionError):
            store.lookup(d.key)  # lazy expiry of the one looked up
        store.sweep_due()
        store.forget(c.key)
        assert events == [
            ("created", a.key, None),
            ("created", b.key, None),
            ("created", c.key, None),
            ("created", d.key, None),
            ("removed", a.key, "unsubscribed"),
            ("removed", d.key, "expired"),
            ("removed", b.key, "expired"),
            ("removed", c.key, "unsubscribed"),
        ]
        assert store.index.candidates(None, None) == []  # the index followed

    def test_has_subscriptions(self):
        clock, store = self._store()
        assert not store.records
        subscription = self._create(store, 5.0)
        clock.advance(10.0)
        assert store.records and len(store) == 0  # overdue, not yet swept
        store.destroy(subscription.key, "unsubscribed")
        assert not store.records

    def test_forced_id_advances_the_serial(self):
        clock, store = self._store()
        assert self._create(store, None, "wse-sub-7").key == "wse-sub-7"
        assert self._create(store, None).key == "wse-sub-8"  # the serial moved past it
        assert self._create(store, None, "replayed").key == "replayed"  # outside its shape
        assert self._create(store, None).key == "wse-sub-9"

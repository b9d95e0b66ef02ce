"""Unit tests for the lease table under WS-Eventing (the shared
:class:`repro.subscriptions.SubscriptionManager`) and the delivery modes."""

import pytest

from repro.subscriptions import Grant, SubscriptionError, SubscriptionManager
from repro.transport import SimulatedNetwork, VirtualClock
from repro.util.xstime import format_datetime
from repro.wsa import EndpointReference
from repro.wse.model import DeliveryMode
from repro.wse.versions import WseVersion
from repro.wsrf import ResourceUnknownFault


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def store(clock):
    return SubscriptionManager(
        SimulatedNetwork(clock),
        family="wse",
        key_prefix="wse-sub",
        default_lifetime=None,
        announce=lambda subscription, reason, detail: None,
    )


def make(store, expires=None):
    return store.subscribe(
        Grant(EndpointReference("http://sink"), {}),
        None if expires is None else format_datetime(expires),
    )


class TestDeliveryModeUris:
    def test_uri_shape(self):
        uri = DeliveryMode.PULL.uri(WseVersion.V2004_08)
        assert uri.endswith("/DeliveryModes/Pull")
        assert WseVersion.V2004_08.namespace in uri

    def test_from_uri_roundtrip(self):
        for mode in DeliveryMode:
            for version in WseVersion:
                assert DeliveryMode.from_uri(mode.uri(version), version) is mode

    def test_from_uri_rejects_cross_version(self):
        pull_01 = DeliveryMode.PULL.uri(WseVersion.V2004_01)
        with pytest.raises(ValueError):
            DeliveryMode.from_uri(pull_01, WseVersion.V2004_08)


class TestStore:
    def test_ids_unique_and_prefixed(self, store):
        first, second = make(store), make(store)
        assert first.key != second.key
        assert first.key.startswith("wse-sub-")

    def test_get_live(self, store):
        subscription = make(store)
        assert store.lookup(subscription.key) is subscription

    def test_get_unknown_none(self, store):
        with pytest.raises(SubscriptionError) as excinfo:
            store.lookup("nope")
        assert excinfo.value.kind == "unknown_subscription"

    def test_get_expired_none(self, store, clock):
        subscription = make(store, expires=10.0)
        assert subscription.termination_time == 10.0
        clock.advance(11.0)
        with pytest.raises(SubscriptionError):
            store.lookup(subscription.key)
        assert store.find(subscription.key) is None  # the lookup expired it

    def test_remove(self, store):
        subscription = make(store)
        store.destroy(subscription.key, "unsubscribed")
        assert subscription.destroyed and store.find(subscription.key) is None
        with pytest.raises(ResourceUnknownFault):
            store.destroy(subscription.key, "unsubscribed")
        store.forget(subscription.key)  # silent when already gone

    def test_live_excludes_expired(self, store, clock):
        make(store, expires=10.0)
        keeper = make(store)
        clock.advance(20.0)
        assert [s.key for s in store.live_resources()] == [keeper.key]
        assert len(store) == 1

    def test_sweep_returns_and_drops_expired(self, store, clock):
        doomed = make(store, expires=5.0)
        make(store)
        clock.advance(6.0)
        swept = store.sweep()
        assert [s.key for s in swept] == [doomed.key]
        assert store.sweep() == []


class TestSubscriptionModel:
    def test_never_expires(self, store, clock):
        subscription = make(store, expires=None)
        clock.advance(10**9)
        assert not subscription.is_expired(clock.now())

    def test_queue_starts_empty(self, store):
        assert make(store).queue == []

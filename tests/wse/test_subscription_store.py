"""Unit tests for the WS-Eventing subscription store and model."""

import pytest

from repro.filters.base import AcceptAllFilter
from repro.transport import VirtualClock
from repro.wsa import EndpointReference
from repro.wse.model import DeliveryMode, SubscriptionStore, WseSubscription
from repro.wse.versions import WseVersion


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def store(clock):
    return SubscriptionStore(clock)


def make(store, expires=None):
    return store.create(
        version=WseVersion.V2004_08,
        notify_to=EndpointReference("http://sink"),
        mode=DeliveryMode.PUSH,
        filter=AcceptAllFilter(),
        expires=expires,
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
        assert first.id != second.id
        assert first.id.startswith("wse-sub-")

    def test_get_live(self, store):
        subscription = make(store)
        assert store.get(subscription.id) is subscription

    def test_get_unknown_none(self, store):
        assert store.get("nope") is None

    def test_get_expired_none(self, store, clock):
        subscription = make(store, expires=10.0)
        clock.advance(11.0)
        assert store.get(subscription.id) is None

    def test_remove(self, store):
        subscription = make(store)
        assert store.remove(subscription.id) is subscription
        assert store.remove(subscription.id) is None

    def test_live_excludes_expired(self, store, clock):
        make(store, expires=10.0)
        keeper = make(store)
        clock.advance(20.0)
        assert [s.id for s in store.live()] == [keeper.id]
        assert len(store) == 1

    def test_sweep_returns_and_drops_expired(self, store, clock):
        doomed = make(store, expires=5.0)
        make(store)
        clock.advance(6.0)
        swept = store.sweep_expired()
        assert [s.id for s in swept] == [doomed.id]
        assert store.sweep_expired() == []


class TestSubscriptionModel:
    def test_never_expires(self, store, clock):
        subscription = make(store, expires=None)
        clock.advance(10**9)
        assert not subscription.is_expired(clock.now())

    def test_queue_starts_empty(self, store):
        assert make(store).queue == []

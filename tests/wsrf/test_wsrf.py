"""Tests for the WSRF subset: resources, properties, lifetime."""

import pytest

from repro.transport import VirtualClock
from repro.wsrf import (
    InvalidResourcePropertyFault,
    ResourceRegistry,
    ResourceUnknownFault,
    destroy_resource,
    get_resource_property,
    set_termination_time,
)
from repro.wsrf.lifetime import UnableToSetTerminationTimeFault
from repro.wsrf.resource import RESOURCE_ID
from repro.xmlkit.element import text_element
from repro.xmlkit.names import QName

STATE = QName("urn:sub", "State")
FILTER = QName("urn:sub", "Filter")


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def registry(clock):
    return ResourceRegistry(clock, key_prefix="sub")


class RecordingRegistry(ResourceRegistry):
    """How an owner hears of a death: the registry's one termination hook."""

    def __init__(self, clock):
        super().__init__(clock)
        self.fired = []

    def _terminate(self, resource, reason, detail=""):
        super()._terminate(resource, reason, detail)
        self.fired.append((resource.key, reason))


class TestRegistry:
    def test_create_assigns_unique_keys(self, registry):
        assert registry.create().key != registry.create().key

    def test_get_live(self, registry):
        resource = registry.create()
        assert registry.get(resource.key) is resource

    def test_get_unknown_faults(self, registry):
        with pytest.raises(ResourceUnknownFault):
            registry.get("sub-999")

    def test_destroy_then_get_faults(self, registry):
        resource = registry.create()
        registry.destroy(resource.key)
        with pytest.raises(ResourceUnknownFault):
            registry.get(resource.key)

    def test_double_destroy_faults(self, registry):
        resource = registry.create()
        registry.destroy(resource.key)
        with pytest.raises(ResourceUnknownFault):
            registry.destroy(resource.key)

    def test_lifetime_expiry(self, registry, clock):
        resource = registry.create(lifetime=10.0)
        assert registry.get(resource.key) is resource
        clock.advance(11.0)
        with pytest.raises(ResourceUnknownFault):
            registry.get(resource.key)

    def test_len_counts_live_only(self, registry, clock):
        registry.create(lifetime=5.0)
        registry.create()
        assert len(registry) == 2
        clock.advance(6.0)
        assert len(registry) == 1

    def test_resolve_by_reference_parameter(self, registry):
        resource = registry.create()
        epr = registry.epr_for(resource, "http://svc")
        assert epr.parameter_text(RESOURCE_ID) == resource.key
        assert registry.resolve(epr.reference_parameters) is resource

    def test_resolve_without_id_faults(self, registry):
        with pytest.raises(ResourceUnknownFault):
            registry.resolve([text_element(QName("urn:x", "Other"), "1")])

    def test_termination_listener_fires_on_destroy(self, clock):
        registry = RecordingRegistry(clock)
        resource = registry.create()
        registry.destroy(resource.key)
        assert registry.fired == [(resource.key, "destroyed")]

    def test_termination_listener_fires_once_on_expiry_sweep(self, clock):
        registry = RecordingRegistry(clock)
        resource = registry.create(lifetime=1.0)
        clock.advance(2.0)
        assert [r.key for r in registry.sweep()] == [resource.key]
        registry.sweep()
        assert registry.fired == [(resource.key, "expired")]


class TestProperties:
    def _resource(self, registry):
        resource = registry.create()
        resource.set_text_property(STATE, "Active")
        resource.set_text_property(FILTER, "//event")
        return resource

    def test_get_property(self, registry):
        resource = self._resource(registry)
        values = get_resource_property(resource, STATE)
        assert values[0].full_text() == "Active"

    def test_get_unknown_property_faults(self, registry):
        with pytest.raises(InvalidResourcePropertyFault):
            get_resource_property(self._resource(registry), QName("urn:sub", "Nope"))


class TestLifetime:
    def test_destroy(self, registry):
        resource = registry.create()
        destroy_resource(registry, resource)
        with pytest.raises(ResourceUnknownFault):
            registry.get(resource.key)

    def test_set_termination_time(self, registry, clock):
        resource = registry.create()
        set_termination_time(registry, resource, clock.now() + 30.0)
        clock.advance(31.0)
        with pytest.raises(ResourceUnknownFault):
            registry.get(resource.key)

    def test_set_termination_time_infinite(self, registry, clock):
        resource = registry.create(lifetime=5.0)
        set_termination_time(registry, resource, None)
        clock.advance(100.0)
        assert registry.get(resource.key) is resource

    def test_past_termination_time_rejected(self, registry, clock):
        clock.advance(10.0)
        resource = registry.create()
        with pytest.raises(UnableToSetTerminationTimeFault):
            set_termination_time(registry, resource, 5.0)

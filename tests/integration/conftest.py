"""Test-side oracles for the fan-out differentials.

Product code has one matcher and one renderer.  The reference
implementations the differentials compare them against live here and are
installed on a freshly-built broker through the pipeline's one seam:

* ``linear=True`` replaces ``Fanout.match`` of every internal source and
  producer with the pre-index matcher — full expiry sweep, linear scan in
  subscription order, every filter evaluated on its own against an unfrozen
  tree (which never reaches the per-document match state of
  ``repro.xmlkit.xpath``), no shared producer-properties document;
* ``tree=True`` makes every producer's ``_render_notify`` decline, so each
  wrapped Notify is built as a tree and serialized instead of rendered
  through the envelope byte-template cache.

Everything downstream of the replaced stage — batching, QoS admission, the
delivery manager, the store — is the product's, which is what lets the
differential run composed configurations.
"""

import pytest

from repro.filters.base import FilterContext, admits
from repro.messenger import WsMessenger


def _install_linear_matcher(fanout) -> None:
    def linear_match(frozen, topic, producer_properties, producer_document=None):
        instr = fanout.network.instrumentation
        fanout.subscriptions.sweep()  # the registry's full scan, not the heap
        context = FilterContext(frozen.copy(), topic, producer_properties)
        assert not context.payload.frozen
        for key, subscription in list(fanout.subscriptions.records.items()):
            if subscription.is_expired(fanout.network.clock.now()):
                continue
            if instr.enabled:
                instr.count("fanout.filter_evals", family=fanout.family)
            if admits(subscription.filter, context, instr, fanout.family, key):
                yield subscription

    fanout.match = linear_match


def build_oracle_broker(network, address, *, linear=False, tree=False, **kwargs):
    broker = WsMessenger(network, address, **kwargs)
    if linear:
        for source in broker.wse_sources.values():
            _install_linear_matcher(source._fanout)
        for producer in broker.wsn_producers.values():
            _install_linear_matcher(producer._fanout)
    if tree:
        for producer in broker.wsn_producers.values():
            producer._render_notify = lambda consumer, entries: None
    return broker


@pytest.fixture
def oracle_broker():
    """``oracle_broker(network, address, linear=..., tree=..., **broker_kwargs)``"""
    return build_oracle_broker

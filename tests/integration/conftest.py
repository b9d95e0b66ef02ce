"""Test-side oracles for the fan-out differentials.

Product code has one matcher and one renderer.  The reference
implementations the differentials compare them against live here and are
installed on a freshly-built broker through the pipeline's one seam:

* ``linear=True`` replaces ``Fanout.match`` of every internal source and
  producer with the pre-index matcher — full expiry sweep, linear scan in
  subscription order, every filter evaluated on its own against an unfrozen
  tree (which never reaches the per-document match state of
  ``repro.xmlkit.xpath``), no shared producer-properties document;
* ``tree=True`` makes the template lookup of every internal source's and
  producer's renderer decline (``install_tree_oracle``, which works on any
  ``SubscriptionService``), so each notification of either family is built
  as a tree and serialized instead of rendered through a byte-template —
  and, through the fixtures, the lookup of ``repro.render.FRAMES`` too
  (``frames_oracle``), so every control request of every client and every
  reply of every service is the tree it was before heads were framed.

Everything downstream of the replaced stage — batching, QoS admission, the
delivery manager, the store — is the product's, which is what lets the
differential run composed configurations.
"""

import functools

import pytest

from repro import render
from repro.filters.base import FilterContext, admits
from repro.messenger import WsMessenger


def _install_linear_matcher(fanout) -> None:
    def linear_match(route_context):
        instr = fanout.network.instrumentation
        fanout.subscriptions.sweep()  # the registry's full scan, not the heap
        context = FilterContext(
            route_context.payload.copy(), route_context.topic, route_context.producer_properties
        )
        assert not context.payload.frozen
        for key, subscription in list(fanout.subscriptions.records.items()):
            if subscription.is_expired(fanout.network.clock.now()):
                continue
            if instr.enabled:
                instr.count("fanout.filter_evals", family=fanout.family)
            if admits(subscription.filter, context, instr, fanout.family, key):
                yield subscription

    fanout.match = linear_match


def _decline(*args):
    return None, "fallback"


def install_tree_oracle(service) -> None:
    """The renderer's one seam: with no template to be had, every render of
    ``service`` (a source or producer of any family) takes the tree path."""
    service.renderer.templates.lookup = _decline


def _frames_oracle(monkeypatch, tree: bool = True) -> None:
    """The same seam on the process-wide frame cache: while declined, every
    control envelope — client requests and service replies alike — is the
    tree it was before heads were framed.  ``tree=False`` puts the product's
    lookup back mid-test; ``monkeypatch`` does at its end."""
    if tree:
        monkeypatch.setitem(vars(render.FRAMES), "lookup", _decline)
    else:
        monkeypatch.delitem(vars(render.FRAMES), "lookup", raising=False)


def build_oracle_broker(network, address, *, linear=False, tree=False, **kwargs):
    broker = WsMessenger(network, address, **kwargs)
    for service in (*broker.wse_sources.values(), *broker.wsn_producers.values()):
        if linear:
            _install_linear_matcher(service._fanout)
        if tree:
            install_tree_oracle(service)
    return broker


@pytest.fixture
def frames_oracle(monkeypatch):
    """``frames_oracle(tree=True)``: decline (or, ``False``, restore) the
    framed heads of every control envelope in the process."""
    return functools.partial(_frames_oracle, monkeypatch)


@pytest.fixture
def tree_oracle(monkeypatch):
    """``tree_oracle(service)``: the tree renderer on a bare source / producer
    (and on every control envelope from then on)."""

    def install(service) -> None:
        install_tree_oracle(service)
        _frames_oracle(monkeypatch)

    return install


@pytest.fixture
def oracle_broker(monkeypatch):
    """``oracle_broker(network, address, linear=..., tree=..., **broker_kwargs)``"""

    def build(network, address, *, tree=False, **kwargs):
        _frames_oracle(monkeypatch, tree)
        return build_oracle_broker(network, address, tree=tree, **kwargs)

    return build

"""Crash recovery: rebuild a broker mid-workload from its event log.

:func:`recover_broker` constructs a fresh :class:`WsMessenger` bound to
the same log and replays every record **in append order** — the
interleaving of lifecycle and publish records is exactly what makes the
rebuilt projections (subscription stores, topic indexes, pull queues,
message boxes, DLQ) converge on the pre-crash state:

* ``subscribe`` records are grants, handed back to ``grant`` of the service
  the record names as made — no XML, no family code, no version rules, no
  transport (a restart is not traffic) — with the id pinned, so the manager
  EPRs clients hold stay valid, and the *granted absolute expiry*, so a
  replay never extends a lease.  A lapsed one comes back lapsed and nothing
  sweeps during replay: one the pre-crash sweep ended (``remove`` follows) is
  forgotten silently, the first sweep after recovery ends the rest — one end
  notice per subscription across the crash;
* ``publish`` records re-run matching with ``current_message_id`` pinned,
  and a delivered obligation replays as nothing; the manager resolves the
  rest: the route takes the publish's settlement from the store once
  (sink -> the outcome record that decides it) and probes it per live push
  match, so a push the log settled as delivered makes no task, while every
  other one reaches the delivery manager, which asks the index per task —
  pre-crash parked items are re-parked (same box addresses, since boxes
  are minted in first-park order; a drained box is re-minted empty), dead
  tasks are restored to the DLQ with a working send thunk, shed ones stay
  shed, and only genuinely in-flight obligations are re-attempted.  A
  publish the mesh router forwarded to its owning shard (``routed``)
  replays as nothing at all;
* before each publish replays, its pre-crash ledger books are closed:
  any obligation the crash left dangling (opened, not closed, not
  parked) is marked ``failed(reason=broker_crash)`` so the mesh-wide
  conservation audit balances — the re-fan-out then opens a fresh,
  properly-closed obligation.

The cost model: a settled obligation costs one dict write when the store's
open indexes its outcome and one probe when its publish replays; outcomes
are not walked again (the open hands ``replay_log`` the other records, in
order).  Beyond that, replay work grows with the obligations still open,
one task each, plus one index lookup per logged publish (its admission is
final, no filter runs).  On a ``fanout_push`` log of 13 064 records (12 800
delivered outcomes; wall time scaled to ``benchmarks/e2e``'s reference host
speed, collector off) the open takes ≈ 0.25 µs per indexed outcome, and a
replayed settled push ≈ 0.7 µs of matching and probing, its publish's share
of parsing and framing included.

A publish that fails to parse back (only a log written before the writer
refused the characters XML 1.0 forbids can hold one) is skipped and counted
as ``obs.swallowed_errors_total{site=store.recovery.replay_publish,
reason=unparseable}``.

Known limits (documented in DESIGN.md): itemless control traffic
(SubscriptionEnd / TerminationNotification) carries no idempotency key
and is not replayed; a WSN pause/resume backlog delivered before the
crash is not re-delivered; manual wrapped-mode ``flush()`` calls between
publishes are not log events, so their batch boundaries are not
reproduced (each item keeps its own publish's id, but a replayed batch
that mixes settled and open items is sent again whole).
"""

from __future__ import annotations

from repro.obs.lineage import CLOSING_STATES, OPENING_STATES
from repro.obs.propagation import LineageContext
from repro.soap.fault import SoapFault
from repro.store.core import BrokerStore, grant_of
from repro.store.records import (
    PauseRecorded,
    PublishRecorded,
    PullDrainRecorded,
    RemoveRecorded,
    RenewRecorded,
    SubscribeRecorded,
)
from repro.xmlkit.parser import XmlParseError, parse_xml


def recover_broker(network, address, log, **broker_kwargs):
    """Build a broker at ``address`` whose state is the replay of ``log``.

    Extra keyword arguments go to :class:`~repro.messenger.WsMessenger`
    verbatim (versions, delivery policy, topic namespace, ...) and must
    match the crashed broker's configuration.
    """
    from repro.messenger.broker import WsMessenger

    store = BrokerStore(log)
    broker = WsMessenger(network, address, store=store, **broker_kwargs)
    replay_log(broker)
    return broker


def replay_log(broker) -> None:
    """Replay the attached store's log into a freshly-built broker."""
    store = broker.store
    assert store is not None, "replay_log needs a store-backed broker"
    managers = [manager for _, _, manager in broker.subscription_managers()]
    store.replaying = True
    saved_router, broker.publish_router = broker.publish_router, None
    for manager in managers:
        manager.restoring = True
    # the records the store's open collected: outcomes replay as nothing
    records, store.replayable = store.replayable, []
    try:
        for record in records:
            REPLAY[type(record)](broker, store, record)
    finally:
        for manager in managers:
            manager.restoring = False
        broker.publish_router = saved_router
        store.replaying = False
        store.current_message_id = None
        # replayed publishes may have compiled envelope byte-templates against
        # mid-replay subscription state; drop them so post-recovery traffic
        # recompiles against the converged stores (cheap: one compile each)
        for _, _, service in broker.services():
            service.renderer.templates.clear()


def _record_of(broker, family: str, tag: str, sub_id: str):
    service = broker.service(family, tag)
    if service is None:
        return None, None
    return service.subscriptions, service.subscriptions.find(sub_id)


def _unrestored(broker, site: str, **why: str) -> None:
    """A logged record no longer replays (a garbled grant or payload, a QoS
    profile now refused): count it, instead of moving on as if it had."""
    broker.network.instrumentation.count(
        "obs.swallowed_errors_total", site=f"store.recovery.{site}", **why
    )


def _replay_subscribe(broker, store, record: SubscribeRecorded) -> None:
    service = broker.service(record.family, record.tag)
    if service is None:
        return  # version not enabled on the recovering broker
    try:
        grant = grant_of(record)
    except ValueError:
        return _unrestored(broker, "replay_subscribe", reason="unparseable")
    try:
        service.grant(grant)
    except SoapFault as fault:
        subcode = fault.subcode.local if fault.subcode is not None else ""
        return _unrestored(broker, "replay_subscribe", reason="fault", subcode=subcode)
    store.stats.recovered_subscriptions += 1


def _replay_renew(broker, store, record: RenewRecorded) -> None:
    manager, subscription = _record_of(broker, record.family, record.tag, record.sub_id)
    if subscription is not None:
        subscription.termination_time = record.expires  # as granted, not re-granted now
        manager.note_termination(subscription)


def _replay_remove(broker, store, record: RemoveRecorded) -> None:
    service = broker.service(record.family, record.tag)
    if service is not None:
        service.subscriptions.forget(record.sub_id)  # silent: no second end notice on replay


def _replay_pause(broker, store, record: PauseRecorded) -> None:
    manager, subscription = _record_of(broker, "wsn", record.tag, record.sub_id)
    if subscription is None:
        return
    subscription.paused = record.paused
    if not record.paused:
        # the pre-crash resume already delivered this backlog (see module
        # docstring); replayed publishes after this point re-queue correctly
        manager.drain(subscription)


def _replay_pull_drain(broker, store, record: PullDrainRecorded) -> None:
    manager, subscription = _record_of(broker, "wse", record.tag, record.sub_id)
    if subscription is not None:
        manager.drain(subscription, record.count)


def _close_books(broker, store, context: LineageContext) -> None:
    """Fail the obligations the crash left dangling for the publish of
    lineage ``context``, so the re-fan-out's fresh books balance under the
    conservation audit."""
    instr = broker.network.instrumentation
    if not instr.enabled:
        return
    opened: dict[str, int] = {}
    closed: dict[str, int] = {}
    parked: dict[str, int] = {}
    pulled: dict[str, int] = {}
    for event in instr.ledger.events_of(context.lineage_id):
        sink = event.detail.get("sink")
        if sink is None:
            continue
        if event.state in OPENING_STATES:
            opened[sink] = opened.get(sink, 0) + 1
        elif event.state in CLOSING_STATES:
            closed[sink] = closed.get(sink, 0) + 1
            if event.state == "delivered" and event.detail.get("via") == "pull":
                pulled[sink] = pulled.get(sink, 0) + 1
        elif event.state == "pending_pull":
            parked[sink] = parked.get(sink, 0) + 1
    for sink, count in sorted(opened.items()):
        dangling = count - closed.get(sink, 0) - (
            parked.get(sink, 0) - pulled.get(sink, 0)
        )
        for _ in range(dangling):
            instr.lineage_event(
                context.lineage_id, "failed", sink=sink, reason="broker_crash"
            )
            store.stats.crash_failures += 1


def _replay_publish(broker, store, record: PublishRecorded) -> None:
    if record.message_id in store._routed:
        return  # forwarded to its owning shard pre-crash: nothing local
    context = (
        LineageContext.decode(record.lineage) if record.lineage is not None else None
    )
    if context is not None:
        _close_books(broker, store, context)
    try:
        payload = parse_xml(record.payload).freeze()
    except XmlParseError:  # only a log written before the writer refused bad characters
        return _unrestored(broker, "replay_publish", reason="unparseable")
    store.current_message_id = record.message_id
    store.stats.replayed_publishes += 1
    dropped = store.replay_dropped
    instr = broker.network.instrumentation
    try:
        if instr.enabled and context is not None:
            # resume the original lineage so replayed obligations ledger
            # under the pre-crash id — the audit sees one continuous story
            with instr.span(
                "store.replay_publish", remote=context, topic=record.topic or ""
            ):
                broker.publish(payload, topic=record.topic)
        else:
            broker.publish(payload, topic=record.topic)
    finally:
        store.current_message_id = None
        # the delivered pushes every service's route dropped: once per sink
        store.stats.suppressed += len(dropped)
        dropped.clear()


#: record type -> its replay; an outcome has none (the settlement index read
#: it, and the store's open left it out of ``replayable``)
REPLAY = {
    SubscribeRecorded: _replay_subscribe,
    RenewRecorded: _replay_renew,
    RemoveRecorded: _replay_remove,
    PauseRecorded: _replay_pause,
    PullDrainRecorded: _replay_pull_drain,
    PublishRecorded: _replay_publish,
}

"""repro.store — event-sourced durable broker core.

A single append-only event log is the broker's source of truth: typed
records capture publishes, subscription lifecycle (subscribe / renew /
unsubscribe / expire), and delivery outcomes.  The live subscription
stores, topic indexes, message boxes, and the delivery manager's
obligation ledger become replayable *projections* over that log.

Publishing is transactional-outbox style: the publish record is appended
*before* fan-out, and the route stamps the publish's one delivery item
with its message id so the (message id, sink) pair is an idempotency key — a
crashed broker replayed from its log never double-delivers an outcome
the log already settled.

:func:`recover_broker` rebuilds a broker mid-workload from a log,
preserving subscription identifiers (and therefore subscription-manager
EPRs), parked obligations, and dead-letter entries.
"""

from repro.store.core import BrokerStore, StoreStats
from repro.store.log import FileEventLog, MemoryEventLog
from repro.store.records import (
    OutcomeRecorded,
    PauseRecorded,
    PublishRecorded,
    PullDrainRecorded,
    RemoveRecorded,
    RenewRecorded,
    SubscribeRecorded,
    record_from_dict,
)
from repro.store.recovery import recover_broker

__all__ = [
    "BrokerStore",
    "StoreStats",
    "MemoryEventLog",
    "FileEventLog",
    "SubscribeRecorded",
    "RenewRecorded",
    "RemoveRecorded",
    "PauseRecorded",
    "PublishRecorded",
    "OutcomeRecorded",
    "PullDrainRecorded",
    "record_from_dict",
    "recover_broker",
]

"""Spans recorded from outside the program, around calls into each layer.

``install()`` replaces a fixed table of entry points of ``src/repro`` with
recording wrappers - on the defining module or class **and** on every
``repro.*`` module global that ``is`` the original, so ``from x import f``
bindings are covered - and ``uninstall()`` restores every one of them.
Endpoints bind their handlers when they are constructed, so a traced
scenario is built *after* ``install()``.

A span is (name, layer, start, end, parent, publish id); they stay in memory
in parallel arrays and are written out when the workload ends.  A layer's
self time is its spans' duration minus the part their child spans cover, so
code that is not itself wrapped counts for the nearest wrapped caller.
"""

from __future__ import annotations

import fnmatch
import importlib
import json
import sys
import time
from array import array
from typing import Iterable, Optional

#: layer -> entry points, as "module:function" or "module:Class.method";
#: a method name may be a glob over the names defined on the class
WRAP_TABLE: dict[str, tuple[str, ...]] = {
    "xmlkit.parse": ("repro.xmlkit.parser:parse_xml",),
    "xmlkit.serialize": (
        "repro.xmlkit.writer:serialize_xml",
        "repro.xmlkit.writer:serialize_with_allocator",
        "repro.xmlkit.writer:serialize_subtree",
        "repro.xmlkit.writer:frozen_splice_text",
    ),
    "xmlkit.template": (
        "repro.xmlkit.template:ByteTemplate.render",
        "repro.xmlkit.template:ByteTemplate.compile",
        "repro.wsn.templates:NotifyTemplateCache.lookup",
        "repro.wsn.templates:NotifyTemplateCache.note_removed",
        "repro.wsn.templates:CompiledNotify.render",
    ),
    "xmlkit.xpath": (
        "repro.filters.compilecache:compiled_xpath",
        "repro.xmlkit.xpath.engine:XPath.evaluate",
        "repro.xmlkit.xpath.engine:XPath.matches",
        "repro.xmlkit.xpath.engine:XPath.select",
    ),
    "soap": (
        "repro.soap.codec:parse_envelope",
        "repro.soap.codec:serialize_envelope",
        "repro.soap.codec:envelope_bytes",
        "repro.soap.fault:SoapFault.to_envelope",
        "repro.soap.fault:SoapFault.from_element",
    ),
    "wsa": (
        "repro.wsa.headers:apply_headers",
        "repro.wsa.headers:extract_headers",
    ),
    "transport.http": (
        "repro.transport.http:build_request",
        "repro.transport.http:parse_request",
        "repro.transport.http:build_response",
        "repro.transport.http:parse_response",
    ),
    "transport.network": ("repro.transport.network:SimulatedNetwork.send_request",),
    "transport.endpoint": (
        "repro.transport.endpoint:SoapEndpoint._handle_wire",
        "repro.transport.endpoint:SoapClient.call",
        "repro.transport.endpoint:SoapClient.send_rendered",
        "repro.transport.endpoint:SoapClient.send_envelope",
    ),
    "filters": (
        "repro.filters.topics:TopicSubscriptionIndex.candidates",
        "repro.filters.topics:TopicSubscriptionIndex.add",
        "repro.filters.topics:TopicSubscriptionIndex.discard",
        "repro.filters.topics:TopicFilter.matches",
        "repro.filters.topics:compiled_topic_expression",
        "repro.filters.content:MessageContentFilter.matches",
        "repro.filters.producer:ProducerPropertiesFilter.matches",
        "repro.filters.base:AndFilter.matches",
        "repro.filters.base:AcceptAllFilter.matches",
    ),
    "wsn": (
        "repro.wsn.producer:NotificationProducer.publish",
        "repro.wsn.producer:NotificationProducer.note_publication",
        "repro.wsn.producer:NotificationProducer._handle_*",
        "repro.wsn.consumer:NotificationConsumer._handle_*",
        "repro.wsn.subscriber:WsnSubscriber.[a-z]*",
        "repro.wsn.pullpoint:PullPointClient.get_messages",
    ),
    "wse": (
        "repro.wse.source:EventSource.publish",
        "repro.wse.source:EventSource._handle_*",
        "repro.wse.sink:EventSink._handle_*",
        "repro.wse.subscriber:WseSubscriber.[a-z]*",
    ),
    "wsrf": (
        "repro.wsrf.resource:ResourceRegistry.create",
        "repro.wsrf.resource:ResourceRegistry.note_termination",
        "repro.wsrf.resource:ResourceRegistry.sweep_due",
        "repro.wsrf.resource:ResourceRegistry.resolve",
        "repro.wsrf.resource:ResourceRegistry.destroy",
        "repro.wsrf.lifetime:set_termination_time",
        "repro.wsrf.lifetime:destroy_resource",
        "repro.wsrf.properties:get_resource_property",
    ),
    "messenger": (
        "repro.messenger.broker:WsMessenger.publish",
        "repro.messenger.broker:WsMessenger._front_door",
        "repro.messenger.detection:detect_spec",
        "repro.messenger.mediation:neutral_from_wsn_notify",
        "repro.messenger.mediation:wsn_notify_from_neutral",
        "repro.messenger.mediation:wsn_message_elements",
    ),
    "delivery": (
        "repro.delivery.manager:DeliveryManager.submit",
        "repro.delivery.manager:DeliveryManager.run_due",
        "repro.delivery.manager:DeliveryManager.run_until_idle",
        "repro.delivery.batcher:DeliveryBatcher.add",
        "repro.delivery.batcher:DeliveryBatcher.flush_publish",
        "repro.delivery.messagebox:MessageBox.park",
        "repro.delivery.messagebox:MessageBox._handle_*",
        "repro.delivery.messagebox:drain_message_box_wse",
    ),
    "qos": (
        "repro.qos.adaptive:AdaptiveQosController.plan_admission",
        "repro.qos.adaptive:AdaptiveQosController.attempt_delay",
    ),
    "store": (
        "repro.store.core:BrokerStore.record_publish",
        "repro.store.core:BrokerStore.record_subscribe",
        "repro.store.core:BrokerStore.record_routed",
        "repro.store.core:BrokerStore.end_publish",
        "repro.store.core:BrokerStore.stamp_items",
        "repro.store.core:BrokerStore.task_delivered",
        "repro.store.core:BrokerStore.task_dead",
        "repro.store.core:BrokerStore.items_parked",
        "repro.store.core:BrokerStore.items_shed",
        "repro.store.log:MemoryEventLog.append",
        "repro.store.recovery:recover_broker",
    ),
    "obs": (
        # the hottest obs calls (Span enter/exit, Counter.inc, count) are left
        # unwrapped: a wrapper costs more than they do; the ladder's obs rung
        # is the measure of what obs costs as a whole
        "repro.obs.tracing:Tracer.span",
        "repro.obs.instrument:Instrumentation.lineage_event",
        "repro.obs.instrument:Instrumentation.lineage_delivered",
        "repro.obs.capture:WireCapture.record",
    ),
    "mesh": (
        "repro.mesh.node:MeshNode.publish",
        "repro.mesh.node:MeshNode._route_publish",
        "repro.mesh.node:MeshNode._forward",
        "repro.mesh.node:MeshNode._accept_federated",
        "repro.mesh.cluster:MeshCluster.publish",
        "repro.mesh.cluster:MeshCluster.quiesce",
        "repro.mesh.cluster:MeshCluster.subscribe_wsn",
        "repro.mesh.federation:FederationLinkManager.sync",
    ),
}

#: spans of the harness itself (one per timed sample); their self time is
#: what no wrapped layer claimed
ROOT_LAYER = "harness"

_MARK = "__e2e_original__"


class SpanLog:
    """Spans in parallel arrays; ``stack[-1]`` is the open span (-1: none)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.publish = array("l")
        self.stack = [-1]
        self.current_publish = 0

    def __len__(self) -> int:
        return len(self.start)

    def register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def wrap(self, original, name: str, layer: str):
        """A wrapper around ``original`` that records one span per call."""
        name_id = self.register(name, layer)
        ids, starts, ends = self.name_id, self.start, self.end
        parents, publishes, stack = self.parent, self.publish, self.stack
        perf = time.perf_counter
        log = self
        root = layer == ROOT_LAYER

        def wrapper(*args, **kwargs):
            if root:
                log.current_publish += 1
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            publishes.append(log.current_publish)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(wrapper, _MARK, original)
        return wrapper

    # --- aggregation ---------------------------------------------------------------

    def self_times(self) -> array:
        """Per span: duration minus the part covered by its child spans."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        start, end, parent = self.start, self.end, self.parent
        for index in range(len(own)):
            above = parent[index]
            if above >= 0:
                own[above] -= end[index] - start[index]
        return own

    def by_layer(self) -> dict[str, tuple[float, int]]:
        """layer -> (self seconds, calls)."""
        own = self.self_times()
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        layers = self.layers
        for index, name_id in enumerate(self.name_id):
            layer = layers[name_id]
            seconds[layer] = seconds.get(layer, 0.0) + own[index]
            calls[layer] = calls.get(layer, 0) + 1
        return {layer: (seconds[layer], calls[layer]) for layer in seconds}

    def root_seconds(self) -> float:
        """Wall covered by spans that have no parent."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.parent[i] < 0
        )

    def clear(self) -> None:
        for column in (self.name_id, self.start, self.end, self.parent, self.publish):
            del column[:]
        self.current_publish = 0

    def write(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(len(self.start)):
                name_id = self.name_id[index]
                handle.write(json.dumps({
                    "name": self.names[name_id],
                    "layer": self.layers[name_id],
                    "start": self.start[index],
                    "end": self.end[index],
                    "parent": self.parent[index],
                    "publish": self.publish[index],
                }) + "\n")


# --- patching --------------------------------------------------------------------


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _expand(spec: str) -> Iterable[tuple[object, str]]:
    """(owner, attribute) pairs a table entry names."""
    module_name, _, path = spec.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        yield module, path
        return
    class_name, _, pattern = path.partition(".")
    cls = getattr(module, class_name)
    matched = [
        name for name, value in vars(cls).items()
        if fnmatch.fnmatchcase(name, pattern)
        and (callable(value) or isinstance(value, (classmethod, staticmethod)))
        and not isinstance(value, type)
    ]
    if not matched:
        raise LookupError(f"wrap table entry {spec!r} matches nothing")
    for name in sorted(matched):
        yield cls, name


class Installed:
    """The set of patches; ``pause()``/``resume()`` flip all of them, so
    traced and untraced blocks can alternate in one process."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        #: (owner, attribute, original, wrapper), in patch order
        self._patches: list[tuple[object, str, object, object]] = []
        self.active = True

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name], value))
        setattr(owner, name, value)

    def wrap_attribute(self, owner, name: str, layer: str) -> None:
        raw = vars(owner)[name]
        label = f"{getattr(owner, '__name__', owner)}.{name}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.log.wrap(raw.__func__, label, layer))
            self._set(owner, name, wrapped)
            return
        if hasattr(raw, _MARK):
            raise RuntimeError(f"{label} is already wrapped")
        wrapper = self.log.wrap(raw, label, layer)
        self._set(owner, name, wrapper)
        if isinstance(owner, type):
            return
        # a module-level function: cover every `from x import f` binding too
        for module in _repro_modules():
            for alias, value in list(vars(module).items()):
                if value is raw and not (module is owner and alias == name):
                    self._set(module, alias, wrapper)

    def pause(self) -> None:
        """Put every original back (the wrappers are kept for resume)."""
        if self.active:
            for owner, name, original, _ in reversed(self._patches):
                setattr(owner, name, original)
            self.active = False

    def resume(self) -> None:
        if not self.active:
            for owner, name, _, wrapper in self._patches:
                setattr(owner, name, wrapper)
            self.active = True

    def uninstall(self) -> None:
        self.pause()
        self._patches.clear()


def install(log: SpanLog, *, roots: Iterable[tuple[type, str]] = ()) -> Installed:
    """Wrap the whole table (and the harness's own ``roots``)."""
    installed = Installed(log)
    try:
        for layer, specs in WRAP_TABLE.items():
            for spec in specs:
                for owner, name in _expand(spec):
                    installed.wrap_attribute(owner, name, layer)
        for owner, name in roots:
            installed.wrap_attribute(owner, name, ROOT_LAYER)
    except BaseException:
        installed.uninstall()
        raise
    return installed


def leftover_wrappers() -> list[str]:
    """Names in ``repro.*`` namespaces or class dicts still bound to a
    wrapper (must be empty after ``uninstall()``)."""
    found = []
    for module in _repro_modules():
        for name, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    target = getattr(member, "__func__", member)
                    if hasattr(target, _MARK):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


# --- the cProfile cross-check ------------------------------------------------------

#: shared helpers every layer calls into: their time belongs to the caller
_SHARED_FILES = ("xmlkit/element.py", "xmlkit/names.py", "xmlkit/__init__.py")


def package_of(layer: str) -> str:
    return layer.split(".", 1)[0]


def package_of_file(filename: str) -> Optional[str]:
    """The ``src/repro`` package that owns a source file; None for the
    interpreter, the standard library and shared helpers, whose time belongs
    to the caller."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    relative = filename[at + len(marker):]
    if relative in _SHARED_FILES or relative.startswith("util/") or "/" not in relative:
        return None
    return relative.split("/", 1)[0]


def profile_by_package(stats) -> dict[str, float]:
    """``pstats`` tottime per ``src/repro`` package.  Time spent in builtins,
    the standard library and shared helpers is pushed up the call graph to
    the packages that called them, in proportion to the profiler's
    per-caller tottime - the same rule span self time follows."""
    table = stats.stats
    memo: dict[tuple, dict[str, float]] = {}

    def owners(function: tuple) -> dict[str, float]:
        package = package_of_file(function[0])
        if package is not None:
            return {package: 1.0}
        if function in memo:
            return memo[function]
        memo[function] = {}  # a cycle through this function adds nothing
        callers = table[function][4]
        weight = sum(entry[2] for entry in callers.values())
        shares: dict[str, float] = {}
        if weight > 0:
            for caller, entry in callers.items():
                if caller in table:
                    for package, share in owners(caller).items():
                        shares[package] = shares.get(package, 0.0) + share * entry[2] / weight
        memo[function] = shares
        return shares

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        out: dict[str, float] = {}
        for function, (_, _, tottime, _, _) in table.items():
            for package, share in owners(function).items():
                out[package] = out.get(package, 0.0) + tottime * share
        return out
    finally:
        sys.setrecursionlimit(limit)


def top(shares: dict[str, float], n: int = 5) -> list[str]:
    return [name for name, _ in sorted(shares.items(), key=lambda kv: -kv[1])[:n]]

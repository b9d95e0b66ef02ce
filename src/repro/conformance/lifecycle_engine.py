"""Lifecycle engine: subscription schedules against every spec family.

Each case is a schedule — initial subscriptions with generated expirations,
then a sequence of clock advances, publishes, renews, unsubscribes, and
status queries — executed against a *real* WSE source, WSN producer or
converged (WS-EventNotification) source over the simulated network, with a
tiny reference model running alongside.  The invariants are the ones the
paper's comparison takes for granted:

- an invalid expiration (``PT0S``, ``-PT5S``, a past dateTime, garbage) is
  faulted at subscribe/renew time with the family's own subcode *for that
  operation* — never silently granted; a WSRF SetTerminationTime that cannot
  be honoured faults ``UnableToSetTerminationTimeFault``, whatever its text;
- a Subscribe that faults leaves nothing behind, its QoS profile included;
- a granted expiration is exact: a requested absolute dateTime is echoed
  verbatim, and a duration (or the default lifetime) is anchored at the
  grant instant — which the model brackets between the virtual-clock reads
  before and after the call, since the simulated network charges per-hop
  latency between client and manager;
- no delivery after expiry or unsubscribe, every delivery before, in order;
- a content filter that cannot compile (unbound prefix, unknown function,
  wrong arity, nested deeper than the expression bound) is faulted at
  subscribe time with the family's filter subcode; one that compiles but
  fails or is false on every message starves only its own subscription;
- a QoS profile asking for a property the broker understands but does not
  implement (``DiscardPolicy=DeadlineOrder``, a ``PacingInterval``) is faulted
  at subscribe time with the family's QoS subcode — never granted and ignored;
- management operations on an expired or unsubscribed subscription fault;
- GetStatus answers what the family's table says it does — the lease on
  WS-Eventing 08/2004, ``Active`` through WSRF and on the converged source —
  and where the table has no row (01/2004) the client answers
  ``OperationNotAvailable``.

The model is deliberately naive — a dict per subscription with a float
expiry — because its whole value is having *no code in common* with the
stores it checks.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.conformance.gen import pick
from repro.convergence import ConvergedConsumer, ConvergedSource, ConvergedSubscriber
from repro.delivery.manager import DeliveryManager
from repro.qos.adaptive import AdaptiveQosController
from repro.qos.properties import DiscardPolicy, QosProfile
from repro.soap.fault import SoapFault
from repro.subscriptions import OperationNotAvailable
from repro.transport import SimulatedNetwork, VirtualClock
from repro.util.grammar import MAX_DEPTH
from repro.util.rng import SeededRng
from repro.util.xstime import format_datetime, parse_expires
from repro.wse import EventSink, EventSource, WseSubscriber, WseVersion
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber, WsnVersion
from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName

_FAMILIES = ("wse", "wsn")
_WSE_VERSIONS = ("V2004_01", "V2004_08")
_DEFAULT_LIFETIME = 3600.0

_INVALID_KINDS = ("zero", "negative", "pastdt", "garbage")

#: optional ``"filter"`` of a subscription spec -> the XPath it subscribes with
_POISON_FILTERS = {
    "unbound_prefix": "/q:conf-evt[q:host='a']",
    "unknown_function": "frobnicate(1)",
    "wrong_arity": "contains('x')",
    "too_deep": "(" * (MAX_DEPTH + 1) + "/conf-evt" + ")" * (MAX_DEPTH + 1),
    "dynamic_error": "1 | 2",  # compiles; '|' needs node-sets on every message
    "nan_floor": "floor(/x) > 1",  # compiles; floor(NaN) is NaN on every message
}
#: ... of which these compile (and match nothing)
_COMPILING_POISONS = ("dynamic_error", "nan_floor")

#: optional ``"qos"`` of a subscription spec -> the profile it asks for
_UNSUPPORTED_QOS = {
    "deadline_order": {"DiscardPolicy": DiscardPolicy.DEADLINE_ORDER},
    "pacing_interval": {"PacingInterval": 0.5},
}
#: ... and one the broker does honour (corpus only: with ``"controller"`` set
#: on the case, a *refused* Subscribe must not leave it registered)
_QOS = {**_UNSUPPORTED_QOS, "priority": {"Priority": 7, "MaxEventsPerConsumer": 3}}


def _gen_expiry(rng: SeededRng, *, allow_invalid: bool = True) -> dict:
    roll = rng.randrange(100)
    if roll < 20:
        return {"kind": "none"}
    if roll < 60 or not allow_invalid:
        return {"kind": "duration", "secs": 1 + rng.randrange(1000)}
    if roll < 75:
        return {"kind": "datetime", "secs": 1 + rng.randrange(1000)}
    invalid = pick(rng, _INVALID_KINDS)
    if invalid in ("negative", "pastdt"):
        return {"kind": invalid, "secs": 1 + rng.randrange(100)}
    return {"kind": invalid}


def _valid_expiry_spec(spec: object) -> bool:
    if not isinstance(spec, dict):
        return False
    kind = spec.get("kind")
    if kind in ("none", "zero", "garbage"):
        return True
    if kind in ("duration", "datetime", "negative", "pastdt"):
        return isinstance(spec.get("secs"), int) and spec["secs"] >= 1
    return False


def _render_expiry(spec: dict, now: float) -> Optional[str]:
    kind = spec["kind"]
    if kind == "none":
        return None
    if kind == "duration":
        return f"PT{spec['secs']}S"
    if kind == "datetime":
        return format_datetime(now + spec["secs"])
    if kind == "zero":
        return "PT0S"
    if kind == "negative":
        return f"-PT{spec['secs']}S"
    if kind == "pastdt":
        return format_datetime(now - spec["secs"])
    return "P!not-a-duration"  # garbage


def _expiry_is_invalid(spec: dict) -> bool:
    return spec["kind"] in _INVALID_KINDS


class LifecycleEngine:
    name = "lifecycle"

    def generate(self, rng: SeededRng) -> dict:
        family = pick(rng, _FAMILIES)
        version = pick(rng, _WSE_VERSIONS) if family == "wse" else "V1_3"
        subs = [_gen_expiry(rng) for _ in range(1 + rng.randrange(3))]
        ops: list[dict] = []
        for _ in range(2 + rng.randrange(7)):
            roll = rng.randrange(100)
            if roll < 30:
                secs = 3000 + rng.randrange(1200) if rng.randrange(5) == 0 else 1 + rng.randrange(400)
                ops.append({"op": "advance", "secs": secs})
            elif roll < 60:
                ops.append({"op": "publish"})
            elif roll < 80:
                ops.append(
                    {
                        "op": "renew",
                        "sub": rng.randrange(len(subs)),
                        "expires": _gen_expiry(rng),
                    }
                )
            elif roll < 92 or version != "V2004_08":
                ops.append({"op": "unsubscribe", "sub": rng.randrange(len(subs))})
            else:
                ops.append({"op": "status", "sub": rng.randrange(len(subs))})
        # drawn last, so the schedules above are what they were without filters
        for spec in subs:
            if rng.randrange(100) < 8:
                spec["filter"] = pick(rng, tuple(_POISON_FILTERS))
        for spec in subs:  # its own pass, after every filter draw, for the same reason
            if rng.randrange(100) < 5:
                spec["qos"] = pick(rng, tuple(_UNSUPPORTED_QOS))
        # later still: a WSRF SetTerminationTime closes some WSN schedules, and
        # some schedules the converged prototype can express run on it instead
        if family == "wsn" and rng.randrange(100) < 15:
            ops.append(
                {"op": "set_termination", "sub": rng.randrange(len(subs)), "expires": _gen_expiry(rng)}
            )
        elif rng.randrange(100) < 15 and not any(
            op["op"] == "status" for op in ops
        ) and not any("qos" in spec for spec in subs):
            family, version = "wsen", "WSEN"
        return {"family": family, "version": version, "subs": subs, "ops": ops}

    # --- validity (the shrinker mutates blindly) --------------------------

    def _valid(self, case: object) -> bool:
        if not isinstance(case, dict):
            return False
        family, version = case.get("family"), case.get("version")
        if family not in _RUNS or version not in _RUNS[family].status:
            return False
        if case.get("controller", False) not in (False, True) or (
            family == "wsen" and case.get("controller")
        ):
            return False
        subs = case.get("subs")
        if not isinstance(subs, list) or not subs:
            return False
        if not all(_valid_expiry_spec(s) for s in subs):
            return False
        if any(s.get("filter", "dynamic_error") not in _POISON_FILTERS for s in subs):
            return False
        if any(s.get("qos", "priority") not in _QOS for s in subs):
            return False
        if family == "wsen" and any("qos" in s for s in subs):
            return False  # the converged Subscribe carries no QoS profile
        ops = case.get("ops")
        if not isinstance(ops, list):
            return False
        for op in ops:
            if not isinstance(op, dict):
                return False
            kind = op.get("op")
            if kind == "advance":
                if not (isinstance(op.get("secs"), int) and op["secs"] >= 1):
                    return False
            elif kind == "publish":
                pass
            elif kind in ("renew", "set_termination"):
                if kind == "set_termination" and family != "wsn":
                    return False
                if not (
                    isinstance(op.get("sub"), int)
                    and 0 <= op["sub"] < len(subs)
                    and _valid_expiry_spec(op.get("expires"))
                ):
                    return False
            elif kind in ("unsubscribe", "status"):
                if not (isinstance(op.get("sub"), int) and 0 <= op["sub"] < len(subs)):
                    return False
            else:
                return False
        return True

    # --- execution --------------------------------------------------------

    def check(self, case: object) -> Optional[str]:
        if not self._valid(case):
            return None
        return _Run(case, _RUNS[case["family"]]).run()


class _Family(NamedTuple):
    """What the schedule interpreter cannot read off the shared client: how
    one family builds its stack and what it calls things."""

    #: the source, subscriber and consumer classes, and the enum their
    #: ``version=`` is a member of (None: the family has one version)
    roles: tuple
    versions: Optional[type]
    #: ``consumer`` / ``expires`` / ``content`` / ``qos`` -> Subscribe's
    #: keyword for it (no ``qos``: the family's Subscribe carries no profile)
    keywords: dict
    #: the topic it subscribes to and publishes on, if it needs one
    topic: Optional[str]
    #: fault subcodes: an invalid expiration at Subscribe (``expiry``) and at
    #: ``renew``, a ``filter`` that cannot compile, an unsupported ``qos`` profile
    faults: dict
    #: version name -> what GetStatus answers for a live subscription: its
    #: ``lease``, a literal, or None — Table 2's "Not available"
    status: dict


_RUNS = {
    "wse": _Family(
        (EventSource, WseSubscriber, EventSink),
        WseVersion,
        {"consumer": "notify_to", "expires": "expires", "content": "filter", "qos": "qos"},
        None,
        {
            "expiry": "InvalidExpirationTime",
            "renew": "InvalidExpirationTime",
            "filter": "FilteringRequestedUnavailable",
            "qos": "UnsupportedQoS",
        },
        {"V2004_01": None, "V2004_08": "lease"},
    ),
    "wsn": _Family(
        (NotificationProducer, WsnSubscriber, NotificationConsumer),
        WsnVersion,
        {
            "consumer": "consumer",
            "expires": "initial_termination",
            "content": "message_content",
            "qos": "qos",
        },
        "conf",
        {
            "expiry": "TerminationTimeFault",  # Unacceptable(Initial)TerminationTimeFault
            "renew": "UnacceptableTerminationTimeFault",  # not the Subscribe one
            "filter": "InvalidMessageContentExpressionFault",
            "qos": "UnsupportedPolicyRequestFault",
        },
        {"V1_3": "Active"},
    ),
    "wsen": _Family(
        (ConvergedSource, ConvergedSubscriber, ConvergedConsumer),
        None,
        {"consumer": "consumer", "expires": "expires", "content": "message_content"},
        None,
        {
            "expiry": "InvalidExpirationTime",
            "renew": "InvalidExpirationTime",
            "filter": "InvalidFilterFault",
            "qos": "n/a",  # no QoS profile on the converged wire
        },
        {"WSEN": "Active"},
    ),
}


class _Run:
    """The schedule interpreter: one family's stack, the shared verbs."""

    def __init__(self, case: dict, family: _Family) -> None:
        self.case = case
        self.family = family
        self.clock = VirtualClock()
        self.network = SimulatedNetwork(self.clock)
        #: ``"controller"`` cases run over the reliable pipeline with an
        #: adaptive QoS controller, whose profile registry the model watches
        self.controller = AdaptiveQosController(self.clock) if case.get("controller") else None
        self.manager = (
            DeliveryManager(self.network, qos=self.controller) if self.controller else None
        )
        source, subscriber, consumer = family.roles
        versioned = {"version": family.versions[case["version"]]} if family.versions else {}
        managed = {"delivery_manager": self.manager} if self.manager else {}
        self.source = source(self.network, "http://conf-source", **versioned, **managed)
        self.subscriber = subscriber(self.network, **versioned)
        self.sinks = [
            consumer(self.network, f"http://conf-sink-{index}", **versioned)
            for index in range(len(case["subs"]))
        ]
        #: per-sub model: {"handle", "expires": float, "gone": bool, "expected": [markers]}
        self.model: list[dict] = []
        self.published = 0

    def subscribe(
        self,
        index: int,
        expires_text: Optional[str],
        xpath: Optional[str],
        qos: Optional[QosProfile],
    ) -> object:
        consumer = self.sinks[index].epr()
        values = {"consumer": consumer, "expires": expires_text, "content": xpath, "qos": qos}
        request = {keyword: values[name] for name, keyword in self.family.keywords.items()}
        if self.family.topic is not None:
            request["topic"] = self.family.topic
        return self.subscriber.subscribe(self.source.epr(), **request)

    def delivered(self, index: int) -> list[str]:
        return [payload.full_text() for payload in self.sinks[index].payloads()]

    # model ----------------------------------------------------------------

    def _live(self, sub: dict) -> bool:
        return (
            sub["handle"] is not None
            and not sub["gone"]
            and sub["expires"] > self.clock.now()
        )

    def _grant_failure(
        self, spec: dict, text: Optional[str], before: float, after: float, granted_text: str
    ) -> tuple[Optional[str], float]:
        """Validate a granted expiration; returns (failure, granted_seconds).

        An absolute request must be echoed verbatim.  A duration (or the
        default lifetime) is anchored at the instant the manager granted it,
        which must fall inside the request's round-trip window on the
        virtual clock — any other anchor means the lease is longer or
        shorter than the spec promises.
        """
        try:
            granted = parse_expires(granted_text, now=before)
        except ValueError as exc:
            return f"ungrammatical granted expiration {granted_text!r}: {exc}", 0.0
        if spec["kind"] == "datetime":
            if granted_text != text:
                return f"granted {granted_text!r} != requested absolute {text!r}", granted
            return None, granted
        secs = _DEFAULT_LIFETIME if spec["kind"] == "none" else float(spec["secs"])
        anchor = granted - secs
        if not (before - 1e-9 <= anchor <= after + 1e-9):
            return (
                f"granted {granted_text!r} anchors the {secs}s lease at t={anchor}, "
                f"outside the request window [{before}, {after}]",
                granted,
            )
        return None, granted

    def run(self) -> Optional[str]:
        failure = self._subscribe_all()
        if failure is not None:
            return failure
        for step, op in enumerate(self.case["ops"]):
            failure = self._apply(step, op)
            if failure is not None:
                return f"[{self.case['family']}/{self.case['version']}] op {step} {op['op']}: {failure}"
        return self._check_deliveries("final")

    def _subscribe_all(self) -> Optional[str]:
        for index, spec in enumerate(self.case["subs"]):
            now = self.clock.now()
            text = _render_expiry(spec, now)
            tag = f"[{self.case['family']}/{self.case['version']}] subscribe {index} ({spec['kind']})"
            poison = spec.get("filter")
            uncompilable = poison is not None and poison not in _COMPILING_POISONS
            profile = spec.get("qos")
            qos = profile if profile in _UNSUPPORTED_QOS else None
            try:
                handle = self.subscribe(
                    index, text, _POISON_FILTERS.get(poison),
                    QosProfile(dict(_QOS[profile])) if profile else None,
                )
            except SoapFault as fault:
                if self.controller and self.controller.profile_for(self.sinks[index].address):
                    return f"{tag}: the refused Subscribe left its QoS profile registered"
                wanted = [self.family.faults["filter"]] if uncompilable else []
                if qos:
                    wanted.append(self.family.faults["qos"])
                if _expiry_is_invalid(spec):
                    wanted.append(self.family.faults["expiry"])
                if not wanted:
                    return f"{tag}: unexpected fault: {fault}"
                if not any(self._fault_matches(fault, subcode) for subcode in wanted):
                    return f"{tag}: fault lacks {' or '.join(wanted)} subcode: {fault}"
                self.model.append(
                    {"handle": None, "expires": 0.0, "gone": True, "expected": [], "mute": True}
                )
                continue
            if uncompilable:
                return f"{tag}: uncompilable filter {_POISON_FILTERS[poison]!r} was accepted"
            if _expiry_is_invalid(spec):
                return f"{tag}: invalid expiration {text!r} was granted"
            if qos:
                return f"{tag}: unsupported QoS {_UNSUPPORTED_QOS[qos]} was granted"
            failure, granted = self._grant_failure(
                spec, text, now, self.clock.now(), handle.expires_text
            )
            if failure is not None:
                return f"{tag}: {failure}"
            self.model.append(
                {
                    "handle": handle, "expires": granted, "gone": False,
                    "expected": [], "mute": poison is not None,
                }
            )
        return None

    def _fault_matches(self, fault: SoapFault, wanted: str) -> bool:
        subcode = getattr(fault, "subcode", None)
        if subcode is not None and wanted in subcode.local:
            return True
        return wanted in str(fault)

    def _apply(self, step: int, op: dict) -> Optional[str]:
        kind = op["op"]
        if kind == "advance":
            self.clock.advance(float(op["secs"]))
            return None
        if kind == "publish":
            marker = f"m{self.published}"
            self.published += 1
            for sub in self.model:
                if self._live(sub) and not sub["mute"]:  # a failing filter matches nothing
                    sub["expected"].append(marker)
            self.source.publish(
                XElem(QName("", "conf-evt"), children=[marker]), topic=self.family.topic
            )
            if self.manager is not None:
                self.manager.run_until_idle()
            return self._check_deliveries(f"after publish {marker}")
        sub = self.model[op["sub"]]
        if sub["handle"] is None:
            return None  # never created (faulted at subscribe): nothing to manage
        if kind in ("renew", "set_termination"):
            return self._apply_renew(sub, op)
        if kind == "unsubscribe":
            return self._apply_unsubscribe(sub, op)
        return self._apply_status(sub, op)

    def _apply_renew(self, sub: dict, op: dict) -> Optional[str]:
        spec = op["expires"]
        now = self.clock.now()
        text = _render_expiry(spec, now)
        live = self._live(sub)
        # WSRF SetTerminationTime takes an absolute time or nothing ("never")
        wsrf = op["op"] == "set_termination"
        invalid = spec["kind"] not in ("none", "datetime") if wsrf else _expiry_is_invalid(spec)
        try:
            if wsrf:
                granted = self.subscriber.set_termination_time(sub["handle"], text)
            else:
                granted = self.subscriber.renew(sub["handle"], text)
        except SoapFault as fault:
            if live and not invalid:
                return f"sub {op['sub']}: unexpected {op['op']} fault: {fault}"
            wanted = "UnableToSetTerminationTimeFault" if wsrf else self.family.faults["renew"]
            if live and not self._fault_matches(fault, wanted):
                return f"sub {op['sub']}: {op['op']} fault lacks {wanted} subcode: {fault}"
            return None  # dead subscription or invalid expiry: fault is the contract
        if not live:
            return f"sub {op['sub']}: {op['op']} of a dead subscription succeeded"
        if invalid:
            return f"sub {op['sub']}: invalid renewal {text!r} was granted"
        if wsrf and spec["kind"] == "none":
            if granted:
                return f"sub {op['sub']}: infinite termination reported as {granted!r}"
            sub["expires"] = float("inf")
            return None
        failure, granted_at = self._grant_failure(
            spec, text, now, self.clock.now(), granted
        )
        if failure is not None:
            return f"sub {op['sub']}: renew {failure}"
        sub["expires"] = granted_at
        return None

    def _apply_unsubscribe(self, sub: dict, op: dict) -> Optional[str]:
        live = self._live(sub)
        try:
            self.subscriber.unsubscribe(sub["handle"])
        except SoapFault as fault:
            if live:
                return f"sub {op['sub']}: unexpected unsubscribe fault: {fault}"
            return None
        if not live:
            return f"sub {op['sub']}: unsubscribe of a dead subscription succeeded"
        sub["gone"] = True
        return None

    def _apply_status(self, sub: dict, op: dict) -> Optional[str]:
        live = self._live(sub)
        answer = self.family.status[self.case["version"]]
        try:
            reported = self.subscriber.get_status(sub["handle"])
        except OperationNotAvailable as fault:
            # dead or alive: the client refuses before anything reaches the wire
            return f"sub {op['sub']}: {fault}" if answer is not None else None
        except SoapFault as fault:
            if live:
                return f"sub {op['sub']}: unexpected status fault: {fault}"
            return None
        if answer is None:
            return f"sub {op['sub']}: status {reported!r} from a version that defines none"
        if not live:
            return f"sub {op['sub']}: status of a dead subscription succeeded"
        expected = format_datetime(sub["expires"]) if answer == "lease" else answer
        if reported != expected:
            return f"sub {op['sub']}: status reports {reported!r}, model says {expected!r}"
        return None

    def _check_deliveries(self, when: str) -> Optional[str]:
        for index, sub in enumerate(self.model):
            if sub["handle"] is None:
                continue
            actual = self.delivered(index)
            if actual != sub["expected"]:
                return (
                    f"[{self.case['family']}/{self.case['version']}] {when}: "
                    f"sub {index} saw {actual}, model expects {sub['expected']}"
                )
        return None

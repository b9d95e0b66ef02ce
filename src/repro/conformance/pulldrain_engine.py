"""Pull-drain engine: "at most N" semantics on every pull-style surface.

Each case fills one drainable backlog — a firewall message box (drained
through WSN ``GetMessages`` or WSE ``Pull``), a WSN 1.3 pull point, or a
WSE / converged pull-mode subscription — then replays a generated sequence of drain
requests against it over the simulated network, with a list of markers as
the reference model.  The contract under test is the one
:func:`repro.delivery.limits.parse_drain_limit` centralizes:

- an omitted maximum drains the whole backlog (the historical default);
- an explicit maximum of zero, or any negative maximum, takes **nothing**
  (the seed's ``queue[: limit or len(queue)]`` drained everything on zero
  and sliced from the tail on negatives);
- non-numeric text is a **Sender** fault, never an unhandled server error;
- every successful drain removes exactly what it returned, in FIFO order.
"""

from __future__ import annotations

from typing import Optional

from repro.conformance.gen import pick
from repro.convergence import MODE_PULL, ConvergedSource, ConvergedSubscriber
from repro.soap.fault import FaultCode, SoapFault
from repro.transport import SimulatedNetwork, VirtualClock
from repro.util.rng import SeededRng
from repro.wse import DeliveryMode, EventSource, WseSubscriber
from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName

_SURFACES = ("msgbox_wsn", "msgbox_wse", "pullpoint", "wse_pull")
_ALL_SURFACES = _SURFACES + ("wsen_pull",)  # drawn late, see generate
_GARBAGE = ("x", "1.5", "NaN", "2x")
_MAX_BACKLOG = 50


def _gen_pull(rng: SeededRng) -> dict:
    roll = rng.randrange(100)
    if roll < 25:
        return {"kind": "all"}
    if roll < 80:
        return {"kind": "n", "value": rng.randrange(10) - 3}
    return {"kind": "garbage", "text": pick(rng, _GARBAGE)}


def _valid_pull(spec: object) -> bool:
    if not isinstance(spec, dict):
        return False
    kind = spec.get("kind")
    if kind == "all":
        return True
    if kind == "n":
        return isinstance(spec.get("value"), int) and not isinstance(
            spec.get("value"), bool
        )
    if kind == "garbage":
        return spec.get("text") in _GARBAGE
    return False


class PullDrainEngine:
    name = "pulldrain"

    def generate(self, rng: SeededRng) -> dict:
        case = {
            "surface": pick(rng, _SURFACES),
            "backlog": rng.randrange(7),
            "pulls": [_gen_pull(rng) for _ in range(1 + rng.randrange(4))],
        }
        # drawn last, so the schedules above are what they were before the
        # converged prototype had a pull surface
        if case["surface"] == "wse_pull" and rng.randrange(2):
            case["surface"] = "wsen_pull"
        return case

    # --- validity (the shrinker mutates blindly) --------------------------

    def _valid(self, case: object) -> bool:
        if not isinstance(case, dict):
            return False
        if case.get("surface") not in _ALL_SURFACES:
            return False
        backlog = case.get("backlog")
        if not isinstance(backlog, int) or not 0 <= backlog <= _MAX_BACKLOG:
            return False
        pulls = case.get("pulls")
        return (
            isinstance(pulls, list)
            and bool(pulls)
            and all(_valid_pull(p) for p in pulls)
        )

    # --- execution --------------------------------------------------------

    def check(self, case: object) -> Optional[str]:
        if not self._valid(case):
            return None
        surface = _SURFACE_RUNNERS[case["surface"]](case)
        markers = [f"m{i}" for i in range(case["backlog"])]
        surface.fill(markers)
        remaining = list(markers)
        for step, spec in enumerate(case["pulls"]):
            tag = f"[{case['surface']}] pull {step} ({spec['kind']})"
            if spec["kind"] == "garbage":
                try:
                    got = surface.drain(spec)
                except SoapFault as fault:
                    if fault.code is not FaultCode.SENDER:
                        return f"{tag}: fault code {fault.code!r}, not Sender"
                    continue
                return (
                    f"{tag}: non-numeric maximum {spec['text']!r} was accepted "
                    f"and returned {got}"
                )
            if spec["kind"] == "all":
                expected = remaining
            elif spec["value"] <= 0:
                expected = []
            else:
                expected = remaining[: spec["value"]]
            try:
                got = surface.drain(spec)
            except SoapFault as fault:
                return f"{tag}: unexpected fault: {fault}"
            if got != expected:
                return f"{tag}: drained {got}, model expects {expected}"
            remaining = remaining[len(expected):]
        return None


def _marker_payload(marker: str) -> XElem:
    return XElem(QName("", "pd-evt"), children=[marker])


def _wse_maximum(spec: dict):
    """``max_messages`` for the WSE-style pull clients: a falsy 0 omits
    MaxMessages entirely; a literal 0 must go on the wire, so numbers travel
    as (truthy) text."""
    if spec["kind"] == "all":
        return 0
    return spec["text"] if spec["kind"] == "garbage" else str(spec["value"])


class _MsgboxRun:
    """A firewall message box, filled by direct park."""

    def __init__(self, case: dict) -> None:
        self.network = SimulatedNetwork(VirtualClock())
        from repro.delivery.messagebox import MessageBox

        self.box = MessageBox(self.network, "http://conf-box", "http://conf-sink")

    def fill(self, markers: list[str]) -> None:
        from repro.delivery.task import DeliveryItem

        for marker in markers:
            self.box.park(DeliveryItem(_marker_payload(marker)))


class _MsgboxWsnRun(_MsgboxRun):
    """Drained with the stock WSN PullPointClient (GetMessages)."""

    def __init__(self, case: dict) -> None:
        super().__init__(case)
        from repro.wsn.pullpoint import PullPointClient

        self.client = PullPointClient(self.network)

    def drain(self, spec: dict) -> list[str]:
        maximum = None if spec["kind"] == "all" else spec.get("value", spec.get("text"))
        batch = self.client.get_messages(self.box.epr(), maximum=maximum)
        return [item.payload.full_text() for item in batch]


class _MsgboxWseRun(_MsgboxRun):
    """Drained with the WSE-side Pull helper."""

    def drain(self, spec: dict) -> list[str]:
        from repro.delivery.messagebox import drain_message_box_wse

        payloads = drain_message_box_wse(
            self.network, self.box.epr(), max_messages=_wse_maximum(spec)
        )
        return [payload.full_text() for payload in payloads]


class _PullPointRun:
    """A WSN 1.3 pull point, filled by wire Notify."""

    def __init__(self, case: dict) -> None:
        self.network = SimulatedNetwork(VirtualClock())
        from repro.soap.envelope import SoapVersion
        from repro.transport.endpoint import SoapClient
        from repro.wsn.pullpoint import PullPoint, PullPointClient
        from repro.wsn.versions import WsnVersion

        version = WsnVersion.V1_3
        self.point = PullPoint(self.network, "http://conf-pp", version)
        self.client = PullPointClient(self.network)
        self._notifier = SoapClient(
            self.network,
            wsa_version=version.wsa_version,
            soap_version=SoapVersion.V11,
        )
        self._notify_action = version.action("Notify")

    def fill(self, markers: list[str]) -> None:
        for marker in markers:
            self._notifier.call(
                self.point.epr(),
                self._notify_action,
                [_marker_payload(marker)],
                expect_reply=False,
            )

    def drain(self, spec: dict) -> list[str]:
        maximum = None if spec["kind"] == "all" else spec.get("value", spec.get("text"))
        batch = self.client.get_messages(self.point.epr(), maximum=maximum)
        return [item.payload.full_text() for item in batch]


class _PullRun:
    """A pull-mode subscription at a real source: WS-Eventing 08/2004's, or
    the converged (WS-EventNotification) prototype's."""

    #: surface -> the source, its subscriber, the Subscribe mode that asks
    #: for pull delivery, and the payload of one pulled item
    STACKS = {
        "wse_pull": (EventSource, WseSubscriber, DeliveryMode.PULL, lambda item: item),
        "wsen_pull": (ConvergedSource, ConvergedSubscriber, MODE_PULL, lambda item: item[0]),
    }

    def __init__(self, case: dict) -> None:
        self.network = SimulatedNetwork(VirtualClock())
        source, subscriber, mode, self.payload_of = self.STACKS[case["surface"]]
        self.source = source(self.network, "http://conf-source")
        self.subscriber = subscriber(self.network)
        self.handle = self.subscriber.subscribe(self.source.epr(), mode=mode)

    def fill(self, markers: list[str]) -> None:
        for marker in markers:
            self.source.publish(_marker_payload(marker))

    def drain(self, spec: dict) -> list[str]:
        items = self.subscriber.pull(self.handle, max_messages=_wse_maximum(spec))
        return [self.payload_of(item).full_text() for item in items]


_SURFACE_RUNNERS = {
    "msgbox_wsn": _MsgboxWsnRun,
    "msgbox_wse": _MsgboxWseRun,
    "pullpoint": _PullPointRun,
    "wse_pull": _PullRun,
    "wsen_pull": _PullRun,
}

"""Byte-identity differential for control envelopes: the framed head against
the tree it was compiled from.

Every control request (``SoapClient.call``) and every reply a handler returns
leaves as ``head template + serialize_subtree(body)`` (``repro.render``,
DESIGN.md "Control envelopes: the framed head"); the tree path it falls back
to is the oracle.  For WS-Eventing 01/2004 and 08/2004, WS-BaseNotification
1.0 / 1.2 / 1.3 (WSRF on), the broker's 1.3 service (WS-BrokeredNotification's
registration rows too) and the converged source, one lifecycle that reaches
every row its ``OperationTable`` serves — the test reads the rows off the
table, so a row added to a table and not to the lifecycle fails here — runs
twice, framed and with the frame cache's lookup declining
(the ``frames_oracle`` fixture), and the request *and* response bytes of every
exchange must be equal, hostile slot values included.
"""

import re

import pytest

from repro import render
from repro.baselines.ogsi.grid_service import OGSI_NS
from repro.composition.security import SECURITY_HEADER, secure_endpoint, sign_envelope
from repro.convergence import MODE_PULL, ConvergedConsumer, ConvergedSource, ConvergedSubscriber
from repro.soap import SoapFault
from repro.soap.codec import serialize_envelope
from repro.soap.envelope import SoapVersion
from repro.transport import SimulatedNetwork, VirtualClock
from repro.transport.endpoint import SoapClient, SoapEndpoint
from repro.transport.http import parse_request
from repro.util.xstime import format_datetime
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import MessageHeaders, reply_envelope, reset_message_counter
from repro.wsa.versions import WsaVersion
from repro.wse import DeliveryMode, EventSink, EventSource, WseSubscriber, WseVersion
from repro.messenger import WsMessenger
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber, WsnVersion
from repro.wsn.messages import BROKERED_NS, REGISTRATION_ID
from repro.wsn.producer import PROP_STATUS, PROP_TOPIC_SET
from repro.xmlkit import parse_xml
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import Namespaces, QName
from repro.xmlkit.template import TEMPLATE_STATS

HOSTILE = 'id & <x> "q" \r é ☃'
#: subscription ids: ordinary, needing every escape, and slot sentinels as *values*
SUB_IDS = [None, HOSTILE, render.TO[1], "urn:x-repro-template-slot:echo-0."]
TOPIC = "control"


@pytest.fixture(autouse=True)
def fresh_frames(monkeypatch):
    """Each test compiles its own heads: counts are a function of the test."""
    monkeypatch.setattr(render, "FRAMES", render.TemplateCache())
    TEMPLATE_STATS.reset()


def event(n: int = 0):
    return parse_xml(f'<e:V xmlns:e="urn:control-diff"><e:n>{n} &amp; é</e:n></e:V>')


def faulting(call, *args):
    with pytest.raises(SoapFault):
        call(*args)


# --- one lifecycle, driven by the verb table: every row the table serves ----------------


def wse_stack(network, version):
    source = EventSource(network, "http://cd-source", version=version)
    client = WseSubscriber(network, version=version)
    sink = EventSink(network, "http://cd-sink", version=version)

    def subscribe(expires=None, pull=False):
        if pull:
            return client.subscribe(source.epr(), mode=DeliveryMode.PULL)
        return client.subscribe(
            source.epr(), notify_to=sink.epr(), end_to=sink.epr(), expires=expires,
            filter="/e:V", filter_namespaces={"e": "urn:control-diff"},
        )

    return source, client, subscribe


def wsn_stack(network, version):
    source = NotificationProducer(network, "http://cd-producer", version=version, enable_wsrf=True)
    client = WsnSubscriber(network, version=version)
    sink = NotificationConsumer(network, "http://cd-consumer", version=version)

    def subscribe(expires=None, pull=False):
        return client.subscribe(source.epr(), sink.epr(), topic=TOPIC, initial_termination=expires)

    return source, client, subscribe


def broker_stack(network, version):
    """The broker's WSN service: Table 2's rows plus, in 1.3, the two of
    WS-BrokeredNotification."""
    broker = WsMessenger(network, "http://cd-broker", wse_versions=[], wsn_versions=[version])
    source = broker.wsn_producers[version]
    client = WsnSubscriber(network, version=version)
    sink = NotificationConsumer(network, "http://cd-consumer", version=version)

    def subscribe(expires=None, pull=False):
        return client.subscribe(source.epr(), sink.epr(), topic=TOPIC, initial_termination=expires)

    return source, client, subscribe


def converged_stack(network, version):
    source = ConvergedSource(network, "http://cd-converged")
    client = ConvergedSubscriber(network)
    sink = ConvergedConsumer(network, "http://cd-wsen-consumer")

    def subscribe(expires=None, pull=False):
        if pull:
            return client.subscribe(source.epr(), mode=MODE_PULL, topic=TOPIC)
        return client.subscribe(
            source.epr(), consumer=sink.epr(), end_to=sink.epr(), topic=TOPIC, expires=expires
        )

    return source, client, subscribe


#: every verb any client has, in an order one live subscription allows; the
#: two that end it come last, each on a subscription of its own
VERBS = (
    "get_current_message", "renew", "set_termination_time", "get_resource_property",
    "get_status", "pause", "resume", "pull", "register_publisher", "destroy_registration",
    "unsubscribe", "destroy",
)


def mint_once(manager, sub_id):
    """The next subscription ``manager`` creates gets ``sub_id`` as its key."""
    create = manager.create

    def pinned(**fields):
        del manager.create  # back to the class's own
        return create(**{**fields, "key": sub_id})

    manager.create = pinned


def lifecycle(network, stack, version, sub_id):
    """Drives every verb the source serves a row for; the rows are read off
    ``source.operations``, so a table that gains one drives it here too."""
    source, client, subscribe = stack(network, version)
    assert set(client.verbs) - {"subscribe"} <= set(VERBS), "a verb this lifecycle does not know"
    served = {row.name for row in source.operations.rows if not row.one_way}
    lease = lambda offset: format_datetime(network.clock.now() + offset)  # noqa: E731
    if sub_id is not None:
        mint_once(source.subscriptions, sub_id)
    handle = subscribe(expires=lease(60.0))
    source.publish(event(), topic=TOPIC)
    registration = None
    arguments = {
        "get_current_message": lambda: (source.epr(), TOPIC),
        "renew": lambda: (handle, lease(900.0)),
        "set_termination_time": lambda: (handle, lease(1200.0)),
        "get_resource_property": lambda: (handle, PROP_STATUS),
        "register_publisher": lambda: (source.epr(),),
        "destroy_registration": lambda: (registration,),
    }
    for verb in VERBS:
        if verb not in client.verbs or client.verbs[verb].operation not in served:
            continue
        if verb == "pull":
            pulling = subscribe(pull=True)
            source.publish(event(1), topic=TOPIC)
            assert len(client.pull(pulling, max_messages=5)) == 1
            continue
        answer = getattr(client, verb)(*arguments.get(verb, lambda: (handle,))())
        if verb == "register_publisher":
            registration = answer
        if verb == "destroy_registration":
            faulting(client.destroy_registration, registration)  # unknown by now
        if verb == "renew":
            faulting(client.renew, handle, HOSTILE)  # a hostile lease text: a fault, framed request
        if verb == "get_resource_property":
            # the operation's other row: the producer is a WS-Resource too
            client.get_resource_property(source.epr(), PROP_TOPIC_SET)
        if verb in ("unsubscribe", "destroy"):
            faulting(getattr(client, verb), handle)  # unknown by now
            handle = subscribe()
    return source


DIALECTS = {
    "wse-2004-01": (wse_stack, WseVersion.V2004_01),
    "wse-2004-08": (wse_stack, WseVersion.V2004_08),
    "wsn-1.0": (wsn_stack, WsnVersion.V1_0),
    "wsn-1.2": (wsn_stack, WsnVersion.V1_2),
    "wsn-1.3": (wsn_stack, WsnVersion.V1_3),
    "wsn-1.3-broker": (broker_stack, WsnVersion.V1_3),
    "converged": (converged_stack, None),
}


def exchanges_of(drive, frames_oracle, *, tree: bool):
    """``drive(network)`` on a fresh network: every exchange's
    ``(address, request bytes, response bytes)`` and what ``drive`` returned."""
    frames_oracle(tree)
    reset_message_counter()
    network = SimulatedNetwork(VirtualClock())
    wire = []
    network.wire_observers.append(
        lambda obs: wire.append((obs.address, bytes(obs.request), bytes(obs.response or b"")))
    )
    result = drive(network)
    frames_oracle(False)
    return wire, result


def differential(drive, frames_oracle):
    """Both runs; the framed one is returned once it equals the tree run."""
    tree, _ = exchanges_of(drive, frames_oracle, tree=True)
    assert len(render.FRAMES) == 0, "the oracle builds trees only"
    TEMPLATE_STATS.reset()
    framed, result = exchanges_of(drive, frames_oracle, tree=False)
    assert len(framed) == len(tree)
    for got, want in zip(framed, tree):
        assert got == want
    return framed, result


def action_of(request: bytes) -> str:
    return parse_request(request).headers["SOAPAction"].strip('"')


@pytest.mark.parametrize("sub_id", SUB_IDS, ids=["minted", "hostile", "to-sentinel", "echo-sentinel"])
@pytest.mark.parametrize("dialect", DIALECTS)
def test_every_served_operation_is_byte_identical_to_its_tree(dialect, sub_id, frames_oracle):
    stack, version = DIALECTS[dialect]
    wire, source = differential(
        lambda network: lifecycle(network, stack, version, sub_id), frames_oracle
    )
    at = {"source": source.address, "manager": source.manager_address}
    served = {(at[row.port], row.action) for row in source.operations.rows if not row.one_way}
    reached = {(address, action_of(request)) for address, request, _ in wire}
    assert served <= reached, f"the lifecycle skips {served - reached}"
    # ordinary control traffic never leaves the frame — a sentinel as a slot
    # *value* is only text to a join — and every reply that is not a fault hit
    assert TEMPLATE_STATS.fallbacks == 0
    assert TEMPLATE_STATS.hits > 0 and TEMPLATE_STATS.misses > 0
    if sub_id is not None:
        escaped = sub_id.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        escaped = escaped.replace("\r", "&#13;").encode("utf-8")
        assert any(escaped in request for _, request, _ in wire)


# --- what no head fits: the five fallbacks, counted, bytes equal -----------------------

ECHO = "http://cd-echo"
ACTION = "urn:cd:Op"
WSA = WsaVersion.V2005_08


def echo_service(network):
    """Answers any request with its own body, framed like every reply."""
    endpoint = SoapEndpoint(network, ECHO)
    endpoint.on_any(
        lambda envelope, headers: render.reply_text(
            headers, ACTION + "Response", envelope.first_body().copy(), WSA
        )
    )
    return endpoint


def call_echo(network, target=None, body=None, **kwargs):
    echo_service(network)
    body = [XElem(QName("urn:cd", "Op"), None, ["x"])] if body is None else body
    return SoapClient(network, wsa_version=WSA).call(
        target or EndpointReference(ECHO), ACTION, body, **kwargs
    )


def nested_parameter(network):
    nested = XElem(QName("urn:cd", "Route"), None, [text_element(QName("urn:cd", "Hop"), "a&b")])
    return call_echo(network, EndpointReference(ECHO).with_parameter(nested))


def extra_headers(network):
    return call_echo(network, extra_headers=[text_element(QName("urn:cd", "Trace"), "t<1>")])


def two_body_elements(network):
    element = XElem(QName("urn:cd", "Op"))
    return call_echo(network, body=[element, element.copy()], expect_reply=False)


def sentinel_in_a_baked_position(network):
    # the ReplyTo EPR is baked into the head, so a sentinel inside it collides
    return call_echo(network, reply_to=EndpointReference(f"http://cd-reply/{render.TO[1]}"))


@pytest.mark.parametrize(
    "drive, request_fallbacks",
    [
        (nested_parameter, 1),
        (extra_headers, 1),
        (two_body_elements, 1),
        (sentinel_in_a_baked_position, 1),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_what_no_head_fits_takes_the_tree_path_counted(drive, request_fallbacks, frames_oracle):
    differential(drive, frames_oracle)
    assert TEMPLATE_STATS.fallbacks == request_fallbacks


def test_a_body_that_wants_an_undeclared_prefix_is_refused_by_the_sealed_head(frames_oracle):
    # an xmlns-namespace attribute is not a namespace the head declared: the
    # tree writer allocates its prefix while writing (no parser takes the
    # result, so this one stays off the wire); the sealed head must not be
    # written to, before or after
    odd = XElem(QName("urn:cd", "Op"), {QName(Namespaces.XMLNS, "odd"): "urn:odd"})
    plain = XElem(QName("urn:cd", "Op"), None, ["x"])

    def texts():
        reset_message_counter()
        return [
            render.control_envelope(
                SoapVersion.V11, WSA, MessageHeaders.request(EndpointReference(ECHO), ACTION), [body]
            )
            for body in (plain, odd, plain, odd)
        ]

    frames_oracle(True)
    tree = texts()
    frames_oracle(False)
    TEMPLATE_STATS.reset()
    assert texts() == tree
    assert TEMPLATE_STATS.snapshot() == {"hits": 3, "misses": 1, "fallbacks": 2}


def test_an_envelope_filter_still_sees_a_tree(frames_oracle):
    key = b"shared-secret"
    seen = []

    def sign(envelope):
        seen.append(envelope)
        sign_envelope(envelope, key)

    def drive(network):
        secure_endpoint(echo_service(network), key)
        client = SoapClient(network, wsa_version=WSA, envelope_filter=sign)
        return client.call(EndpointReference(ECHO), ACTION, [XElem(QName("urn:cd", "Op"))])

    wire, reply = differential(drive, frames_oracle)
    assert reply is not None and len(seen) == 2  # verified by the secured endpoint, both runs
    assert all(envelope.header(SECURITY_HEADER) is not None for envelope in seen)
    assert TEMPLATE_STATS.fallbacks == 1  # the signed request; its reply is framed


def test_a_reply_to_with_reference_parameters_is_echoed_framed_and_tree(frames_oracle):
    reply_to = EndpointReference("http://cd-elsewhere").with_parameter(
        text_element(QName("urn:cd", "Correlation"), HOSTILE)
    )
    wire, reply = differential(lambda network: call_echo(network, reply_to=reply_to), frames_oracle)
    assert reply.header_text(WSA.qname("To")) == "http://cd-elsewhere"
    echoed = reply.header(QName("urn:cd", "Correlation"))
    assert echoed is not None and echoed.full_text() == HOSTILE
    assert TEMPLATE_STATS.fallbacks == 0


def brokered_reply(local: str, *children) -> tuple:
    return f"{BROKERED_NS}/{local}", XElem(QName(BROKERED_NS, local), None, children), WSA


def ogsi_reply(local: str) -> tuple:
    return f"{OGSI_NS}/{local}", XElem(QName(OGSI_NS, local)), WsaVersion.V2003_03


#: (action, body, WS-Addressing version) of replies as their handlers build them
REPLIES = [
    ("urn:aResponse", text_element(QName("urn:cd", "Done"), "ok"), WSA),
    # WS-BrokeredNotification's registration manager
    brokered_reply(
        "RegisterPublisherResponse",
        EndpointReference("http://cd-broker/registrations")
        .with_parameter(text_element(REGISTRATION_ID, "reg-1"))
        .to_element(WSA, QName(BROKERED_NS, "PublisherRegistrationReference")),
    ),
    brokered_reply("DestroyRegistrationResponse"),
    # the OGSI grid service (WS-Addressing 2003/03)
    ogsi_reply("requestTerminationAfterResponse"),
]


def test_reply_text_is_reply_envelope_serialised():
    request = MessageHeaders("http://x", "urn:a", message_id="urn:uuid:req-1")
    for action, body, version in REPLIES:
        reset_message_counter()
        tree = serialize_envelope(reply_envelope(request, action, body, version))
        for _ in range(2):  # a miss, then a hit
            reset_message_counter()
            assert render.reply_text(request, action, body, version) == tree
    assert TEMPLATE_STATS.snapshot() == {"hits": len(REPLIES), "misses": len(REPLIES), "fallbacks": 0}


# --- the differential has teeth ---------------------------------------------------------


@pytest.mark.parametrize("damage", ["drop", "reorder"])
def test_the_differential_fails_when_the_frame_drops_or_reorders_a_header(
    damage, monkeypatch, frames_oracle
):
    compile_head = render._compile_head
    action = re.compile(r"<(wsa\w*):Action .*?</\1:Action>")

    def sabotaged(soap_version, wsa_version, headers, order):
        template, allocator = compile_head(soap_version, wsa_version, headers, order)
        if not headers.relates_to:
            return template, allocator  # a request without its Action is not even dispatched
        found = action.search(template.segments[1])
        rest = template.segments[1].replace(found.group(0), "")
        template.segments[1] = rest if damage == "drop" else rest + found.group(0)
        return template, allocator

    monkeypatch.setattr(render, "_compile_head", sabotaged)
    stack, version = DIALECTS["wsn-1.3"]
    with pytest.raises(AssertionError):
        differential(lambda network: lifecycle(network, stack, version, None), frames_oracle)


def test_soap_12_and_every_addressing_version_frame_alike(frames_oracle):
    def drive(network):
        echo_service(network)
        target = EndpointReference(ECHO).with_property(text_element(QName("urn:cd", "Id"), HOSTILE))
        for wsa_version in WsaVersion:
            for soap_version in SoapVersion:
                client = SoapClient(network, wsa_version=wsa_version, soap_version=soap_version)
                for _ in range(2):
                    client.call(target, ACTION, [XElem(QName("", "bare"), {QName("", "a"): '"'})])

    differential(drive, frames_oracle)
    assert TEMPLATE_STATS.fallbacks == 0

"""Ablation — push vs pull vs wrapped delivery (WSE 08/2004).

The paper motivates wrapped mode as "pack several notification messages
into one message for efficient delivery" and pull mode for firewalled
consumers.  This bench measures per-event wall time and wire bytes for the
three modes at a fixed batch size, confirming the expected shape: wrapped
spends fewer wire bytes and round trips per event than push; pull trades
latency for reachability.
"""

from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import DeliveryMode, EventSink, EventSource, WseSubscriber
from repro.xmlkit import parse_xml

BATCH = 50

_report: dict[str, tuple[int, int]] = {}
_printed = False


def _event(n):
    return parse_xml(f'<ev:E xmlns:ev="urn:dm"><ev:n>{n}</ev:n></ev:E>')


def _push_stack():
    network = SimulatedNetwork(VirtualClock())
    source = EventSource(network, "http://src")
    sink = EventSink(network, "http://snk")
    WseSubscriber(network).subscribe(source.epr(), notify_to=sink.epr())
    return network, source, sink, None


def _wrapped_stack():
    network = SimulatedNetwork(VirtualClock())
    source = EventSource(network, "http://src")
    sink = EventSink(network, "http://snk")
    WseSubscriber(network).subscribe(
        source.epr(), notify_to=sink.epr(), mode=DeliveryMode.WRAPPED
    )
    return network, source, sink, None


def _pull_stack():
    network = SimulatedNetwork(VirtualClock())
    source = EventSource(network, "http://src")
    subscriber = WseSubscriber(network)
    handle = subscriber.subscribe(source.epr(), mode=DeliveryMode.PULL)
    return network, source, subscriber, handle


def _run_push(stack):
    network, source, sink, _ = stack
    sink.received.clear()
    network.stats.reset()
    for n in range(BATCH):
        source.publish(_event(n))
    assert len(sink.received) == BATCH
    return network.stats


def _run_wrapped(stack):
    network, source, sink, _ = stack
    sink.received.clear()
    network.stats.reset()
    for n in range(BATCH):
        source.publish(_event(n))
    source.flush()
    assert len(sink.received) == BATCH
    return network.stats


def _run_pull(stack):
    network, source, subscriber, handle = stack
    network.stats.reset()
    for n in range(BATCH):
        source.publish(_event(n))
    pulled = subscriber.pull(handle)
    assert len(pulled) == BATCH
    return network.stats


def test_push_mode(benchmark):
    stack = _push_stack()
    stats = benchmark(_run_push, stack)
    _report["push"] = (stats.requests, stats.bytes_sent)


def test_wrapped_mode(benchmark):
    stack = _wrapped_stack()
    stats = benchmark(_run_wrapped, stack)
    _report["wrapped"] = (stats.requests, stats.bytes_sent)


def test_pull_mode(benchmark):
    stack = _pull_stack()
    stats = benchmark(_run_pull, stack)
    _report["pull"] = (stats.requests, stats.bytes_sent)


def test_delivery_mode_shape(benchmark):
    """The paper's qualitative claims, checked quantitatively."""
    benchmark(lambda: None)  # shape check; the timing above is the data
    for name, runner, stack_fn in [
        ("push", _run_push, _push_stack),
        ("wrapped", _run_wrapped, _wrapped_stack),
        ("pull", _run_pull, _pull_stack),
    ]:
        if name not in _report:
            stats = runner(stack_fn())
            _report[name] = (stats.requests, stats.bytes_sent)
    push_requests, push_bytes = _report["push"]
    wrapped_requests, wrapped_bytes = _report["wrapped"]
    pull_requests, pull_bytes = _report["pull"]
    # wrapped batches: ~1/10th the requests and strictly fewer bytes than push
    assert wrapped_requests < push_requests / 2
    assert wrapped_bytes < push_bytes
    # pull: one poll round-trip regardless of batch
    assert pull_requests == 1
    global _printed
    if not _printed:
        _printed = True
        print()
        print(f"{BATCH} events per round:")
        for name in ("push", "wrapped", "pull"):
            requests, sent = _report[name]
            print(f"  {name:8s}: {requests:3d} wire requests, {sent:7d} bytes sent")

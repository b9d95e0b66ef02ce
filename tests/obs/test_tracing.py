"""Unit tests for the tracer: nesting, parentage, error capture, reset."""

import pytest

from repro.obs.tracing import Tracer
from repro.transport import VirtualClock


def make_tracer():
    return Tracer(VirtualClock())


class TestNesting:
    def test_sibling_spans_share_no_parent(self):
        tracer = make_tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.parent_id for s in tracer.spans] == [None, None]
        assert len(tracer.roots()) == 2

    def test_nested_spans_link_to_enclosing_span(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle"):
                with tracer.span("inner") as inner:
                    assert tracer.current() is inner
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["middle"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].parent_id == by_name["middle"].span_id
        assert tracer.depth_of(by_name["inner"]) == 2
        assert tracer.children_of(outer) == [by_name["middle"]]
        assert tracer.current() is None

    def test_timestamps_come_from_the_virtual_clock(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        with tracer.span("op") as span:
            clock.advance(0.25)
        assert span.start == 0.0
        assert span.end == 0.25
        assert span.duration == 0.25


class TestErrorsAndAttrs:
    def test_exception_marks_span_errored_and_propagates(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.status == "error"
        assert span.error == "RuntimeError: boom"
        assert span.end is not None  # closed despite the exception
        assert tracer.current() is None  # stack unwound

    def test_attrs_at_open_and_mid_span(self):
        tracer = make_tracer()
        with tracer.span("detect", family="wse") as span:
            span.set("version", "v2004_08")
        record = tracer.spans[0].to_dict()
        assert record["attrs"] == {"family": "wse", "version": "v2004_08"}
        assert record["status"] == "ok"
        assert "error" not in record


class TestLifecycle:
    def test_reset_drops_finished_but_keeps_open_spans(self):
        tracer = make_tracer()
        with tracer.span("done"):
            pass
        with tracer.span("open") as still_open:
            tracer.reset()
            assert tracer.spans == [still_open]
            with tracer.span("child") as child:
                assert child.parent_id == still_open.span_id

    def test_render_tree_indents_children_and_flags_errors(self):
        tracer = make_tracer()
        with tracer.span("root"):
            with pytest.raises(ValueError):
                with tracer.span("leaf"):
                    raise ValueError("nope")
        tree = tracer.render_tree()
        lines = tree.splitlines()
        assert lines[0].startswith("root ")
        assert lines[1].startswith("  leaf ")
        assert lines[1].endswith("!error")


class TestLineage:
    def test_mint_assigns_fresh_ids_at_hop_zero(self):
        tracer = make_tracer()
        with tracer.span("publish-1", mint=True) as first:
            pass
        with tracer.span("publish-2", mint=True) as second:
            pass
        assert first.lineage == "lin-00000001"
        assert second.lineage == "lin-00000002"
        assert (first.hop, second.hop) == (0, 0)

    def test_children_inherit_lineage_without_minting(self):
        tracer = make_tracer()
        with tracer.span("publish", mint=True) as root:
            with tracer.span("fan_out", mint=True) as inner:
                pass
        assert inner.lineage == root.lineage  # mint only fires at the root
        assert inner.hop == root.hop

    def test_remote_context_reparents_a_scheduler_fired_retry(self):
        """A retry runs on an empty stack; ``remote=`` must re-link it."""
        from repro.obs.propagation import LineageContext

        tracer = make_tracer()
        with tracer.span("publish", mint=True) as publish:
            carried = tracer.continuation()
        assert tracer.current() is None  # the enqueuing stack unwound
        with tracer.span("retry", remote=carried) as retry:
            pass
        assert retry.parent_id == publish.span_id
        assert retry.lineage == publish.lineage
        assert isinstance(carried, LineageContext)

    def test_nested_spans_across_a_retry_sequence_stay_connected(self):
        """attempt 1 (live stack) and attempts 2..n (scheduler) all land in
        one tree, and a wire dispatch under a retry advances the hop."""
        tracer = make_tracer()
        with tracer.span("publish", mint=True) as publish:
            carried = tracer.continuation()
            with tracer.span("attempt", n="1"):
                pass
        for n in (2, 3):
            with tracer.span("attempt", remote=carried, n=str(n)):
                with tracer.span("dispatch", remote=carried.step()) as dispatch:
                    assert dispatch.hop == publish.hop + 1
        lineage_spans = tracer.spans_of_lineage(publish.lineage)
        assert len(lineage_spans) == 6  # publish + 3 attempts + 2 dispatches
        assert all(
            tracer.depth_of(span) >= 1
            for span in lineage_spans
            if span is not publish
        ), "every attempt must hang off the publish, never a fresh root"

    def test_wire_hop_is_authoritative_on_a_synchronous_send(self):
        """The sender's frames are still on the stack during a synchronous
        dispatch; the hop must still advance (stack parentage is kept)."""
        tracer = make_tracer()
        with tracer.span("notify", mint=True) as notify:
            carried = tracer.continuation().step()
            with tracer.span("dispatch", remote=carried) as dispatch:
                assert dispatch.hop == notify.hop + 1
        assert dispatch.parent_id == notify.span_id  # same-lineage: keep stack

    def test_absent_lineage_degrades_to_a_fresh_untraced_root(self):
        """``remote=None`` (absent or malformed header) must not crash and
        must behave exactly as before propagation existed."""
        tracer = make_tracer()
        with tracer.span("dispatch", remote=None) as span:
            pass
        assert span.lineage is None
        assert span.parent_id is None
        assert span.hop == 0

    def test_malformed_wire_header_yields_an_untraced_dispatch(self):
        """End-to-end: garbage lineage text on the wire never faults the
        receiving endpoint; the dispatch simply starts untraced.  The same
        goes for a stray ``lin:Lineage`` SOAP header (the envelope-level
        form nobody emits any more): it is just an unknown header."""
        from repro.obs.instrument import Instrumentation
        from repro.soap import serialize_envelope
        from repro.soap.envelope import SoapEnvelope
        from repro.transport import SimulatedNetwork
        from repro.transport.endpoint import SoapEndpoint
        from repro.transport.http import build_request, parse_response
        from repro.xmlkit import parse_xml
        from repro.xmlkit.element import text_element
        from repro.xmlkit.names import QName

        network = SimulatedNetwork(VirtualClock())
        instrumentation = Instrumentation.attach(network)
        endpoint = SoapEndpoint(network, "http://trace-sink")
        endpoint.on_any(lambda envelope, headers: None)
        stray = QName("http://repro.invalid/obs/lineage", "Lineage")
        envelope = (
            SoapEnvelope()
            .add_header(text_element(stray, "01-lin-00000009-00000001-01"))
            .add_body(parse_xml('<t:Poke xmlns:t="urn:trace-test"/>'))
        )
        body = serialize_envelope(envelope).encode("utf-8")
        for lineage in ("99-bogus", None):  # garbage head; no head, stray header only
            wire = build_request(
                "http://trace-sink", body, soap_action="urn:trace-test/Poke", lineage=lineage
            )
            assert (b"X-Lineage: 99-bogus" in wire) == (lineage is not None)
            response = parse_response(network.send_request("http://trace-sink", wire))
            assert response.status == 202
        dispatches = [
            s for s in instrumentation.tracer.spans if s.name == "dispatch"
        ]
        assert len(dispatches) == 2
        assert [s.lineage for s in dispatches] == [None, None]
        assert [s.status for s in dispatches] == ["ok", "ok"]

    def test_failed_span_inside_lineage_keeps_error_and_lineage(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("publish", mint=True):
                with tracer.span("attempt"):
                    raise RuntimeError("sink down")
        attempt = next(s for s in tracer.spans if s.name == "attempt")
        assert attempt.status == "error"
        assert attempt.lineage is not None
        record = attempt.to_dict()
        assert record["lineage"] == attempt.lineage
        assert record["error"] == "RuntimeError: sink down"

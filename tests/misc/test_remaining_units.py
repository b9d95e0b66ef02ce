"""Remaining unit coverage: table diff edges, HTTP details, writer prefix
allocation."""

from repro.comparison.tables import ComparisonTable
from repro.transport.http import build_request, build_response, parse_request, parse_response
from repro.xmlkit import parse_xml, serialize_xml
from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName


class TestTableDiffEdges:
    def test_column_mismatch_short_circuits(self):
        left = ComparisonTable("t", ["a"])
        right = ComparisonTable("t", ["b"])
        diff = left.diff(right)
        assert not diff.clean
        assert "columns differ" in diff.mismatches[0]

    def test_missing_row_reported(self):
        left = ComparisonTable("t", ["a"]).add_row("only-left", True)
        right = ComparisonTable("t", ["a"]).add_row("only-right", True)
        diff = left.diff(right)
        assert any("missing" in m for m in diff.mismatches)

    def test_summary_lists_mismatches(self):
        left = ComparisonTable("t", ["a"]).add_row("r", True)
        right = ComparisonTable("t", ["a"]).add_row("r", False)
        summary = left.diff(right).summary()
        assert "mismatches" in summary and "'r'" in summary


class TestHttpDetails:
    def test_content_type_header(self):
        wire = build_request("http://h/p", b"<x/>", content_type="application/soap+xml")
        request = parse_request(wire)
        assert request.headers["Content-Type"] == "application/soap+xml"

    def test_host_header(self):
        request = parse_request(build_request("http://example.org:99/svc", b""))
        assert request.headers["Host"] == "example.org:99"

    def test_unknown_status_reason(self):
        response = parse_response(build_response(418, b""))
        assert response.status == 418 and response.reason == "Unknown"

    def test_default_path(self):
        request = parse_request(build_request("http://host", b""))
        assert request.path == "/"

    def test_content_length_matches_body(self):
        wire = build_request("http://h/p", b"12345")
        request = parse_request(wire)
        assert request.headers["Content-Length"] == "5"
        assert request.body == b"12345"


class TestWriterPrefixAllocation:
    def test_many_unknown_namespaces_get_unique_prefixes(self):
        root = XElem(QName("urn:ns-root", "root"))
        for i in range(12):
            root.append(XElem(QName(f"urn:ns-{i}", "child")))
        text = serialize_xml(root)
        again = parse_xml(text)
        assert again == root
        # all 13 namespaces declared exactly once on the root
        assert text.count("xmlns:") == 13

    def test_prefix_reuse_within_document(self):
        inner = XElem(QName("urn:one", "inner"))
        root = XElem(QName("urn:one", "outer"), children=[inner])
        text = serialize_xml(root)
        assert text.count("xmlns:") == 1  # one declaration serves both

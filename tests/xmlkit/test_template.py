"""Unit tests for the byte-template splitter (repro.xmlkit.template)."""

import pytest

from repro.xmlkit.template import (
    TEMPLATE_STATS,
    ByteTemplate,
    TemplateSlotError,
)


class TestCompile:
    def test_splits_on_sentinels_in_order(self):
        template = ByteTemplate.compile(
            "<a><b>AAA</b><c>BBB</c></a>", [("x", "AAA"), ("y", "BBB")]
        )
        assert template.slot_names == ("x", "y")
        assert template.segments == ["<a><b>", "</b><c>", "</c></a>"]

    def test_sentinel_missing_raises(self):
        with pytest.raises(TemplateSlotError):
            ByteTemplate.compile("<a>AAA</a>", [("x", "AAA"), ("y", "BBB")])

    def test_sentinel_duplicated_raises(self):
        # a payload containing a sentinel string would corrupt the splice:
        # the exactly-once check rejects it at compile time
        with pytest.raises(TemplateSlotError):
            ByteTemplate.compile("<a>AAA<b>AAA</b></a>", [("x", "AAA")])

    def test_sentinels_out_of_order_raise(self):
        with pytest.raises(TemplateSlotError):
            ByteTemplate.compile("<a>BBB AAA</a>", [("x", "AAA"), ("y", "BBB")])

    def test_overlapping_sentinels_are_refused_by_name(self):
        # "S:to" is a prefix of "S:topic": counting substrings used to report
        # "slot 'to': sentinel occurs 2 times", which reads as a payload
        # collision — callers fell back to the tree for every send
        text = "<a><b>S:to</b><c>S:topic</c></a>"
        with pytest.raises(TemplateSlotError) as refused:
            ByteTemplate.compile(text, [("to", "S:to"), ("topic", "S:topic")])
        assert "'topic'" in str(refused.value) and "'to'" in str(refused.value)
        assert "times" not in str(refused.value)
        # by name, before the text is looked at: the text need not hold either
        with pytest.raises(TemplateSlotError, match="contains the sentinel of slot 'x'"):
            ByteTemplate.compile("", [("x", "AA"), ("y", "zAAz")])
        # closing every sentinel the same way makes prefixes impossible
        ByteTemplate.compile("<a><b>S:to.</b><c>S:topic.</c></a>", [("to", "S:to."), ("topic", "S:topic.")])

    def test_renderer_sentinels_do_not_overlap(self):
        from repro.render import MESSAGE_ID, SUB_ID, TO, TOPIC

        slots = [TO, MESSAGE_ID, TOPIC, SUB_ID]
        template = ByteTemplate.compile("|".join(sentinel for _, sentinel in slots), slots)
        assert template.slot_names == ("to", "message_id", "topic", "sub_id")

    def test_empty_slot_list(self):
        template = ByteTemplate.compile("<a/>", [])
        assert template.render({}) == "<a/>"


class TestRender:
    def test_interleaves_values_with_segments(self):
        template = ByteTemplate.compile("[AAA|BBB]", [("x", "AAA"), ("y", "BBB")])
        assert template.render({"x": "1", "y": "2"}) == "[1|2]"

    def test_roundtrip_with_original_values_reproduces_source(self):
        source = "<m><id>urn:x-slot:id</id><body>urn:x-slot:b</body></m>"
        template = ByteTemplate.compile(
            source, [("id", "urn:x-slot:id"), ("b", "urn:x-slot:b")]
        )
        assert (
            template.render({"id": "urn:x-slot:id", "b": "urn:x-slot:b"}) == source
        )

    def test_render_is_repeatable(self):
        template = ByteTemplate.compile("a SLOT z", [("s", "SLOT")])
        first = template.render({"s": "one"})
        second = template.render({"s": "one"})
        assert first == second == "a one z"


class TestStats:
    def test_reset_and_snapshot(self):
        TEMPLATE_STATS.reset()
        TEMPLATE_STATS.hits += 2
        TEMPLATE_STATS.misses += 1
        assert TEMPLATE_STATS.snapshot() == {
            "hits": 2,
            "misses": 1,
            "fallbacks": 0,
        }
        TEMPLATE_STATS.reset()
        assert TEMPLATE_STATS.snapshot() == {"hits": 0, "misses": 0, "fallbacks": 0}

"""Unit tests for the lineage header text: encode/decode.

The wire format must round-trip exactly, step the hop count once per wire
crossing, and degrade to ``None`` (never raise) on malformed text — a peer
running older software must not be able to crash a dispatch by sending
garbage lineage (``test_tracing`` drives that through a live endpoint).
Decoding is memoised per text, in a bounded table: equal texts give equal
contexts, and a malformed one still gives ``None``.
"""

import pytest

from repro.obs.propagation import DECODE_MEMO_CAP, FORMAT_VERSION, LineageContext


class TestEncoding:
    def test_encode_decode_round_trip(self):
        context = LineageContext("lin-00000007", 41, 3)
        assert LineageContext.decode(context.encode()) == context

    def test_encoded_form_is_versioned_and_hex(self):
        assert LineageContext("lin-00000001", 255, 2).encode() == (
            f"{FORMAT_VERSION}-lin-00000001-000000ff-02"
        )

    def test_step_advances_only_the_hop(self):
        stepped = LineageContext("lin-00000001", 9, 1).step()
        assert (stepped.lineage_id, stepped.parent_span, stepped.hop) == (
            "lin-00000001", 9, 2,
        )

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "garbage",
            "99-lin-00000001-00000001-01",  # unknown version
            "01-lin-00000001-xyz-01",  # non-hex parent
            "01-lin-00000001-00000001-zz",  # non-hex hop
            "01-lin-00000001-00000001",  # missing field
            "01--00000001-01",  # empty lineage id
        ],
    )
    def test_malformed_text_decodes_to_none(self, text):
        assert LineageContext.decode(text) is None



class TestDecodeMemo:
    def test_a_malformed_text_still_decodes_to_none_when_seen_again(self):
        assert LineageContext.decode("01-lin-00000001-00000001") is None
        assert LineageContext.decode("01-lin-00000001-00000001") is None

    def test_equal_texts_give_equal_contexts(self):
        text = LineageContext("lin-00000009", 77, 4).encode()
        first = LineageContext.decode(text)
        again = LineageContext.decode("".join(text))  # an equal, distinct string
        assert first == again == LineageContext("lin-00000009", 77, 4)
        # the padded text is another key, and the same context
        assert LineageContext.decode(f" {text}\n") == first

    def test_the_memo_is_bounded(self):
        for parent in range(DECODE_MEMO_CAP + 50):
            assert LineageContext.decode(f"01-lin-00000003-{parent:08x}-01").parent_span == parent
        info = LineageContext.decode.cache_info()
        assert info.maxsize == DECODE_MEMO_CAP and info.currsize <= DECODE_MEMO_CAP
        # an evicted text decodes afresh, to the same value
        assert LineageContext.decode("01-lin-00000003-00000000-01") == LineageContext(
            "lin-00000003", 0, 1
        )

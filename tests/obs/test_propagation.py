"""Unit tests for the lineage header text: encode/decode.

The wire format must round-trip exactly, step the hop count once per wire
crossing, and degrade to ``None`` (never raise) on malformed text — a peer
running older software must not be able to crash a dispatch by sending
garbage lineage (``test_tracing`` drives that through a live endpoint).
"""

import pytest

from repro.obs.propagation import FORMAT_VERSION, LineageContext


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


"""Table 1: comparison among versions of WS-Eventing and WS-Notification.

Columns in the paper's order: WSE 01/2004, WSN 1.0 (03/2004), WSE 08/2004,
WSN 1.3 (02/2006).  :data:`ROWS` states the table once: each row's label,
how a column's version measures it (a live probe where a wire exchange can
decide the feature, the name of a version-profile flag for structural and
normative rows) and the published cells.  :func:`build_table1` measures the
rows and ``PAPER_TABLE1`` is their published cells.
"""

from __future__ import annotations

from typing import Callable, Union

from repro.comparison import probes
from repro.comparison.tables import Cell, ComparisonTable
from repro.wse.versions import WseVersion
from repro.wsn.versions import WsnVersion

COLUMNS = ["WSE 01/2004", "WSN 1.0", "WSE 08/2004", "WSN 1.3"]
VERSIONS = [WseVersion.V2004_01, WsnVersion.V1_0, WseVersion.V2004_08, WsnVersion.V1_3]

_WSA_LABEL = {
    "V2003_03": "2003/03",
    "V2004_08": "2004/08",
    "V2005_08": "2005/08",
}

_VERSION_DATES = {
    WseVersion.V2004_01: "1/2004",
    WsnVersion.V1_0: "3/2004",
    WsnVersion.V1_2: "6/2004",
    WseVersion.V2004_08: "8/2004",
    WsnVersion.V1_3: "2/2006",
}

#: a probe of a version, or the name of a version-profile flag (a flag the
#: family does not define reads No)
Measure = Union[Callable[[probes.SpecVersion], Cell], str]

Y, N = True, False  # the paper's Yes / No

#: Table 1 in the paper's row order: (label, measure, published cells)
ROWS: list[tuple[str, Measure, tuple[Cell, ...]]] = [
    ("Version date", _VERSION_DATES.__getitem__, ("1/2004", "3/2004", "8/2004", "2/2006")),
    ("Separate Subscription Manager & Event Source", probes.probe_separate_manager, (N, Y, Y, Y)),
    ("Separate subscriber & Event Sink", "separate_subscriber", (N, Y, Y, Y)),
    ("Getstatus operation", probes.probe_get_status, (N, Y, Y, Y)),
    ("Return subscriptionId in WSA of Subscription Manager", probes.probe_id_in_epr, (N, Y, Y, Y)),
    ("Support Wrapped delivery mode", probes.probe_wrapped_delivery, (N, Y, Y, Y)),
    ("Support Pull delivery mode", probes.probe_pull_delivery, (N, N, Y, Y)),
    ("Specify subscription expiration using duration", probes.probe_duration_expiry, (Y, N, Y, Y)),
    ("Specify XPath dialect", "defines_xpath_dialect", (Y, N, Y, Y)),
    ("Filter element in Subscription message", "has_filter_element", (Y, N, Y, Y)),
    ("Require WSRF", "requires_wsrf", (N, Y, N, N)),
    ("Require a topic in subscription", probes.probe_requires_topic, (N, Y, N, N)),
    ("Require Pause/Resume subscriptions", "requires_pause_resume", (N, Y, N, N)),
    ("GetCurrentMessage operation", probes.probe_get_current_message, (N, Y, N, Y)),
    ("Define Wrapped message format", "defines_wrapped_format", (N, Y, N, Y)),
    ("Separate EventProducer & Publisher", "separates_producer_and_publisher", (N, Y, N, Y)),
    ("Define PullPoint interface", probes.probe_pull_point_interface, (N, N, N, Y)),
    (
        "Specify pull delivery mode in subscription",
        probes.probe_pull_mode_in_subscription,
        (N, N, Y, N),
    ),
    ("Require Getstatus", "requires_status_query", (Y, Y, Y, N)),
    ("Require SubscriptionEnd", "requires_subscription_end", (Y, Y, Y, N)),
    (
        "WS-Addressing version",
        lambda version: _WSA_LABEL[version.wsa_version.name],
        ("2003/03", "2003/03", "2004/08", "2005/08"),
    ),
]


def _measure(title: str, columns: list[str], versions: list) -> ComparisonTable:
    table = ComparisonTable(title, columns)
    for label, measure, _ in ROWS:
        if isinstance(measure, str):
            table.add_row(label, *(getattr(version, measure, False) for version in versions))
        else:
            table.add_row(label, *map(measure, versions))
    return table


def build_table1() -> ComparisonTable:
    """Regenerate Table 1 from the implementations."""
    return _measure("Table 1: WSE/WSN version comparison (measured)", COLUMNS, VERSIONS)


PAPER_TABLE1 = ComparisonTable("Table 1: WSE/WSN version comparison (paper)", COLUMNS)
for _label, _, _cells in ROWS:
    PAPER_TABLE1.add_row(_label, *_cells)


def build_table1_extended() -> ComparisonTable:
    """Table 1 with the WSN 1.2 column the paper omits.

    "We do not include version 1.2 of WS-BaseNotification since it is very
    similar to version 1.0" — this extended build measures the same rows
    with that column added, so the claim itself is checkable: every 1.2 cell
    must equal the 1.0 cell except the WS-Addressing binding (1.2, the OASIS
    submission, moved to 2004/08).
    """
    return _measure(
        "Table 1 (extended): including WSN 1.2",
        [*COLUMNS[:2], "WSN 1.2", *COLUMNS[2:]],
        [*VERSIONS[:2], WsnVersion.V1_2, *VERSIONS[2:]],
    )

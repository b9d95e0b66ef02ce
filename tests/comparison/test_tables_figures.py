"""The reproduction's headline assertions: every cell of Tables 1-3 and
every edge of Figs. 1-2, measured against the live implementations, matches
the paper."""

import pytest

from repro.comparison import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    build_table1,
    build_table2,
    build_table3,
    trace_wse_architecture,
    trace_wsn_architecture,
)
from repro.baselines.corba.cdr import CdrDecoder
from repro.baselines.corba.event_service import ProxyPullConsumer
from repro.baselines.corba.notification_service import (
    NotificationChannel,
    StructuredProxyPushSupplier,
)
from repro.baselines.jms.messages import JmsMessage, MapMessage
from repro.baselines.jms.session import Session
from repro.baselines.ogsi.grid_service import GridService, NotificationSink
from repro.comparison.table3 import COLUMNS, ROWS, _checked
from repro.comparison.tables import ComparisonTable, render_cell
from repro.wse.versions import WseVersion
from repro.wsn.versions import WsnVersion


class TestTableModel:
    def test_render_cell(self):
        assert render_cell(True) == "Yes"
        assert render_cell(False) == "No"
        assert render_cell("2/2006") == "2/2006"

    def test_add_row_arity_checked(self):
        table = ComparisonTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("r", True)

    def test_cell_lookup(self):
        table = ComparisonTable("t", ["a", "b"]).add_row("r", True, "x")
        assert table.cell("r", "a") is True
        assert table.cell("r", "b") == "x"
        with pytest.raises(KeyError):
            table.cell("missing", "a")

    def test_diff_reports_mismatches(self):
        left = ComparisonTable("t", ["a"]).add_row("r", True)
        right = ComparisonTable("t", ["a"]).add_row("r", False)
        diff = left.diff(right)
        assert not diff.clean
        assert "r" in diff.mismatches[0]

    def test_diff_clean(self):
        left = ComparisonTable("t", ["a"]).add_row("r", True)
        right = ComparisonTable("t", ["a"]).add_row("r", True)
        diff = left.diff(right)
        assert diff.clean and diff.matched_cells == 1

    def test_diff_reports_a_paper_row_the_measured_table_lacks(self):
        measured = ComparisonTable("t", ["a"])
        paper = ComparisonTable("t", ["a"]).add_row("r", True)
        diff = measured.diff(paper)
        assert not diff.clean
        assert diff.mismatches == ["row 'r' missing from measured table"]

    def test_render_contains_rows_and_columns(self):
        text = PAPER_TABLE1.render()
        assert "WSE 01/2004" in text
        assert "Require WSRF" in text


@pytest.fixture(scope="module")
def table1():
    return build_table1()


@pytest.fixture(scope="module")
def table2():
    return build_table2()


@pytest.fixture(scope="module")
def table3():
    return build_table3()


class TestTable1:
    """Experiment E1: every measured Table 1 cell equals the paper's."""

    def test_all_cells_match_paper(self, table1):
        diff = table1.diff(PAPER_TABLE1)
        assert diff.clean, diff.summary()

    def test_dimensions(self, table1):
        assert len(table1.columns) == 4
        assert len(table1.rows) == 21  # version-date row + 20 feature rows

    @pytest.mark.parametrize(
        "row,expected",
        [
            ("Support Pull delivery mode", [False, False, True, True]),
            ("Require WSRF", [False, True, False, False]),
            ("Require a topic in subscription", [False, True, False, False]),
            ("Define PullPoint interface", [False, False, False, True]),
        ],
    )
    def test_convergence_rows(self, table1, row, expected):
        values = [table1.cell(row, column) for column in table1.columns]
        assert values == expected

    def test_wsa_versions_row(self, table1):
        assert [table1.cell("WS-Addressing version", c) for c in table1.columns] == [
            "2003/03",
            "2003/03",
            "2004/08",
            "2005/08",
        ]


class TestTable2:
    """Experiment E2: the function mapping, executed."""

    def test_all_cells_match_paper(self, table2):
        diff = table2.diff(PAPER_TABLE2)
        assert diff.clean, diff.summary()

    def test_wsrf_mappings_present(self, table2):
        assert "WSRF" in table2.cell("GetStatus", "WS-BaseNotification")
        assert "WSRF" in table2.cell("SubscriptionEnd", "WS-BaseNotification")

    def test_wsn_only_operations(self, table2):
        assert table2.cell("Pause/resume Subscription", "WS-Eventing") == "Not available"
        assert table2.cell("GetCurrentMessage", "WS-Eventing") == "Not available"


class TestTable3:
    """Experiment E3: the six-spec cross-generation matrix."""

    def test_all_cells_match_paper(self, table3):
        diff = table3.diff(PAPER_TABLE3)
        assert diff.clean, diff.summary()

    def test_no_probe_failures(self, table3):
        for label, cells in table3.rows:
            for cell in cells:
                assert "FAILED" not in str(cell), f"{label}: {cell}"

    def test_the_probed_cells(self):
        probed = [
            (label, column)
            for label, cells in ROWS
            for column, cell in zip(COLUMNS, cells)
            if not isinstance(cell, str)
        ]
        assert len(probed) == 28
        for label in ("Management operations", "Message Structure"):
            assert [column for row, column in probed if row == label] == COLUMNS[:4]

    @pytest.mark.parametrize(
        "label, column, owner, name, broken",
        [
            ("Management operations", "CORBA Event Service",
             ProxyPullConsumer, "poll", lambda self: 0),
            ("Management operations", "CORBA Notification Service",
             NotificationChannel, "validate_qos", lambda self, values: None),
            ("Management operations", "JMS",
             Session, "unsubscribe", lambda self, topic, name: None),
            ("Management operations", "OGSI-Notification", GridService, "_handle_term_before",
             lambda self, envelope, headers: self._ack(headers, "requestTerminationBeforeResponse")),
            ("Message Structure", "CORBA Event Service",
             CdrDecoder, "get_boolean", lambda self: self.get_octet() == 0),
            ("Message Structure", "CORBA Notification Service",
             StructuredProxyPushSupplier, "flush", lambda self: None),
            ("Message Structure", "JMS", MapMessage, "get_value", lambda self, name: None),
            ("Message Structure", "OGSI-Notification",
             NotificationSink, "_handle", lambda self, envelope, headers: None),
            ("Filter", "JMS", JmsMessage, "selector_fields", lambda self: dict(self.properties)),
            ("QoS criteria", "JMS", Session, "rollback", lambda self: None),
        ],
        ids=lambda value: (
            value.replace(" ", "-") if isinstance(value, str)
            else value.__name__ if isinstance(value, type) else "broken"
        ),
    )
    def test_a_broken_operation_fails_its_cell(self, monkeypatch, label, column, owner, name, broken):
        """No probe is vacuous: break one operation its cell names, and the
        cell reads FAILED."""
        probe, text = dict(ROWS)[label][COLUMNS.index(column)]
        assert _checked(probe, text) == text
        monkeypatch.setattr(owner, name, broken)
        assert _checked(probe, text).startswith("FAILED")

    def test_evolution_observation_1_transport(self, table3):
        """Section VI observation (1): delivery moves to transport-independent."""
        row = [table3.cell("Message transport", c) for c in table3.columns]
        assert row[:3] == ["RPC", "RPC", "RPC"]
        assert row[4] == row[5] == "Transport independent"

    def test_evolution_observation_3_filtering(self, table3):
        """Observation (3): from no filter to content-based XPath."""
        assert table3.cell("Filter", "CORBA Event Service") == "No"
        assert "XPath" in table3.cell("Filter language", "WS-Eventing")

    def test_evolution_observation_4_qos(self, table3):
        """Observation (4): QoS moves out of the specs into WS-* composition."""
        assert "13 QoS" in table3.cell("QoS criteria", "CORBA Notification Service")
        assert "composition" in table3.cell("QoS criteria", "WS-Notification")

    def test_evolution_observation_5_soft_state(self, table3):
        """Observation (5): subscription timeouts appear in the Grid/WS era."""
        assert table3.cell("Subscription Timeout", "CORBA Event Service") == "No"
        assert "duration" in table3.cell("Subscription Timeout", "WS-Eventing").lower()


class TestFigures:
    """Experiments E4/E5: the architecture diagrams, traced live."""

    def test_fig1_wse_08_entities(self):
        trace = trace_wse_architecture(WseVersion.V2004_08)
        assert trace.entities == [
            "Subscriber",
            "Event Source",
            "Subscription Manager",
            "Event Sink",
        ]

    def test_fig1_wse_08_edges(self):
        trace = trace_wse_architecture(WseVersion.V2004_08)
        assert trace.operations_between("Subscriber", "Event Source") == ["Subscribe"]
        assert trace.operations_between("Subscriber", "Subscription Manager") == [
            "Renew",
            "GetStatus",
            "Unsubscribe",
        ]
        sink_ops = trace.operations_between("Event Source", "Event Sink")
        assert "Notify" in sink_ops and "SubscriptionEnd" in sink_ops

    def test_fig1_wse_01_manager_collapsed_into_source(self):
        trace = trace_wse_architecture(WseVersion.V2004_01)
        assert "Subscription Manager" not in trace.entities
        ops = trace.operations_between("Subscriber", "Event Source")
        assert {"Subscribe", "Renew", "Unsubscribe"} <= set(ops)

    def test_fig2_wsn_entities(self):
        trace = trace_wsn_architecture()
        assert "Publisher" in trace.entities  # separate from the producer
        assert "Notification Producer" in trace.entities
        assert "Subscription Manager" in trace.entities
        assert "Notification Consumer" in trace.entities

    def test_fig2_wsn_13_edges(self):
        trace = trace_wsn_architecture(WsnVersion.V1_3)
        producer_ops = trace.operations_between("Subscriber", "Notification Producer")
        assert "Subscribe" in producer_ops and "GetCurrentMessage" in producer_ops
        manager_ops = trace.operations_between("Subscriber", "Subscription Manager")
        assert {"PauseSubscription", "ResumeSubscription", "Renew", "Unsubscribe"} <= set(
            manager_ops
        )
        assert trace.operations_between(
            "Notification Producer", "Notification Consumer"
        ) == ["Notify"]

    def test_fig2_wsn_10_uses_wsrf_lifetime(self):
        trace = trace_wsn_architecture(WsnVersion.V1_0)
        manager_ops = trace.operations_between("Subscriber", "Subscription Manager")
        assert "SetTerminationTime" in manager_ops
        assert "Destroy" in manager_ops
        assert "Unsubscribe" not in manager_ops

    def test_render_is_textual_diagram(self):
        text = trace_wse_architecture().render()
        assert "-->" in text and "[Event Sink]" in text

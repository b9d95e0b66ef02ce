"""Tests for QName and namespace constants."""

import pytest

from repro.soap.envelope import SoapVersion
from repro.wsa.versions import WsaVersion
from repro.wse.versions import WseVersion
from repro.wsn.versions import WsnVersion
from repro.xmlkit.names import Namespaces, NamespaceVersion, QName, qn
from repro.xmlkit.parser import parse_xml


class TestQName:
    def test_equality_by_value(self):
        assert QName("urn:a", "x") == QName("urn:a", "x")
        assert QName("urn:a", "x") != QName("urn:b", "x")
        assert QName("urn:a", "x") != QName("urn:a", "y")

    def test_hashable(self):
        table = {QName("urn:a", "x"): 1}
        assert table[QName("urn:a", "x")] == 1

    def test_str_clark_notation(self):
        assert str(QName("urn:a", "x")) == "{urn:a}x"
        assert str(QName("", "x")) == "x"

    def test_from_clark_roundtrip(self):
        name = QName("urn:a", "x")
        assert QName.from_clark(str(name)) == name

    def test_from_clark_no_namespace(self):
        assert QName.from_clark("local") == QName("", "local")

    def test_from_clark_malformed(self):
        with pytest.raises(ValueError):
            QName.from_clark("{urn:a")

    def test_qn_shorthand(self):
        assert qn("urn:a", "x") == QName("urn:a", "x")

    def test_hash_equal_across_separately_built_instances(self):
        built = QName("urn:" + "a", "".join(["x", "y"]))
        assert built is not QName("urn:a", "xy")
        assert hash(built) == hash(QName("urn:a", "xy")) == hash(QName.from_clark("{urn:a}xy"))

    def test_dict_key_with_interned_and_fresh_instances_mixed(self):
        root = parse_xml('<p:x xmlns:p="urn:a" p:k="v" k="w"/>')  # parser-interned names
        table = {root.name: "element", QName("urn:a", "k"): "prefixed", QName("", "k"): "plain"}
        assert table[QName("urn:a", "x")] == "element"
        assert [table[key] for key in root.attrs] == ["prefixed", "plain"]
        assert root.attrs[QName("urn:a", "k")] == "v"
        parsed = parse_xml(f'<Envelope xmlns="{Namespaces.SOAP11}"/>').name
        assert parsed in {SoapVersion.V11.qname("Envelope")}

    def test_immutable(self):
        name = QName("urn:a", "x")
        with pytest.raises(AttributeError):
            name.local = "y"
        with pytest.raises(AttributeError):
            name.extra = 1
        with pytest.raises(TypeError):
            name[0] = "urn:b"

    def test_fields_by_name_and_in_order(self):
        name = QName("urn:a", "x")
        assert (name.namespace, name.local) == ("urn:a", "x") == tuple(name)
        assert repr(name) == "QName(namespace='urn:a', local='x')"
        assert f"<{name}>" == "<{urn:a}x>"


VERSION_ENUMS = [SoapVersion, WsaVersion, WseVersion, WsnVersion]


@pytest.mark.parametrize("enum", VERSION_ENUMS, ids=lambda enum: enum.__name__)
class TestNamespaceVersion:
    def test_one_shared_implementation(self, enum):
        assert issubclass(enum, NamespaceVersion)
        for name in ("qname", "find_namespace", "from_namespace"):
            assert name not in vars(enum)

    def test_value_is_the_namespace(self, enum):
        for version in enum:
            assert version.namespace == version.value

    def test_qname_is_built_once_per_member_and_local(self, enum):
        for version in enum:
            name = version.qname("Probe")
            assert name == QName(version.namespace, "Probe")
            assert version.qname("Probe") is name
        first, second = list(enum)[:2]
        assert first.qname("Probe") != second.qname("Probe")

    def test_lookup_by_namespace(self, enum):
        for version in enum:
            assert enum.find_namespace(version.namespace) is version
            assert enum.from_namespace(version.namespace) is version
        assert enum.find_namespace("urn:none") is None
        with pytest.raises(ValueError, match=enum.__name__):
            enum.from_namespace("urn:none")


class TestNamespaces:
    def test_wse_versions_distinct(self):
        assert Namespaces.WSE_2004_01 != Namespaces.WSE_2004_08

    def test_wsn_versions_distinct(self):
        assert len({Namespaces.WSNT_10, Namespaces.WSNT_12, Namespaces.WSNT_13}) == 3

    def test_wsa_versions_distinct(self):
        assert len({Namespaces.WSA_2003_03, Namespaces.WSA_2004_08, Namespaces.WSA_2005_08}) == 3

    def test_preferred_prefixes_cover_core_namespaces(self):
        for uri in (Namespaces.WSE_2004_08, Namespaces.WSNT_13, Namespaces.WSA_2005_08):
            assert uri in Namespaces.PREFERRED_PREFIXES

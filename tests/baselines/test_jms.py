"""Tests for the JMS baseline: styles, message types, selectors, QoS."""

import threading

import pytest

from repro.baselines.jms import (
    BytesMessage,
    Connection,
    DeliveryMode,
    JmsError,
    JmsProvider,
    MapMessage,
    ObjectMessage,
    StreamMessage,
    TextMessage,
)
from repro.transport import VirtualClock


def _local_instance():
    class Local:
        pass

    return Local()


@pytest.fixture
def provider():
    return JmsProvider(VirtualClock())


@pytest.fixture
def connection(provider):
    conn = Connection(provider, "client-1")
    conn.start()
    return conn


@pytest.fixture
def session(connection):
    return connection.create_session()


class TestPointToPoint:
    def test_queue_delivers_once(self, provider, session):
        queue = provider.queue("jobs")
        session.create_producer(queue).send(TextMessage(text="work"))
        consumer_a = session.create_consumer(queue)
        consumer_b = session.create_consumer(queue)
        first = consumer_a.receive()
        assert first.text == "work"
        assert consumer_b.receive() is None  # point-to-point: one delivery

    def test_queue_holds_until_received(self, provider, session):
        queue = provider.queue("jobs")
        session.create_producer(queue).send(TextMessage(text="later"))
        consumer = session.create_consumer(queue)
        assert consumer.receive().text == "later"
        assert consumer.receive() is None

    def test_priority_order(self, provider, session):
        queue = provider.queue("jobs")
        producer = session.create_producer(queue)
        producer.send(TextMessage(text="low"), priority=1)
        producer.send(TextMessage(text="high"), priority=9)
        producer.send(TextMessage(text="mid"), priority=5)
        consumer = session.create_consumer(queue)
        assert [consumer.receive().text for _ in range(3)] == ["high", "mid", "low"]

    def test_fifo_within_priority(self, provider, session):
        queue = provider.queue("jobs")
        producer = session.create_producer(queue)
        for name in ("a", "b", "c"):
            producer.send(TextMessage(text=name), priority=4)
        consumer = session.create_consumer(queue)
        assert [consumer.receive().text for _ in range(3)] == ["a", "b", "c"]

    def test_selector_on_queue(self, provider, session):
        queue = provider.queue("jobs")
        producer = session.create_producer(queue)
        urgent = TextMessage(text="urgent")
        urgent.set_property("severity", "high")
        boring = TextMessage(text="boring")
        boring.set_property("severity", "low")
        producer.send(boring)
        producer.send(urgent)
        picky = session.create_consumer(queue, "severity = 'high'")
        assert picky.receive().text == "urgent"
        assert picky.receive() is None  # low-severity message left behind
        assert session.create_consumer(queue).receive().text == "boring"

    def test_invalid_priority(self, provider, session):
        queue = provider.queue("jobs")
        with pytest.raises(JmsError):
            session.create_producer(queue).send(TextMessage(), priority=11)


class TestPubSub:
    def test_topic_fanout(self, provider, connection):
        topic = provider.topic("alerts")
        session = connection.create_session()
        sub_a = session.create_consumer(topic)
        sub_b = session.create_consumer(topic)
        session.create_producer(topic).send(TextMessage(text="fire"))
        assert sub_a.receive().text == "fire"
        assert sub_b.receive().text == "fire"

    def test_non_durable_misses_while_away(self, provider, connection):
        topic = provider.topic("alerts")
        session = connection.create_session()
        producer = session.create_producer(topic)
        producer.send(TextMessage(text="before"))  # no subscriber yet
        subscriber = session.create_consumer(topic)
        producer.send(TextMessage(text="after"))
        assert subscriber.receive().text == "after"
        assert subscriber.receive() is None

    def test_durable_subscriber_backlog(self, provider, connection):
        topic = provider.topic("alerts")
        session = connection.create_session()
        durable = session.create_durable_subscriber(topic, "audit")
        durable.close()  # goes dormant
        session.create_producer(topic).send(TextMessage(text="while-away"))
        revived = session.create_durable_subscriber(topic, "audit")
        assert revived.receive().text == "while-away"

    def test_durable_selector(self, provider, connection):
        topic = provider.topic("alerts")
        session = connection.create_session()
        durable = session.create_durable_subscriber(topic, "audit", "kind = 'error'")
        durable.close()
        producer = session.create_producer(topic)
        error = TextMessage(text="bad")
        error.set_property("kind", "error")
        info = TextMessage(text="fine")
        info.set_property("kind", "info")
        producer.send(info)
        producer.send(error)
        revived = session.create_durable_subscriber(topic, "audit")
        assert revived.receive().text == "bad"
        assert revived.receive() is None

    def test_unsubscribe_durable(self, provider, connection):
        topic = provider.topic("alerts")
        session = connection.create_session()
        session.create_durable_subscriber(topic, "audit").close()
        session.unsubscribe(topic, "audit")
        with pytest.raises(JmsError):
            session.unsubscribe(topic, "audit")

    def test_unsubscribe_refuses_a_durable_with_an_active_subscriber(self, provider, connection):
        """JMS 1.1: deleting a durable subscription while its subscriber is
        active is an error; closed, the same call deletes it."""
        topic = provider.topic("alerts")
        session = connection.create_session()
        active = session.create_durable_subscriber(topic, "audit")
        with pytest.raises(JmsError, match="active subscriber"):
            session.unsubscribe(topic, "audit")
        session.create_producer(topic).send(TextMessage(text="kept"))
        assert active.receive().text == "kept"  # the subscription is untouched
        active.close()
        session.unsubscribe(topic, "audit")
        with pytest.raises(JmsError, match="no durable subscription"):
            session.unsubscribe(topic, "audit")

    def test_topic_selector(self, provider, connection):
        topic = provider.topic("alerts")
        session = connection.create_session()
        picky = session.create_consumer(topic, "JMSPriority >= 7")
        producer = session.create_producer(topic)
        producer.send(TextMessage(text="meh"), priority=3)
        producer.send(TextMessage(text="wow"), priority=8)
        assert picky.receive().text == "wow"
        assert picky.receive() is None


class TestQos:
    def test_an_unstarted_connection_receives_nothing(self, provider):
        connection = Connection(provider, "client-2")
        session = connection.create_session()
        queue = provider.queue("jobs")
        session.create_producer(queue).send(TextMessage(text="x"))
        consumer = session.create_consumer(queue)
        assert consumer.receive() is None
        connection.start()
        assert consumer.receive().text == "x"

    def test_ttl_expiry(self, provider, session):
        queue = provider.queue("jobs")
        session.create_producer(queue).send(TextMessage(text="fleeting"), time_to_live=10.0)
        provider.clock.advance(11.0)
        assert session.create_consumer(queue).receive() is None

    def test_transacted_send_commits(self, provider, connection):
        queue = provider.queue("jobs")
        tx = connection.create_session(transacted=True)
        tx.create_producer(queue).send(TextMessage(text="atomic"))
        reader = connection.create_session().create_consumer(queue)
        assert reader.receive() is None  # not visible before commit
        tx.commit()
        assert reader.receive().text == "atomic"

    def test_transacted_rollback_discards_sends(self, provider, connection):
        queue = provider.queue("jobs")
        tx = connection.create_session(transacted=True)
        tx.create_producer(queue).send(TextMessage(text="never"))
        tx.rollback()
        tx.commit()
        assert connection.create_session().create_consumer(queue).receive() is None

    def test_rollback_redelivers_receives(self, provider, connection):
        queue = provider.queue("jobs")
        plain = connection.create_session()
        plain.create_producer(queue).send(TextMessage(text="retry-me"))
        tx = connection.create_session(transacted=True)
        consumer = tx.create_consumer(queue)
        message = consumer.receive()
        assert message.text == "retry-me" and not message.redelivered
        tx.rollback()
        again = consumer.receive()
        assert again.text == "retry-me" and again.redelivered
        tx.commit()
        assert consumer.receive() is None

    def test_commit_on_untransacted_session(self, provider, session):
        with pytest.raises(JmsError):
            session.commit()

    def test_persistence_survives_crash(self, provider, session):
        queue = provider.queue("jobs")
        producer = session.create_producer(queue)
        producer.send(TextMessage(text="durable"), delivery_mode=DeliveryMode.PERSISTENT)
        producer.send(TextMessage(text="volatile"), delivery_mode=DeliveryMode.NON_PERSISTENT)
        provider.crash_and_recover()
        consumer = session.create_consumer(queue)
        assert consumer.receive().text == "durable"
        assert consumer.receive() is None

    def test_platform_gate(self, provider):
        """Table 3: JMS only works on Java platforms."""
        with pytest.raises(JmsError):
            Connection(provider, "c", platform="python")


class TestMessageTypes:
    def test_text_message(self):
        assert TextMessage(text="hello").text == "hello"

    def test_bytes_message(self):
        assert BytesMessage(data=b"\x00\x01").data == b"\x00\x01"
        with pytest.raises(JmsError):
            BytesMessage(data="not bytes")

    def test_map_message(self):
        message = MapMessage()
        message.set_value("count", 3)
        assert message.get_value("count") == 3
        with pytest.raises(JmsError):
            message.set_value("bad", object())

    def test_stream_message(self):
        message = StreamMessage()
        message.write(1)
        message.write("two")
        assert message.read() == 1
        assert message.read() == "two"
        with pytest.raises(JmsError):
            message.read()

    def test_object_message(self):
        message = ObjectMessage()
        message.set_object({"nested": [1, 2, 3]})
        assert message.get_object() == {"nested": [1, 2, 3]}

    @pytest.mark.parametrize(
        "make",
        [lambda: (lambda: 1), threading.Lock, lambda: _local_instance()],
        ids=["lambda", "lock", "local-class"],
    )
    def test_unpicklable_object_is_a_jms_error(self, make):
        with pytest.raises(JmsError, match="not serializable"):
            ObjectMessage().set_object(make())

    def test_a_failure_other_than_pickling_propagates(self):
        class Exploding:
            def __reduce__(self):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            ObjectMessage().set_object(Exploding())

    def test_property_type_check(self):
        message = TextMessage()
        with pytest.raises(JmsError):
            message.set_property("bad", [1, 2])

    def test_selector_fields_include_headers(self):
        message = TextMessage(jms_type="status")
        message.set_property("custom", 7)
        fields = message.selector_fields()
        assert fields["JMSType"] == "status"
        assert fields["JMSPriority"] == 4
        assert fields["custom"] == 7

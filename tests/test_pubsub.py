"""Broker unit tests: acks, fan-out, registry hygiene, delivery order."""

from __future__ import annotations

from miniredis.protocol import Array, BulkString
from miniredis.pubsub import Broker, message_frame, subscribe_ack, unsubscribe_ack


def sub(channel: bytes, count: int) -> bytes:
    return b"*3\r\n$9\r\nsubscribe\r\n$%d\r\n%b\r\n:%d\r\n" % (len(channel), channel, count)


def unsub(channel: bytes, count: int) -> bytes:
    return b"*3\r\n$11\r\nunsubscribe\r\n$%d\r\n%b\r\n:%d\r\n" % (len(channel), channel, count)


class FakeSession:
    def __init__(self, name: str):
        self.name = name
        self.frames: list = []

    def deliver_frame(self, value) -> None:
        self.frames.append(value)

    def __repr__(self) -> str:
        return f"FakeSession({self.name})"


def payloads(session: FakeSession) -> list[bytes]:
    return [frame.items[2].payload for frame in session.frames]


def test_frame_shapes():
    assert subscribe_ack(b"ch1", 1) == b"*3\r\n$9\r\nsubscribe\r\n$3\r\nch1\r\n:1\r\n"
    assert unsubscribe_ack(b"ch1", 0) == b"*3\r\n$11\r\nunsubscribe\r\n$3\r\nch1\r\n:0\r\n"
    assert unsubscribe_ack(None, 0) == b"*3\r\n$11\r\nunsubscribe\r\n$-1\r\n:0\r\n"
    assert message_frame(b"ch1", b"x") == Array(
        (BulkString(b"message"), BulkString(b"ch1"), BulkString(b"x"))
    )


def test_subscribe_acks_in_argument_order_with_running_count():
    broker = Broker()
    session = FakeSession("s")
    acks = broker.subscribe(session, [b"b", b"a", b"c"])
    assert acks == sub(b"b", 1) + sub(b"a", 2) + sub(b"c", 3)
    assert broker.subscription_count(session) == 3


def test_duplicate_subscribe_is_acked_but_not_counted_twice():
    broker = Broker()
    session = FakeSession("s")
    broker.subscribe(session, [b"ch1"])
    acks = broker.subscribe(session, [b"ch1"])
    assert acks == sub(b"ch1", 1)
    assert broker.subscription_count(session) == 1
    # still exactly one copy per publish
    broker.publish(b"ch1", b"x")
    assert payloads(session) == [b"x"]


def test_unsubscribe_named_channels():
    broker = Broker()
    session = FakeSession("s")
    broker.subscribe(session, [b"a", b"b"])
    acks = broker.unsubscribe(session, [b"b", b"never-joined"])
    assert acks == unsub(b"b", 1) + unsub(b"never-joined", 1)
    assert broker.subscription_count(session) == 1


def test_unsubscribe_all_and_empty_case():
    broker = Broker()
    session = FakeSession("s")
    broker.subscribe(session, [b"b", b"a"])
    acks = broker.unsubscribe(session)
    assert acks == unsub(b"a", 1) + unsub(b"b", 0)
    assert broker.subscription_count(session) == 0
    # with no subscriptions at all, a single nil-channel ack comes back
    assert broker.unsubscribe(session) == b"*3\r\n$11\r\nunsubscribe\r\n$-1\r\n:0\r\n"


def test_publish_counts_and_delivers_one_copy_each():
    broker = Broker()
    alice, bob, carol = FakeSession("a"), FakeSession("b"), FakeSession("c")
    broker.subscribe(alice, [b"ch1"])
    broker.subscribe(bob, [b"ch1"])
    broker.subscribe(carol, [b"other"])
    assert broker.publish(b"ch1", b"x") == 2
    assert payloads(alice) == [b"x"]
    assert payloads(bob) == [b"x"]
    assert payloads(carol) == []
    assert broker.publish(b"silent", b"y") == 0


def test_no_replay_for_late_subscribers():
    broker = Broker()
    early, late = FakeSession("early"), FakeSession("late")
    broker.subscribe(early, [b"ch"])
    broker.publish(b"ch", b"m1")
    broker.subscribe(late, [b"ch"])
    broker.publish(b"ch", b"m2")
    assert payloads(early) == [b"m1", b"m2"]
    assert payloads(late) == [b"m2"]


def test_messages_keep_publish_order_per_subscriber():
    broker = Broker()
    session = FakeSession("s")
    broker.subscribe(session, [b"ch"])
    for i in range(50):
        broker.publish(b"ch", b"m%d" % i)
    assert payloads(session) == [b"m%d" % i for i in range(50)]


def test_drop_session_purges_both_registries():
    broker = Broker()
    session, other = FakeSession("s"), FakeSession("o")
    broker.subscribe(session, [b"a", b"b"])
    broker.subscribe(other, [b"a"])
    broker.drop_session(session)
    assert broker.subscription_count(session) == 0
    assert broker.channels() == {b"a"}  # b had no other subscriber
    assert broker.publish(b"a", b"x") == 1
    assert payloads(session) == []
    broker.drop_session(session)  # idempotent
    broker.drop_session(other)
    assert broker.channels() == set()


def test_channel_with_no_subscribers_disappears():
    broker = Broker()
    session = FakeSession("s")
    broker.subscribe(session, [b"ch"])
    broker.unsubscribe(session, [b"ch"])
    assert broker.channels() == set()


def test_binary_channel_names_and_payloads():
    broker = Broker()
    session = FakeSession("s")
    channel = b"\x00bin\xffchan"
    broker.subscribe(session, [channel])
    assert broker.publish(channel, b"\x00\r\n\xff") == 1
    frame = session.frames[0]
    assert frame.items[1] == BulkString(channel)
    assert frame.items[2] == BulkString(b"\x00\r\n\xff")

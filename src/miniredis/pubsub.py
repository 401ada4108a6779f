"""Publish/subscribe broker: live fan-out to current subscribers only.

There is no history and no redelivery. A message published while nobody
listens is gone; a subscriber sees only what arrives after its ack. All
frames here are 3-element arrays: a kind tag ("subscribe", "unsubscribe"
or "message"), the channel, then a count or the payload. Acks are wire
bytes for the caller to send; a message reaches each subscriber as a value.

Sessions are any hashable objects with a ``deliver_frame(value)`` method;
the broker never inspects them beyond that.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Protocol

from .protocol import Array, BulkString, encode_bulk, encode_int


class Session(Protocol):
    def deliver_frame(self, value) -> None: ...

    def __hash__(self) -> int: ...


def subscribe_ack(channel: bytes, count: int) -> bytes:
    return b"".join((b"*3\r\n$9\r\nsubscribe\r\n", encode_bulk(channel), encode_int(count)))


def unsubscribe_ack(channel: bytes | None, count: int) -> bytes:
    return b"".join((b"*3\r\n$11\r\nunsubscribe\r\n", encode_bulk(channel), encode_int(count)))


def message_frame(channel: bytes, payload: bytes) -> Array:
    return Array((BulkString(b"message"), BulkString(channel), BulkString(payload)))


class Broker:
    """Channel registry plus its inverse, kept consistent at every return."""

    def __init__(self) -> None:
        self._subscribers: dict[bytes, set[Session]] = {}
        self._channels: dict[Session, set[bytes]] = {}

    def subscription_count(self, session: Hashable) -> int:
        return len(self._channels.get(session, ()))

    def subscribe(self, session: Session, channels: Iterable[bytes]) -> bytes:
        """Join channels; one framed ack per argument, with the running count."""
        joined = self._channels.setdefault(session, set())
        acks = []
        for channel in channels:
            joined.add(channel)
            self._subscribers.setdefault(channel, set()).add(session)
            acks.append(subscribe_ack(channel, len(joined)))
        if not joined:
            del self._channels[session]
        return b"".join(acks)

    def unsubscribe(self, session: Session, channels: Iterable[bytes] = ()) -> bytes:
        """Leave the named channels, or all when none are named; one framed ack each."""
        joined = self._channels.get(session)
        channels = list(channels)
        if not channels:
            if not joined:
                return unsubscribe_ack(None, 0)
            channels = sorted(joined)
        acks = []
        for channel in channels:
            if joined is not None and channel in joined:
                joined.discard(channel)
                self._detach(channel, session)
            acks.append(unsubscribe_ack(channel, len(joined) if joined else 0))
        if joined is not None and not joined:
            del self._channels[session]
        return b"".join(acks)

    def publish(self, channel: bytes, payload: bytes) -> int:
        """Enqueue one copy per current subscriber; returns the fan-out."""
        sessions = self._subscribers.get(channel)
        if not sessions:
            return 0
        frame = message_frame(channel, payload)
        receivers = list(sessions)
        for session in receivers:
            session.deliver_frame(frame)
        return len(receivers)

    def drop_session(self, session: Session) -> None:
        """Forget a disconnected session everywhere; safe to call twice."""
        joined = self._channels.pop(session, None)
        if not joined:
            return
        for channel in joined:
            self._detach(channel, session)

    def channels(self) -> set[bytes]:
        """Channels that currently have at least one subscriber."""
        return set(self._subscribers)

    def _detach(self, channel: bytes, session: Session) -> None:
        sessions = self._subscribers.get(channel)
        if sessions is not None:
            sessions.discard(session)
            if not sessions:
                del self._subscribers[channel]

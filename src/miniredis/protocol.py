"""RESP2 wire codec: typed values, encoder, and incremental decoders.

Wire forms::

    +<text>\r\n                     simple string
    -<text>\r\n                     error
    :<integer>\r\n                  signed 64-bit integer
    $<length>\r\n<bytes>\r\n        bulk string ($-1\r\n is the null bulk)
    *<count>\r\n<item>...           array (*-1\r\n is the null array)

Bulk strings and array elements are binary safe. Decoding is incremental:
arbitrary byte chunks go in, complete values come out, and the result does
not depend on where the chunk boundaries fall. A partly received frame is
kept between feeds as decoded state (open arrays, the argv under
construction, the awaited bulk length), so no byte is parsed twice and a
frame costs time linear in its size however finely it arrives.

Both decoders are one resumable state machine that owns every check, error
text, limit and offset. Complete, plainly framed input is taken past it by
one split routine (``_Decoder._split``): it copies a bounded window, splits
it once on CRLF and compares each header with one table of ``$<len>`` for
bodies under 256 bytes within the limits. The decoder's state picks what it
takes: with an array open, that array's next items; where a
``RequestDecoder`` command starts, whole commands tagged ``*1`` to ``*255``.
A per-item loop (one regex match per header) takes what the split leaves
inside arrays: arrays with 8 items or fewer due, bodies over 255 bytes (most
packed matrix rows) and the stretches the split stands aside for. Neither
raises: at anything else they stop, and the state machine resumes there.

Where the split does not pay, it backs off for a stretch of items or
commands that doubles each time, so frames that defeat it cost a few small
window copies, not one per item. That back-off belongs to the array or the
run of commands that earned it and starts afresh with the next.

A bulk body cut by a read is gathered outside the line buffer: the part
already read moves into a buffer of its own, later reads write theirs
straight in, and the whole body is handed over with no further copy. A large
argument so peaks at about 1.1 times its size, not twice it, and grows only
with the bytes that arrived, never with the length its header announces.

The server frames replies, acks and errors with one framer per shape
(``encode_bulk``, ``encode_command``, ``encode_int``, ``encode_error``);
only pub/sub messages go through the typed values and ``encode``.
"""

from __future__ import annotations

import io
import itertools
import re
from collections import deque
from dataclasses import dataclass
from operator import ne
from typing import Sequence

from .errors import InlineCommandError, ProtocolError

CRLF = b"\r\n"

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_INTEGER_RE = re.compile(rb"[+-]?[0-9]+")
# A bulk header the bulk-item loop takes: plain digits, too few to overflow.
_BULK_HEADER = re.compile(rb"\$([0-9]{1,18})\r\n").match


def strict_int(raw: bytes | bytearray) -> int | None:
    """``raw`` as an integer if it is exactly ``[+-]?[0-9]+``, else None.

    The one integer syntax of wire headers and command arguments: ``int``
    alone would also take ``1_0`` and `` 1``. Plain digits skip the regex.
    """
    if raw.isdigit() or _INTEGER_RE.fullmatch(raw):
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    return None


class _Value:
    """Base of the five value types: frozen dataclasses of one field each,
    slotted so ``StreamDecoder`` can build them without ``__init__``.
    Slots and frozen together refuse pickle's and copy's default way of
    restoring state, so ``__reduce__`` rebuilds through the constructor."""

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        return type(self), (getattr(self, self.__slots__[0]),)


@dataclass(frozen=True)
class SimpleString(_Value):
    __slots__ = ("text",)
    text: str


@dataclass(frozen=True)
class Error(_Value):
    __slots__ = ("text",)
    text: str


@dataclass(frozen=True)
class Integer(_Value):
    __slots__ = ("value",)
    value: int


@dataclass(frozen=True)
class BulkString(_Value):
    __slots__ = ("payload",)
    payload: bytes | None


@dataclass(frozen=True)
class Array(_Value):
    __slots__ = ("items",)
    items: tuple["ProtocolValue", ...] | None

    def __post_init__(self) -> None:
        if self.items is not None and not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))


ProtocolValue = SimpleString | Error | Integer | BulkString | Array

NIL = BulkString(None)


@dataclass(frozen=True)
class DecodeLimits:
    """Hard ceilings the decoder enforces before buffering payloads."""

    max_bulk_length: int = 512 * 1024 * 1024
    max_array_length: int = 1024 * 1024
    max_depth: int = 32
    # An unterminated header or inline line must not grow the buffer forever.
    max_line_length: int = 64 * 1024


DEFAULT_LIMITS = DecodeLimits()


def encode(value: ProtocolValue) -> bytes:
    """Serialize one value to its exact wire form, joined once."""
    parts: list[bytes | bytearray] = []
    _encode_into(value, parts)
    return b"".join(parts)


# Headers of short bulk strings, built once, so framing an array of short
# members allocates nothing per member and the split checks a short body
# with one lookup; and the command tags the split takes.
_BULK_TAGS = tuple(b"$%d" % size for size in range(256))
_SHORT_BULK_HEADERS = tuple(tag + CRLF for tag in _BULK_TAGS)
_HEADERS = dict(enumerate(_BULK_TAGS))
_TAGS = {b"*%d" % k: k for k in range(1, 256)}


# Members framed per join of equal-size members (see ``encode_command``).
_JOIN_RUN = 256


def _admitted(limit: int, digits: int) -> int:
    """How many of the counts 0 to 255 are within ``limit`` and ``digits``."""
    return max(0, min(256, limit + 1, 10 ** min(digits, 3) if digits > 0 else 0))


def encode_command(argv: Sequence[bytes]) -> bytearray:
    """The array-of-bulk-strings frame of a command or member reply, built
    in one buffer (a list of parts would hold three entries per member).

    More than 8 members of one size (ids, packed rows of one width) share
    one header: they are joined in C with it as the separator,
    ``_JOIN_RUN`` at a time, as one join borrows an 80-byte record per item
    (3.5 times the frame of 16-byte members). Other lists are framed member
    by member; one whose first and last sizes differ pays two ``len`` calls
    for the check."""
    n = len(argv)
    if n > 8 and len(argv[0]) == len(argv[-1]) and list(map(len, argv)).count(len(argv[0])) == n:
        head = b"\r\n$%d\r\n" % len(argv[0])
        out = bytearray(b"*%d" % n)
        for start in range(0, n, _JOIN_RUN):
            out += head
            out += head.join(argv[start : start + _JOIN_RUN])
        out += CRLF
        return out
    out = bytearray(b"*%d\r\n" % n)
    headers = _SHORT_BULK_HEADERS
    for arg in argv:
        size = len(arg)
        out += headers[size] if size < 256 else b"$%d\r\n" % size
        out += arg
        out += CRLF
    return out


def encode_bulk(payload: bytes | None) -> bytes:
    """The bulk-string frame of ``payload`` (None is the null bulk), with no
    value built. The payload is joined, never %-formatted: ``%b`` copies a
    1 MiB payload several times slower."""
    if payload is None:
        return b"$-1\r\n"
    size = len(payload)
    header = _SHORT_BULK_HEADERS[size] if size < 256 else b"$%d\r\n" % size
    return b"".join((header, payload, CRLF))


# The integer frame of a count or an in-range integer (no range check).
encode_int = b":%d\r\n".__mod__


def encode_error(text: str) -> bytes:
    """The error frame of ``text``; text holding CR or LF is refused."""
    return _line(b"-", text)


def _line(marker: bytes, text: str) -> bytes:
    if "\r" in text or "\n" in text:
        raise ValueError("line reply may not contain CR or LF")
    return b"".join((marker, text.encode("utf-8"), CRLF))


def _encode_into(value: ProtocolValue, out: list[bytes | bytearray]) -> None:
    if isinstance(value, SimpleString):
        out.append(_line(b"+", value.text))
    elif isinstance(value, Error):
        out.append(encode_error(value.text))
    elif isinstance(value, Integer):
        if not INT64_MIN <= value.value <= INT64_MAX:
            raise ValueError(f"integer reply out of 64-bit range: {value.value}")
        out.append(encode_int(value.value))
    elif isinstance(value, BulkString):
        if value.payload is None:
            out.append(b"$-1\r\n")
        else:
            out += (b"$%d\r\n" % len(value.payload), value.payload, CRLF)
    elif isinstance(value, Array):
        if value.items is None:
            out.append(b"*-1\r\n")
        else:
            out.append(b"*%d\r\n" % len(value.items))
            for item in value.items:
                _encode_into(item, out)
    else:
        raise TypeError(f"not a protocol value: {value!r}")


def _header_int(line: bytearray, offset: int, what: str) -> int:
    value = strict_int(line)
    if value is None:
        raise ProtocolError(f"invalid {what}", offset)
    return value


def _decode_line_text(line: bytes | bytearray, offset: int, what: str) -> str:
    if b"\r" in line or b"\n" in line:
        raise ProtocolError(f"stray CR or LF inside {what}", offset)
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError(f"invalid UTF-8 in {what}", offset) from None


class _Decoder:
    """Input buffer, absolute offsets, line framing and split of both decoders.

    ``_buf`` holds only the bytes not yet folded into a value or into the
    partial state a subclass keeps between feeds; ``_base`` is the stream
    offset of ``_buf[0]``. A line that is not complete yet remembers how far
    it was searched, so a header trickled in byte by byte is scanned once.
    """

    def __init__(self, limits: DecodeLimits | None = None):
        self._limits = limits = limits or DEFAULT_LIMITS
        self._buf = bytearray()
        self._base = 0
        self._scanned = 0
        self._bulk = -1  # length of the bulk body being awaited, else -1
        self._body: io.BytesIO | None = None  # that body, gathered (_decode)
        self._broken = False
        # The split's header of each body length it takes (under 256 bytes,
        # within the limits); other lengths give None, which equals no header.
        size = _admitted(limits.max_bulk_length, limits.max_line_length)
        self._header = (_HEADERS if size == 256 else dict(enumerate(_BULK_TAGS[:size]))).get
        # The back-off: what earned it (the array being filled, or the
        # decoder for command starts), the bytes the next split copies, the
        # stretch its next miss stands aside for, and what is left of it.
        self._owner: object = None
        self._window, self._stretch, self._skip = _RUN_WINDOW, 1, 0

    def _decode(self, data: bytes, out: list) -> None:
        """Run the subclass's ``_run(buf, view, out)``, which appends every
        entry ``data`` completes and returns how many bytes it consumed,
        then drop those bytes. On ProtocolError the decoder is poisoned.

        A body cut by the read is gathered in ``_body`` (see the module
        docstring). While bytes of it are due, ``_buf`` is empty and a read
        goes straight in, up to the body's end."""
        if self._broken:
            raise RuntimeError("decoder is unusable after a protocol error")
        body = self._body
        if body is not None:
            due = self._bulk - body.tell()
            if len(data) <= due:
                body.write(data)
                self._base += len(data)
                return
            body.write(memoryview(data)[:due])
            self._base += due
            data = memoryview(data)[due:]
        buf = self._buf
        buf += data
        try:
            with memoryview(buf) as view:
                pos = self._run(buf, view, out)
                if self._bulk >= 0 and self._body is None:
                    self._body = body = io.BytesIO()
                    body.write(view[pos : pos + self._bulk])
                    pos += body.tell()
        except ProtocolError:
            self._broken, self._body = True, None
            raise
        del buf[:pos]
        self._base += pos

    def _line(self, start: int) -> tuple[bytearray, int] | None:
        """The CRLF-terminated line at ``start`` and the offset after it,
        or None while its end has not arrived."""
        buf = self._buf
        end = buf.find(CRLF, start + self._scanned)
        if end < 0:
            # A trailing CR may begin the CRLF, so it is not counted yet.
            if len(buf) - start - buf.endswith(b"\r") > self._limits.max_line_length:
                raise ProtocolError("line exceeds maximum length", self._base + start)
            self._scanned = max(len(buf) - start - 1, 0)
            return None
        self._scanned = 0
        if end - start > self._limits.max_line_length:
            raise ProtocolError("line exceeds maximum length", self._base + start)
        return buf[start:end], end + 2

    def _bulk_body(
        self, buf: bytearray, view: memoryview, pos: int
    ) -> tuple[bytes, int] | None:
        """The awaited bulk body at ``pos`` and the offset after its CRLF, or
        None while incomplete. A gathered body ends where its CRLF begins."""
        body = self._body
        end = pos if body is not None else pos + self._bulk
        if len(buf) < end + 2:
            return None
        if buf[end : end + 2] != CRLF:
            raise ProtocolError("bulk string missing trailing CRLF", self._base + end)
        self._bulk = -1
        if body is None:
            return bytes(view[pos:end]), end + 2
        self._body = None
        return body.getvalue(), end + 2  # the buffer itself, not a copy

    def _bulk_items(
        self, buf: bytearray, view: memoryview, pos: int, items: list, count: int
    ) -> int:
        """Append the bodies of the complete bulk items at ``pos`` until
        ``items`` holds ``count``; return the offset after the last one
        taken. Called only right after a header or value completed, so no
        half-searched line (``_scanned``) is pending. While more than
        ``_RUN_MIN`` items are due the split takes them, and the per-item
        loop the stretches it stands aside for and the rest."""
        while True:
            due = count - len(items)
            if due <= _RUN_MIN:
                pos = self._by_header(buf, view, pos, items, due)
                if len(items) == count and self._owner is items:
                    self._owner = None  # its back-off ends with the array
                return pos
            taken = len(items)
            pos = self._split(buf, view, pos, items, due)
            if len(items) > taken:
                continue
            # Standing aside, or nothing in the rest of the buffer is whole.
            size, began = min(self._skip, due) or due, pos
            pos = self._by_header(buf, view, pos, items, size)
            taken = len(items) - taken
            self._skip = max(self._skip - taken, 0)
            if taken < size:
                return pos
            # Items too long for the split's table: stand aside again at once.
            if not self._skip and pos - began >= len(_BULK_TAGS) * taken:
                self._skip, self._stretch = self._stretch, 2 * self._stretch

    def _by_header(
        self, buf: bytearray, view: memoryview, pos: int, items: list, size: int
    ) -> int:
        """The per-item loop: append at most ``size`` items, one regex match
        per header, and return the offset after the last one taken.

        Stops at anything else: a cut header or body, another type byte, a
        header that is not 1 to 18 plain digits or is longer than
        ``max_line_length``, a missing trailing CRLF, a length over
        ``max_bulk_length``.
        """
        max_bulk = self._limits.max_bulk_length
        max_digits = self._limits.max_line_length
        header, append = _BULK_HEADER, items.append
        for _ in range(size):
            match = header(buf, pos)
            if match is None:
                break
            start = match.end()
            length = int(match[1])
            end = start + length
            if (
                length > max_bulk
                or start - pos - 3 > max_digits
                or buf[end : end + 2] != CRLF
            ):
                break
            append(view[start:end].tobytes())
            pos = end + 2
        return pos

    def _split(
        self, buf: bytearray, view: memoryview, pos: int, items: list, due: int
    ) -> int:
        """Append to ``items`` what one window of the buffer at ``pos`` holds
        complete and plainly framed; return the offset after the last thing
        taken. Never raises: at anything else it stops.

        The window is copied and split once on CRLF. A header counts only if
        it is the ``_header`` of its body's length, so the body holds no
        CRLF, the header no other spelling, and both are within the limits;
        a body counts only if a CRLF follows it inside the window. With an
        array open (``due`` items to come), tokens pair up as header and
        body, and up to ``due`` bodies are taken. At a ``RequestDecoder``
        command start (``due`` 0), each whole command tagged in ``_tags``.

        A split pays if it stops only where the window ends, having taken
        more than half of it: the window grows. If it stops only at the end
        of the buffer without paying, the rest has not arrived and nothing
        changes. After any other the window shrinks back and the split stands
        aside for a stretch of items (``_bulk_items``) or commands (the state
        machine), doubling each time. All of this belongs to one array, and
        ends with it, or to the command starts; it starts afresh when the
        split moves on."""
        owner = items if due else self
        if self._owner is not owner:
            self._owner, self._window, self._stretch, self._skip = owner, _RUN_WINDOW, 1, 0
        if self._skip:
            if not due:  # the state machine takes this command
                self._skip -= 1
            return pos
        stop = min(len(buf), pos + self._window)
        if due:
            tokens = view[pos:stop].tobytes().split(CRLF, 2 * due)
            pairs = (len(tokens) - 1) // 2
            heads, bodies = tokens[0 : 2 * pairs : 2], tokens[1 : 2 * pairs : 2]
            canon = list(map(self._header, map(len, bodies)))
            good = pairs
            if canon != heads:
                good = next(itertools.compress(itertools.count(), map(ne, heads, canon)))
            items += bodies[:good]
            at, clean = 2 * good, good == pairs
        else:
            tokens = view[pos:stop].tobytes().split(CRLF)
            canon = list(map(self._header, map(len, tokens)))
            last, tags, append = len(tokens) - 1, self._tags, items.append
            at = 0
            while k := tags.get(tokens[at]):
                after = at + 2 * k + 1
                if after > last or tokens[at + 1 : after : 2] != canon[at + 2 : after : 2]:
                    break
                append(tokens[at + 2 : after : 2])
                at = after
            clean = after > last if k else at == last  # stopped at the cut tail
        # The window less its untaken tail tokens and the CRLFs between them.
        end = stop - sum(map(len, tokens[at:])) - 2 * (len(tokens) - 1 - at)
        if clean and 2 * (end - pos) > stop - pos:
            self._window, self._stretch = min(4 * self._window, _RUN_WINDOW_MAX), 1
        elif not clean or stop < len(buf):
            self._window, self._skip = _RUN_WINDOW, self._stretch
            self._stretch *= 2
        return end


# Items that must still be due before a split is worth its set-up, and the
# first and largest window (bytes) a split copies.
_RUN_MIN = 8
_RUN_WINDOW = 512
_RUN_WINDOW_MAX = 16 * 1024

_MARKERS = b"+-:$*"


class StreamDecoder(_Decoder):
    """Incremental decoder for any RESP2 value stream (client replies).

    ``feed`` returns every value completed by the chunk. A partly received
    value is kept between feeds as a stack of open arrays, each with its
    items so far and the count still due, plus the length of an awaited
    bulk body, so no byte is parsed twice however the stream is cut.
    A ProtocolError poisons the decoder: the stream has no recovery point,
    so further feeding raises RuntimeError.
    """

    def __init__(self, limits: DecodeLimits | None = None):
        super().__init__(limits)
        self._stack: list[tuple[list[ProtocolValue], int]] = []
        self._done = 0  # stream offset just past the last complete value

    @property
    def pending_bytes(self) -> int:
        """Bytes received toward a value that is not complete yet."""
        return self._base + len(self._buf) - self._done

    def feed(self, data: bytes) -> list[ProtocolValue]:
        values: list[ProtocolValue] = []
        self._decode(data, values)
        return values

    def _run(self, buf: bytearray, view: memoryview, out: list) -> int:
        limits, stack, base = self._limits, self._stack, self._base
        pos, n = 0, len(buf)
        while pos < n:
            value: ProtocolValue
            if self._bulk >= 0:
                found = self._bulk_body(buf, view, pos)
                if found is None:
                    break
                body, pos = found
                value = BulkString(body)
            else:
                marker = buf[pos]
                if marker not in _MARKERS:
                    raise ProtocolError(f"unknown type byte {bytes([marker])!r}", base + pos)
                found = self._line(pos + 1)
                if found is None:
                    break
                line, after = found
                if marker == 0x24:  # $
                    length = _header_int(line, base + pos, "bulk length")
                    if length == -1:
                        value = NIL
                    elif length < 0:
                        raise ProtocolError("invalid bulk length", base + pos)
                    elif length > limits.max_bulk_length:
                        raise ProtocolError("bulk length exceeds limit", base + pos)
                    else:
                        pos, self._bulk = after, length
                        continue
                elif marker == 0x2A:  # *
                    count = _header_int(line, base + pos, "array length")
                    if count == -1:
                        value = Array(None)
                    elif count < 0:
                        raise ProtocolError("invalid array length", base + pos)
                    elif count > limits.max_array_length:
                        raise ProtocolError("array length exceeds limit", base + pos)
                    elif len(stack) >= limits.max_depth:
                        raise ProtocolError("array nesting exceeds depth limit", base + pos)
                    elif count:
                        stack.append(([], count))
                        pos = after
                        continue
                    else:
                        value = Array(())
                elif marker == 0x3A:  # :
                    number = _header_int(line, base + pos, "integer")
                    if not INT64_MIN <= number <= INT64_MAX:
                        raise ProtocolError("integer out of 64-bit range", base + pos)
                    value = Integer(number)
                elif marker == 0x2B:  # +
                    value = SimpleString(_decode_line_text(line, base + pos, "simple string"))
                else:  # -
                    value = Error(_decode_line_text(line, base + pos, "error string"))
                pos = after
            while stack:
                items, count = stack[-1]
                items.append(value)
                taken = len(items)
                pos = self._bulk_items(buf, view, pos, items, count)
                if len(items) > taken:
                    items[taken:] = _bulk_strings(items[taken:])
                if len(items) < count:
                    break
                stack.pop()
                value = Array(tuple(items))
            else:
                out.append(value)
                self._done = base + pos
        return pos


_new_value = object.__new__
_set_payload = BulkString.payload.__set__


def _bulk_strings(bodies: list[bytes]) -> list[BulkString]:
    """A ``BulkString`` of each body, built by C code: two ``map``s make the
    objects and set their payload slots, with no ``__init__`` run per item
    (the slot's setter passes the frozen ``__setattr__``)."""
    values = list(map(_new_value, itertools.repeat(BulkString, len(bodies))))
    deque(map(_set_payload, values, bodies), 0)
    return values


class RequestDecoder(_Decoder):
    """Incremental decoder for the client-to-server command stream.

    Accepts both framings: arrays of bulk strings, and inline lines split
    on whitespace with optional quoting. ``feed`` returns a list whose
    entries are either an argv (list of byte strings) or an exception
    recording a malformed request *in stream order*, so pipelined replies
    stay aligned:

    - InlineCommandError: the offending line was consumed; decoding went on.
    - ProtocolError: fatal; it is the last entry and the decoder is dead.

    A partly received command is kept between feeds as the argv under
    construction and the count of bulk strings it still needs, so no byte
    is parsed twice however the stream is cut.
    """

    def __init__(self, limits: DecodeLimits | None = None):
        super().__init__(limits)
        self._argv: list[bytes] | None = None
        self._count = 0
        # The command tags the split takes: ``*1`` to ``*255``, within the
        # limits, digits included.
        size = _admitted(self._limits.max_array_length, self._limits.max_line_length)
        self._tags = _TAGS if size == 256 else {tag: k for tag, k in _TAGS.items() if k < size}

    def feed(
        self, data: bytes
    ) -> list[list[bytes] | InlineCommandError | ProtocolError]:
        items: list[list[bytes] | InlineCommandError | ProtocolError] = []
        try:
            self._decode(data, items)
        except ProtocolError as exc:
            items.append(exc)
        return items

    def _run(self, buf: bytearray, view: memoryview, out: list) -> int:
        limits, base, argv = self._limits, self._base, self._argv
        pos, n = 0, len(buf)
        while pos < n:
            if self._bulk >= 0:
                found = self._bulk_body(buf, view, pos)
                if found is None:
                    break
                body, pos = found
                argv.append(body)
            elif argv is not None:
                if buf[pos] != 0x24:  # $
                    raise ProtocolError(
                        f"expected '$', got {bytes([buf[pos]])!r}", base + pos
                    )
                found = self._line(pos + 1)
                if found is None:
                    break
                length = _header_int(found[0], base + pos, "bulk length")
                if length < 0 or length > limits.max_bulk_length:
                    raise ProtocolError("invalid bulk length", base + pos)
                pos, self._bulk = found[1], length
                continue
            elif buf[pos] == 0x2A:  # *
                if not self._scanned:
                    start, pos = pos, self._split(buf, view, pos, out, 0)
                    if pos > start:
                        continue
                found = self._line(pos + 1)
                if found is None:
                    break
                count = _header_int(found[0], base + pos, "multibulk length")
                if count < 0 or count > limits.max_array_length:
                    raise ProtocolError("invalid multibulk length", base + pos)
                pos = found[1]
                if not count:
                    continue
                argv = self._argv = []
                self._count = count
            else:
                nl = buf.find(b"\n", pos + self._scanned)
                # Refused by length alone, whether or not the newline is here.
                if (n if nl < 0 else nl) - pos > limits.max_line_length:
                    raise ProtocolError("too big inline request", base + pos)
                if nl < 0:
                    self._scanned = n - pos
                    break
                self._scanned = 0
                line = bytes(view[pos:nl])
                if line.endswith(b"\r"):
                    line = line[:-1]
                pos = nl + 1
                try:
                    tokens = tokenize_inline(line)
                except InlineCommandError as exc:
                    out.append(exc)
                    continue
                if tokens:
                    out.append(tokens)
                continue
            # An argv is open and its last item, if any, complete.
            pos = self._bulk_items(buf, view, pos, argv, self._count)
            if len(argv) == self._count:
                out.append(argv)
                argv = self._argv = None
        return pos


# After any blanks, a "double-quoted" token with escapes, a 'single-quoted' one where
# only \' is escaped, or a run of non-blanks not led by a quote; then a blank or the end.
_INLINE_TOKEN = re.compile(
    rb'[ \t]*(?:"([^\\"]*(?:\\.[^\\"]*)*)"|\'([^\'\\]*(?:\\(?:\'|(?!\'))[^\'\\]*)*)\''
    rb'|([^ \t"\'][^ \t]*))(?=[ \t]|\Z)',
    re.S,
)
_INLINE_ESCAPE = re.compile(rb"\\(x[0-9a-fA-F]{2}|.)", re.S)
# What an escape stands for where it is not its own byte.
_INLINE_ESCAPES = {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"a": b"\a"} | {
    b"x%c%c" % pair: bytes.fromhex(bytes(pair).decode())
    for pair in itertools.product(b"0123456789abcdefABCDEF", repeat=2)
}


def tokenize_inline(line: bytes) -> list[bytes]:
    """Split one inline command line into argv tokens.

    Double-quoted tokens keep embedded whitespace and honor backslash
    escapes, ``\\xHH`` included; single-quoted tokens are literal except for
    ``\\'``. A closing quote must end the token. Raises InlineCommandError
    on unbalanced or run-together quoting.
    """
    tokens: list[bytes] = []
    pos, end = 0, len(line.rstrip(b" \t"))
    while pos < end:
        match = _INLINE_TOKEN.match(line, pos)
        if match is None:
            raise InlineCommandError("unbalanced quotes in request")
        quoted, single, token = match.groups()
        if quoted is not None:
            parts = _INLINE_ESCAPE.split(quoted)  # text, escape, text, ...
            escapes = parts[1::2]
            parts[1::2] = map(_INLINE_ESCAPES.get, escapes, escapes)
            token = b"".join(parts)
        elif single is not None:
            token = single.replace(b"\\'", b"'")
        tokens.append(token)
        pos = match.end()
    return tokens

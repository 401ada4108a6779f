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
text, limit and offset. Inside an open array it hands over to
``_Decoder._bulk_items``, which takes consecutive bulk strings that are
already complete and plainly well formed straight out of the buffer in two
tiers. While more than 8 items are due, a split-and-verify run copies a
bounded window, splits it once on CRLF and checks a whole batch of
(header, body) pairs with one list comparison against the canonical
headers of the body lengths. Where a run stops, a per-item loop (one regex
match per header) goes on at the same byte. Neither raises: at anything
else (a cut or unusual header, another type byte, a bad terminator, a
length over a limit) they stop, and the state machine resumes at that
byte.

``RequestDecoder`` adds a command tier in front of the state machine, for
pipelines of small commands. Where a command starts and nothing is half
decoded, it reads the first ``*<k>`` tag, copies a bounded window, splits
it once on CRLF and takes every whole command in it whose tag has 1 to 255
items and whose headers are the canonical ``$<len>`` of bodies under 256
bytes, all within the limits. It too never raises: inline lines, other
arrays, long or odd items, commands cut by the window or the read, and
every refusal are left to the state machine. After a run that takes
nothing or stops short of its window, the tier stands aside for a doubling
stretch of commands. Array replies of raw members (``MemberArray``) are
framed like commands, with no value per member.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from operator import ne, or_
from typing import Callable, Sequence

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


@dataclass(frozen=True)
class SimpleString:
    text: str


@dataclass(frozen=True)
class Error:
    text: str


@dataclass(frozen=True)
class Integer:
    value: int


@dataclass(frozen=True)
class BulkString:
    payload: bytes | None


@dataclass(frozen=True)
class Array:
    items: tuple["ProtocolValue", ...] | None

    def __post_init__(self) -> None:
        if self.items is not None and not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))


class MemberArray(Array):
    """An array reply of bulk strings, held as the raw member bytes.

    The encoder frames it as commands are framed (``encode_command``) and
    never wraps a member; ``items`` builds the BulkString form on demand,
    and the value compares equal to an Array of those BulkStrings.
    """

    def __init__(self, members: tuple[bytes, ...]):
        object.__setattr__(self, "members", members)

    @property
    def items(self) -> tuple[BulkString, ...]:
        return tuple(map(BulkString, self.members))

    def __eq__(self, other):
        if isinstance(other, Array):
            return self.items == other.items
        return NotImplemented

    __hash__ = Array.__hash__


ProtocolValue = SimpleString | Error | Integer | BulkString | Array

OK = SimpleString("OK")
PONG = SimpleString("PONG")
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
# members allocates nothing per member and a split run checks a short body
# with one lookup. Without CRLF as a list, whose ``__getitem__`` is a plain
# method and so cheaper to map than a tuple's slot wrapper.
_BULK_TAGS = [b"$%d" % size for size in range(256)]
_SHORT_BULK_HEADERS = tuple(tag + CRLF for tag in _BULK_TAGS)


def encode_command(argv: Sequence[bytes]) -> bytearray:
    """The array-of-bulk-strings frame of a command or member reply, built
    in one buffer (a list of parts would hold three entries per member)."""
    out = bytearray(b"*%d\r\n" % len(argv))
    headers = _SHORT_BULK_HEADERS
    for arg in argv:
        size = len(arg)
        out += headers[size] if size < 256 else b"$%d\r\n" % size
        out += arg
        out += CRLF
    return out


def _encode_into(value: ProtocolValue, out: list[bytes | bytearray]) -> None:
    if isinstance(value, SimpleString):
        _append_line(out, b"+", value.text)
    elif isinstance(value, Error):
        _append_line(out, b"-", value.text)
    elif isinstance(value, Integer):
        if not INT64_MIN <= value.value <= INT64_MAX:
            raise ValueError(f"integer reply out of 64-bit range: {value.value}")
        out.append(b":%d\r\n" % value.value)
    elif isinstance(value, BulkString):
        if value.payload is None:
            out.append(b"$-1\r\n")
        else:
            out += (b"$%d\r\n" % len(value.payload), value.payload, CRLF)
    elif type(value) is MemberArray:
        out.append(encode_command(value.members))
    elif isinstance(value, Array):
        if value.items is None:
            out.append(b"*-1\r\n")
        else:
            out.append(b"*%d\r\n" % len(value.items))
            for item in value.items:
                _encode_into(item, out)
    else:
        raise TypeError(f"not a protocol value: {value!r}")


def _append_line(out: list[bytes | bytearray], marker: bytes, text: str) -> None:
    if "\r" in text or "\n" in text:
        raise ValueError("line reply may not contain CR or LF")
    out += (marker, text.encode("utf-8"), CRLF)


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
    """Input buffer, absolute offsets and line framing of both decoders.

    ``_buf`` holds only the bytes not yet folded into a value or into the
    partial state a subclass keeps between feeds; ``_base`` is the stream
    offset of ``_buf[0]``. A line that is not complete yet remembers how far
    it was searched, so a header trickled in byte by byte is scanned once.
    """

    def __init__(self, limits: DecodeLimits | None = None):
        self._limits = limits or DEFAULT_LIMITS
        self._buf = bytearray()
        self._base = 0
        self._scanned = 0
        self._bulk = -1  # length of the bulk body being awaited, else -1
        self._broken = False
        # The longest body a split run may take: within max_bulk_length, and
        # with no more digits than max_line_length allows in its header.
        digits = self._limits.max_line_length
        longest = 10 ** min(digits, 19) - 1 if digits > 0 else -1
        self._run_limit = min(self._limits.max_bulk_length, longest)

    def _decode(self, data: bytes, out: list) -> None:
        """Run the subclass's ``_run(buf, view, out)``, which appends every
        entry ``data`` completes and returns how many bytes it consumed,
        then drop those bytes. On ProtocolError the decoder is poisoned."""
        if self._broken:
            raise RuntimeError("decoder is unusable after a protocol error")
        buf = self._buf
        buf += data
        try:
            with memoryview(buf) as view:
                pos = self._run(buf, view, out)
        except ProtocolError:
            self._broken = True
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

    def _bulk_body(self, buf: bytearray, view: memoryview, pos: int) -> bytes | None:
        """The awaited bulk body at ``pos``, or None while incomplete."""
        end = pos + self._bulk
        if len(buf) < end + 2:
            return None
        if buf[end : end + 2] != CRLF:
            raise ProtocolError("bulk string missing trailing CRLF", self._base + end)
        self._bulk = -1
        return bytes(view[pos:end])

    def _bulk_items(
        self, buf: bytearray, view: memoryview, pos: int, items: list, count: int
    ) -> int:
        """Append the bodies of the complete ``$<digits>\r\n<body>\r\n``
        items at ``pos`` until ``items`` holds ``count``; return the offset
        after the last one taken. Called only right after a header or value
        completed, so no half-searched line (``_scanned``) is pending.

        Two tiers take items and neither raises; where both stop, the state
        machine resumes at that byte and alone raises. While more than
        ``_RUN_MIN`` items are due, split-and-verify runs (``_split_run``)
        take batches of items from a window of the buffer. A run pays when
        it takes every complete item in its window, with at most
        ``_RUN_ITEM_BYTES`` of window per item; the window then grows.
        After any other run the window shrinks back and the per-item loop
        (``_by_header``) takes a stretch of items that doubles each time.
        That loop also takes the first item of a call, and goes on in
        doubling stretches while its items average more than
        ``_RUN_ITEM_BYTES``. So frames that defeat the run (bodies holding
        CRLF, padded headers, large bodies) cost a few small window copies
        over the per-item loop, not one per item or per read.
        """
        due = count - len(items)
        if due <= _RUN_MIN:
            return self._by_header(buf, view, pos, items, due)
        window, stretch, slow = _RUN_WINDOW, _RUN_MIN, 1
        while due:
            began = pos
            if slow or due < _RUN_MIN:
                size = min(slow, due) if slow else due
                pos = self._by_header(buf, view, pos, items, size)
                taken = len(items) + due - count
                if taken < size:
                    break
                if slow and pos - began > _RUN_ITEM_BYTES * taken:
                    stretch, slow = 2 * stretch, stretch
                else:
                    slow = 0
            else:
                stop = min(len(buf), pos + window)
                pos, clean = _split_run(view, pos, stop, due, self._run_limit, items)
                taken = len(items) + due - count
                if clean and stop - began <= _RUN_ITEM_BYTES * taken:
                    window, stretch = min(4 * window, _RUN_WINDOW_MAX), _RUN_MIN
                else:
                    window, stretch, slow = _RUN_WINDOW, 2 * stretch, stretch
            due -= taken
        return pos

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


# Items that must still be due before a split run is worth its set-up; the
# first and largest window (bytes) a run copies and splits; and the mean item
# size above which a run costs more than the per-item loop.
_RUN_MIN = 8
_RUN_WINDOW = 512
_RUN_WINDOW_MAX = 16 * 1024
_RUN_ITEM_BYTES = 256


def _canonical(header: Callable[[int], bytes | None], bodies: list[bytes]) -> list:
    """The canonical header ``$<len(body)>`` of each body, which ``header``
    gives for a length (an entry of ``_BULK_TAGS``, or None to refuse it)."""
    return list(map(header, map(len, bodies)))


def _split_run(
    view: memoryview, pos: int, stop: int, need: int, limit: int, items: list
) -> tuple[int, bool]:
    """Append the bodies of the leading canonically framed bulk items in
    ``view[pos:stop]``, at most ``need``; return the offset after the last
    one taken and whether every complete item in the window was taken.

    The window is split once on CRLF; even tokens are headers, odd tokens
    bodies, and only pairs followed by a CRLF count. A pair is taken while
    its header is exactly ``$<len(body)>`` (so the body holds no CRLF and
    the header no padding, sign or other spelling) and the length is at
    most ``limit``; the first pair that is not ends the run. Taken pairs
    frame exactly as the state machine would frame them.
    """
    tokens = view[pos:stop].tobytes().split(CRLF, 2 * need)
    pairs = (len(tokens) - 1) // 2
    if not pairs:
        return pos, False
    heads, bodies = tokens[0 : 2 * pairs : 2], tokens[1 : 2 * pairs : 2]
    try:
        canon = _canonical(_BULK_TAGS.__getitem__, bodies)
    except IndexError:  # a body of 256 bytes or more
        canon = _canonical(b"$%d".__mod__, bodies)
    # Under the default limits no body that fits the window is too long.
    if canon == heads and (limit >= stop - pos or max(map(len, bodies)) <= limit):
        items += bodies
        # The window less its unpaired tail tokens and the CRLFs between them.
        tail = tokens[2 * pairs :]
        return stop - sum(map(len, tail)) - 2 * len(tail) + 2, True
    sizes = list(map(len, bodies))
    bad = map(or_, map(ne, heads, canon), map(limit.__lt__, sizes))
    good = next(itertools.compress(itertools.count(), bad))
    items += bodies[:good]
    return pos + 4 * good + sum(sizes[:good]) + sum(map(len, heads[:good])), False


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
                body = self._bulk_body(buf, view, pos)
                if body is None:
                    break
                value = BulkString(body)
                pos += len(body) + 2
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
                if len(items) < count:
                    taken = len(items)
                    pos = self._bulk_items(buf, view, pos, items, count)
                    items[taken:] = map(BulkString, items[taken:])
                    if len(items) < count:
                        break
                stack.pop()
                value = Array(tuple(items))
            else:
                out.append(value)
                self._done = base + pos
        return pos


@functools.lru_cache(maxsize=8)
def _command_tables(top: int, longest: int) -> tuple[dict[bytes, int], Callable]:
    """The command tier's tag table (``*1`` to ``*<top>``) and header lookup
    (bodies of at most ``longest`` bytes), shared by decoders with the same
    limits rather than built per connection."""
    tags = {b"*%d" % k: k for k in range(1, top + 1)}
    return tags, dict(enumerate(_BULK_TAGS[: longest + 1])).get


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
        # The command tier takes the tags ``*1`` to ``*255`` and the bodies
        # under 256 bytes that are within limits, header digits included.
        limits = self._limits
        top = min(255, limits.max_array_length, 10 ** min(limits.max_line_length, 3) - 1)
        self._tags, self._header = _command_tables(top, min(255, self._run_limit))
        self._window = _RUN_WINDOW  # bytes the next command-tier run copies
        self._stretch = 1  # commands it stands aside for after a run that does not pay
        self._skip = 0  # commands still to go before it runs again

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
                body = self._bulk_body(buf, view, pos)
                if body is None:
                    break
                argv.append(body)
                pos += len(body) + 2
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
                if self._skip:
                    self._skip -= 1
                elif not self._scanned:
                    pos = self._split_commands(buf, view, pos, out)
                    if pos == n or buf[pos] != 0x2A:
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

    def _split_commands(self, buf: bytearray, view: memoryview, pos: int, out: list) -> int:
        """The command tier: append the argvs of the whole, plainly framed
        small commands at ``pos`` and return the offset after the last one
        taken. Called only where a command starts with ``*``, no line is
        half-searched, and the state machine then takes the command at the
        offset returned, so each call is followed by at least one command
        the tier did not take.

        The first tag is read before anything is copied. Then a window of
        the buffer is split once on CRLF and walked command by command: a
        tag in ``_tags``, then k (header, body) pairs, each header exactly
        ``$<len(body)>`` (``_canonical``) with the body under 256 bytes and
        within limits, the last body followed by a CRLF inside the window.
        The tier never raises: at anything else it stops. A run pays when it
        takes a command and stops only where the window or the buffer ends;
        the window then grows. After any other run it shrinks back, and the
        state machine takes a stretch of commands, doubling each time,
        before the next try.
        """
        end = buf.find(CRLF, pos + 2, pos + 6)
        if end < 0:
            return pos
        k = self._tags.get(view[pos:end].tobytes())
        stop = min(len(buf), pos + self._window)
        # A command of k items is at least 6k bytes past its tag ($0\r\n\r\n).
        if k is None or end + 2 + 6 * k > stop:
            return pos
        tokens = view[pos:stop].tobytes().split(CRLF)
        canon = _canonical(self._header, tokens)
        last, tags, append = len(tokens) - 1, self._tags, out.append
        at = 0
        while True:
            k = tags.get(tokens[at])
            if k is None:
                clean = at == last
                break
            after = at + 2 * k + 1
            if after > last:
                clean = True
                break
            if tokens[at + 1 : after : 2] != canon[at + 2 : after : 2]:
                clean = False
                break
            append(tokens[at + 2 : after : 2])
            at = after
        if at and clean:
            self._window, self._stretch = min(4 * self._window, _RUN_WINDOW_MAX), 1
        else:
            self._window, self._skip = _RUN_WINDOW, self._stretch
            self._stretch *= 2
        # The window less its untaken tail tokens and the CRLFs between them.
        return stop - sum(map(len, tokens[at:])) - 2 * (last - at)


_INLINE_ESCAPES = {
    0x6E: 0x0A,  # \n
    0x72: 0x0D,  # \r
    0x74: 0x09,  # \t
    0x62: 0x08,  # \b
    0x61: 0x07,  # \a
}

_WHITESPACE = b" \t"


def tokenize_inline(line: bytes) -> list[bytes]:
    """Split one inline command line into argv tokens.

    Double-quoted tokens keep embedded whitespace and honor backslash
    escapes; single-quoted tokens are literal except for ``\\'``. A closing
    quote must end the token. Raises InlineCommandError on unbalanced or
    run-together quoting.
    """
    tokens: list[bytes] = []
    i, n = 0, len(line)
    while i < n:
        if line[i] in _WHITESPACE:
            i += 1
            continue
        token = bytearray()
        quote = line[i] if line[i] in b"\"'" else None
        if quote is None:
            while i < n and line[i] not in _WHITESPACE:
                token.append(line[i])
                i += 1
        else:
            i += 1
            while True:
                if i >= n:
                    raise InlineCommandError("unbalanced quotes in request")
                ch = line[i]
                if ch == quote:
                    i += 1
                    if i < n and line[i] not in _WHITESPACE:
                        raise InlineCommandError("unbalanced quotes in request")
                    break
                if ch == 0x5C and quote == 0x22 and i + 1 < n:  # escape in ""
                    nxt = line[i + 1]
                    token.append(_INLINE_ESCAPES.get(nxt, nxt))
                    i += 2
                    continue
                if ch == 0x5C and quote == 0x27 and i + 1 < n and line[i + 1] == 0x27:
                    token.append(0x27)
                    i += 2
                    continue
                token.append(ch)
                i += 1
        tokens.append(bytes(token))
    return tokens

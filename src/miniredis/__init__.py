"""An in-memory data-structure server speaking the RESP2 wire protocol.

Strings, hashes, sets, lists and sorted sets behind a TCP front end, a
publish/subscribe broker, a synchronous client, and a command-line tool.
"""

from .client import Connection, decode_row, encode_row, hget_blob, hset_blob, zadd_matrix, zrangebyscore_matrix
from .datastore import KeyStore, RangeBound, SortedSet
from .errors import (
    CommandError,
    InlineCommandError,
    ProtocolError,
    ReplyError,
    RowDecodeError,
    WrongTypeError,
)
from .protocol import (
    Array,
    BulkString,
    DecodeLimits,
    Error,
    Integer,
    ProtocolValue,
    RequestDecoder,
    SimpleString,
    StreamDecoder,
    encode,
    tokenize_inline,
)
from .pubsub import Broker
from .router import LocalSession, Router

__version__ = "0.1.0"

__all__ = [
    "Array",
    "Broker",
    "BulkString",
    "CommandError",
    "Connection",
    "DecodeLimits",
    "Error",
    "InlineCommandError",
    "Integer",
    "KeyStore",
    "LocalSession",
    "ProtocolError",
    "ProtocolValue",
    "RangeBound",
    "ReplyError",
    "RequestDecoder",
    "Router",
    "RowDecodeError",
    "Server",
    "ServerConfig",
    "ServerThread",
    "SimpleString",
    "SortedSet",
    "StreamDecoder",
    "WrongTypeError",
    "decode_row",
    "encode",
    "encode_row",
    "hget_blob",
    "hset_blob",
    "tokenize_inline",
    "zadd_matrix",
    "zrangebyscore_matrix",
]


def __getattr__(name: str):
    # Imported on first use, so ``python -m miniredis.server`` runs that module once.
    if name in ("Server", "ServerConfig", "ServerThread"):
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

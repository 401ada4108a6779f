"""Shared fixtures: a fresh server per test, plus the optional interop target."""

from __future__ import annotations

import os

import pytest

from miniredis.cli import parse_target
from miniredis.client import Connection
from miniredis.server import ServerConfig, ServerThread


def pytest_addoption(parser):
    parser.addoption(
        "--target",
        action="store",
        default=None,
        metavar="HOST:PORT",
        help=(
            "external RESP2 server for the interop acceptance test; "
            "it will be FLUSHed, point it at a disposable instance"
        ),
    )


@pytest.fixture(scope="session")
def target(request) -> tuple[str, int] | None:
    value = request.config.getoption("--target") or os.environ.get("MINIREDIS_TARGET")
    if not value:
        return None
    return parse_target(value, 6379)


@pytest.fixture
def server():
    with ServerThread(ServerConfig(port=0)) as srv:
        yield srv


@pytest.fixture
def conn(server):
    with Connection(server.host, server.port) as connection:
        yield connection

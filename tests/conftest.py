from __future__ import annotations

import socket

import pytest

from skillblend.core import DEFAULT_ROSTER, EngineConfig

import helpers


@pytest.fixture
def roster():
    return DEFAULT_ROSTER


@pytest.fixture
def cfg():
    return EngineConfig()


@pytest.fixture(scope="session")
def corpus_files(tmp_path_factory):
    """The three synthetic single-skill dataset files, written once."""
    root = tmp_path_factory.mktemp("corpus")
    return helpers.write_corpus(root)


@pytest.fixture
def connects(monkeypatch):
    """Addresses of the TCP connections opened through socket.create_connection."""
    opened = []
    create = socket.create_connection

    def counting(*args, **kwargs):
        opened.append(args[0])
        return create(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return opened

"""Lockstep groups on the remote path: a batch's remote episodes advance
in groups of ``orchestrator._GROUP`` consecutive seeds, and each tick sends
one request per (endpoint, route) for every member waiting on it."""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import Counter, defaultdict
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillblend import agents, classifiers, orchestrator
from skillblend.agents import (
    BackendEndpoint,
    BackendUnavailableError,
    ProtocolError,
    RemoteSkillAgent,
    run_in_lockstep,
    serve_mock,
)
from skillblend.classifiers import RemoteNliJudge, RemoteSkillScorer
from skillblend.core import DEFAULT_ROSTER, EngineConfig, SkillContext, SkillContextSet, compact_json
from skillblend.dataio import episode_line
from skillblend.orchestrator import BatchError, run_batch
from skillblend.seeds import SeedEpisode

import helpers

P, K, E = DEFAULT_ROSTER
_GROUP = orchestrator._GROUP

# a side-0 line that contradicts P's first text only (one refusal, then P's
# second text passes), and one that contradicts every text (the episode
# aborts at turn 2)
_REFUSES_ONCE = "i hate skiing"
_REFUSES_ALL = "i never talk"
_TEXTS = ("i love skiing", "me too, personally", "did you know skiing is old", "that sounds fun")
_TABLES = {
    "generate": {
        "by_skill": {
            "P": [{"text": _TEXTS[0], "score": 0.9}, {"text": _TEXTS[1], "score": 0.8}],
            "K": [{"text": _TEXTS[2], "score": 0.7}],
            "E": [{"text": _TEXTS[3], "score": 0.6}],
        }
    },
    "rank": {"by_text": {_TEXTS[3]: 0.9, _TEXTS[2]: 0.5}, "default_score": 0.1},
    "nli": {
        "pairs": [{"premise": _REFUSES_ONCE, "hypothesis": _TEXTS[0], "label": "contradict"}]
        + [{"premise": _REFUSES_ALL, "hypothesis": text, "label": "contradict"} for text in _TEXTS],
        "default": {"label": "neutral", "confidence": 0.5},
    },
    "classify": {"by_text": {_TEXTS[3]: [0.1, 0.1, 0.8]}, "default": [0.5, 0.3, 0.2]},
}
_KINDS = ("plain", "refuses", "aborts")


def _seed(number: int, kind: str) -> SeedEpisode:
    """A seed whose pair names its number, so every episode's requests
    differ; ``kind`` picks the side-0 persona line."""
    persona = {"plain": "i like to ski in winter", "refuses": _REFUSES_ONCE, "aborts": _REFUSES_ALL}
    contexts = (
        SkillContextSet((SkillContext(P, (persona[kind],)), SkillContext(K, ("skiing",)))),
        SkillContextSet((SkillContext(P, ("i grow tomatoes",)), SkillContext(E, ("proud",)))),
    )
    return SeedEpisode(P, (f"do you ski, number {number}", "i love skiing a lot"), contexts)


def _stack(endpoint, cfg):
    remote = [RemoteSkillAgent(endpoint, skill) for skill in cfg.skill_roster]
    return remote, RemoteNliJudge(endpoint), RemoteSkillScorer(endpoint, cfg.skill_roster)


def _lines(server, seeds, cfg, parallelism):
    """The written lines, the report and the server's (route, body) log of
    one batch; the log is emptied first."""
    del server.requests[:]
    written = []
    report = run_batch(
        seeds, *_stack(server.endpoint(), cfg), cfg, parallelism=parallelism, write=written.append
    )
    return [episode_line(ep) for ep in written], report, list(server.requests)


@settings(max_examples=8, deadline=None)
@given(
    st.lists(st.sampled_from(_KINDS), min_size=1, max_size=2 * _GROUP + 4).filter(
        lambda kinds: len(kinds) % _GROUP
    )
)
@example(["refuses"] * _GROUP + ["plain"])  # the last group is one seed, run on the worker
def test_bytes_and_requests_do_not_depend_on_parallelism(kinds):
    cfg = EngineConfig()
    seeds = [_seed(i, kind) for i, kind in enumerate(kinds)]
    with serve_mock(_TABLES) as server:
        runs = {p: _lines(server, seeds, cfg, p) for p in (1, 2, 3)}
    lines, report, log = runs[1]
    assert len(lines) == kinds.count("plain") + kinds.count("refuses")
    assert [index for index, _ in report.aborts] == [i for i, k in enumerate(kinds) if k == "aborts"]
    assert report.refusal_total >= kinds.count("refuses")
    for parallelism in (2, 3):
        other_lines, other_report, other_log = runs[parallelism]
        assert other_lines == lines
        assert other_report == report
        # groups run side by side above parallelism 1, so their requests
        # interleave: the same requests, in another order
        assert Counter(other_log) == Counter(log)


def test_each_tick_sends_one_request_per_route_with_members_in_seed_order(cfg, monkeypatch):
    # every remote call is logged under the episode that made it; replaying
    # the calls tick by tick (tick t holds each member's t-th call, if it
    # has one) must give exactly the requests the server saw
    local = threading.local()
    calls = defaultdict(list)
    run_episode_untagged = orchestrator.run_episode
    exchange = agents.exchange

    def tagged(*args, **kwargs):
        local.episode = kwargs["episode_id"]
        return run_episode_untagged(*args, **kwargs)

    def logged(post, endpoint, route, entries):
        calls[local.episode].append((route, entries))
        return exchange(post, endpoint, route, entries)

    monkeypatch.setattr(orchestrator, "run_episode", tagged)
    monkeypatch.setattr(agents, "exchange", logged)
    monkeypatch.setattr(classifiers, "exchange", logged)
    kinds = ["plain", "refuses", "plain", "aborts", "refuses", "plain", "plain", "refuses"]
    kinds += ["aborts", "refuses", "plain"]
    seeds = [_seed(i, kind) for i, kind in enumerate(kinds)]
    with serve_mock(_TABLES) as server:
        _lines(server, seeds, cfg, 1)
        sent = list(server.requests)

    expected = []
    request_key = {"/generate": "groups", "/rank": "items", "/nli": "items", "/classify": "texts"}
    for first in range(0, len(seeds), _GROUP):
        members = [calls[f"ep-{i:06d}"] for i in range(first, min(first + _GROUP, len(seeds)))]
        for tick in range(max(map(len, members))):
            due = [member[tick] for member in members if tick < len(member)]
            for route in agents._ROUTES:
                entries = [entry for r, member_entries in due if r == route for entry in member_entries]
                if entries:
                    expected.append((route, compact_json({request_key[route]: entries}).encode()))
    assert sent == expected
    # the groups did merge: fewer requests than calls, and more than one
    # member's entries in some request
    assert len(sent) < sum(map(len, calls.values()))
    assert max(len(json.loads(body).get("groups", ())) for _, body in sent) > 1


def test_each_member_gets_its_own_copy_of_a_failed_request_error(cfg, monkeypatch):
    # one /classify for three members fails its length check: each member
    # raises its own ProtocolError, with the raw body, named once
    raw = b'{"distributions":[]}'
    monkeypatch.setattr(classifiers, "post_json", lambda *args: (json.loads(raw), raw))
    stack = _stack(BackendEndpoint("http://127.0.0.1:9"), cfg)

    def job(number):
        try:
            helpers.run_episode(_seed(number, "plain"), *stack, cfg, episode_id=f"ep-{number:06d}")
        except ProtocolError as exc:
            return exc

    errors = run_in_lockstep([partial(job, number) for number in range(3)])
    assert [str(exc) for exc in errors] == [
        f"episode ep-{n:06d} turn 0: /classify: expected 6 distributions, got 0" for n in range(3)
    ]
    assert all(type(exc) is ProtocolError and exc.body == raw for exc in errors)
    assert len({id(exc) for exc in errors}) == 3


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setattr(agents, "sleep", lambda seconds: None)


@pytest.mark.parametrize("backend", ["stalled", "answers 500"])
def test_a_failed_group_request_names_the_first_episode_once(cfg, no_backoff, backend):
    written = []
    seeds = [_seed(i, "plain") for i in range(3)]
    if backend == "stalled":
        server = helpers.RawServer()
        endpoint = BackendEndpoint(f"http://127.0.0.1:{server.port}", timeout_ms=200, max_retries=1)
        reason = "timed out"
    else:
        server = serve_mock(dict(_TABLES, fail_first={"/classify": 10}))
        endpoint = server.endpoint(max_retries=1)
        reason = "HTTP 500"
    with server:
        message = (
            rf"^episode ep-000000 turn 0: /classify: "
            rf"backend unavailable after 2 attempts \({reason}\)$"
        )
        with pytest.raises(BackendUnavailableError, match=message):
            run_batch(seeds, *_stack(endpoint, cfg), cfg, write=written.append)
    assert written == []


def _batch_threads():
    return [t for t in threading.enumerate() if t.name.startswith("skillblend-")]


@pytest.fixture
def opened(monkeypatch):
    """The TCP connections that socket.create_connection opened."""
    sockets = []
    create = socket.create_connection

    def counting(*args, **kwargs):
        sock = create(*args, **kwargs)
        sockets.append(sock)
        return sock

    monkeypatch.setattr(socket, "create_connection", counting)
    return sockets


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("failure", ["backend dies", "backend stalls", "writer fails"])
def test_a_batch_leaves_no_thread_and_opens_at_most_parallelism_connections(
    cfg, monkeypatch, no_backoff, opened, failure, parallelism
):
    seeds = [_seed(i, "plain") for i in range(3 * _GROUP)]
    if failure == "backend stalls":
        server = helpers.RawServer()
        endpoint = BackendEndpoint(f"http://127.0.0.1:{server.port}", timeout_ms=200, max_retries=0)
    else:
        server = serve_mock(_TABLES)
        endpoint = server.endpoint(max_retries=0)
    run_episode_unhooked = orchestrator.run_episode

    def hooked(*args, **kwargs):
        if failure == "backend dies" and kwargs["episode_id"] == f"ep-{2 * _GROUP:06d}":
            server.close()  # as the third group starts, after one has ended
        return run_episode_unhooked(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "run_episode", hooked)
    written = []

    def write(ep):
        if failure == "writer fails" and len(written) == _GROUP + 2:
            raise OSError("disk full")
        written.append(ep)

    raised = {
        "backend dies": BackendUnavailableError,
        "backend stalls": BackendUnavailableError,
        "writer fails": BatchError,
    }[failure]
    with server:
        with pytest.raises(raised):
            run_batch(seeds, *_stack(endpoint, cfg), cfg, parallelism=parallelism, write=write)
        assert _batch_threads() == []
    assert 1 <= len(opened) <= parallelism


def test_a_finished_batch_leaves_no_thread(cfg):
    seeds = [_seed(i, kind) for i, kind in enumerate(_KINDS * 4)]
    with serve_mock(_TABLES) as server:
        report = run_batch(seeds, *_stack(server.endpoint(), cfg), cfg, parallelism=2)
        assert _batch_threads() == []
    assert report.episodes_written == 8


def test_a_member_that_fails_to_start_leaves_the_group(monkeypatch):
    # the third member's thread fails to start: the two started members
    # still get their answers, in one request, and end; the error propagates
    start = threading.Thread.start
    starts = []

    def failing_start(thread):
        if thread.name.startswith("skillblend-lockstep-"):
            starts.append(thread.name)
            if len(starts) == 3:
                raise RuntimeError("can't start new thread")
            thread.daemon = True  # a stranded member must not hang the suite
        start(thread)

    sent = []

    def post(endpoint, route, body):
        sent.append((route, body))
        return {"distributions": [[1.0]] * len(body["texts"])}, b"raw"

    endpoint = BackendEndpoint("http://127.0.0.1:9")
    jobs = [partial(agents.exchange, post, endpoint, "/classify", [f"text {i}"]) for i in range(4)]
    monkeypatch.setattr(threading.Thread, "start", failing_start)
    with pytest.raises(RuntimeError, match="^can't start new thread$"):
        run_in_lockstep(jobs)
    deadline = time.monotonic() + 2
    while _batch_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _batch_threads() == []
    assert sent == [("/classify", {"texts": ["text 0", "text 1"]})]

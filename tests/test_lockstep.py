"""Lockstep groups on the remote path: a batch's remote episodes advance
in groups of ``orchestrator._GROUP`` consecutive seeds. Each tick serves the
members furthest behind in their turns, in one request per endpoint."""

from __future__ import annotations

import json
import random
import socket
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
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
    default_scripted_agents,
    run_in_lockstep,
    serve_mock,
)
from skillblend.classifiers import RemoteNliJudge, RemoteSkillScorer
from skillblend.core import (
    DEFAULT_ROSTER,
    DialogueContext,
    EngineConfig,
    SkillContext,
    SkillContextSet,
    SkillDistribution,
    compact_json,
)
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
    stack = _stack(server.endpoint(), cfg)
    report = helpers.run_bounded(
        partial(run_batch, seeds, *stack, cfg, parallelism=parallelism, write=written.append)
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
    # each group's calls through the step-ordered ticks must give exactly
    # the requests the server saw
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
    groups = [
        [calls[f"ep-{i:06d}"] for i in range(first, min(first + _GROUP, len(seeds)))]
        for first in range(0, len(seeds), _GROUP)
    ]
    for members in groups:
        for route, entries in _replayed(members):
            expected.append((route, compact_json({request_key[route]: entries}).encode()))
    assert sent == expected
    # the groups did merge: fewer requests than calls, and more than one
    # member's entries in some request
    assert len(sent) < sum(map(len, calls.values()))
    assert max(len(json.loads(body).get("groups", ())) for _, body in sent) > 1
    # and stayed in step: a group sends one /rank per turn of its longest
    # episode, however often its members regenerated
    longest = sum(max(sum(r == "/rank" for r, _ in member) for member in members) for members in groups)
    assert [route for route, _ in sent].count("/rank") == longest


def test_groups_side_by_side_give_the_bytes_and_requests_of_one_at_a_time(cfg):
    # two full groups and a partial one, each mixing plain, refusing and
    # aborting seeds; at parallelism 2 two groups run at once
    kinds = ["plain", "refuses", "aborts", "plain", "refuses"] * 4
    seeds = [_seed(i, kind) for i, kind in enumerate(kinds)]
    with serve_mock(_TABLES) as server:
        runs = {p: _lines(server, seeds, cfg, p) for p in (1, 2)}
    lines, report, log = runs[1]
    other_lines, other_report, other_log = runs[2]
    assert len(lines) == 16 and len(report.aborts) == 4
    assert other_lines == lines
    assert other_report == report
    assert Counter(other_log) == Counter(log)
    # each group sends one /rank per generated turn (8 per episode), and a
    # regeneration holds the group for a tick of its own: 21 of them for
    # every aborting seed, whose three agents each try 8 texts
    assert Counter(route for route, _ in log) == {"/generate": 96, "/nli": 9, "/classify": 9, "/rank": 24}


@dataclass(frozen=True)
class _PairJudge:
    """In-process NLI: contradicts exactly the (premise, hypothesis) pairs given."""

    pairs: frozenset

    def judge(self, premises: tuple, hypothesis: str) -> tuple:
        return tuple((premise, hypothesis) in self.pairs for premise in premises)


def test_a_group_that_never_sends_rank_still_finishes(cfg, monkeypatch):
    # scripted agents generate and rank in process, so the group never
    # sends /rank and its members' /rank counts stay 0: a member on
    # /classify waits for every /nli, however many turns ahead its caller
    # is. The group still ends, with the bytes of an in-process run, one
    # request per tick.
    scripted = default_scripted_agents(cfg.skill_roster)
    (p_agent,) = [agent for agent in scripted if agent.skill == P]
    opening = p_agent.generate(SkillContext(P, (_REFUSES_ONCE,)), DialogueContext(), 1)
    pairs = frozenset({(_REFUSES_ONCE, opening)})
    tables = {
        "nli": {"pairs": [{"premise": p, "hypothesis": h, "label": "contradict"} for p, h in pairs]},
        "classify": {"default": [0.5, 0.3, 0.2]},
    }
    seeds = [_seed(i, ("plain", "refuses", "plain")[i % 3]) for i in range(2 * _GROUP - 3)]
    alone = []
    scorer = helpers.TableScorer(cfg.skill_roster, {}, SkillDistribution((0.5, 0.3, 0.2)))
    run_batch(seeds, scripted, _PairJudge(pairs), scorer, cfg, write=alone.append)

    ticks = []
    send_if_due, post_entries = agents._Lockstep._send_if_due, agents._post_entries

    def tick(group):
        ticks.append([])
        send_if_due(group)

    def counted(post, endpoint, route, calls):
        ticks[-1].append((route, len(calls)))
        return post_entries(post, endpoint, route, calls)

    monkeypatch.setattr(agents._Lockstep, "_send_if_due", tick)
    monkeypatch.setattr(agents, "_post_entries", counted)
    written = []
    with serve_mock(tables) as server:
        endpoint = server.endpoint()
        judge, remote_scorer = RemoteNliJudge(endpoint), RemoteSkillScorer(endpoint, cfg.skill_roster)
        report = helpers.run_bounded(
            partial(run_batch, seeds, scripted, judge, remote_scorer, cfg, write=written.append)
        )
        sent = list(server.requests)
    assert report.refusal_total > 0
    assert [episode_line(ep) for ep in written] == [episode_line(ep) for ep in alone]
    requests = [request for routes in ticks for request in routes]
    assert [route for route, _ in requests] == [route for route, _ in sent]
    assert {route for route, _ in requests} == {"/nli", "/classify"}
    assert all(len(routes) <= 1 for routes in ticks)
    # the members still share requests
    assert max(members for _, members in requests) > 1


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

    jobs = [partial(job, number) for number in range(3)]
    errors = helpers.run_bounded(partial(run_in_lockstep, jobs))
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
            helpers.run_bounded(partial(run_batch, seeds, *_stack(endpoint, cfg), cfg, write=written.append))
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
            helpers.run_bounded(
                partial(run_batch, seeds, *_stack(endpoint, cfg), cfg, parallelism=parallelism, write=write)
            )
        assert _batch_threads() == []
    assert 1 <= len(opened) <= parallelism


def test_a_finished_batch_leaves_no_thread(cfg):
    seeds = [_seed(i, kind) for i, kind in enumerate(_KINDS * 4)]
    with serve_mock(_TABLES) as server:
        stack = _stack(server.endpoint(), cfg)
        report = helpers.run_bounded(partial(run_batch, seeds, *stack, cfg, parallelism=2))
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
        helpers.run_bounded(partial(run_in_lockstep, jobs))
    deadline = time.monotonic() + 2
    while _batch_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _batch_threads() == []
    assert sent == [("/classify", {"texts": ["text 0", "text 1"]})]


def _echo(sent, endpoint, route, body):
    """A fake ``post`` that records each request and answers each entry
    with (route, entry)."""
    request_key, _kind, answer_key, _noun = agents._FORMS[route]
    sent.append((route, body[request_key]))
    return {answer_key: [[route, entry] for entry in body[request_key]]}, b"raw"


# the routes in the order an episode's turn calls them
_TURN = ("/generate", "/nli", "/classify", "/rank")


def _replayed(plans):
    """The requests one group sends, on one endpoint, for members that make
    the planned (route, entries) calls. A call's step is (the member's
    ``/rank`` calls before it, its route's place in ``_TURN``). Each tick
    serves the calls at the lowest step in one request, members in order;
    the other members' calls wait for a later tick. (The group orders calls
    by the place alone, which must come to the same.)"""
    expected = []
    served = [0] * len(plans)
    ranks = [0] * len(plans)
    while True:
        steps = {
            member: (ranks[member], _TURN.index(plan[served[member]][0]))
            for member, plan in enumerate(plans)
            if served[member] < len(plan)
        }
        if not steps:
            return expected
        low = min(steps.values())
        due = [member for member, step in steps.items() if step == low]
        route = _TURN[low[1]]
        expected.append((route, [entry for m in due for entry in plans[m][served[m]][1]]))
        for member in due:
            served[member] += 1
            if route == "/rank":
                ranks[member] += 1


def test_many_members_on_random_routes_get_a_lone_callers_answers_in_merged_ticks():
    # more members than cores and a tiny switch interval, so the members
    # interleave as finely as the interpreter allows; each member's calls
    # are seeded at random
    endpoint = BackendEndpoint("http://127.0.0.1:9")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(4):
            rng = random.Random(seed)
            plans = []
            for member in range(16):
                plan = []
                for call in range(rng.randrange(13)):
                    route = rng.choice(agents._ROUTES)
                    entries = [f"{member}.{call}.{n}" for n in range(rng.randint(1, 3))]
                    if agents._FORMS[route][1] is dict:
                        entries = [{"id": entry} for entry in entries]
                    plan.append((route, entries))
                plans.append(plan)
            sent = []
            post = partial(_echo, sent)

            def job(plan):
                return [agents.exchange(post, endpoint, route, entries) for route, entries in plan]

            results = helpers.run_bounded(partial(run_in_lockstep, [partial(job, plan) for plan in plans]))
            assert _batch_threads() == []
            alone = [
                [agents.exchange(partial(_echo, []), endpoint, route, entries) for route, entries in plan]
                for plan in plans
            ]
            assert results == alone
            assert sent == _replayed(plans)
    finally:
        sys.setswitchinterval(interval)


def test_a_job_that_raises_leaves_its_group(monkeypatch):
    # the middle member raises after its first call: the others' later
    # requests still go out without it, they end with their own answers,
    # and its result is None, with the error reported by its thread
    reported = []
    monkeypatch.setattr(threading, "excepthook", lambda args: reported.append(args.exc_value))
    endpoint = BackendEndpoint("http://127.0.0.1:9")
    sent = []
    post = partial(_echo, sent)
    plans = [[("/classify", [f"{member}.{call}"]) for call in range(2)] for member in range(3)]

    def job(member):
        answers = []
        for route, entries in plans[member]:
            answers.append(agents.exchange(post, endpoint, route, entries))
            if member == 1:
                raise ValueError("job failed")
        return answers

    results = helpers.run_bounded(partial(run_in_lockstep, [partial(job, member) for member in range(3)]))
    assert _batch_threads() == []
    plans[1] = plans[1][:1]
    assert sent == _replayed(plans)
    assert sent[1] == ("/classify", ["0.1", "2.1"])
    assert results[1] is None
    for member in (0, 2):
        assert results[member] == [([["/classify", entry]], b"raw") for _route, (entry,) in plans[member]]
    assert [str(exc) for exc in reported] == ["job failed"]

from __future__ import annotations

import json
import math
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import post_raw
from skillblend import agents
from skillblend.agents import (
    BackendEndpoint,
    BackendUnavailableError,
    MockServer,
    ProtocolError,
    RemoteSkillAgent,
    ScriptedAgent,
    default_scripted_agents,
    post_json,
    serve_mock,
)
from skillblend.core import (
    DEFAULT_ROSTER,
    DialogueContext,
    ResponseCandidate,
    SkillContext,
    Utterance,
    compact_json,
)

P, K, E = DEFAULT_ROSTER


@pytest.fixture
def dtx():
    return DialogueContext((Utterance(0, "hello there"), Utterance(1, "hi friend")))


@pytest.fixture
def agent():
    return ScriptedAgent(
        K, ("first take on {last}", "second take with {context}", "third take, plain")
    )


def test_spec_rejects_empty_or_blank_templates():
    with pytest.raises(ValueError):
        ScriptedAgent(K, ())
    with pytest.raises(ValueError):
        ScriptedAgent(K, ("{context}",))


def test_scripted_generate_walks_templates(agent, dtx):
    stx = SkillContext(K, ("the topic",))
    first = agent.generate(stx, dtx, 1)
    assert first == "first take on hi friend"
    assert agent.generate(stx, dtx, 2) == "second take with the topic"
    # cyclic reuse past the template count
    assert agent.generate(stx, dtx, 4) == first
    with pytest.raises(ValueError):
        agent.generate(stx, dtx, 0)


def test_scripted_generate_handles_empty_context(agent, dtx):
    got = agent.generate(SkillContext(K), dtx, 2)
    assert got == "second take with "
    assert got.strip()


def test_scripted_generate_is_deterministic(agent, dtx):
    stx = SkillContext(K, ("the topic",))
    outputs = {agent.generate(stx, dtx, 3) for _ in range(100)}
    assert len(outputs) == 1


def test_scripted_rank_counts_token_overlap(agent, dtx):
    stx = SkillContext(K, ("alpine snow travel", "rubber soles"))
    sharing = ResponseCandidate("i like alpine snow travel", P)
    disjoint = ResponseCandidate("nothing in common here", P)
    scores = agent.rank(stx, dtx, [sharing, disjoint])
    # counted by hand on the fixture: 3 shared tokens vs 0
    assert scores[0] - scores[1] >= 3
    assert scores == [3.0, 0.0]


def test_scripted_rank_own_skill_bonus(agent, dtx):
    stx = SkillContext(K, ("alpine snow",))
    own = ResponseCandidate("same words", K)
    other = ResponseCandidate("same words", P)
    scores = agent.rank(stx, dtx, [own, other])
    assert scores[0] == scores[1] + 0.5


def test_scripted_rank_single_and_empty(agent, dtx):
    assert agent.rank(SkillContext(K), dtx, [ResponseCandidate("x", K)]) == [0.5]
    with pytest.raises(ValueError):
        agent.rank(SkillContext(K), dtx, [])


def test_default_scripted_agents_cover_roster(dtx):
    agents = default_scripted_agents(DEFAULT_ROSTER)
    assert [a.skill.id for a in agents] == ["P", "K", "E"]
    for agent in agents:
        text = agent.generate(SkillContext(agent.skill, ("a line of context",)), dtx, 1)
        assert text.strip()


def test_backend_endpoint_validation():
    with pytest.raises(ValueError):
        BackendEndpoint("http://x", timeout_ms=0)
    with pytest.raises(ValueError):
        BackendEndpoint("http://x", max_retries=-1)
    for url in ("ftp://x", "file:///tmp/x", "localhost:8900", "127.0.0.1", "http://", ""):
        with pytest.raises(ValueError):
            BackendEndpoint(url)
    BackendEndpoint("https://models.example:8443/api/")


def test_remote_generate_echoes_configuration(dtx):
    tables = {"generate": {"default": {"text": "hello", "score": 0.9}}}
    with serve_mock(tables) as server:
        text = RemoteSkillAgent(server.endpoint(), K).generate(SkillContext(K, ("topic",)), dtx, 1)
    assert text == "hello"


def test_remote_generate_attempt_selects_table_row(dtx):
    tables = {
        "generate": {
            "by_skill": {"K": [{"text": "row zero", "score": 0.1}, {"text": "row one", "score": 0.2}]}
        }
    }
    with serve_mock(tables) as server:
        agent = RemoteSkillAgent(server.endpoint(), K)
        assert agent.generate(SkillContext(K), dtx, 1) == "row zero"
        assert agent.generate(SkillContext(K), dtx, 2) == "row one"
        assert agent.generate(SkillContext(K), dtx, 3) == "row zero"


@pytest.fixture
def sleeps(monkeypatch):
    """The backoff waits post_json asks for, recorded instead of slept."""
    waits = []
    monkeypatch.setattr(agents, "sleep", waits.append)
    return waits


def _backoff(n):
    return [min(agents._BACKOFF_CAP_S, agents._BACKOFF_FIRST_S * 2**i) for i in range(n)]


def test_remote_generate_retry_budget_exhausted(dtx, sleeps):
    tables = {
        "generate": {"default": {"text": "late", "score": 0.5}},
        "fail_first": {"/generate": 2},
    }
    with serve_mock(tables) as server:
        with pytest.raises(BackendUnavailableError):
            RemoteSkillAgent(server.endpoint(max_retries=1), K).generate(SkillContext(K), dtx, 1)
        assert len(server.requests) == 2
    assert sleeps == [0.05]  # one wait between the two attempts, none after the last


def test_remote_generate_recovers_within_budget(dtx, sleeps):
    tables = {
        "generate": {"default": {"text": "late", "score": 0.5}},
        "fail_first": {"/generate": 1},
    }
    with serve_mock(tables) as server:
        text = RemoteSkillAgent(server.endpoint(max_retries=1), K).generate(SkillContext(K), dtx, 1)
    assert text == "late"
    assert sleeps == [0.05]


@pytest.mark.parametrize("failures, max_retries", [(0, 2), (3, 3), (4, 3), (7, 7), (8, 7)])
def test_retries_back_off_exponentially_up_to_a_cap(dtx, sleeps, failures, max_retries):
    tables = {
        "generate": {"default": {"text": "late", "score": 0.5}},
        "fail_first": {"/generate": failures},
    }
    with serve_mock(tables) as server:
        agent = RemoteSkillAgent(server.endpoint(max_retries=max_retries), K)
        if failures > max_retries:
            with pytest.raises(BackendUnavailableError):
                agent.generate(SkillContext(K), dtx, 1)
        else:
            assert agent.generate(SkillContext(K), dtx, 1) == "late"
    assert sleeps == _backoff(min(failures, max_retries))
    assert _backoff(8)[-1] == agents._BACKOFF_CAP_S  # the cap is reached within 8 retries


def test_remote_generate_missing_fields_are_protocol_errors(dtx):
    with serve_mock({"generate": {"default": {"score": 0.9}}}) as server:
        with pytest.raises(ProtocolError) as excinfo:
            RemoteSkillAgent(server.endpoint(), K).generate(SkillContext(K), dtx, 1)
        assert b"score" in excinfo.value.body
    with serve_mock({"generate": {"default": {"text": "no score"}}}) as server:
        with pytest.raises(ProtocolError):
            RemoteSkillAgent(server.endpoint(), K).generate(SkillContext(K), dtx, 1)


@pytest.mark.parametrize(
    "raw",
    [
        b'{"text":"a reply"}',
        b'{"text":"a reply","score":"0.9"}',
        b'{"text":"a reply","score":true}',
        b'{"text":"a reply","score":NaN}',
        b'{"text":"a reply","score":Infinity}',
        b'{"text":"a reply","score":-Infinity}',
        b'{"text":"a reply","score":1' + b"0" * 400 + b"}",
    ],
)
def test_remote_generate_rejects_a_malformed_score(monkeypatch, dtx, raw):
    # the score is checked, though no decision reads it
    monkeypatch.setattr(agents, "post_json", lambda *args: (json.loads(raw), raw))
    agent = RemoteSkillAgent(BackendEndpoint("http://127.0.0.1:9"), K)
    message = "/generate: missing or non-numeric 'score' field"
    with pytest.raises(ProtocolError, match=message) as err:
        agent.generate(SkillContext(K), dtx, 1)
    assert err.value.body == raw


def test_remote_generate_connection_refused(dtx, sleeps):
    # grab a port nothing listens on
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    endpoint = BackendEndpoint(f"http://127.0.0.1:{port}", timeout_ms=200, max_retries=0)
    with pytest.raises(BackendUnavailableError):
        RemoteSkillAgent(endpoint, K).generate(SkillContext(K), dtx, 1)
    assert sleeps == []
    endpoint = BackendEndpoint(f"http://127.0.0.1:{port}", timeout_ms=200, max_retries=2)
    with pytest.raises(BackendUnavailableError, match="after 3 attempts"):
        RemoteSkillAgent(endpoint, K).generate(SkillContext(K), dtx, 1)
    assert sleeps == _backoff(2)


def test_remote_rank_echo_and_arity(dtx):
    candidates = [ResponseCandidate("a", P), ResponseCandidate("b", K)]
    with serve_mock({"rank": {"by_text": {"a": 0.1, "b": 0.9}}}) as server:
        scores = RemoteSkillAgent(server.endpoint(), K).rank(SkillContext(K), dtx, candidates)
    assert scores == [0.1, 0.9]
    with serve_mock({"rank": {"force_scores": [0.1, 0.2, 0.3]}}) as server:
        with pytest.raises(ProtocolError):
            RemoteSkillAgent(server.endpoint(), K).rank(SkillContext(K), dtx, candidates)


@pytest.mark.parametrize(
    "score",
    ["0.1", True, None, math.nan, math.inf, -math.inf, 10**400],
    ids=["string", "bool", "null", "NaN", "Infinity", "-Infinity", "beyond float range"],
)
def test_remote_rank_rejects_a_malformed_score(dtx, score):
    candidates = [ResponseCandidate("a", P), ResponseCandidate("b", K)]
    with serve_mock({"rank": {"by_text": {"a": 0.1}, "default_score": score}}) as server:
        with pytest.raises(ProtocolError, match="/rank: non-numeric score in response") as err:
            RemoteSkillAgent(server.endpoint(), K).rank(SkillContext(K), dtx, candidates)
    assert err.value.body == compact_json({"scores": [0.1, score]}).encode("utf-8")


def test_remote_rank_empty_candidates_never_hits_network(dtx):
    with serve_mock({"rank": {}}) as server:
        with pytest.raises(ValueError):
            RemoteSkillAgent(server.endpoint(), K).rank(SkillContext(K), dtx, [])
        assert server.requests == []


def test_mock_server_unknown_route_is_404():
    with serve_mock({}) as server:
        status, _ = post_raw(server.base_url + "/nothing", b"{}")
    assert status == 404


def test_mock_server_answers_400_to_malformed_request_fields():
    tables = {"generate": {"by_skill": {"K": [{"text": "row zero", "score": 0.1}]}}}
    with serve_mock(tables) as server:
        url = server.base_url
        assert post_raw(url + "/rank", b"[1, 2]")[0] == 400
        assert post_raw(url + "/nli", b'"premise"')[0] == 400
        for body in (
            b'{"premises": "p", "hypothesis": "h"}',
            b'{"premises": ["p", 1], "hypothesis": "h"}',
            b'{"premises": ["p"], "hypothesis": ["h"]}',
            b'{"premises": ["p"]}',
            b'{"premise": "p", "hypothesis": "h"}',
        ):
            assert post_raw(url + "/nli", body)[0] == 400, body
        for attempt in ('"2"', "1.5", "true", "null"):
            body = ('{"skill": "K", "attempt": %s}' % attempt).encode()
            assert post_raw(url + "/generate", body)[0] == 400, attempt
        for route, body in (
            ("/generate", b'{"skill": []}'),
            ("/classify", b'{"text": []}'),
            ("/rank", b'{"candidates": 5}'),
            ("/rank", b'{"candidates": [[1]]}'),
        ):
            assert post_raw(url + route, body)[0] == 400, (route, body)
        # the server still answers well-formed requests
        assert post_raw(url + "/generate", b'{"skill": "K", "attempt": 1}')[0] == 200


def test_mock_server_nli_default_and_classify_table():
    tables = {
        "nli": {"default": {"label": "entail", "confidence": 0.8}},
        "classify": {"by_text": {"hello": [0.2, 0.3, 0.5]}},
    }
    with serve_mock(tables) as server:
        _, body = post_raw(
            server.base_url + "/nli",
            json.dumps({"premises": ["p", "q"], "hypothesis": "h"}).encode(),
        )
        nli = json.loads(body)
        assert nli == {"verdicts": [{"label": "entail", "confidence": 0.8}] * 2}
        _, body = post_raw(server.base_url + "/nli", b'{"premises": [], "hypothesis": "h"}')
        assert json.loads(body) == {"verdicts": []}
        _, body = post_raw(server.base_url + "/classify", json.dumps({"text": "hello"}).encode())
        dist = json.loads(body)
        assert dist == {"distribution": [0.2, 0.3, 0.5]}


def test_mock_server_rejects_malformed_tables():
    with pytest.raises(ValueError):
        serve_mock({"unexpected": {}})
    with pytest.raises(ValueError):
        serve_mock({"fail_first": {"/elsewhere": 1}})


_NLI_TABLES = {"nli": {"default": {"label": "neutral", "confidence": 0.5}}}


def _in_fresh_thread(fn):
    """Run fn in a new thread, which holds no connection yet."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=30)


def test_unstarted_mock_server_closes_promptly():
    closed = threading.Event()

    def open_and_close():
        with MockServer(_NLI_TABLES):
            pass
        closed.set()

    # a daemon thread, so that a close() that hangs cannot hang the suite
    threading.Thread(target=open_and_close, daemon=True).start()
    assert closed.wait(5)


def test_unstarted_mock_server_wait_returns_at_once():
    with MockServer(_NLI_TABLES) as server:
        start = time.monotonic()
        server.wait(0.5)
        assert time.monotonic() - start < 0.5


def test_calls_from_one_thread_share_one_connection(connects):
    with serve_mock(_NLI_TABLES) as server:
        endpoint = server.endpoint()

        def twenty_calls():
            return [post_json(endpoint, "/nli", {"premises": ["p"], "hypothesis": str(i)})[1]
                    for i in range(20)]

        bodies = _in_fresh_thread(twenty_calls)
        assert len(server.requests) == 20
    assert set(bodies) == {b'{"verdicts":[{"label":"neutral","confidence":0.5}]}'}
    assert len(connects) == 1


def test_closed_server_ends_keepalive_connections():
    server = serve_mock(_NLI_TABLES)
    endpoint = server.endpoint(timeout_ms=2000, max_retries=0)
    body = {"premises": ["p"], "hypothesis": "h"}

    def call_close_call():
        post_json(endpoint, "/nli", body)
        server.close()
        start = time.monotonic()
        with pytest.raises(BackendUnavailableError):
            post_json(endpoint, "/nli", body)
        return time.monotonic() - start

    elapsed = _in_fresh_thread(call_close_call)
    assert elapsed < endpoint.timeout_ms / 1000
    assert len(server.requests) == 1


def test_stale_connection_reopens_without_spending_retries(connects):
    first = serve_mock(_NLI_TABLES)
    port = int(first.base_url.rsplit(":", 1)[1])
    body = {"premises": ["p"], "hypothesis": "h"}

    def call_restart_call():
        post_json(first.endpoint(), "/nli", body)
        first.close()
        with serve_mock(_NLI_TABLES, port=port) as second:
            obj, _ = post_json(second.endpoint(max_retries=0), "/nli", body)
            return obj, list(second.requests)

    obj, second_requests = _in_fresh_thread(call_restart_call)
    assert obj == {"verdicts": [{"label": "neutral", "confidence": 0.5}]}
    assert second_requests == [("/nli", b'{"premises":["p"],"hypothesis":"h"}')]
    assert len(connects) == 2


@pytest.mark.parametrize("length", [b"abc", b"-5", b"1.5"])
def test_mock_server_answers_400_to_a_bad_content_length(length):
    with serve_mock(_NLI_TABLES) as server:
        host, port = server.base_url.rsplit("/", 1)[1].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(
                b"POST /nli HTTP/1.1\r\nHost: x\r\nContent-Length: " + length + b"\r\n\r\n{}"
            )
            reply = b""
            while chunk := sock.recv(4096):  # the server closes the connection after it
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.endswith(b'{"error":"bad Content-Length"}')
        assert server.requests == []
        # the server goes on answering well-formed requests
        assert post_raw(server.base_url + "/nli", b'{"premises":[],"hypothesis":"h"}')[0] == 200

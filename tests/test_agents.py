from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import post_raw
from skillblend.agents import (
    BackendEndpoint,
    BackendUnavailableError,
    MockServer,
    ProtocolError,
    ScriptedAgentSpec,
    default_scripted_agents,
    post_json,
    remote_generate,
    remote_rank,
    scripted_generate,
    scripted_rank,
    serve_mock,
)
from skillblend.core import DEFAULT_ROSTER, DialogueContext, ResponseCandidate, SkillContext, Utterance

P, K, E = DEFAULT_ROSTER


@pytest.fixture
def dtx():
    return DialogueContext((Utterance(0, 0, "hello there"), Utterance(1, 1, "hi friend")))


@pytest.fixture
def spec():
    return ScriptedAgentSpec(
        K,
        (
            ("first take on {last}", 0.9),
            ("second take with {context}", 0.8),
            ("third take, plain", 0.7),
        ),
    )


def test_spec_rejects_empty_or_blank_templates():
    with pytest.raises(ValueError):
        ScriptedAgentSpec(K, ())
    with pytest.raises(ValueError):
        ScriptedAgentSpec(K, (("{context}", 0.5),))


def test_scripted_generate_walks_templates(spec, dtx):
    stx = SkillContext(K, ("the topic",))
    first = scripted_generate(spec, stx, dtx, 1)
    second = scripted_generate(spec, stx, dtx, 2)
    assert first.text == "first take on hi friend"
    assert second.text == "second take with the topic"
    assert (first.gen_score, second.gen_score) == (0.9, 0.8)
    assert first.attempts == 1 and second.attempts == 2
    # cyclic reuse past the template count
    assert scripted_generate(spec, stx, dtx, 4).text == first.text
    with pytest.raises(ValueError):
        scripted_generate(spec, stx, dtx, 0)


def test_scripted_generate_handles_empty_context(spec, dtx):
    got = scripted_generate(spec, SkillContext(K), dtx, 2)
    assert got.text == "second take with "
    assert got.text.strip()


def test_scripted_generate_is_deterministic(spec, dtx):
    stx = SkillContext(K, ("the topic",))
    outputs = {scripted_generate(spec, stx, dtx, 3).text for _ in range(100)}
    assert len(outputs) == 1


def test_scripted_generate_origin_matches_agent(spec, dtx):
    assert scripted_generate(spec, SkillContext(K), dtx, 1).origin == K


def test_scripted_rank_counts_token_overlap(spec, dtx):
    stx = SkillContext(K, ("alpine snow travel", "rubber soles"))
    sharing = ResponseCandidate("i like alpine snow travel", P, 0.5)
    disjoint = ResponseCandidate("nothing in common here", P, 0.5)
    scores = scripted_rank(spec, stx, dtx, [sharing, disjoint])
    # counted by hand on the fixture: 3 shared tokens vs 0
    assert scores[0] - scores[1] >= 3
    assert scores == [3.0, 0.0]


def test_scripted_rank_own_skill_bonus(spec, dtx):
    stx = SkillContext(K, ("alpine snow",))
    own = ResponseCandidate("same words", K, 0.5)
    other = ResponseCandidate("same words", P, 0.5)
    scores = scripted_rank(spec, stx, dtx, [own, other])
    assert scores[0] == scores[1] + 0.5


def test_scripted_rank_single_and_empty(spec, dtx):
    assert scripted_rank(spec, SkillContext(K), dtx, [ResponseCandidate("x", K, 0.1)]) == [0.5]
    with pytest.raises(ValueError):
        scripted_rank(spec, SkillContext(K), dtx, [])


def test_default_scripted_agents_cover_roster(dtx):
    agents = default_scripted_agents(DEFAULT_ROSTER)
    assert [a.skill.id for a in agents] == ["P", "K", "E"]
    for agent in agents:
        cand = agent.generate(SkillContext(agent.skill, ("a line of context",)), dtx, 1)
        assert cand.origin == agent.skill
        assert cand.text.strip()


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
        cand = remote_generate(server.endpoint(), K, SkillContext(K, ("topic",)), dtx, 1)
    assert cand.text == "hello"
    assert cand.gen_score == 0.9
    assert cand.origin == K  # forced to the requesting skill
    assert cand.attempts == 1


def test_remote_generate_attempt_selects_table_row(dtx):
    tables = {
        "generate": {
            "by_skill": {"K": [{"text": "row zero", "score": 0.1}, {"text": "row one", "score": 0.2}]}
        }
    }
    with serve_mock(tables) as server:
        ep = server.endpoint()
        assert remote_generate(ep, K, SkillContext(K), dtx, 1).text == "row zero"
        assert remote_generate(ep, K, SkillContext(K), dtx, 2).text == "row one"
        assert remote_generate(ep, K, SkillContext(K), dtx, 3).text == "row zero"


def test_remote_generate_retry_budget_exhausted(dtx):
    tables = {
        "generate": {"default": {"text": "late", "score": 0.5}},
        "fail_first": {"/generate": 2},
    }
    with serve_mock(tables) as server:
        with pytest.raises(BackendUnavailableError):
            remote_generate(server.endpoint(max_retries=1), K, SkillContext(K), dtx, 1)


def test_remote_generate_recovers_within_budget(dtx):
    tables = {
        "generate": {"default": {"text": "late", "score": 0.5}},
        "fail_first": {"/generate": 1},
    }
    with serve_mock(tables) as server:
        cand = remote_generate(server.endpoint(max_retries=1), K, SkillContext(K), dtx, 1)
    assert cand.text == "late"


def test_remote_generate_missing_fields_are_protocol_errors(dtx):
    with serve_mock({"generate": {"default": {"score": 0.9}}}) as server:
        with pytest.raises(ProtocolError) as excinfo:
            remote_generate(server.endpoint(), K, SkillContext(K), dtx, 1)
        assert b"score" in excinfo.value.body
    with serve_mock({"generate": {"default": {"text": "no score"}}}) as server:
        with pytest.raises(ProtocolError):
            remote_generate(server.endpoint(), K, SkillContext(K), dtx, 1)


def test_remote_generate_connection_refused(dtx):
    # grab a port nothing listens on
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    endpoint = BackendEndpoint(f"http://127.0.0.1:{port}", timeout_ms=200, max_retries=0)
    with pytest.raises(BackendUnavailableError):
        remote_generate(endpoint, K, SkillContext(K), dtx, 1)


def test_remote_rank_echo_and_arity(dtx):
    candidates = [ResponseCandidate("a", P, 0.1), ResponseCandidate("b", K, 0.2)]
    with serve_mock({"rank": {"by_text": {"a": 0.1, "b": 0.9}}}) as server:
        scores = remote_rank(server.endpoint(), K, SkillContext(K), dtx, candidates)
    assert scores == [0.1, 0.9]
    with serve_mock({"rank": {"force_scores": [0.1, 0.2, 0.3]}}) as server:
        with pytest.raises(ProtocolError):
            remote_rank(server.endpoint(), K, SkillContext(K), dtx, candidates)


def test_remote_rank_empty_candidates_never_hits_network(dtx):
    with serve_mock({"rank": {}}) as server:
        with pytest.raises(ValueError):
            remote_rank(server.endpoint(), K, SkillContext(K), dtx, [])
        assert server.requests == []


def test_mock_server_unknown_route_is_404():
    with serve_mock({}) as server:
        status, _ = post_raw(server.base_url + "/nothing", b"{}")
    assert status == 404


def test_mock_server_nli_default_and_classify_table():
    tables = {
        "nli": {"default": {"label": "entail", "confidence": 0.8}},
        "classify": {"by_text": {"hello": [0.2, 0.3, 0.5]}},
    }
    with serve_mock(tables) as server:
        _, body = post_raw(
            server.base_url + "/nli", json.dumps({"premise": "p", "hypothesis": "h"}).encode()
        )
        nli = json.loads(body)
        assert nli == {"label": "entail", "confidence": 0.8}
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


def test_calls_from_one_thread_share_one_connection(connects):
    with serve_mock(_NLI_TABLES) as server:
        endpoint = server.endpoint()

        def twenty_calls():
            return [post_json(endpoint, "/nli", {"premise": "p", "hypothesis": str(i)})[1]
                    for i in range(20)]

        bodies = _in_fresh_thread(twenty_calls)
        assert len(server.requests) == 20
    assert set(bodies) == {b'{"label":"neutral","confidence":0.5}'}
    assert len(connects) == 1


def test_closed_server_ends_keepalive_connections():
    server = serve_mock(_NLI_TABLES)
    endpoint = server.endpoint(timeout_ms=2000, max_retries=0)
    body = {"premise": "p", "hypothesis": "h"}

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
    body = {"premise": "p", "hypothesis": "h"}

    def call_restart_call():
        post_json(first.endpoint(), "/nli", body)
        first.close()
        with serve_mock(_NLI_TABLES, port=port) as second:
            obj, _ = post_json(second.endpoint(max_retries=0), "/nli", body)
            return obj, list(second.requests)

    obj, second_requests = _in_fresh_thread(call_restart_call)
    assert obj == {"label": "neutral", "confidence": 0.5}
    assert second_requests == [("/nli", b'{"premise":"p","hypothesis":"h"}')]
    assert len(connects) == 2

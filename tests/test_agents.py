from __future__ import annotations

import json
import math
import shutil
import socket
import ssl
import struct
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import RawServer, post_raw, read_request
from skillblend import agents
from skillblend.agents import (
    BackendEndpoint,
    BackendUnavailableError,
    MockServer,
    ProtocolError,
    RemoteSkillAgent,
    ScriptedAgent,
    default_scripted_agents,
    generate_texts,
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


@pytest.mark.parametrize(
    "template", ["{name} said", "{} said", "{0} said", "{context.upper} said", "{context:{last}} said"]
)
def test_spec_rejects_a_template_field_other_than_context_and_last(template):
    with pytest.raises(ValueError, match=r"^template .* may reference only \{context\} and \{last\}$"):
        ScriptedAgent(K, ("plain text", template))


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
    # the path goes on the request line as it is
    for url in ("http://x/a b", "http://x/caf\u00e9", "http://x/a\x7f"):
        with pytest.raises(ValueError, match="printable ASCII"):
            BackendEndpoint(url)
    with pytest.raises(ValueError, match="not a valid host name"):
        BackendEndpoint("http://" + "\u00fc" * 70 + ".example")
    # requests carry only host, port and path: these parts would be dropped
    for url in ("http://u:p@h:1/x", "http://h:1/x?k=v", "http://h:1/x#f", "http://u:p@/x"):
        with pytest.raises(ValueError, match="user info, a query or a fragment"):
            BackendEndpoint(url)


@pytest.mark.parametrize(
    "url, host",
    [
        ("http://models.example", b"models.example"),
        ("http://models.example:80/api", b"models.example"),
        ("http://models.example:8900", b"models.example:8900"),
        ("https://models.example:443", b"models.example"),
        ("https://models.example:80", b"models.example:80"),
        ("http://[::1]:8900", b"[::1]:8900"),
        ("http://b\u00fccher.example", b"xn--bcher-kva.example"),
    ],
)
def test_the_host_header_names_the_port_unless_it_is_the_default(url, host):
    assert BackendEndpoint(url)._host == host
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


_SCORE_MESSAGE = "/generate: missing or non-numeric 'score' field"


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"results":[[{"text":"a reply"}]]}', _SCORE_MESSAGE),
        (b'{"results":[[{"text":"a reply","score":"0.9"}]]}', _SCORE_MESSAGE),
        (b'{"results":[[{"text":"a reply","score":true}]]}', _SCORE_MESSAGE),
        (b'{"results":[[{"text":"a reply","score":NaN}]]}', _SCORE_MESSAGE),
        (b'{"results":[[{"text":"a reply","score":Infinity}]]}', _SCORE_MESSAGE),
        (b'{"results":[[{"text":"a reply","score":-Infinity}]]}', _SCORE_MESSAGE),
        (b'{"results":[[{"text":"a reply","score":1' + b"0" * 400 + b"}]]}", _SCORE_MESSAGE),
        # the group's arity and shape
        (b'{"results":[[]]}', "/generate: expected 1 results, got 0"),
        (b'{"results":[[{"text":"a","score":0.5},{"text":"b","score":0.5}]]}',
         "/generate: expected 1 results, got 2"),
        (b'{"results":[{"text":"a reply","score":0.5}]}', "/generate: expected 1 results, got no"),
        (b'{"results":[["a reply"]]}', "/generate: result is not a JSON object"),
        (b'{"results":[[{"text":" ","score":0.5}]]}', "/generate: missing or blank 'text' field"),
        # the batch's arity and shape: one result list per group
        (b'{"results":[]}', "/generate: expected 1 result lists, got 0"),
        (b'{"results":[[{"text":"a","score":0.5}],[{"text":"b","score":0.5}]]}',
         "/generate: expected 1 result lists, got 2"),
        (b'{"results":{"text":"a reply","score":0.5}}', "/generate: expected 1 result lists, got no"),
        (b'{"text":"a reply","score":0.5}', "/generate: expected 1 result lists, got no"),
    ],
)
def test_remote_generate_rejects_a_malformed_score(monkeypatch, dtx, raw, message):
    # the score is checked, though no decision reads it
    monkeypatch.setattr(agents, "post_json", lambda *args: (json.loads(raw), raw))
    agent = RemoteSkillAgent(BackendEndpoint("http://127.0.0.1:9"), K)
    with pytest.raises(ProtocolError, match=message) as err:
        agent.generate(SkillContext(K), dtx, 1)
    assert err.value.body == raw


def test_remote_generate_batch_sends_the_dialogue_once(dtx):
    tables = {"generate": {"by_skill": {"K": [{"text": "k1", "score": 0.1}, {"text": "k2", "score": 0.2}]},
                           "default": {"text": "other", "score": 0.5}}}
    items = [(K, SkillContext(K, ("topic",)), 2), (P, SkillContext(P), 1), (K, SkillContext(K), 1)]
    with serve_mock(tables) as server:
        assert generate_texts(server.endpoint(), dtx, items) == ["k2", "other", "k1"]
        (route, body), = server.requests
    assert route == "/generate"
    group = {
        "dialogue": [{"speaker": 0, "text": "hello there"}, {"speaker": 1, "text": "hi friend"}],
        "items": [
            {"skill": "K", "context": ["topic"], "attempt": 2},
            {"skill": "P", "context": [], "attempt": 1},
            {"skill": "K", "context": [], "attempt": 1},
        ],
    }
    assert json.loads(body) == {"groups": [group]}


@pytest.mark.parametrize("attempt", [0, -1])
def test_generate_texts_rejects_a_non_positive_attempt_before_sending(dtx, attempt):
    items = [(K, SkillContext(K), 1), (P, SkillContext(P), attempt)]
    with serve_mock({"generate": {"default": {"text": "other", "score": 0.5}}}) as server:
        with pytest.raises(ValueError, match="attempt must be at least 1"):
            generate_texts(server.endpoint(), dtx, items)
        with pytest.raises(ValueError, match="attempt must be at least 1"):
            RemoteSkillAgent(server.endpoint(), K).generate(SkillContext(K), dtx, attempt)
        assert server.requests == []


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
    assert err.value.body == compact_json({"scores": [[0.1, score]]}).encode("utf-8")


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"scores":[0.1,0.9]}', "/rank: expected 1 score lists, got 2"),
        (b'{"scores":[]}', "/rank: expected 1 score lists, got 0"),
        (b'{"scores":[[0.1],[0.9]]}', "/rank: expected 1 score lists, got 2"),
        (b'{"scores":[[0.1]]}', "/rank: expected 2 scores, got 1"),
        (b'{"scores":[0.1]}', "/rank: expected 2 scores, got no"),
    ],
)
def test_remote_rank_checks_one_score_list_per_item(monkeypatch, dtx, raw, message):
    monkeypatch.setattr(agents, "post_json", lambda *args: (json.loads(raw), raw))
    candidates = [ResponseCandidate("a", P), ResponseCandidate("b", K)]
    agent = RemoteSkillAgent(BackendEndpoint("http://127.0.0.1:9"), K)
    with pytest.raises(ProtocolError, match=f"^{message}$") as err:
        agent.rank(SkillContext(K), dtx, candidates)
    assert err.value.body == raw


def test_remote_rank_empty_candidates_never_hits_network(dtx):
    with serve_mock({"rank": {}}) as server:
        with pytest.raises(ValueError):
            RemoteSkillAgent(server.endpoint(), K).rank(SkillContext(K), dtx, [])
        assert server.requests == []


def test_mock_server_unknown_route_is_404():
    with serve_mock({}) as server:
        status, _ = post_raw(server.base_url + "/nothing", b"{}")
    assert status == 404


def test_mock_server_answers_400_to_a_body_that_is_not_an_object():
    with serve_mock({}) as server:
        for route in ("/generate", "/rank", "/nli", "/classify"):
            assert post_raw(server.base_url + route, b"[1, 2]")[0] == 400, route
            assert post_raw(server.base_url + route, b'"text"')[0] == 400, route


_GOOD_BODIES = {
    "/generate": {"groups": [{"dialogue": [], "items": [{"skill": "K", "context": [], "attempt": 1}]}]},
    "/nli": {"items": [{"premises": ["p"], "hypothesis": "h"}]},
    "/classify": {"texts": ["hello"]},
    "/rank": {"items": [{"candidates": ["a"]}]},
}


def _group(*items):
    return {"groups": [{"dialogue": [], "items": list(items)}]}


def _refusal(field, kind):
    """The mock's answer to a malformed batch."""
    return {"error": f"'{field}' must be {kind}"}


_GROUPS = _refusal("groups", "a non-empty array of objects")
_ITEMS = _refusal("items", "a non-empty array of objects")
_TEXTS = _refusal("texts", "a non-empty array of strings")
_ATTEMPT = _refusal("attempt", "a positive integer")
_CONTEXT = _refusal("context", "an array of strings")
_PREMISES = _refusal("premises", "an array of strings")
_HYPOTHESIS = _refusal("hypothesis", "a string")
_CANDIDATES = _refusal("candidates", "an array of strings")


@pytest.mark.parametrize(
    "route, body, refusal",
    [
        # the entry array is not an array, is empty, or holds a non-object
        # (for /classify: non-string) entry
        ("/generate", {"groups": {"dialogue": [], "items": [{"skill": "K", "attempt": 1}]}}, _GROUPS),
        ("/generate", {"groups": []}, _GROUPS),
        ("/generate", {"groups": [["K"]]}, _GROUPS),
        ("/generate", {"dialogue": [], "items": {"skill": "K", "attempt": 1}}, _GROUPS),
        ("/generate", {"groups": [{"dialogue": [], "items": []}]}, _ITEMS),
        ("/generate", {"groups": [{"dialogue": [], "items": ["K"]}]}, _ITEMS),
        ("/nli", {"items": {"premises": ["p"], "hypothesis": "h"}}, _ITEMS),
        ("/nli", {"items": []}, _ITEMS),
        ("/nli", {"items": [["p", "h"]]}, _ITEMS),
        ("/classify", {"texts": "hello"}, _TEXTS),
        ("/classify", {"texts": []}, _TEXTS),
        ("/classify", {"texts": [{"text": "hello"}]}, _TEXTS),
        ("/classify", {"texts": ["hello", 3]}, _TEXTS),
        ("/rank", {"items": {"candidates": ["a"]}}, _ITEMS),
        ("/rank", {"items": []}, _ITEMS),
        ("/rank", {"items": [["a"]]}, _ITEMS),
        # the retired forms: one item, or a /generate without groups and
        # a /rank without items
        ("/generate", {"skill": "K", "context": [], "dialogue": [], "attempt": 1}, _GROUPS),
        ("/generate", {"dialogue": [], "items": [{"skill": "K", "context": [], "attempt": 1}]}, _GROUPS),
        ("/nli", {"premises": ["p"], "hypothesis": "h"}, _ITEMS),
        ("/classify", {"text": "hello"}, _TEXTS),
        ("/rank", {"skill": "K", "context": [], "dialogue": [], "candidates": ["a"]}, _ITEMS),
        # a wrongly typed field inside an item, also after a good item
        ("/generate", _group({"skill": "K", "attempt": "2"}), _ATTEMPT),
        ("/generate", _group({"skill": "K", "attempt": 1.5}), _ATTEMPT),
        ("/generate", _group({"skill": "K", "attempt": True}), _ATTEMPT),
        ("/generate", _group({"skill": "K", "attempt": None}), _ATTEMPT),
        # a non-positive attempt has no table entry
        ("/generate", _group({"skill": "K", "attempt": 0}), _ATTEMPT),
        ("/generate", _group({"skill": "K", "attempt": -1}), _ATTEMPT),
        (
            "/generate",
            _group({"skill": "K", "attempt": 1}, {"skill": [], "attempt": 1}),
            _refusal("skill", "a string"),
        ),
        ("/generate", _group({"skill": "K", "context": "topic", "attempt": 1}), _CONTEXT),
        ("/generate", _group({"skill": "K", "context": ["topic", 2], "attempt": 1}), _CONTEXT),
        ("/nli", {"items": [{"premises": "p", "hypothesis": "h"}]}, _PREMISES),
        ("/nli", {"items": [{"premises": ["p", 1], "hypothesis": "h"}]}, _PREMISES),
        (
            "/nli",
            {"items": [{"premises": ["p"], "hypothesis": "h"}, {"premises": ["p"], "hypothesis": ["h"]}]},
            _HYPOTHESIS,
        ),
        ("/nli", {"items": [{"premises": ["p"]}]}, _HYPOTHESIS),
        ("/rank", {"items": [{"candidates": 5}]}, _CANDIDATES),
        ("/rank", {"items": [{"candidates": ["a"]}, {"candidates": [[1]]}]}, _CANDIDATES),
    ],
)
def test_mock_server_answers_400_to_a_malformed_batch_and_keeps_the_connection(
    connects, route, body, refusal
):
    tables = {
        "generate": {"by_skill": {"K": [{"text": "row zero", "score": 0.1}]}},
        "classify": {"default": [0.2, 0.3, 0.5]},
    }
    with serve_mock(tables) as server:
        endpoint = server.endpoint(max_retries=0)

        def bad_then_good():
            with pytest.raises(ProtocolError, match=f"^{route}: unexpected HTTP 400$") as err:
                post_json(endpoint, route, body)
            return json.loads(err.value.body), post_json(endpoint, route, _GOOD_BODIES[route])[0]

        answer, good = _in_fresh_thread(bad_then_good)
    assert answer == refusal
    assert good  # the same connection answers the next, well-formed request
    assert len(connects) == 1


def test_mock_server_nli_default_and_classify_table():
    tables = {
        "nli": {"default": {"label": "entail", "confidence": 0.8}},
        "classify": {"by_text": {"hello": [0.2, 0.3, 0.5]}},
    }
    with serve_mock(tables) as server:
        items = [{"premises": ["p", "q"], "hypothesis": "h"}, {"premises": [], "hypothesis": "h"}]
        _, body = post_raw(server.base_url + "/nli", json.dumps({"items": items}).encode())
        verdict = {"label": "entail", "confidence": 0.8}
        assert json.loads(body) == {"verdicts": [[verdict, verdict], []]}
        texts = json.dumps({"texts": ["hello", "hello"]}).encode()
        _, body = post_raw(server.base_url + "/classify", texts)
        assert json.loads(body) == {"distributions": [[0.2, 0.3, 0.5]] * 2}
        # a text with no table entry and no default fails the whole batch
        texts = json.dumps({"texts": ["hello", "other"]}).encode()
        assert post_raw(server.base_url + "/classify", texts)[0] == 500


def test_mock_server_rejects_malformed_tables():
    with pytest.raises(ValueError):
        serve_mock({"unexpected": {}})
    with pytest.raises(ValueError):
        serve_mock({"fail_first": {"/elsewhere": 1}})


_NLI_TABLES = {"nli": {"default": {"label": "neutral", "confidence": 0.5}}}


def _nli_body(hypothesis: str) -> dict:
    return {"items": [{"premises": ["p"], "hypothesis": hypothesis}]}


def _in_fresh_thread(fn):
    """Run fn in a new thread, which holds no connection yet."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=30)


def test_calls_from_one_thread_share_one_connection(connects):
    with serve_mock(_NLI_TABLES) as server:
        endpoint = server.endpoint()

        def twenty_calls():
            return [post_json(endpoint, "/nli", _nli_body(str(i)))[1] for i in range(20)]

        bodies = _in_fresh_thread(twenty_calls)
        assert len(server.requests) == 20
    assert set(bodies) == {b'{"verdicts":[[{"label":"neutral","confidence":0.5}]]}'}
    assert len(connects) == 1


def test_closed_server_ends_keepalive_connections():
    server = serve_mock(_NLI_TABLES)
    endpoint = server.endpoint(timeout_ms=2000, max_retries=0)
    body = _nli_body("h")

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
    body = _nli_body("h")

    def call_restart_call():
        post_json(first.endpoint(), "/nli", body)
        first.close()
        with serve_mock(_NLI_TABLES, port=port) as second:
            obj, _ = post_json(second.endpoint(max_retries=0), "/nli", body)
            return obj, list(second.requests)

    obj, second_requests = _in_fresh_thread(call_restart_call)
    assert obj == {"verdicts": [[{"label": "neutral", "confidence": 0.5}]]}
    assert second_requests == [("/nli", b'{"items":[{"premises":["p"],"hypothesis":"h"}]}')]
    assert len(connects) == 2


def _mock_address(server: MockServer) -> tuple[str, int]:
    host, port = server.base_url.rsplit("/", 1)[1].split(":")
    return host, int(port)


def _mock_exchange(server: MockServer, request: bytes) -> bytes:
    """Send raw request bytes on a new connection to the mock; returns all
    it answers until it closes the connection (what arrived before a
    reset, which may be nothing)."""
    reply = b""
    with socket.create_connection(_mock_address(server), timeout=5) as sock:
        try:
            sock.sendall(request)
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass
    return reply


_EMPTY_NLI = b'{"items":[{"premises":[],"hypothesis":"h"}]}'


# more digits than int() converts: no value is read from them
@pytest.mark.parametrize("length", [b"abc", b"-5", b"1.5", pytest.param(b"1" * 5000, id="5000-digits")])
def test_mock_server_answers_400_to_a_bad_content_length(length):
    with serve_mock(_NLI_TABLES) as server:
        request = b"POST /nli HTTP/1.1\r\nHost: x\r\nContent-Length: " + length + b"\r\n\r\n{}"
        # the server closes the connection after it
        reply = _mock_exchange(server, request)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.endswith(b'{"error":"bad Content-Length"}')
        assert server.requests == []
        # the server goes on answering well-formed requests
        assert post_raw(server.base_url + "/nli", _EMPTY_NLI)[0] == 200


def _chunked_request(route: bytes, body: bytes) -> bytes:
    """A POST of ``body`` in two chunks, with no Content-Length."""
    return (
        b"POST %s HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n" % route
        + b"%x;ext=1\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: t\r\n\r\n"
        % (10, body[:10], len(body) - 10, body[10:])
    )


def test_mock_server_reads_a_chunked_request_body_and_keeps_the_connection():
    classify = b'{"texts":["some text"]}'
    with serve_mock(_NLI_TABLES | {"classify": {"default": [0.2, 0.3, 0.5]}}) as server:
        # two chunked requests, then one by Content-Length, on one connection
        request = _chunked_request(b"/classify", classify) + _chunked_request(b"/nli", _EMPTY_NLI)
        request += b"POST /nli HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        request += b"Content-Length: %d\r\n\r\n" % len(_EMPTY_NLI) + _EMPTY_NLI
        reply = _mock_exchange(server, request)
        assert server.requests == [("/classify", classify), ("/nli", _EMPTY_NLI), ("/nli", _EMPTY_NLI)]
    assert reply.count(b"HTTP/1.1 ") == 3
    assert reply.count(b"HTTP/1.1 200 ") == 3
    assert b'{"distributions":[[0.2,0.3,0.5]]}' in reply


_CHUNKED_HEAD = b"POST /nli HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: %s\r\n\r\n"
_REQUEST_TOO_LONG = b"request body longer than 67108864 bytes"


# each request ends where the server stops reading it
@pytest.mark.parametrize(
    "request_bytes, status, error",
    [
        (_CHUNKED_HEAD % b"chunked" + b"zz\r\n", 400, b"malformed chunked body"),
        (_CHUNKED_HEAD % b"chunked" + b"1" * 65537, 400, b"malformed chunked body"),
        # two data bytes, then two that are not the CRLF ending the chunk
        (_CHUNKED_HEAD % b"chunked" + b"2\r\n{}XY", 400, b"malformed chunked body"),
        (_CHUNKED_HEAD % b"gzip, chunked", 501, b"unsupported Transfer-Encoding"),
        (_CHUNKED_HEAD % b"gzip", 501, b"unsupported Transfer-Encoding"),
        # a body over the limit is refused before it is read: by its
        # Content-Length, by one chunk's size, or by a chunk that would take
        # the chunks read so far past it
        (b"POST /nli HTTP/1.1\r\nHost: x\r\nContent-Length: 1000000000000\r\n\r\n", 413, _REQUEST_TOO_LONG),
        (_CHUNKED_HEAD % b"chunked" + b"ffffffffffffffff\r\n", 413, _REQUEST_TOO_LONG),
        (_CHUNKED_HEAD % b"chunked" + b"1\r\n{\r\n4000000\r\n", 413, _REQUEST_TOO_LONG),
    ],
    ids=[
        "bad-size-line", "long-size-line", "chunk-without-crlf", "gzip-chunked", "gzip",
        "length-over-limit", "chunk-size-over-limit", "chunks-over-limit",
    ],
)
def test_mock_server_refuses_a_bad_chunked_body_or_encoding_and_closes(request_bytes, status, error):
    with serve_mock(_NLI_TABLES) as server:
        # returns only once the server has closed the connection: one answer
        reply = _mock_exchange(server, request_bytes)
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert reply.count(b"HTTP/1.1 ") == 1
        assert reply.endswith(b'{"error":"' + error + b'"}')
        assert server.requests == []
        assert post_raw(server.base_url + "/nli", _EMPTY_NLI)[0] == 200


@pytest.mark.parametrize(
    "head",
    [
        b"POST /" + b"n" * 65536 + b" HTTP/1.1\r\nHost: x\r\n\r\n",
        b"POST /nli HTTP/1.1\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n",
        b"POST /nli HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n",
    ],
    ids=["long-request-line", "long-header-line", "too-many-headers"],
)
def test_mock_server_refuses_a_request_head_over_the_limits(head):
    with serve_mock(_NLI_TABLES) as server:
        # a 4xx answer, or a reset when the server closes on unread bytes
        reply = _mock_exchange(server, head)
        assert reply == b"" or reply.startswith(b"HTTP/1.1 4")
        assert server.requests == []
        assert post_raw(server.base_url + "/nli", _EMPTY_NLI)[0] == 200


@pytest.mark.parametrize(
    "request_bytes",
    [
        b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
        b"PUT /nli HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
    ],
    ids=["GET", "PUT"],
)
def test_mock_server_answers_501_to_any_method_but_post_and_logs_nothing(request_bytes):
    # a readiness probe sends GET / and must not add to the request log
    with serve_mock(_NLI_TABLES) as server:
        # the server closes the connection after it
        assert _mock_exchange(server, request_bytes).startswith(b"HTTP/1.1 501 ")
        assert server.requests == []


@pytest.mark.parametrize(
    "version, header",
    [(b"HTTP/1.0", b""), (b"HTTP/1.1", b"Connection: close\r\n")],
    ids=["http-1.0", "connection-close"],
)
def test_mock_server_closes_after_an_http10_or_connection_close_request(version, header):
    request = b"POST /nli %s\r\nHost: x\r\n%sContent-Length: %d\r\n\r\n" % (
        version, header, len(_EMPTY_NLI)
    )
    with serve_mock(_NLI_TABLES) as server:
        # returns only once the server has closed the connection
        reply = _mock_exchange(server, request + _EMPTY_NLI)
        assert len(server.requests) == 1
    assert reply.startswith(b"HTTP/1.1 200 ")
    assert reply.endswith(b'\r\n\r\n{"verdicts":[[]]}')


def test_mock_server_prints_nothing_for_reset_clients_or_a_close_under_traffic(capfd):
    server = serve_mock(_NLI_TABLES)
    # three clients send a request head and reset before the body
    for _ in range(3):
        sock = socket.create_connection(_mock_address(server), timeout=5)
        sock.sendall(b"POST /nli HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n")
        time.sleep(0.05)  # the server reads the head before the reset
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
    time.sleep(0.1)
    assert server.requests == []

    # four clients post until the server, closed under them, stops answering
    endpoint = server.endpoint(timeout_ms=2000, max_retries=0)
    answered = threading.Barrier(5, timeout=5)
    failures = []

    def post_until_closed() -> None:
        post_json(endpoint, "/nli", _nli_body("h"))
        answered.wait()
        try:
            while True:
                post_json(endpoint, "/nli", _nli_body("h"))
        except BackendUnavailableError as exc:
            failures.append(exc)

    clients = [threading.Thread(target=post_until_closed) for _ in range(4)]
    for client in clients:
        client.start()
    answered.wait()
    time.sleep(0.05)
    server.close()
    for client in clients:
        client.join(timeout=10)
    assert not any(client.is_alive() for client in clients)
    assert len(failures) == 4
    assert capfd.readouterr().err == ""


# --- the transport against raw in-test servers -----------------------------------

_NLI_BODY = {"premises": ["p"], "hypothesis": "h"}
_VERDICT = b'{"verdicts":[{"label":"neutral","confidence":0.5}]}'
_OK = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(_VERDICT) + _VERDICT


def _answer(replies, after=None):
    """A RawServer ``serve``: answer each request on a connection with the
    next of ``replies``, then call ``after(sock)`` if given; the connection
    stays open."""

    def serve(sock, number):
        with sock.makefile("rb") as stream:
            for reply in replies:
                if read_request(stream) is None:
                    return
                sock.sendall(reply)
        if after is not None:
            after(sock)

    return serve


def _shut_write(sock):
    sock.shutdown(socket.SHUT_WR)


def _raw_endpoint(server, timeout_ms=2000, max_retries=0, scheme="http", path=""):
    return BackendEndpoint(f"{scheme}://127.0.0.1:{server.port}{path}", timeout_ms, max_retries)


def _calls(endpoint, n):
    """The response bodies of n /nli calls from one new thread."""
    return _in_fresh_thread(lambda: [post_json(endpoint, "/nli", _NLI_BODY)[1] for _ in range(n)])


def test_a_request_is_a_fixed_head_and_the_compact_body():
    received = []

    def serve(sock, number):
        with sock.makefile("rb") as stream:
            lines = [stream.readline()]
            while lines[-1] != b"\r\n":
                lines.append(stream.readline())
            received.append(b"".join(lines) + stream.read(35))
        sock.sendall(_OK)

    with RawServer(serve) as server:
        assert _calls(_raw_endpoint(server, path="/api/"), 1) == [_VERDICT]
    assert received == [
        b"POST /api/nli HTTP/1.1\r\nHost: 127.0.0.1:%d\r\nAccept-Encoding: identity\r\n"
        b"Content-Type: application/json\r\nContent-Length: 35\r\n\r\n"
        b'{"premises":["p"],"hypothesis":"h"}' % server.port
    ]


def test_a_chunked_body_is_joined_and_the_connection_kept(connects):
    chunked = (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"a;ext=1\r\n" + _VERDICT[:10] + b"\r\n"
        + b"%X\r\n" % (len(_VERDICT) - 10) + _VERDICT[10:] + b"\r\n"
        b"0\r\nX-Trailer: t\r\n\r\n"
    )
    interim = b"HTTP/1.1 100 Continue\r\n\r\n"  # an interim response is skipped
    with RawServer(_answer([chunked, interim + chunked])) as server:
        assert _calls(_raw_endpoint(server), 2) == [_VERDICT] * 2
    assert len(connects) == 1


def test_a_no_content_reply_has_no_body_and_keeps_the_connection(connects):
    # a 204 carries no body even without a length: the client does not
    # wait for one, and the next request goes on the same connection
    with RawServer(_answer([b"HTTP/1.1 204 No Content\r\n\r\n", _OK])) as server:
        endpoint = _raw_endpoint(server, timeout_ms=5000)

        def two_calls():
            start = time.monotonic()
            with pytest.raises(ProtocolError, match="/nli: unexpected HTTP 204"):
                post_json(endpoint, "/nli", _NLI_BODY)
            return time.monotonic() - start, post_json(endpoint, "/nli", _NLI_BODY)[1]

        elapsed, body = _in_fresh_thread(two_calls)
    assert elapsed < 2.5
    assert body == _VERDICT
    assert len(connects) == 1


def test_a_connection_close_reply_ends_the_connection(connects):
    # the server holds each connection open after its one reply, so a
    # client that reused the connection would wait out its timeout
    closing = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: %d\r\n\r\n" % len(
        _VERDICT
    )
    with RawServer(_answer([closing + _VERDICT])) as server:
        assert _calls(_raw_endpoint(server), 2) == [_VERDICT] * 2
    assert len(connects) == 2


def test_an_http10_body_runs_to_the_end_of_the_stream(connects):
    http10 = b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + _VERDICT
    with RawServer(_answer([http10], after=_shut_write)) as server:
        assert _calls(_raw_endpoint(server), 2) == [_VERDICT] * 2
    assert len(connects) == 2


def test_a_body_shorter_than_its_content_length_is_a_failed_attempt(sleeps):
    short = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + _VERDICT[:10]
    with RawServer(_answer([short], after=_shut_write)) as server:
        message = r"after 2 attempts \(response body ended after 10 of 100 bytes\)"
        with pytest.raises(BackendUnavailableError, match=message):
            _calls(_raw_endpoint(server, max_retries=1), 1)
        assert len(server.sockets) == 2
    assert sleeps == [0.05]


_CHUNKED_OK = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
_RESPONSE_TOO_LONG = "response body longer than 67108864 bytes"


# (what the server sends, whether it then ends the stream, the failure)
@pytest.mark.parametrize(
    "head, close, message",
    [
        (b"HTTP/1.1 200 " + b"x" * 70000, False, "response line longer than 65536 bytes"),
        (b"HTTP/1.1 200 OK\r\nX-Long: " + b"x" * 70000, False, "response line longer than 65536 bytes"),
        (b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 101, False, "more than 100 response header lines"),
        (b"HTTP/2 200 OK\r\n\r\n", False, "malformed status line b'HTTP/2 200 OK\\r\\n'"),
        (b"HTTP/1.1 2000 OK\r\n\r\n", False, "malformed status line b'HTTP/1.1 2000 OK\\r\\n'"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 1e3\r\n\r\n", False, "bad Content-Length b'1e3'"),
        (
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
            False,
            "bad Content-Length b'6'",
        ),
        (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
            False,
            "unsupported Transfer-Encoding b'gzip'",
        ),
        (_CHUNKED_OK + b"zz\r\n", False, "bad chunk size line b'zz'"),
        # two data bytes, then two that are not the CRLF ending the chunk
        (_CHUNKED_OK + b"2\r\n{}XY", False, "chunk ended early or without CRLF"),
        (_CHUNKED_OK + b"a\r\n{}", True, "chunk ended early or without CRLF"),
        (b"", True, "connection closed without a response"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n", True, "connection closed inside the response headers"),
        # more digits than int() converts
        (
            b"HTTP/1.1 200 OK\r\nContent-Length: " + b"1" * 5000 + b"\r\n\r\n",
            False,
            "bad Content-Length b'" + "1" * 40 + "'",
        ),
        # a body over the limit fails before it is read: by its
        # Content-Length, by one chunk's size, or by a chunk that would take
        # the chunks read so far past it
        (b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000\r\n\r\n", False, _RESPONSE_TOO_LONG),
        (_CHUNKED_OK + b"ffffffffffffffff\r\n", False, _RESPONSE_TOO_LONG),
        (_CHUNKED_OK + b"1\r\n{\r\n4000000\r\n", False, _RESPONSE_TOO_LONG),
    ],
    ids=[
        "status line", "header line", "header count", "status-version", "status-code",
        "length-not-digits", "lengths-disagree", "transfer-encoding", "chunk-size-line",
        "chunk-without-crlf", "chunk-cut-short", "closed-before-response", "closed-inside-head",
        "length-digits", "length-over-limit", "chunk-size-over-limit", "chunks-over-limit",
    ],
)
def test_an_unbounded_response_head_is_a_failed_attempt(head, close, message):
    # a response that breaks the framing or a reader limit is a failed
    # attempt with its own reason. Unless the case ends the stream, the
    # server holds the connection open after it: a reader that went on
    # reading would wait out the 5 s timeout
    with RawServer(_answer([head], after=_shut_write if close else None)) as server:
        start = time.monotonic()
        with pytest.raises(BackendUnavailableError) as caught:
            _calls(_raw_endpoint(server, timeout_ms=5000), 1)
        assert time.monotonic() - start < 2.5
    assert str(caught.value) == f"/nli: backend unavailable after 1 attempts ({message})"


def test_a_body_read_to_the_end_of_the_stream_is_held_to_the_limit(monkeypatch):
    # the limit lowered to the body's size, then to one byte less
    http10 = b"HTTP/1.0 200 OK\r\n\r\n" + _VERDICT
    with RawServer(_answer([http10], after=_shut_write)) as server:
        monkeypatch.setattr(agents, "_MAX_BODY", len(_VERDICT))
        assert _calls(_raw_endpoint(server), 1) == [_VERDICT]
        monkeypatch.setattr(agents, "_MAX_BODY", len(_VERDICT) - 1)
        with pytest.raises(BackendUnavailableError) as caught:
            _calls(_raw_endpoint(server), 1)
    assert str(caught.value) == (
        f"/nli: backend unavailable after 1 attempts (response body longer than {len(_VERDICT) - 1} bytes)"
    )


@pytest.mark.parametrize(
    "body, message",
    [(b"not json", "response body is not valid JSON"), (b"[1, 2]", "response body is not a JSON object")],
    ids=["not-json", "not-an-object"],
)
def test_a_200_body_that_is_not_a_json_object_is_a_protocol_error_without_retry(sleeps, body, message):
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body
    with RawServer(_answer([reply, _OK])) as server:
        with pytest.raises(ProtocolError) as caught:
            _calls(_raw_endpoint(server, max_retries=2), 1)
        assert len(server.sockets) == 1
    assert str(caught.value) == f"/nli: {message}"
    assert caught.value.body == body
    assert sleeps == []


def test_a_reset_inside_a_response_spends_a_retry(connects, sleeps):
    # each connection answers its first request in full, then resets in the
    # middle of the second response's head; unlike a stale connection, the
    # request is not sent again for free
    def serve(sock, number):
        with sock.makefile("rb") as stream:
            read_request(stream)
            sock.sendall(_OK)
            read_request(stream)
        sock.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n")
        time.sleep(0.1)  # the client reads these bytes before the reset
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()

    with RawServer(serve) as server:
        with pytest.raises(BackendUnavailableError, match="after 1 attempts"):
            _calls(_raw_endpoint(server), 2)
        assert len(connects) == 1
        assert sleeps == []
        # with one retry, the retry opens a new connection and succeeds
        assert _calls(_raw_endpoint(server, max_retries=1), 2) == [_VERDICT] * 2
    assert len(connects) == 3
    assert sleeps == [0.05]


def test_a_stalled_backend_fails_within_the_retry_budget():
    # the server accepts and never answers, so each of the two attempts
    # waits out the 200 ms timeout: 2 * 0.2 s + 0.05 s of backoff, with
    # 0.5 s of slack for a loaded machine
    with RawServer() as server:
        endpoint = _raw_endpoint(server, timeout_ms=200, max_retries=1)
        start = time.monotonic()
        with pytest.raises(BackendUnavailableError, match=r"after 2 attempts \(timed out\)"):
            _calls(endpoint, 1)
        elapsed = time.monotonic() - start
        assert len(server.sockets) == 2
    assert 0.4 <= elapsed < 2 * 0.2 + 0.05 + 0.5


@pytest.fixture(scope="module")
def self_signed(tmp_path_factory):
    """(certificate, key) paths of a self-signed certificate for 127.0.0.1."""
    if shutil.which("openssl") is None:
        pytest.skip("the openssl binary is not installed")
    root = tmp_path_factory.mktemp("tls")
    cert, key = str(root / "cert.pem"), str(root / "key.pem")
    subprocess.run(
        [
            "openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
            "-nodes", "-keyout", key, "-out", cert, "-days", "2", "-subj", "/CN=127.0.0.1",
            "-addext", "subjectAltName=IP:127.0.0.1",
        ],
        check=True,
        capture_output=True,
    )
    return cert, key


def test_https_round_trip_verifies_the_certificate(self_signed, monkeypatch):
    cert, key = self_signed
    tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    tls.load_cert_chain(cert, key)
    with RawServer(_answer([_OK, _OK]), tls=tls) as server:
        endpoint = _raw_endpoint(server, scheme="https")
        # the default trust store does not hold the self-signed certificate
        with pytest.raises(BackendUnavailableError, match="CERTIFICATE_VERIFY_FAILED"):
            _calls(endpoint, 1)
        create = ssl.create_default_context

        def trusting(*args, **kwargs):
            context = create(*args, **kwargs)
            context.load_verify_locations(cert)
            return context

        monkeypatch.setattr(ssl, "create_default_context", trusting)
        assert _calls(endpoint, 2) == [_VERDICT] * 2

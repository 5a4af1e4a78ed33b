"""Skill agents: deterministic scripted stand-ins, remote HTTP clients, and
a table-driven mock model server for protocol tests.

Wire protocol (all endpoints HTTP POST, UTF-8 JSON bodies). Every route
takes a batch and answers one result per entry, in entry order; a request
with one entry is the same form:

    /generate  req  {"groups": [{"dialogue": [{"speaker": int, "text": str}],
                                 "items": [{"skill": str, "context": [str],
                                            "attempt": int}]}]}
               resp {"results": [[{"text": str, "score": number}]]}
                    (one result list per group, one result per item)
    /rank      req  {"items": [{"skill": str, "context": [str],
                                "dialogue": [...], "candidates": [str]}]}
               resp {"scores": [[number]]}
                    (one score list per item, one score per candidate)
    /nli       req  {"items": [{"premises": [str], "hypothesis": str}]}
               resp {"verdicts": [[{"label": "entail"|"neutral"|"contradict",
                                    "confidence": number}]]}
                    (one verdict list per item, one verdict per premise)
    /classify  req  {"texts": [str]}
               resp {"distributions": [[number]]}  (one per text, each of length M)

Field names and casing are normative; unknown extra fields are ignored.
Every array in a response must have the length given above. Every number
in a response must be finite: ``NaN``, ``Infinity`` and an integer beyond
float range are protocol errors. A ``/generate`` score and an ``/nli``
confidence are validated, then dropped: no decision reads them, and of the
three labels only ``contradict`` refuses a candidate. An episode sends one
``/generate`` group for every agent's first attempt of a turn, ``/nli``
items for the pairs those texts add, and ``/classify`` texts for a turn's
new texts; a regeneration after a refusal is a one-item group.

Lockstep groups: ``run_in_lockstep`` runs jobs (the orchestrator's
episodes) as one group, each on a thread of its own. Every remote call of
a member goes through ``exchange``. The thread whose call, or whose
leaving, leaves every live member waiting sends the tick, under the
group's lock. It serves only the calls on the earliest route in
``_ROUTES``, which lists the routes in the order a turn calls them, with
one request per endpoint holding their entries in member order; the other
calls wait for a later tick. So members that ran ahead wait for those
still regenerating, and each tick sends one route. A ``/rank`` tick, the
last of a turn, serves every live member, so no member starts a turn
before every other has ended the one before it. Every tick serves at
least one member, so a group whose members never call ``/rank`` still
ends; it merges less. A request's members wake once it is back, and
only they. Each gets its own slice of the answer and checks it
as a lone caller would, so protocol errors read the same, and a failed
request fails each of its members with a copy of the error. A member
leaves the group when its job ends. Outside a group a call is sent at
once, as a one-member request.

Transport: a small HTTP/1.1 client on the standard library's ``socket``
and ``ssl``. Each worker thread holds one persistent connection per
backend host, with Nagle off, and the members of a lockstep group share
the connections of the thread that started them; an ``https`` connection
verifies the certificate and the host name against the default trust
store. A request is one write: the route, then ``Host``,
``Accept-Encoding: identity`` (no compressed bodies), ``Content-Type``
and ``Content-Length``. A response body is read by ``Content-Length``, as
``chunked``, or up to the end of the stream when it has neither; the
connection closes after a ``Connection: close`` response, after an
HTTP/1.0 response and after a body read to the end. A status or header
line longer than 65536 bytes, more than 100 header lines, any other
``Transfer-Encoding`` and a body cut short are failed attempts, like
timeouts, resets and 5xx responses; failed attempts are retried after a
capped exponential backoff. A request that fails on a reused connection
before any response byte arrives is sent once more on a fresh connection,
outside the retry budget. ``orchestrator.run_batch`` closes its worker
threads' connections when the batch ends.

The mock server's side reuses that framing: one thread per connection,
the same request-head limits and chunk reader, and one write per response.
"""

from __future__ import annotations

import copy
import json
import math
import re
import socket
import ssl
import threading
from dataclasses import dataclass
from http import HTTPStatus
from string import Formatter
from time import sleep
from typing import Callable, Protocol, Sequence
from urllib.parse import urlsplit

from .core import DialogueContext, ResponseCandidate, SkillContext, SkillId, compact_json
from .seeds import tokenize


class BackendError(RuntimeError):
    """Base class for remote-backend failures."""


class BackendUnavailableError(BackendError):
    """Raised when the retry budget is exhausted on transport-level failures."""


class ProtocolError(BackendError):
    """Raised on malformed wire payloads; carries the raw response body."""

    def __init__(self, message: str, body: bytes = b""):
        super().__init__(message)
        self.body = body


class SkillAgent(Protocol):
    """Per-skill participant: a generator proposing response texts and a
    ranker scoring candidates. ``generate`` returns only the text; the
    moderator makes the candidate, with this agent's skill as its origin
    and ``attempt`` as its attempt count. Both methods must be
    deterministic for fixed inputs and callable from concurrent episode
    workers."""

    skill: SkillId

    def generate(self, stx: SkillContext, dtx: DialogueContext, attempt: int) -> str:
        ...

    def rank(
        self, stx: SkillContext, dtx: DialogueContext, candidates: Sequence[ResponseCandidate]
    ) -> list[float]:
        ...


@dataclass(frozen=True)
class ScriptedAgent:
    """Deterministic generator/ranker stand-in; ``generate`` returns a
    rendered template.

    ``templates`` holds response texts, which may reference
    ``{context}`` (the first own-context line) and ``{last}`` (the last
    utterance). Templates are reused cyclically across attempts, so any
    non-zero count satisfies the retry budget.
    """

    skill: SkillId
    templates: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.templates:
            raise ValueError("a scripted agent needs at least one template")
        for text in self.templates:
            for _literal, name, spec, _conversion in Formatter().parse(text):
                if name not in (None, "context", "last") or "{" in (spec or ""):
                    raise ValueError(f"template {text!r} may reference only {{context}} and {{last}}")
            if not text.format(context="", last="").strip():
                raise ValueError("templates must render non-blank even with empty fills")

    def generate(self, stx: SkillContext, dtx: DialogueContext, attempt: int) -> str:
        """Deterministic response text: template index (attempt - 1) mod
        len(templates), placeholders filled from the first context line and
        the last utterance."""
        if attempt < 1:
            raise ValueError("attempt must be at least 1")
        template = self.templates[(attempt - 1) % len(self.templates)]
        last = dtx.last.text if dtx.last is not None else ""
        return template.format(context=stx.first_line, last=last)

    def rank(
        self, stx: SkillContext, dtx: DialogueContext, candidates: Sequence[ResponseCandidate]
    ) -> list[float]:
        """Score = distinct-token overlap between the candidate and the union
        of own-context lines (case-insensitive), plus 0.5 for own-skill
        origin."""
        if not candidates:
            raise ValueError("rank requires at least one candidate")
        context_tokens: set[str] = set()
        for line in stx.lines:
            context_tokens.update(tokenize(line))
        scores = []
        for cand in candidates:
            overlap = len(set(tokenize(cand.text)) & context_tokens)
            bonus = 0.5 if cand.origin.id == self.skill.id else 0.0
            scores.append(overlap + bonus)
        return scores


_DEFAULT_TEMPLATES: dict[str, tuple[str, ...]] = {
    "P": (
        "I love that. {context}",
        "Me too! Personally, {context}",
        "For me it is a bit different. {context}",
        "My favorite part of most days touches on that.",
    ),
    "K": (
        "Did you know? {context}",
        "Actually, {context}",
        "There is a known fact behind '{last}'.",
        "History books cover that in depth.",
    ),
    "E": (
        "That sounds like a lot. {context}",
        "I am glad you said '{last}'.",
        "I hear you. Tell me more about it.",
        "I hope it turns out well for you.",
    ),
}

_GENERIC_TEMPLATES: tuple[str, ...] = (
    "Tell me more about that.",
    "Interesting: '{last}'.",
    "Let us stay with this. {context}",
)


def default_scripted_agents(roster: Sequence[SkillId]) -> list[ScriptedAgent]:
    """Shipped scripted backends, one per roster skill."""
    return [
        ScriptedAgent(skill, _DEFAULT_TEMPLATES.get(skill.id, _GENERIC_TEMPLATES))
        for skill in roster
    ]


@dataclass(frozen=True)
class BackendEndpoint:
    base_url: str
    timeout_ms: int = 5000
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        parts = urlsplit(self.base_url)
        # requests go to host, port and path only; the rest would be dropped
        # unsent, and no message echoes it since it may hold a secret
        if "@" in parts.netloc or parts.query or parts.fragment:
            raise ValueError("endpoint must not carry user info, a query or a fragment")
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint must be an http or https URL, got {self.base_url!r}")
        path = parts.path.rstrip("/")
        if not all("!" <= c <= "~" for c in path):
            raise ValueError(f"endpoint path must be printable ASCII without spaces, got {path!r}")
        host, default_port = parts.hostname, 443 if parts.scheme == "https" else 80
        port = parts.port or default_port
        name = f"[{host}]" if ":" in host else host
        try:
            host_header = name.encode("ascii" if name.isascii() else "idna")
        except UnicodeError:
            raise ValueError(f"endpoint host is not a valid host name, got {host!r}") from None
        if port != default_port:
            host_header += b":%d" % port
        # derived once, not dataclass fields: (scheme, host, port) keys the
        # per-thread connection, the path prefixes every route
        object.__setattr__(self, "_origin", (parts.scheme, host, port))
        object.__setattr__(self, "_host", host_header)
        object.__setattr__(self, "_path", path.encode("ascii"))


# the wait before retry i (0-based) is min(_BACKOFF_CAP_S, _BACKOFF_FIRST_S * 2**i)
_BACKOFF_FIRST_S = 0.05
_BACKOFF_CAP_S = 1.0
# limits on what a response (or, at the mock server, a request) may send
# before its body: a status, request or header line (terminator included),
# and the header lines of one message
_MAX_LINE = 65536
_MAX_HEADERS = 100
_REQUEST_HEAD = (
    b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n"
    b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
)
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
_thread_state = threading.local()


class _BadResponse(Exception):
    """A response that breaks HTTP/1.1 framing or a reader limit; like a
    transport failure, it is a failed attempt. The mock server reads
    request heads and chunked request bodies with the same readers and
    refuses one that raises it."""


def _line(reader) -> bytes:
    """One status, request, header or chunk-size line, at most
    ``_MAX_LINE`` bytes; b"" at end of stream."""
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _BadResponse(f"response line longer than {_MAX_LINE} bytes")
    return line


def _header_lines(reader):
    """The header (or trailer) lines up to the blank line that ends them."""
    for _ in range(_MAX_HEADERS + 1):
        line = _line(reader)
        if line in (b"\r\n", b"\n"):
            return
        if not line:
            raise _BadResponse("connection closed inside the response headers")
        yield line
    raise _BadResponse(f"more than {_MAX_HEADERS} response header lines")


def _chunked_body(reader) -> bytes:
    parts = []
    while True:
        field = _line(reader).split(b";", 1)[0].strip()
        if not _CHUNK_SIZE.fullmatch(field):
            raise _BadResponse(f"bad chunk size line {field[:40]!r}")
        size = int(field, 16)
        if not size:
            for _trailer in _header_lines(reader):
                pass
            return b"".join(parts)
        chunk = reader.read(size)
        if len(chunk) < size or reader.read(2) != b"\r\n":
            raise _BadResponse("chunk ended early or without CRLF")
        parts.append(chunk)


class _Connection:
    """One thread's persistent HTTP/1.1 connection to one backend host. The
    socket opens on first use and again after a close."""

    def __init__(self, endpoint: BackendEndpoint):
        scheme, host, port = endpoint._origin
        self._address = (host, port)
        self._tls = ssl.create_default_context() if scheme == "https" else None
        self._host = endpoint._host
        self._sock: socket.socket | None = None
        self._reader = None
        self._timeout = 0.0

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def _open(self, timeout: float) -> None:
        sock = socket.create_connection(self._address, timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except OSError:
            sock.close()
            raise
        self._sock, self._reader, self._timeout = sock, sock.makefile("rb"), timeout

    def post(self, path: bytes, payload: bytes, timeout: float) -> tuple[int, bytes]:
        """One POST in a single write; returns (status, body). A reused
        connection that the server has closed meanwhile fails before any
        response byte arrives; that request is sent once more on a fresh
        connection."""
        request = _REQUEST_HEAD % (path, self._host, len(payload)) + payload
        if self._sock is not None:
            if self._timeout != timeout:
                self._sock.settimeout(timeout)
                self._timeout = timeout
            try:
                self._sock.sendall(request)
                begun = bool(self._reader.peek(1))
            except (ConnectionResetError, BrokenPipeError):
                begun = False
            if begun:
                return self._response()
            self.close()
        self._open(timeout)
        self._sock.sendall(request)
        return self._response()

    def _response(self) -> tuple[int, bytes]:
        """Read one response: its body by Content-Length, chunked, or up to
        the end of the stream; close after ``Connection: close``, after an
        HTTP/1.0 response and after a body that ran to the end."""
        reader = self._reader
        status = 100
        while status < 200:  # skip interim (1xx) responses
            line = _line(reader)
            if not line:
                raise _BadResponse("connection closed without a response")
            parts = line.split(None, 2)
            if (
                len(parts) < 2
                or not parts[0].startswith(b"HTTP/1.")
                or len(parts[1]) != 3
                or not parts[1].isdigit()
            ):
                raise _BadResponse(f"malformed status line {line[:40]!r}")
            status = int(parts[1])
            close = parts[0] == b"HTTP/1.0"
            length = None
            chunked = False
            for header in _header_lines(reader):
                name, _, value = header.partition(b":")
                name = name.strip().lower()
                value = value.strip()
                if name == b"content-length":
                    if not value.isdigit() or length not in (None, int(value)):
                        raise _BadResponse(f"bad Content-Length {value[:40]!r}")
                    length = int(value)
                elif name == b"transfer-encoding":
                    if value.lower() != b"chunked":
                        raise _BadResponse(f"unsupported Transfer-Encoding {value[:40]!r}")
                    chunked = True
                elif name == b"connection":
                    close = close or b"close" in [t.strip() for t in value.lower().split(b",")]
        if status in (204, 304):
            body = b""
        elif chunked:
            body = _chunked_body(reader)
        elif length is not None:
            body = reader.read(length)
            if len(body) < length:
                raise _BadResponse(f"response body ended after {len(body)} of {length} bytes")
        else:
            body = reader.read()
            close = True
        if close:
            self.close()
        return status, body


class _Connections(dict):
    """One thread's connections by (scheme, host, port); they close on
    ``close``, or when the thread ends and its state is dropped."""

    def close(self) -> None:
        for conn in self.values():
            conn.close()

    def __del__(self) -> None:
        self.close()


def thread_connections() -> _Connections:
    """This thread's connections, made on first use."""
    conns = getattr(_thread_state, "conns", None)
    if conns is None:
        conns = _thread_state.conns = _Connections()
    return conns


def _connection(endpoint: BackendEndpoint) -> _Connection:
    """This thread's connection to the endpoint's host."""
    conns = thread_connections()
    conn = conns.get(endpoint._origin)
    if conn is None:
        conn = conns[endpoint._origin] = _Connection(endpoint)
    return conn


def post_json(endpoint: BackendEndpoint, route: str, body: dict) -> tuple[dict, bytes]:
    """POST a compact JSON body; retry on timeouts, connection failures and
    5xx responses until the budget runs out, waiting a capped, doubling
    backoff before each retry. Returns (parsed object, raw response
    bytes)."""
    payload = compact_json(body).encode("utf-8")
    path = endpoint._path + route.encode("ascii")
    timeout = endpoint.timeout_ms / 1000.0
    last_failure = "no attempt made"
    for attempt in range(endpoint.max_retries + 1):
        if attempt:
            sleep(min(_BACKOFF_CAP_S, _BACKOFF_FIRST_S * 2 ** (attempt - 1)))
        conn = _connection(endpoint)
        try:
            status, content = conn.post(path, payload, timeout)
        except (OSError, _BadResponse) as exc:
            conn.close()
            last_failure = str(exc) or type(exc).__name__
            continue
        if status >= 500:
            last_failure = f"HTTP {status}"
            continue
        if status != 200:
            raise ProtocolError(f"{route}: unexpected HTTP {status}", content)
        try:
            obj = json.loads(content.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ProtocolError(f"{route}: response body is not valid JSON", content)
        if not isinstance(obj, dict):
            raise ProtocolError(f"{route}: response body is not a JSON object", content)
        return obj, content
    raise BackendUnavailableError(
        f"{route}: backend unavailable after {endpoint.max_retries + 1} attempts ({last_failure})"
    )


def _dialogue_payload(dtx: DialogueContext) -> list[dict]:
    return [{"speaker": u.speaker, "text": u.text} for u in dtx.turns]


def finite_float(value, message: str, raw: bytes) -> float:
    """A wire number as a finite float. A bool, a non-number, NaN, an
    infinity or an integer beyond float range raises ``ProtocolError``
    with ``message`` and the raw response body."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            raise ProtocolError(message, raw) from None
        if math.isfinite(number):
            return number
    raise ProtocolError(message, raw)


def wire_list(value, count: int, route: str, noun: str, raw: bytes) -> list:
    """A wire array that must hold ``count`` entries; anything else raises
    ``ProtocolError`` "route: expected <count> <noun>, got <n or no>" with
    the raw response body."""
    if not isinstance(value, list) or len(value) != count:
        got = len(value) if isinstance(value, list) else "no"
        raise ProtocolError(f"{route}: expected {count} {noun}, got {got}", raw)
    return value


# per route, in the order an episode's turn calls them (a lockstep tick
# serves the earliest first): the request's entry array, the type of each
# entry, the response's answer array, and the noun that names an answer in
# a length error
_FORMS = {
    "/generate": ("groups", dict, "results", "result lists"),
    "/nli": ("items", dict, "verdicts", "verdict lists"),
    "/classify": ("texts", str, "distributions", "distributions"),
    "/rank": ("items", dict, "scores", "score lists"),
}
_ROUTES = tuple(_FORMS)


def _post_entries(post, endpoint: BackendEndpoint, route: str, calls: list[list]):
    """One request holding every call's entries, in call order; returns
    each call's (answers, raw response body)."""
    request_key, _kind, answer_key, noun = _FORMS[route]
    obj, raw = post(endpoint, route, {request_key: [entry for call in calls for entry in call]})
    answers = wire_list(obj.get(answer_key), sum(map(len, calls)), route, noun, raw)
    out = []
    start = 0
    for call in calls:
        out.append((answers[start : start + len(call)], raw))
        start += len(call)
    return out


class _Lockstep:
    """The exchange of one lockstep group: one lock over each member's
    pending call and each member's (answer, error), and on that lock one
    condition per member, so that a tick wakes only the members it served.
    The thread whose call (or leave) makes every live member pending sends
    the tick, which serves only the calls on the earliest route in turn
    order: members that ran ahead wait for the ones still behind.

    A call's step is (the member's ``/rank`` calls before it, its route's
    place in ``_ROUTES``). Ordering by the place alone is the same: a
    ``/rank`` tick serves only when every live member waits on ``/rank``,
    and then serves them all, so the live members' ``/rank`` counts never
    differ."""

    def __init__(self, size: int):
        self._lock = threading.Lock()
        self._wakes = [threading.Condition(self._lock) for _ in range(size)]
        self._live = size
        self._pending: dict[int, tuple] = {}
        self._done: dict[int, tuple] = {}

    def call(self, member: int, post, endpoint: BackendEndpoint, route: str, entries: list):
        with self._lock:
            self._pending[member] = (_ROUTES.index(route), post, endpoint, entries)
            self._send_if_due()
            while member not in self._done:
                self._wakes[member].wait()
            answer, error = self._done.pop(member)
        if error is not None:
            # each member raises its own copy: run_episode rewrites its message
            raise copy.copy(error)
        return answer

    def leave(self) -> None:
        with self._lock:
            self._live -= 1
            self._send_if_due()

    def _send_if_due(self) -> None:
        """Once every live member is pending: the calls on the earliest
        route, one request per endpoint holding their entries in member
        order, sent under the lock, each request's members woken once it is
        back. The other calls stay pending for a later tick."""
        pending = self._pending
        if not pending or len(pending) < self._live:
            return
        low = min(call[0] for call in pending.values())
        route = _ROUTES[low]
        # visited in member order, so the dict's insertion order is the send
        # order and each request's member order
        merged: dict[BackendEndpoint, list[int]] = {}
        for member in sorted(pending):
            if pending[member][0] == low:
                merged.setdefault(pending[member][2], []).append(member)
        for endpoint, members in merged.items():
            calls = [pending.pop(m) for m in members]
            try:
                answers = _post_entries(calls[0][1], endpoint, route, [c[3] for c in calls])
            except Exception as exc:
                self._done.update((m, (None, exc)) for m in members)
            else:
                self._done.update((m, (answer, None)) for m, answer in zip(members, answers))
            for member in members:
                self._wakes[member].notify()


def exchange(post, endpoint: BackendEndpoint, route: str, entries: list) -> tuple[list, bytes]:
    """Send ``entries`` on ``route``; returns their answers, in entry order,
    and the raw body of the response that held them. On a member thread of
    ``run_in_lockstep`` the call waits for the first tick that serves its
    step and goes out merged with the other members' calls at that step;
    elsewhere it goes out at once. ``post`` is the caller module's
    ``post_json``, looked up at call time, and every request goes through
    it."""
    member = getattr(_thread_state, "member", None)
    if member is None:
        return _post_entries(post, endpoint, route, [entries])[0]
    group, index = member
    return group.call(index, post, endpoint, route, entries)


def run_in_lockstep(jobs: Sequence[Callable[[], object]]) -> list:
    """Run each job on a thread of its own, as the members of one lockstep
    group in job order, and return their results in job order once every
    job has ended. A job runs as soon as its thread starts, but no request
    goes out before every member has started, and all of them share the
    calling thread's connections: only one of them sends at a time, because
    the tick holds the group's lock. Each tick serves the members whose
    calls are furthest behind in their turns (see ``_Lockstep``), so the
    members advance in step. When a thread fails to start, each
    member that never started leaves the group, the started ones run to
    their end, and the error propagates. A job should not raise: if it
    does, it leaves the group, its thread ends with the error reported and
    its result is None, and the other members run on."""
    group = _Lockstep(len(jobs))
    conns = thread_connections()
    results: list = [None] * len(jobs)

    def member(index: int, job: Callable[[], object]) -> None:
        _thread_state.conns = conns
        _thread_state.member = (group, index)
        try:
            results[index] = job()
        finally:
            group.leave()

    threads = [
        threading.Thread(target=member, args=(i, job), name=f"skillblend-lockstep-{i}")
        for i, job in enumerate(jobs)
    ]
    started = 0
    try:
        for thread in threads:
            thread.start()
            started += 1
    finally:
        for _ in range(started, len(threads)):
            group.leave()
        for thread in threads[:started]:
            thread.join()
    return results


def generate_texts(
    endpoint: BackendEndpoint,
    dtx: DialogueContext,
    items: Sequence[tuple[SkillId, SkillContext, int]],
) -> list[str]:
    """One ``/generate`` group of (skill, own context, attempt) items over
    one dialogue, which is sent once; returns one text per item, in item
    order. Each result's score must be a finite number but is not kept. An
    attempt below 1 raises ``ValueError``."""
    if any(attempt < 1 for _skill, _stx, attempt in items):
        raise ValueError("attempt must be at least 1")
    group = {
        "dialogue": _dialogue_payload(dtx),
        "items": [
            {"skill": skill.id, "context": list(stx.lines), "attempt": attempt}
            for skill, stx, attempt in items
        ],
    }
    (results,), raw = exchange(post_json, endpoint, "/generate", [group])
    texts = []
    for result in wire_list(results, len(items), "/generate", "results", raw):
        if not isinstance(result, dict):
            raise ProtocolError("/generate: result is not a JSON object", raw)
        text = result.get("text")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError("/generate: missing or blank 'text' field", raw)
        finite_float(result.get("score"), "/generate: missing or non-numeric 'score' field", raw)
        texts.append(text)
    return texts


@dataclass(frozen=True)
class RemoteSkillAgent:
    """One skill's generator and ranker behind the wire protocol:
    ``generate`` returns the ``/generate`` text, ``rank`` the ``/rank``
    scores."""

    endpoint: BackendEndpoint
    skill: SkillId

    def generate(self, stx: SkillContext, dtx: DialogueContext, attempt: int) -> str:
        """Ask the remote generator for one response text, as a one-item
        batch."""
        return generate_texts(self.endpoint, dtx, ((self.skill, stx, attempt),))[0]

    def rank(
        self, stx: SkillContext, dtx: DialogueContext, candidates: Sequence[ResponseCandidate]
    ) -> list[float]:
        """Ask the remote ranker to score candidates; the response must
        contain exactly one finite score per candidate."""
        if not candidates:
            raise ValueError("rank requires at least one candidate")
        item = {
            "skill": self.skill.id,
            "context": list(stx.lines),
            "dialogue": _dialogue_payload(dtx),
            "candidates": [c.text for c in candidates],
        }
        (scores,), raw = exchange(post_json, self.endpoint, "/rank", [item])
        scores = wire_list(scores, len(candidates), "/rank", "scores", raw)
        return [finite_float(s, "/rank: non-numeric score in response", raw) for s in scores]


def shared_endpoint(agents: Sequence[SkillAgent]) -> BackendEndpoint | None:
    """The endpoint of ``agents`` when every one is a ``RemoteSkillAgent``
    on the same endpoint, so that one ``/generate`` serves them all; None
    otherwise."""
    endpoints = {
        agent.endpoint if isinstance(agent, RemoteSkillAgent) else None for agent in agents
    }
    return endpoints.pop() if len(endpoints) == 1 else None


# --- mock model server -----------------------------------------------------


def _validate_tables(tables: dict) -> None:
    if not isinstance(tables, dict):
        raise ValueError("mock tables must be a JSON object")
    for key in tables:
        if key != "fail_first" and f"/{key}" not in _FORMS:
            raise ValueError(f"unknown mock table {key!r}")
        if not isinstance(tables[key], dict):
            raise ValueError(f"mock table {key!r} must be an object")
    for route, n in tables.get("fail_first", {}).items():
        if route not in _ROUTES or not isinstance(n, int) or n < 0:
            raise ValueError(f"bad fail_first entry {route!r}")


_RESPONSE_HEAD = b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n"


class MockServer:
    """Serves the wire protocol from fixture tables, deterministically.

    Each entry of a request's entry array (named in ``_FORMS``) is
    answered from the route's table, and the response objects found there
    are echoed verbatim, so tables may deliberately omit fields or mis-size
    score arrays to drive client-side protocol-error tests
    (``force_scores`` answers every ``/rank`` item). A malformed array or
    entry is answered 400 with an error object, on the same connection.
    Request bodies are recorded in ``requests`` for golden-file
    comparison. An entry with no table answer is answered 500, as are the
    first N calls to a route under ``fail_first``, which exercise the
    client retry budget.

    It speaks HTTP/1.1 keep-alive, one thread per connection, and reads a
    request head with the client's limits (a line of at most ``_MAX_LINE``
    bytes, at most ``_MAX_HEADERS`` header lines); a head over them is
    answered 414 or 431 and the connection closes. A request that is not a
    POST is answered 501 and not recorded, and the connection closes after
    it, after a bad ``Content-Length`` (400), after a ``Transfer-Encoding``
    other than ``chunked`` (501, not recorded), after a malformed chunked
    body (400), after an HTTP/1.0 request and after a ``Connection: close``
    request. A chunked body is read with the client's chunk reader and its
    line limits. ``close`` also ends the open connections and waits for
    their threads.
    """

    def __init__(self, tables: dict, host: str = "127.0.0.1", port: int = 0):
        _validate_tables(tables)
        self._tables = tables
        self._fail_budget = dict(tables.get("fail_first", {}))
        self.requests: list[tuple[str, bytes]] = []
        self._lock = threading.Lock()
        self._listener = socket.create_server((host, port))
        # short poll so close() returns promptly
        self._listener.settimeout(0.02)
        self._closing = threading.Event()
        # the open connections and their threads; a connection's socket is
        # closed, and dropped from here, under the lock
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()
        self._thread = threading.Thread(target=self._accept, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"http://{host}:{port}"

    def endpoint(self, timeout_ms: int = 5000, max_retries: int = 2) -> BackendEndpoint:
        return BackendEndpoint(self.base_url, timeout_ms, max_retries)

    def start(self) -> "MockServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self._closing.set()
        # an unstarted server has no accept loop to wait for
        if self._thread.ident is not None:
            self._thread.join(timeout=5)
        self._listener.close()
        with self._connections_lock:
            workers = list(self._connections.values())
            for sock in self._connections:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer has ended it already
        for worker in workers:
            worker.join(timeout=5)

    def wait(self, timeout: float | None = None) -> None:
        """Block until the server thread exits (or the timeout elapses);
        return at once when the server was never started."""
        if self._thread.ident is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "MockServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _accept(self) -> None:
        while not self._closing.is_set():
            try:
                sock, _address = self._listener.accept()
            except OSError:
                continue  # the poll timed out, or a connection failed before it was accepted
            # one write per response, so Nagle would only hold back the
            # last segment of a large one
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            worker = threading.Thread(target=self._serve, args=(sock,), daemon=True)
            try:
                with self._connections_lock:
                    worker.start()
                    self._connections[sock] = worker
            except RuntimeError:
                sock.close()  # no thread to serve it: the client sees it close

    def _serve(self, sock: socket.socket) -> None:
        """Answer the requests of one connection until either side ends it.
        A peer that resets or goes away just ends it: nothing is printed."""
        reader = sock.makefile("rb")
        try:
            while self._answer(sock, reader):
                pass
        except OSError:
            pass
        finally:
            reader.close()
            with self._connections_lock:
                del self._connections[sock]
                sock.close()

    def _answer(self, sock: socket.socket, reader) -> bool:
        """Read one request and send its response in one write; returns
        whether the connection carries another request."""
        try:
            line = _line(reader)
        except _BadResponse:
            return _reply(sock, 414, {"error": f"request line longer than {_MAX_LINE} bytes"})
        if not line:
            return False
        parts = line.split()
        if len(parts) != 3 or parts[2] not in (b"HTTP/1.0", b"HTTP/1.1"):
            return _reply(sock, 400, {"error": "malformed request line"})
        method, target, version = parts
        keep = version == b"HTTP/1.1"
        lengths, encodings, expect = set(), [], False
        try:
            for header in _header_lines(reader):
                name, _, value = header.partition(b":")
                name = name.strip().lower()
                value = value.strip()
                if name == b"content-length":
                    lengths.add(value)
                elif name == b"transfer-encoding":
                    encodings.append(value.lower())
                elif name == b"connection":
                    keep = keep and b"close" not in [t.strip() for t in value.lower().split(b",")]
                elif name == b"expect":
                    expect = value.lower() == b"100-continue"
        except _BadResponse:
            return _reply(sock, 431, {"error": "request head over the header limits"})
        if method != b"POST":
            # not recorded: a readiness probe may send it
            return _reply(sock, 501, {"error": f"Unsupported method ({method.decode('latin-1')!r})"})
        # a refused body's end is unknown, so the connection cannot carry
        # another request
        chunked = encodings == [b"chunked"]
        if encodings and not chunked:
            return _reply(sock, 501, {"error": "unsupported Transfer-Encoding"})
        # chunked framing overrides Content-Length; without it, no
        # Content-Length means no body, and several must agree
        length, *others = lengths or {b"0"}
        if not chunked and (others or not length.isdigit()):
            return _reply(sock, 400, {"error": "bad Content-Length"})
        if expect:
            sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        if chunked:
            try:
                body = _chunked_body(reader)
            except _BadResponse:
                return _reply(sock, 400, {"error": "malformed chunked body"})
        else:
            body = reader.read(int(length))
            if len(body) < int(length):
                return False
        status, obj = self._handle(target.decode("latin-1"), body)
        return _reply(sock, status, obj, keep)

    def _handle(self, route: str, body: bytes) -> tuple[int, dict]:
        with self._lock:
            self.requests.append((route, body))
            if self._fail_budget.get(route, 0) > 0:
                self._fail_budget[route] -= 1
                return 500, {"error": "injected failure"}
        if route not in _FORMS:
            return 404, {"error": f"unknown route {route}"}
        try:
            req = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return 400, {"error": "request body is not valid JSON"}
        if not isinstance(req, dict):
            return 400, {"error": "request body is not a JSON object"}
        entry_key, kind, answer_key, _noun = _FORMS[route]
        entries = req.get(entry_key)
        if not (entries and _array_of(entries, kind)):
            kinds = "strings" if kind is str else "objects"
            return 400, {"error": f"'{entry_key}' must be a non-empty array of {kinds}"}
        table = self._tables.get(route[1:], {})
        try:
            answers = [_ANSWERS[route](table, entry) for entry in entries]
        except _Refused as exc:
            return exc.args[0], {"error": exc.args[1]}
        return 200, {answer_key: answers}


class _Refused(Exception):
    """An entry the mock cannot answer; ``args`` is the request's (status, error)."""


def _generate_answer(table: dict, group: dict) -> list:
    items = group.get("items")
    if not (items and _array_of(items, dict)):
        raise _Refused(400, "'items' must be a non-empty array of objects")
    answers = []
    for item in items:
        attempt = item.get("attempt", 1)
        if not isinstance(attempt, int) or isinstance(attempt, bool) or attempt < 1:
            raise _Refused(400, "'attempt' must be a positive integer")
        skill = item.get("skill", "")
        if not isinstance(skill, str):
            raise _Refused(400, "'skill' must be a string")
        if not _array_of(item.get("context", []), str):
            raise _Refused(400, "'context' must be an array of strings")
        entries = table.get("by_skill", {}).get(skill)
        if entries:
            answers.append(entries[(attempt - 1) % len(entries)])
        elif "default" in table:
            answers.append(table["default"])
        else:
            raise _Refused(500, "no generate table entry")
    return answers


def _rank_answer(table: dict, item: dict) -> list:
    candidates = item.get("candidates", [])
    if not _array_of(candidates, str):
        raise _Refused(400, "'candidates' must be an array of strings")
    if "force_scores" in table:
        return table["force_scores"]
    by_text, default = table.get("by_text", {}), table.get("default_score", 0.0)
    return [by_text.get(text, default) for text in candidates]


def _nli_answer(table: dict, item: dict) -> list:
    premises, hypothesis = item.get("premises"), item.get("hypothesis")
    if not _array_of(premises, str):
        raise _Refused(400, "'premises' must be an array of strings")
    if not isinstance(hypothesis, str):
        raise _Refused(400, "'hypothesis' must be a string")
    default = table.get("default", {"label": "neutral", "confidence": 0.5})
    # the first table row matching a (premise, hypothesis) pair decides
    rows = [pair for pair in table.get("pairs", []) if pair.get("hypothesis") == hypothesis]
    return [_verdict(rows, premise, default) for premise in premises]


def _classify_answer(table: dict, text: str) -> list:
    by_text = table.get("by_text", {})
    if text not in by_text and "default" not in table:
        raise _Refused(500, "no classify table entry")
    return by_text.get(text, table.get("default"))


# per route of _FORMS, in its order: the mock's answer to one request
# entry, from the route's table
_ANSWERS = dict(zip(_FORMS, (_generate_answer, _nli_answer, _classify_answer, _rank_answer)))


def _reply(sock: socket.socket, status: int, obj: dict, keep: bool = False) -> bool:
    """Send one JSON response in one write; returns ``keep``, whether the
    connection carries another request. One that does not says so."""
    data = compact_json(obj).encode("utf-8")
    head = _RESPONSE_HEAD % (status, HTTPStatus(status).phrase.encode("ascii"), len(data))
    sock.sendall(head + (b"\r\n" if keep else b"Connection: close\r\n\r\n") + data)
    return keep


def _array_of(value, kind: type) -> bool:
    """Whether a request field is an array of ``kind`` entries."""
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _verdict(rows: list, premise: str, default: dict) -> dict:
    for pair in rows:
        if pair.get("premise") == premise:
            return {"label": pair.get("label"), "confidence": pair.get("confidence", 1.0)}
    return default


def serve_mock(tables: dict, host: str = "127.0.0.1", port: int = 0) -> MockServer:
    """Start a mock model server; bind failures propagate as OSError."""
    return MockServer(tables, host, port).start()

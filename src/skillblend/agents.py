"""Skill agents: deterministic scripted stand-ins, remote HTTP clients, and
a table-driven mock model server for protocol tests.

Wire protocol (all endpoints HTTP POST, UTF-8 JSON bodies):

    /generate  req  {"skill": str, "context": [str],
                     "dialogue": [{"speaker": int, "text": str}], "attempt": int}
               resp {"text": str, "score": number}
    /rank      req  {"skill": str, "context": [str], "dialogue": [...],
                     "candidates": [str]}
               resp {"scores": [number]}            (arity must match)
    /nli       req  {"premise": str, "hypothesis": str}
               resp {"label": "entail"|"neutral"|"contradict", "confidence": number}
    /classify  req  {"text": str}
               resp {"distribution": [number]}      (length M, validated client-side)

Field names and casing are normative; unknown extra fields are ignored.
Requests go over HTTP/1.1 keep-alive: each worker thread holds one
persistent connection per backend host.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Protocol, Sequence
from urllib.parse import urlsplit

from .core import DialogueContext, ResponseCandidate, SkillContext, SkillId
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
    """Per-skill participant: a generator proposing responses and a ranker
    scoring candidates. Implementations must be callable from concurrent
    episode workers."""

    skill: SkillId

    def generate(self, stx: SkillContext, dtx: DialogueContext, attempt: int) -> ResponseCandidate:
        ...

    def rank(
        self, stx: SkillContext, dtx: DialogueContext, candidates: Sequence[ResponseCandidate]
    ) -> list[float]:
        ...


@dataclass(frozen=True)
class ScriptedAgentSpec:
    """Deterministic generator/ranker stand-in.

    ``templates`` holds (text, base score) pairs; templates may reference
    ``{context}`` (the first own-context line) and ``{last}`` (the last
    utterance). Templates are reused cyclically across attempts, so any
    non-zero count satisfies the retry budget.
    """

    skill: SkillId
    templates: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.templates:
            raise ValueError("a scripted agent needs at least one template")
        for text, _score in self.templates:
            if not text.format(context="", last="").strip():
                raise ValueError("templates must render non-blank even with empty fills")


def scripted_generate(
    spec: ScriptedAgentSpec, stx: SkillContext, dtx: DialogueContext, attempt: int
) -> ResponseCandidate:
    """Deterministic response: template index (attempt - 1) mod len(templates),
    placeholders filled from the first context line and the last utterance."""
    if attempt < 1:
        raise ValueError("attempt must be at least 1")
    template, base_score = spec.templates[(attempt - 1) % len(spec.templates)]
    last = dtx.last.text if dtx.last is not None else ""
    text = template.format(context=stx.first_line, last=last)
    return ResponseCandidate(text=text, origin=spec.skill, gen_score=base_score, attempts=attempt)


def scripted_rank(
    spec: ScriptedAgentSpec,
    stx: SkillContext,
    dtx: DialogueContext,
    candidates: Sequence[ResponseCandidate],
) -> list[float]:
    """Score = distinct-token overlap between the candidate and the union of
    own-context lines (case-insensitive), plus 0.5 for own-skill origin."""
    if not candidates:
        raise ValueError("rank requires at least one candidate")
    context_tokens: set[str] = set()
    for line in stx.lines:
        context_tokens.update(tokenize(line))
    scores = []
    for cand in candidates:
        overlap = len(set(tokenize(cand.text)) & context_tokens)
        bonus = 0.5 if cand.origin.id == spec.skill.id else 0.0
        scores.append(overlap + bonus)
    return scores


@dataclass(frozen=True)
class ScriptedAgent:
    spec: ScriptedAgentSpec

    @property
    def skill(self) -> SkillId:
        return self.spec.skill

    def generate(self, stx: SkillContext, dtx: DialogueContext, attempt: int) -> ResponseCandidate:
        return scripted_generate(self.spec, stx, dtx, attempt)

    def rank(
        self, stx: SkillContext, dtx: DialogueContext, candidates: Sequence[ResponseCandidate]
    ) -> list[float]:
        return scripted_rank(self.spec, stx, dtx, candidates)


_DEFAULT_TEMPLATES: dict[str, tuple[tuple[str, float], ...]] = {
    "P": (
        ("I love that. {context}", 0.9),
        ("Me too! Personally, {context}", 0.8),
        ("For me it is a bit different. {context}", 0.7),
        ("My favorite part of most days touches on that.", 0.6),
    ),
    "K": (
        ("Did you know? {context}", 0.9),
        ("Actually, {context}", 0.8),
        ("There is a known fact behind '{last}'.", 0.7),
        ("History books cover that in depth.", 0.6),
    ),
    "E": (
        ("That sounds like a lot. {context}", 0.9),
        ("I am glad you said '{last}'.", 0.8),
        ("I hear you. Tell me more about it.", 0.7),
        ("I hope it turns out well for you.", 0.6),
    ),
}

_GENERIC_TEMPLATES: tuple[tuple[str, float], ...] = (
    ("Tell me more about that.", 0.5),
    ("Interesting: '{last}'.", 0.4),
    ("Let us stay with this. {context}", 0.3),
)


def default_scripted_agents(roster: Sequence[SkillId]) -> list[ScriptedAgent]:
    """Shipped scripted backends, one per roster skill."""
    return [
        ScriptedAgent(ScriptedAgentSpec(skill, _DEFAULT_TEMPLATES.get(skill.id, _GENERIC_TEMPLATES)))
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
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint must be an http or https URL, got {self.base_url!r}")
        # derived once, not dataclass fields: (scheme, host, port) keys the
        # per-thread connection, the path prefixes every route
        object.__setattr__(self, "_origin", (parts.scheme, parts.hostname, parts.port))
        object.__setattr__(self, "_path", parts.path.rstrip("/"))


_HEADERS = {"Content-Type": "application/json"}
_thread_state = threading.local()


class _Connections(dict):
    """One thread's connections by (scheme, host, port); they close when
    the thread ends and its state is dropped."""

    def __del__(self) -> None:
        for conn in self.values():
            conn.close()


def _connection(endpoint: BackendEndpoint, timeout: float) -> http.client.HTTPConnection:
    """This thread's persistent connection to the endpoint's host. It opens
    on first use, and http.client reopens it after a close."""
    conns = getattr(_thread_state, "conns", None)
    if conns is None:
        conns = _thread_state.conns = _Connections()
    conn = conns.get(endpoint._origin)
    if conn is None:
        scheme, host, port = endpoint._origin
        cls = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
        conn = conns[endpoint._origin] = cls(host, port, timeout=timeout)
    elif conn.timeout != timeout:
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
    return conn


def _exchange(conn: http.client.HTTPConnection, path: str, payload: bytes) -> tuple[int, bytes]:
    """One POST on ``conn``; returns (status, body). A reused connection
    that the server has closed meanwhile fails before any response byte
    arrives; that request is sent once more on a fresh connection."""
    reused = conn.sock is not None
    try:
        conn.request("POST", path, payload, _HEADERS)
        resp = conn.getresponse()
    except (ConnectionResetError, BrokenPipeError):  # includes RemoteDisconnected
        conn.close()
        if not reused:
            raise
        conn.request("POST", path, payload, _HEADERS)
        resp = conn.getresponse()
    return resp.status, resp.read()


def post_json(endpoint: BackendEndpoint, route: str, body: dict) -> tuple[dict, bytes]:
    """POST a compact JSON body; retry on timeouts, connection failures and
    5xx responses until the budget runs out. Returns (parsed object, raw
    response bytes)."""
    payload = json.dumps(body, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    path = endpoint._path + route
    timeout = endpoint.timeout_ms / 1000.0
    last_failure = "no attempt made"
    for _ in range(endpoint.max_retries + 1):
        conn = _connection(endpoint, timeout)
        try:
            status, content = _exchange(conn, path, payload)
        except (OSError, http.client.HTTPException) as exc:
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


def _require_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def remote_generate(
    endpoint: BackendEndpoint,
    skill: SkillId,
    stx: SkillContext,
    dtx: DialogueContext,
    attempt: int,
) -> ResponseCandidate:
    """Ask a remote generator for one candidate; the origin is forced to the
    requesting skill regardless of the server payload."""
    if attempt < 1:
        raise ValueError("attempt must be at least 1")
    body = {
        "skill": skill.id,
        "context": list(stx.lines),
        "dialogue": _dialogue_payload(dtx),
        "attempt": attempt,
    }
    obj, raw = post_json(endpoint, "/generate", body)
    text = obj.get("text")
    score = obj.get("score")
    if not isinstance(text, str) or not text.strip():
        raise ProtocolError("/generate: missing or blank 'text' field", raw)
    if not _require_number(score):
        raise ProtocolError("/generate: missing or non-numeric 'score' field", raw)
    return ResponseCandidate(text=text, origin=skill, gen_score=float(score), attempts=attempt)


def remote_rank(
    endpoint: BackendEndpoint,
    skill: SkillId,
    stx: SkillContext,
    dtx: DialogueContext,
    candidates: Sequence[ResponseCandidate],
) -> list[float]:
    """Ask a remote ranker to score candidates; the response must contain
    exactly one finite score per candidate."""
    if not candidates:
        raise ValueError("rank requires at least one candidate")
    body = {
        "skill": skill.id,
        "context": list(stx.lines),
        "dialogue": _dialogue_payload(dtx),
        "candidates": [c.text for c in candidates],
    }
    obj, raw = post_json(endpoint, "/rank", body)
    scores = obj.get("scores")
    if not isinstance(scores, list) or len(scores) != len(candidates):
        got = len(scores) if isinstance(scores, list) else "no"
        raise ProtocolError(
            f"/rank: expected {len(candidates)} scores, got {got}", raw
        )
    if any(not _require_number(s) for s in scores):
        raise ProtocolError("/rank: non-numeric score in response", raw)
    return [float(s) for s in scores]


@dataclass(frozen=True)
class RemoteSkillAgent:
    endpoint: BackendEndpoint
    skill: SkillId

    def generate(self, stx: SkillContext, dtx: DialogueContext, attempt: int) -> ResponseCandidate:
        return remote_generate(self.endpoint, self.skill, stx, dtx, attempt)

    def rank(
        self, stx: SkillContext, dtx: DialogueContext, candidates: Sequence[ResponseCandidate]
    ) -> list[float]:
        return remote_rank(self.endpoint, self.skill, stx, dtx, candidates)


# --- mock model server -----------------------------------------------------

_ROUTES = ("/generate", "/rank", "/nli", "/classify")


def _validate_tables(tables: dict) -> None:
    if not isinstance(tables, dict):
        raise ValueError("mock tables must be a JSON object")
    for key in tables:
        if key not in ("generate", "rank", "nli", "classify", "fail_first"):
            raise ValueError(f"unknown mock table {key!r}")
        if not isinstance(tables[key], dict):
            raise ValueError(f"mock table {key!r} must be an object")
    for route, n in tables.get("fail_first", {}).items():
        if route not in _ROUTES or not isinstance(n, int) or n < 0:
            raise ValueError(f"bad fail_first entry {route!r}")


class _KeepAliveHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server whose ``server_close`` also ends the open
    keep-alive connections and waits for their handler threads, which would
    otherwise go on answering clients that still hold a connection."""

    def __init__(self, address, handler) -> None:
        self._handlers: dict[socket.socket, threading.Thread] = {}
        self._handlers_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        worker = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._handlers_lock:
            self._handlers[request] = worker
        worker.start()

    def shutdown_request(self, request) -> None:
        with self._handlers_lock:
            self._handlers.pop(request, None)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._handlers_lock:
            handlers = list(self._handlers.items())
        for sock, _worker in handlers:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler
        for _sock, worker in handlers:
            worker.join(timeout=5)


class MockServer:
    """Serves the wire protocol from fixture tables, deterministically.

    Response objects from the tables are echoed verbatim, so tables may
    deliberately omit fields or mis-size score arrays to drive client-side
    protocol-error tests. Request bodies are recorded in ``requests`` for
    golden-file comparison. ``fail_first`` makes the first N calls to a
    route answer 500, which exercises the client retry budget. It speaks
    HTTP/1.1 keep-alive; ``close`` also ends the open connections.
    """

    def __init__(self, tables: dict, host: str = "127.0.0.1", port: int = 0):
        _validate_tables(tables)
        self._tables = tables
        self._fail_budget = dict(tables.get("fail_first", {}))
        self.requests: list[tuple[str, bytes]] = []
        self._lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            # keep-alive only with Nagle off: otherwise the response's
            # headers and body, written apart, stall on the client's delayed ACK
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length)
                status, obj = server._handle(self.path, body)
                data = b""
                if obj is not None:
                    data = json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode(
                        "utf-8"
                    )
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args) -> None:
                pass

        self._httpd = _KeepAliveHTTPServer((host, port), Handler)
        # short poll so close() returns promptly
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def endpoint(self, timeout_ms: int = 5000, max_retries: int = 2) -> BackendEndpoint:
        return BackendEndpoint(self.base_url, timeout_ms, max_retries)

    def start(self) -> "MockServer":
        self._thread.start()
        return self

    def close(self) -> None:
        # an unstarted server has no serve_forever loop to wait for
        if self._thread.ident is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
        self._httpd.server_close()

    def wait(self, timeout: float | None = None) -> None:
        """Block until the server thread exits (or the timeout elapses)."""
        self._thread.join(timeout)

    def __enter__(self) -> "MockServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _handle(self, route: str, body: bytes) -> tuple[int, dict | None]:
        with self._lock:
            self.requests.append((route, body))
            if self._fail_budget.get(route, 0) > 0:
                self._fail_budget[route] -= 1
                return 500, {"error": "injected failure"}
        if route not in _ROUTES:
            return 404, {"error": f"unknown route {route}"}
        try:
            req = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return 400, {"error": "request body is not valid JSON"}
        if route == "/generate":
            return self._generate(req)
        if route == "/rank":
            return self._rank(req)
        if route == "/nli":
            return self._nli(req)
        return self._classify(req)

    def _generate(self, req: dict) -> tuple[int, dict | None]:
        table = self._tables.get("generate", {})
        by_skill = table.get("by_skill", {})
        entries = by_skill.get(req.get("skill"))
        if entries:
            attempt = req.get("attempt", 1)
            return 200, entries[(attempt - 1) % len(entries)]
        if "default" in table:
            return 200, table["default"]
        return 500, {"error": "no generate table entry"}

    def _rank(self, req: dict) -> tuple[int, dict | None]:
        table = self._tables.get("rank", {})
        if "force_scores" in table:
            return 200, {"scores": table["force_scores"]}
        by_text = table.get("by_text", {})
        default = table.get("default_score", 0.0)
        return 200, {"scores": [by_text.get(text, default) for text in req.get("candidates", [])]}

    def _nli(self, req: dict) -> tuple[int, dict | None]:
        table = self._tables.get("nli", {})
        for pair in table.get("pairs", []):
            if pair.get("premise") == req.get("premise") and pair.get("hypothesis") == req.get(
                "hypothesis"
            ):
                return 200, {
                    "label": pair.get("label"),
                    "confidence": pair.get("confidence", 1.0),
                }
        return 200, table.get("default", {"label": "neutral", "confidence": 0.5})

    def _classify(self, req: dict) -> tuple[int, dict | None]:
        table = self._tables.get("classify", {})
        by_text = table.get("by_text", {})
        text = req.get("text")
        if text in by_text:
            return 200, {"distribution": by_text[text]}
        if "default" in table:
            return 200, {"distribution": table["default"]}
        return 500, {"error": "no classify table entry"}


def serve_mock(tables: dict, host: str = "127.0.0.1", port: int = 0) -> MockServer:
    """Start a mock model server; bind failures propagate as OSError."""
    return MockServer(tables, host, port).start()

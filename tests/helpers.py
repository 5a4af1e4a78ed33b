"""Shared fixture data, stub backends, and pipeline shortcuts for the suite."""

from __future__ import annotations

import concurrent.futures.thread
import faulthandler
import json
import socket
import threading
import urllib.error
import urllib.request
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from skillblend import orchestrator
from skillblend.agents import default_scripted_agents
from skillblend.classifiers import LexicalNliJudge, LexicalSkillScorer, default_lexicon
from skillblend.core import (
    AnnotatedTurn,
    EngineConfig,
    Episode,
    Refusal,
    SkillContext,
    SkillContextSet,
    SkillDistribution,
    SkillId,
    Utterance,
    config_digest,
)
from skillblend.cli import draw_seeds
from skillblend import dataio
from skillblend.dataio import EpisodeWriter, ParseError, SingleSkillRecord, read_dataset
from skillblend.distmath import entropy, kl_divergence
from skillblend.moderator import GateDecision
from skillblend.orchestrator import run_batch
from skillblend.seeds import build_index, docs_from_records
from skillblend.stats import DEFAULT_KLD_EDGES, default_entropy_edges

# --- deterministic synthetic corpus -----------------------------------------

_PERSONAS = [
    "i wear sneakers everyday",
    "i love comfortable shoes",
    "i like to ski in winter",
    "my favorite food is pasta",
    "i visit museums on weekends",
    "i grow tomatoes in my garden",
    "i play guitar at night",
    "i drink too much coffee",
    "i ride my bicycle to work",
    "i have two dogs at home",
    "i am a writer of short stories",
    "i collect vinyl records",
]

_TOPICS = {
    "sneakers": [
        "sneakers were primarily designed for sports",
        "rubber soles made sneakers quiet on wooden floors",
    ],
    "skiing": [
        "skiing began as a way to travel across deep snow",
        "alpine skiing became an olympic sport in 1936",
    ],
    "pasta": [
        "pasta is a staple food of italian cuisine",
        "dried pasta keeps for years when stored well",
    ],
    "museums": [
        "museums preserve artifacts for public education",
        "the louvre is the largest art museum in the world",
    ],
    "coffee": [
        "coffee beans are the roasted seeds of the coffea plant",
        "espresso is brewed by forcing hot water through fine grounds",
    ],
    "bicycles": [
        "bicycles were introduced in the nineteenth century",
        "a bicycle chain transfers power to the rear wheel",
    ],
}

_SITUATIONS = [
    ("my sandals were torn yesterday and i was upset", "sad"),
    ("i passed my final exam last week", "proud"),
    ("my dog ran away during the storm", "afraid"),
    ("my friend planned a surprise party for me", "surprised"),
    ("i burned the pasta i cooked for my family", "embarrassed"),
    ("i finally rode my bicycle up the big hill", "excited"),
]


def persona_records(count: int = 8) -> list[dict]:
    records = []
    topics = list(_TOPICS)
    for i in range(count):
        topic = topics[i % len(topics)]
        side0 = [_PERSONAS[(i + j) % len(_PERSONAS)] for j in range(5)]
        side1 = [_PERSONAS[(i + j + 5) % len(_PERSONAS)] for j in range(5)]
        records.append(
            {
                "skill": "P",
                "episode_id": f"p-{i:03d}",
                "contexts": [side0, side1],
                "turns": [
                    {"speaker": 0, "text": f"do you enjoy {topic} as much as i do"},
                    {"speaker": 1, "text": f"i love {topic} and talk about it a lot"},
                    {"speaker": 0, "text": f"my week usually has some {topic} in it"},
                    {"speaker": 1, "text": f"mine too, {topic} keeps me happy"},
                ],
            }
        )
    return records


def knowledge_records(count: int = 8) -> list[dict]:
    records = []
    topics = list(_TOPICS)
    for i in range(count):
        topic = topics[i % len(topics)]
        lines = _TOPICS[topic]
        records.append(
            {
                "skill": "K",
                "episode_id": f"k-{i:03d}",
                "contexts": [[topic], [topic] + lines],
                "turns": [
                    {"speaker": 0, "text": f"what do you know about {topic}"},
                    {"speaker": 1, "text": f"{lines[0]}, actually"},
                    {"speaker": 0, "text": f"interesting, tell me more about {topic}"},
                    {"speaker": 1, "text": f"did you know that {lines[1]}"},
                ],
            }
        )
    return records


def empathy_records(count: int = 8) -> list[dict]:
    records = []
    for i in range(count):
        situation, emotion = _SITUATIONS[i % len(_SITUATIONS)]
        records.append(
            {
                "skill": "E",
                "episode_id": f"e-{i:03d}",
                "contexts": [[situation, emotion], []],
                "turns": [
                    {"speaker": 0, "text": situation},
                    {"speaker": 1, "text": "oh no, that sounds intense, how do you feel now"},
                    {"speaker": 0, "text": f"i feel {emotion} but talking about it helps"},
                    {"speaker": 1, "text": "i am glad you shared it with me"},
                ],
            }
        )
    return records


def write_corpus(dirpath, count: int = 8) -> list[str]:
    """Write the three single-skill dataset files of ``count`` records each;
    returns their paths."""
    paths = []
    for name, records in (
        ("personas.jsonl", persona_records(count)),
        ("knowledge.jsonl", knowledge_records(count)),
        ("empathy.jsonl", empathy_records(count)),
    ):
        path = str(dirpath / name)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
        paths.append(path)
    return paths


# --- pipeline shortcuts -------------------------------------------------------


def scripted_stack(cfg: EngineConfig):
    lexicon = default_lexicon(cfg.skill_roster)
    return (
        default_scripted_agents(cfg.skill_roster),
        LexicalNliJudge(lexicon),
        LexicalSkillScorer(lexicon),
    )


def make_seeds(files, cfg: EngineConfig, count: int):
    """``count`` seeds drawn as ``generate`` draws them, over an index of
    the same files."""
    records = [rec for path in files for rec in read_dataset(path, cfg.skill_roster)]
    return draw_seeds(records, build_index(docs_from_records(records)), cfg, count)


def generate_file(files, cfg: EngineConfig, count: int, out_path, parallelism: int = 1):
    """Run the full scripted pipeline into a file; returns the batch report."""
    seeds = make_seeds(files, cfg, count)
    agents, judge, scorer = scripted_stack(cfg)
    with EpisodeWriter(str(out_path)) as writer:
        return run_batch(
            seeds, agents, judge, scorer, cfg, parallelism=parallelism, write=writer.write
        )


def run_episode(seed, agents, judge, scorer, cfg: EngineConfig, **kwargs) -> Episode:
    """``orchestrator.run_episode`` with the config digest ``run_batch``
    passes it."""
    return orchestrator.run_episode(
        seed, agents, judge, scorer, cfg, digest=config_digest(cfg), **kwargs
    )


def run_bounded(call, timeout: float = 30):
    """``call()`` on a daemon thread of its own, so that the threads it
    starts are daemons too, joined with a timeout: a call that hangs fails
    the test instead of hanging the run. Returns what ``call`` returned, or
    raises what it raised."""
    outcome = []

    def run() -> None:
        try:
            outcome.append((True, call()))
        except BaseException as exc:
            outcome.append((False, exc))

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout)
    if runner.is_alive():
        faulthandler.dump_traceback()  # every thread's stack, into the test's captured stderr
        # concurrent.futures joins its pool threads at exit, daemons too:
        # forget the stranded ones, or the run could not end
        concurrent.futures.thread._threads_queues.clear()
    assert not runner.is_alive(), f"the call did not finish within {timeout} s"
    returned, value = outcome.pop()
    if not returned:
        raise value
    return value


# --- serialization oracle -------------------------------------------------------


def _utterance_obj(utt: Utterance) -> dict:
    return {"speaker": utt.speaker, "text": utt.text}


def _context_set_obj(ctxset: SkillContextSet) -> dict:
    return {entry.skill.id: list(entry.lines) for entry in ctxset}


def _turn_obj(turn: AnnotatedTurn) -> dict:
    return {
        "speaker": turn.utterance.speaker,
        "text": turn.utterance.text,
        "skill": turn.skill_label.id,
        "dist": [float(p) for p in turn.distribution.probs],
        "mic_passed": turn.mic_passed,
        "phase2_attempts": turn.phase2_attempts,
        "refusals": [[r.candidate_skill.id, r.context_skill.id] for r in turn.refusals],
    }


def episode_obj(ep: Episode) -> dict:
    """The episode as a JSON object in the normative key order;
    ``canonical_json`` of it is the reference for ``episode_line``."""
    return {
        "id": ep.id,
        "seed_dataset": ep.seed_dataset.id,
        "seed_pair": [_utterance_obj(u) for u in ep.seed_pair],
        "config_digest": ep.config_digest,
        "contexts": [_context_set_obj(cs) for cs in ep.contexts],
        "turns": [_turn_obj(t) for t in ep.turns],
    }


# --- dataset reader oracle -----------------------------------------------------


def read_dataset_oracle(path: str, roster: Sequence[SkillId]):
    """The dataset reader before its checks ran inline: every field goes
    through dataio's checking helpers in the schema's order, each turn
    becomes an ``Utterance``, and alternation is checked last. Yields
    records holding the turn texts."""
    by_id = {s.id: s for s in roster}
    for line_no, obj in dataio._iter_json_lines(path):
        skill = dataio._field(obj, "skill", by_id, line_no)
        dataio._field(obj, "episode_id", str, line_no)
        raw_contexts = dataio._field(obj, "contexts", list, line_no)
        if len(raw_contexts) != 2:
            raise ParseError(line_no, "contexts", "expected exactly two context arrays")
        sides = [
            dataio._context_lines(raw, line_no, f"contexts[{s}]")
            for s, raw in enumerate(raw_contexts)
        ]
        raw_turns = dataio._field(obj, "turns", list, line_no)
        turns = [dataio._utterance(raw, line_no, f"turns[{i}]") for i, raw in enumerate(raw_turns)]
        for i in range(1, len(turns)):
            if turns[i].speaker == turns[i - 1].speaker:
                raise ParseError(line_no, "turns", f"turns must alternate speakers (turn {i})")
        yield SingleSkillRecord(skill, (sides[0], sides[1]), tuple(u.text for u in turns))


# --- retrieval oracle -----------------------------------------------------------


def build_index_oracle(docs):
    """``build_index`` as it was written before it built postings term by
    term: one token list per document, a per-document (term id, weight)
    vector normalized in first-occurrence order, sorted, then inverted.
    ``build_index`` must equal it bit for bit."""
    import math
    from array import array
    from collections import Counter

    from skillblend.seeds import TfIdfIndex, tokenize

    if not docs:
        raise ValueError("cannot index an empty corpus")
    token_lists = [tokenize(d.text) for d in docs]
    df = Counter()
    for tokens in token_lists:
        df.update(set(tokens))
    terms = sorted(df)
    vocabulary = {t: i for i, t in enumerate(terms)}
    n = len(docs)
    idf = tuple(max(0.0, math.log(n / (1 + df[t])) + 1.0) for t in terms)

    def vector(tokens):
        weights = [(vocabulary[t], count * idf[vocabulary[t]]) for t, count in Counter(tokens).items()]
        # the norm's float depends on summation order: first occurrence, then sort
        norm = math.sqrt(sum(w * w for _, w in weights))
        if norm > 0.0:
            weights.sort()
            return [(tid, w / norm) for tid, w in weights if w != 0.0]
        return []

    positions = [array("i") for _ in terms]
    weights = [array("d") for _ in terms]
    for pos, vec in enumerate(map(vector, token_lists)):
        for tid, w in vec:
            positions[tid].append(pos)
            weights[tid].append(w)
    lengths, all_positions, all_weights = array("i", map(len, positions)), array("i"), array("d")
    for term_positions, term_weights in zip(positions, weights):
        all_positions.extend(term_positions)
        all_weights.extend(term_weights)
    return TfIdfIndex(tuple(terms), lengths, all_positions, all_weights, tuple(docs))



def brute_force_cosines(docs, query_text):
    """Dense tf-idf cosine oracle: same formulas as the index, independent
    arithmetic path (dense vectors, explicit norms)."""
    import math
    from collections import Counter

    from skillblend.seeds import tokenize

    token_lists = [tokenize(d.text) for d in docs]
    terms = sorted({t for toks in token_lists for t in toks})
    n = len(docs)
    df = {t: sum(1 for toks in token_lists if t in toks) for t in terms}
    idf = {t: max(0.0, math.log(n / (1 + df[t])) + 1.0) for t in terms}
    dense = []
    for toks in token_lists:
        counts = Counter(toks)
        dense.append([counts.get(t, 0) * idf[t] for t in terms])
    q_counts = Counter(t for t in tokenize(query_text) if t in idf)
    qvec = [q_counts.get(t, 0) * idf[t] for t in terms]
    qnorm = math.sqrt(sum(x * x for x in qvec))
    out = []
    for pos, row in enumerate(dense):
        norm = math.sqrt(sum(x * x for x in row))
        if qnorm == 0.0 or norm == 0.0:
            continue
        cos = sum(a * b for a, b in zip(qvec, row)) / (qnorm * norm)
        if cos > 0.0:
            out.append((pos, cos))
    out.sort(key=lambda r: (-r[1], r[0]))
    return out


# --- stub backends ------------------------------------------------------------


@dataclass
class TableJudge:
    """NLI stub: a contradiction bit per premise, hypothesis-independent;
    premises not in ``bits`` do not contradict."""

    bits: dict = field(default_factory=dict)

    def judge(self, premises: tuple, hypothesis: str) -> tuple:
        return tuple(self.bits.get(premise, False) for premise in premises)


def consistency_gate_oracle(judge, stx_all: SkillContextSet, res: str) -> GateDecision:
    """The consistency gate as a per-pair loop: each context line goes to
    the judge alone, in roster order then line order, and the first
    contradicted line refuses with that context's skill."""
    for ctx in stx_all:
        for line in ctx.lines:
            (contradicts,) = judge.judge((line,), res)
            if contradicts:
                return GateDecision(False, context_skill=ctx.skill)
    return GateDecision(True)


@dataclass
class TableScorer:
    """Skill-classifier stub backed by a text -> distribution table."""

    roster: tuple
    table: dict = field(default_factory=dict)
    default: SkillDistribution | None = None

    def score(self, text: str) -> SkillDistribution:
        if text in self.table:
            return self.table[text]
        if self.default is not None:
            return self.default
        raise KeyError(text)


@dataclass
class FixedRankAgent:
    """Agent stub whose ranker returns a fixed score vector."""

    skill: SkillId
    scores: list

    def generate(self, stx, dtx, attempt):
        raise NotImplementedError("rank-only stub")

    def rank(self, stx, dtx, candidates):
        return list(self.scores)


def one_hot(index: int, m: int) -> SkillDistribution:
    return SkillDistribution(tuple(1.0 if j == index else 0.0 for j in range(m)))


def uniform(m: int) -> SkillDistribution:
    return SkillDistribution(tuple(1.0 / m for _ in range(m)))


def mini_episode(
    roster,
    label_ids,
    seed_skill_id,
    ep_id="ep-mini",
    dists=None,
    refusal_pairs=(),
    digest="0" * 64,
) -> Episode:
    """Small hand-built episode for statistics tests; labels drive one-hot
    distributions unless explicit ones are given. ``refusal_pairs`` attaches
    (candidate id, context id) refusals to the last turn."""
    by_id = {s.id: s for s in roster}
    texts = [
        "hello there", "hi friend", "good to know", "tell me more", "sounds right",
        "makes sense", "indeed so", "quite true", "very well", "see you later",
    ]
    turns = []
    for i, label_id in enumerate(label_ids):
        label = by_id[label_id]
        dist = dists[i] if dists is not None else one_hot(label.index, len(roster))
        refs = tuple(
            Refusal(by_id[a], by_id[b]) for a, b in (refusal_pairs if i == len(label_ids) - 1 else ())
        )
        turns.append(
            AnnotatedTurn(
                Utterance(i % 2, texts[i % len(texts)]),
                label,
                dist,
                False,
                0 if i < 2 else 1,
                refs,
            )
        )
    contexts = (
        SkillContextSet((SkillContext(roster[0], ("i like to ski",)),)),
        SkillContextSet(()),
    )
    return Episode(
        ep_id,
        by_id[seed_skill_id],
        (turns[0].utterance, turns[1].utterance),
        contexts,
        tuple(turns),
        digest,
    )


def hand_episode(cfg: EngineConfig, ep_id="ep-hand") -> Episode:
    """A fully valid episode under ``cfg`` (labels uniform-tie to the first
    roster skill)."""
    roster = cfg.skill_roster
    labels = [roster[0].id] * cfg.episode_length
    ep = mini_episode(
        roster,
        labels,
        roster[0].id,
        ep_id=ep_id,
        dists=[uniform(len(roster))] * cfg.episode_length,
        digest=config_digest(cfg),
    )
    return ep


# --- statistics oracle ---------------------------------------------------------


def histogram(values: Iterable[float], edges: Sequence[float]) -> dict:
    """Bin ``values`` into half-open bins [edges[i], edges[i+1]); the last
    bin also includes its right edge, and every other value, NaN included,
    is out of range. Returns the report's histogram object: ``edges``,
    ``counts`` and ``out_of_range``. It bins by its own rule, not
    ``distmath.bin_index``, so the report oracle checks that rule too."""
    edge_tuple = tuple(float(e) for e in edges)
    if len(edge_tuple) < 2:
        raise ValueError("need at least two bin edges")
    for lo, hi in zip(edge_tuple, edge_tuple[1:]):
        if not hi > lo:
            raise ValueError("bin edges must be strictly ascending")
    counts = [0] * (len(edge_tuple) - 1)
    out_of_range = 0
    for v in values:
        if edge_tuple[0] <= v < edge_tuple[-1]:
            counts[bisect_right(edge_tuple, v) - 1] += 1
        elif v == edge_tuple[-1]:
            counts[-1] += 1
        else:
            out_of_range += 1
    return {"edges": list(edge_tuple), "counts": counts, "out_of_range": out_of_range}


def skill_percentages(episodes: Sequence[Episode], roster: Sequence[SkillId]) -> list[float]:
    """Share of all annotated turns per roster skill, in percent."""
    position = {s.id: i for i, s in enumerate(roster)}
    counts = [0] * len(roster)
    total = 0
    for ep in episodes:
        for turn in ep.turns:
            counts[position[turn.skill_label.id]] += 1
            total += 1
    if total == 0:
        return [0.0] * len(roster)
    return [100.0 * c / total for c in counts]


def skills_per_dialogue(episodes: Sequence[Episode], roster: Sequence[SkillId]) -> dict[int, int]:
    """Episodes bucketed by how many distinct skills their labels cover."""
    buckets = {n: 0 for n in range(1, len(roster) + 1)}
    for ep in episodes:
        distinct = len({turn.skill_label.id for turn in ep.turns})
        buckets[distinct] += 1
    return buckets


def contradiction_breakdown(
    episodes: Sequence[Episode], roster: Sequence[SkillId]
) -> list[list[int]]:
    """M x M refusal counts by (candidate skill, conflicting context skill)."""
    position = {s.id: i for i, s in enumerate(roster)}
    matrix = [[0] * len(roster) for _ in roster]
    for ep in episodes:
        for turn in ep.turns:
            for refusal in turn.refusals:
                matrix[position[refusal.candidate_skill.id]][position[refusal.context_skill.id]] += 1
    return matrix


def cross_type_share(matrix: Sequence[Sequence[int]]) -> float | None:
    """Off-diagonal refusal mass over the total; None for an empty matrix."""
    total = sum(sum(row) for row in matrix)
    if total == 0:
        return None
    diagonal = sum(matrix[i][i] for i in range(len(matrix)))
    return (total - diagonal) / total


def kld_histogram(
    episodes: Sequence[Episode],
    edges: Sequence[float] | None = None,
    epsilon: float = 0.0,
) -> dict:
    """KL divergence over consecutive annotated-turn distribution pairs
    within each episode."""
    values = []
    for ep in episodes:
        dists = [t.distribution for t in ep.turns]
        for prev, cur in zip(dists, dists[1:]):
            values.append(kl_divergence(prev, cur, epsilon))
    return histogram(values, edges if edges is not None else DEFAULT_KLD_EDGES)


def entropy_histogram(
    episodes: Sequence[Episode], edges: Sequence[float] | None = None
) -> dict:
    """Entropy of every turn's skill distribution across the corpus."""
    values = []
    m = None
    for ep in episodes:
        for turn in ep.turns:
            m = len(turn.distribution.probs)
            values.append(entropy(turn.distribution))
    if edges is None:
        if m is None:
            raise ValueError("explicit edges are required for an empty corpus")
        edges = default_entropy_edges(m)
    return histogram(values, edges)


def continuity_after_seed(
    episodes: Sequence[Episode], roster: Sequence[SkillId], window: int = 1
) -> dict[str, float | None]:
    """Per seed skill: the fraction of the first ``window`` generated turns
    labeled with the seed's skill. None where no episodes contribute."""
    if window < 1:
        raise ValueError("window must be at least 1")
    matches = {s.id: 0 for s in roster}
    totals = {s.id: 0 for s in roster}
    for ep in episodes:
        for turn in ep.turns[2 : 2 + window]:
            totals[ep.seed_dataset.id] += 1
            if turn.skill_label.id == ep.seed_dataset.id:
                matches[ep.seed_dataset.id] += 1
    return {
        sid: (matches[sid] / totals[sid] if totals[sid] else None) for sid in (s.id for s in roster)
    }


def report_oracle(
    episodes: Sequence[Episode], roster: Sequence[SkillId], epsilon: float = 0.0
) -> dict:
    """``stats.build_report`` as it was written before it became one fold:
    one walk of the episode list per statistic. It must equal the fold's
    report."""
    ids = [s.id for s in roster]
    matrix = contradiction_breakdown(episodes, roster)
    return {
        "roster": ids,
        "episodes": len(episodes),
        "turns": sum(len(ep.turns) for ep in episodes),
        "refusal_total": sum(len(t.refusals) for ep in episodes for t in ep.turns),
        "skill_shares": dict(zip(ids, skill_percentages(episodes, roster))),
        "skills_per_dialogue": {
            str(n): c for n, c in sorted(skills_per_dialogue(episodes, roster).items())
        },
        "contradictions": {"matrix": matrix, "cross_type_share": cross_type_share(matrix)},
        "kld_histogram": kld_histogram(episodes, epsilon=epsilon),
        "entropy_histogram": entropy_histogram(episodes, default_entropy_edges(len(roster))),
        "continuity_after_seed": continuity_after_seed(episodes, roster),
    }


# --- raw HTTP ------------------------------------------------------------------

# no proxy from the environment: the suite talks to local mock servers only
_opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def post_raw(url: str, data: bytes) -> tuple[int, bytes]:
    """POST raw bytes with the standard library; returns (status, body) for
    every status, error statuses included."""
    try:
        with _opener.open(urllib.request.Request(url, data=data, method="POST"), timeout=5) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()


def read_request(stream) -> bytes | None:
    """The body of the next HTTP request on a binary stream, by its
    Content-Length; None at the end of the stream."""
    if not stream.readline():
        return None
    length = 0
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return stream.read(length)


class RawServer:
    """A localhost TCP server for transport tests. Each accepted connection
    runs ``serve(sock, number)`` in its own thread, ``number`` counting
    connections from 0; exceptions from ``serve`` end only that thread.
    With no ``serve`` it accepts and never answers. A ``tls`` context
    wraps each connection before ``serve`` sees it. Every connection stays
    open until ``close``, which also waits for the threads."""

    def __init__(self, serve=None, tls=None):
        self._serve = serve
        self._tls = tls
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.02)
        self.port = self._listener.getsockname()[1]
        self.sockets: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._acceptor = threading.Thread(target=self._accept, daemon=True)
        self._acceptor.start()

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.sockets.append(sock)
            if self._serve is not None:
                worker = threading.Thread(
                    target=self._run, args=(sock, len(self.sockets) - 1), daemon=True
                )
                self._threads.append(worker)
                worker.start()

    def _run(self, sock: socket.socket, number: int) -> None:
        try:
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_side=True)
                self.sockets.append(sock)
            self._serve(sock, number)
        except OSError:
            pass

    def close(self) -> None:
        self._stop.set()
        self._acceptor.join(timeout=5)
        self._listener.close()
        for sock in self.sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # closed already, or never connected
        for worker in self._threads:
            worker.join(timeout=5)
        for sock in self.sockets:
            sock.close()

    def __enter__(self) -> "RawServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Shared fixture data, stub backends, and pipeline shortcuts for the suite."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from skillblend import orchestrator
from skillblend.agents import default_scripted_agents
from skillblend.classifiers import (
    LexicalNliJudge,
    LexicalSkillScorer,
    NliLabel,
    NliVerdict,
    default_lexicon,
)
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
from skillblend.dataio import EpisodeWriter, extract_pairs, read_dataset
from skillblend.orchestrator import run_batch
from skillblend.seeds import build_index, build_seeds, docs_from_records, iter_seed_pairs

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


def write_corpus(dirpath) -> list[str]:
    """Write the three single-skill dataset files; returns their paths."""
    paths = []
    for name, records in (
        ("personas.jsonl", persona_records()),
        ("knowledge.jsonl", knowledge_records()),
        ("empathy.jsonl", empathy_records()),
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
    records = [rec for path in files for rec in read_dataset(path, cfg.skill_roster)]
    pairs_by_skill = {s.id: [] for s in cfg.skill_roster}
    for pair, skill in extract_pairs(records):
        pairs_by_skill[skill.id].append(pair)
    index = build_index(docs_from_records(records))
    stream = iter_seed_pairs(pairs_by_skill, cfg.skill_roster, cfg.rng_seed)
    seeds = []
    budget = 100 * count
    while len(seeds) < count:
        assert budget > 0, "fixture corpus failed to produce seeds"
        budget -= 1
        pair, skill = next(stream)
        seeds.extend(build_seeds(pair, skill, index, cfg))
    return seeds[:count]


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


# --- retrieval oracle -----------------------------------------------------------


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
    for d, row in zip(docs, dense):
        norm = math.sqrt(sum(x * x for x in row))
        if qnorm == 0.0 or norm == 0.0:
            continue
        cos = sum(a * b for a, b in zip(qvec, row)) / (qnorm * norm)
        if cos > 0.0:
            out.append((d.doc_id, cos))
    out.sort(key=lambda r: (-r[1], r[0]))
    return out


# --- stub backends ------------------------------------------------------------


@dataclass
class TableJudge:
    """NLI stub: per-premise labels, hypothesis-independent."""

    labels: dict = field(default_factory=dict)
    default: NliLabel = NliLabel.NEUTRAL

    def judge(self, premise: str, hypothesis: str) -> NliVerdict:
        label = self.labels.get(premise, self.default)
        return NliVerdict(label, 1.0 if label is not NliLabel.NEUTRAL else 0.5)


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
                Utterance(i % 2, i, texts[i % len(texts)]),
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

"""TF-IDF retrieval over skill-context corpora and seed-episode construction.

The index is a plain unigram tf-idf with smoothed natural-log idf and cosine
similarity. It is built once, immutable afterwards, and safe to query from
concurrent workers. Seed construction retrieves rank-aligned context
variants for each skill and speaker side, following the shipped role
templates (side 0 gets the speaker-side flavor of every skill, side 1 the
counterpart flavor with no empathy grounding).
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Sequence

from .core import EngineConfig, SkillContext, SkillContextSet, SkillId, Utterance

_TOKEN_RE = re.compile(r"[a-z0-9]+")

INDEX_FORMAT = "skillblend-tfidf"
INDEX_VERSION = 1


def tokenize(text: str) -> list[str]:
    """Lowercase terms: maximal runs of ASCII alphanumerics; everything else
    separates. No stemming, no stop-word removal."""
    return _TOKEN_RE.findall(text.lower())


class SideRole(Enum):
    """Which flavor of a record's contexts a document came from: side 0 of
    the source record is the primary role, side 1 the counterpart."""

    PRIMARY = "primary"
    COUNTERPART = "counterpart"


@dataclass(frozen=True)
class ContextDoc:
    """One retrievable skill context: the lines of one record side."""

    doc_id: int
    skill: SkillId
    side_role: SideRole
    lines: tuple[str, ...]

    @property
    def text(self) -> str:
        """All context lines joined by a single space."""
        return " ".join(self.lines)


@dataclass(frozen=True)
class TfIdfIndex:
    """Immutable tf-idf index; doc_vectors are L2-normalized sparse maps
    from term id to weight, aligned positionally with ``docs``. Every
    document's id equals its position in ``docs``."""

    vocabulary: Mapping[str, int]
    idf: tuple[float, ...]
    doc_vectors: tuple[Mapping[int, float], ...]
    docs: tuple[ContextDoc, ...]

    def __post_init__(self) -> None:
        for pos, d in enumerate(self.docs):
            if d.doc_id != pos:
                raise ValueError(f"document id {d.doc_id} differs from its position {pos}")

    @property
    def doc_count(self) -> int:
        return len(self.docs)

    def doc(self, doc_id: int) -> ContextDoc:
        if not 0 <= doc_id < len(self.docs):
            raise KeyError(f"no document with id {doc_id}")
        return self.docs[doc_id]


@dataclass(frozen=True)
class SeedEpisode:
    """Seed for one episode: the utterance pair, per-side contexts, and the
    initially active skill (always the pair's provenance skill)."""

    seed_dataset: SkillId
    pair: tuple[Utterance, Utterance]
    contexts: tuple[SkillContextSet, SkillContextSet]
    initial_active: SkillId
    variant_index: int

    def __post_init__(self) -> None:
        if self.initial_active.id != self.seed_dataset.id:
            raise ValueError("initial active skill must match the seed dataset")
        if self.variant_index < 0:
            raise ValueError("variant index must be non-negative")


def build_index(docs: Sequence[ContextDoc]) -> TfIdfIndex:
    """Index documents with tf = raw term count and
    idf = max(0, ln(N / (1 + df)) + 1); vectors are L2-normalized. Document
    ids must equal their positions, as ``docs_from_records`` assigns them."""
    if not docs:
        raise ValueError("cannot index an empty corpus")
    token_lists = [tokenize(d.text) for d in docs]
    df: Counter[str] = Counter()
    for tokens in token_lists:
        df.update(set(tokens))
    terms = sorted(df)
    vocabulary = {t: i for i, t in enumerate(terms)}
    n = len(docs)
    idf = tuple(max(0.0, math.log(n / (1 + df[t])) + 1.0) for t in terms)
    vectors = []
    for tokens in token_lists:
        weights = {
            vocabulary[t]: count * idf[vocabulary[t]] for t, count in Counter(tokens).items()
        }
        norm = math.sqrt(sum(w * w for w in weights.values()))
        if norm > 0.0:
            vectors.append({tid: w / norm for tid, w in weights.items() if w != 0.0})
        else:
            vectors.append({})
    return TfIdfIndex(vocabulary, idf, tuple(vectors), tuple(docs))


def query(
    index: TfIdfIndex,
    text: str,
    k: int,
    filter_skill: SkillId | None = None,
    filter_role: SideRole | None = None,
) -> list[tuple[int, float]]:
    """Top-k documents by cosine similarity, descending, ties by ascending
    doc id. Zero-score documents are excluded, so fewer than k results may
    come back."""
    if k < 1:
        raise ValueError("k must be at least 1")
    counts = Counter(t for t in tokenize(text) if t in index.vocabulary)
    qvec = {index.vocabulary[t]: c * index.idf[index.vocabulary[t]] for t, c in counts.items()}
    qnorm = math.sqrt(sum(w * w for w in qvec.values()))
    if qnorm == 0.0:
        return []
    results: list[tuple[int, float]] = []
    for pos, doc in enumerate(index.docs):
        if filter_skill is not None and doc.skill.id != filter_skill.id:
            continue
        if filter_role is not None and doc.side_role is not filter_role:
            continue
        vec = index.doc_vectors[pos]
        dot = sum(qw * vec.get(tid, 0.0) for tid, qw in qvec.items())
        score = dot / qnorm
        if score > 0.0:
            results.append((doc.doc_id, score))
    results.sort(key=lambda r: (-r[1], r[0]))
    return results[:k]


RoleTemplate = tuple[dict[str, SideRole], dict[str, SideRole]]


def default_role_template(roster: Sequence[SkillId]) -> RoleTemplate:
    """Shipped per-side context assignment: side 0 draws the primary flavor
    of every skill (persona, topic-only, situation + emotion); side 1 draws
    the counterpart flavor (persona, topic with knowledge) and carries no
    empathy context."""
    side0 = {s.id: SideRole.PRIMARY for s in roster}
    side1 = {s.id: SideRole.COUNTERPART for s in roster if s.id != "E"}
    return side0, side1


def build_seeds(
    pair: tuple[Utterance, Utterance],
    seed_dataset: SkillId,
    index: TfIdfIndex,
    cfg: EngineConfig,
    role_template: RoleTemplate | None = None,
) -> list[SeedEpisode]:
    """Assemble up to ``cfg.seeds_per_pair`` seed variants for one utterance
    pair.

    The query is the concatenation of both pair texts. Variant v pairs the
    v-th ranked context of every (skill, role) bucket together; when a
    bucket has fewer than v+1 hits, that skill's entry is simply omitted
    for the variant. Variants with no context at all are dropped.
    """
    first, second = pair
    if not first.text.strip() or not second.text.strip():
        raise ValueError("seed pair texts must be non-blank")
    template = role_template if role_template is not None else default_role_template(cfg.skill_roster)
    query_text = first.text + " " + second.text

    buckets: dict[tuple[str, SideRole], list[ContextDoc]] = {}
    needed = {(sid, role) for side in template for sid, role in side.items()}
    for skill in cfg.skill_roster:
        for role in (SideRole.PRIMARY, SideRole.COUNTERPART):
            if (skill.id, role) in needed:
                hits = query(index, query_text, cfg.seeds_per_pair, skill, role)
                buckets[(skill.id, role)] = [index.doc(doc_id) for doc_id, _ in hits]

    norm_pair = (Utterance(0, 0, first.text), Utterance(1, 1, second.text))
    seeds: list[SeedEpisode] = []
    for variant in range(cfg.seeds_per_pair):
        sides: list[SkillContextSet] = []
        any_context = False
        for side_spec in template:
            entries: list[SkillContext] = []
            for skill in cfg.skill_roster:
                role = side_spec.get(skill.id)
                if role is None:
                    continue
                docs = buckets.get((skill.id, role), [])
                if variant < len(docs):
                    entries.append(SkillContext(skill, docs[variant].lines))
                    any_context = True
            sides.append(SkillContextSet(tuple(entries)))
        if any_context:
            seeds.append(
                SeedEpisode(seed_dataset, norm_pair, (sides[0], sides[1]), seed_dataset, variant)
            )
    return seeds


def iter_seed_pairs(
    pairs_by_skill: Mapping[str, Sequence[tuple[Utterance, Utterance]]],
    roster: Sequence[SkillId],
    rng_seed: int,
) -> Iterator[tuple[tuple[Utterance, Utterance], SkillId]]:
    """Seeded stream of (pair, provenance skill): dataset chosen uniformly
    over the roster, then a pair uniformly within that dataset."""
    for skill in roster:
        if not pairs_by_skill.get(skill.id):
            raise ValueError(f"no seed pairs available for skill {skill.id!r}")
    rng = random.Random(rng_seed)
    while True:
        skill = roster[rng.randrange(len(roster))]
        pool = pairs_by_skill[skill.id]
        yield pool[rng.randrange(len(pool))], skill


def sample_seed_pairs(
    pairs_by_skill: Mapping[str, Sequence[tuple[Utterance, Utterance]]],
    roster: Sequence[SkillId],
    count: int,
    rng_seed: int,
) -> list[tuple[tuple[Utterance, Utterance], SkillId]]:
    stream = iter_seed_pairs(pairs_by_skill, roster, rng_seed)
    return [next(stream) for _ in range(count)]


def docs_from_records(records) -> list[ContextDoc]:
    """Turn dataset records into the retrieval corpus: each record side with
    any context lines becomes one document (side 0 primary, side 1
    counterpart); empty sides carry no seed information and are skipped."""
    docs: list[ContextDoc] = []
    for rec in records:
        for side, role in ((0, SideRole.PRIMARY), (1, SideRole.COUNTERPART)):
            lines = rec.side_contexts[side]
            if lines:
                docs.append(ContextDoc(len(docs), rec.skill, role, tuple(lines)))
    return docs


def save_index(index: TfIdfIndex, path: str) -> None:
    """Persist the index as a single versioned JSON file."""
    obj = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "doc_count": index.doc_count,
        "vocabulary": dict(index.vocabulary),
        "idf": list(index.idf),
        "docs": [
            {
                "doc_id": d.doc_id,
                "skill": {"id": d.skill.id, "index": d.skill.index},
                "role": d.side_role.value,
                "lines": list(d.lines),
            }
            for d in index.docs
        ],
        "vectors": [
            [[tid, w] for tid, w in sorted(vec.items())] for vec in index.doc_vectors
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"), ensure_ascii=False)


def load_index(path: str) -> TfIdfIndex:
    """Load a persisted index, validating the header, the document count
    and that every document id equals its position."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or obj.get("format") != INDEX_FORMAT:
        raise ValueError(f"{path}: not a {INDEX_FORMAT} file")
    if obj.get("version") != INDEX_VERSION:
        raise ValueError(f"{path}: unsupported index version {obj.get('version')!r}")
    docs = tuple(
        ContextDoc(
            d["doc_id"],
            SkillId(d["skill"]["id"], d["skill"]["index"]),
            SideRole(d["role"]),
            tuple(d["lines"]),
        )
        for d in obj["docs"]
    )
    vectors = tuple({int(tid): float(w) for tid, w in vec} for vec in obj["vectors"])
    if obj.get("doc_count") != len(docs) or len(vectors) != len(docs):
        raise ValueError(f"{path}: document count does not match header")
    try:
        return TfIdfIndex(obj["vocabulary"], tuple(float(x) for x in obj["idf"]), vectors, docs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

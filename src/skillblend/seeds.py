"""TF-IDF retrieval over skill-context corpora and seed-episode construction.

The index is a plain unigram tf-idf with smoothed natural-log idf and cosine
similarity, stored as an inverted index: each term maps to the documents
that contain it. It is built once, immutable afterwards, and safe to query
from concurrent workers. Seed construction retrieves rank-aligned context
variants for each skill and speaker side, following the shipped role
templates (side 0 gets the speaker-side flavor of every skill, side 1 the
counterpart flavor with no empathy grounding).
"""

from __future__ import annotations

import heapq
import json
import math
import random
import re
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from .core import EngineConfig, SkillContext, SkillContextSet, SkillId, Utterance

_TOKEN_RE = re.compile(r"[a-z0-9]+")

INDEX_FORMAT = "skillblend-tfidf"
INDEX_VERSION = 1

# documents per json.dumps call when saving an index
_SAVE_CHUNK = 1024


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
    """Immutable tf-idf index. ``postings[term id]`` holds the positions of
    the documents containing the term (ascending) and the term's weight in
    each of their L2-normalized vectors. Every document's id equals its
    position in ``docs``; ``buckets`` lists the positions of each
    (skill id, side role) in ascending order."""

    vocabulary: Mapping[str, int]
    idf: tuple[float, ...]
    postings: tuple[tuple[array, array], ...]
    docs: tuple[ContextDoc, ...]
    buckets: Mapping[tuple[str, SideRole], array] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        buckets: dict[tuple[str, SideRole], array] = {}
        for pos, d in enumerate(self.docs):
            if d.doc_id != pos:
                raise ValueError(f"document id {d.doc_id} differs from its position {pos}")
            buckets.setdefault((d.skill.id, d.side_role), array("i")).append(pos)
        object.__setattr__(self, "buckets", buckets)

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


def _postings(
    vectors: Iterable[Iterable[tuple[int, float]]], vocab_size: int
) -> tuple[tuple[array, array], ...]:
    """Invert per-document (term id, weight) vectors, given in position
    order, into postings, consuming one document at a time. Term ids must be
    ints in [0, vocab_size) that strictly ascend within each vector, and
    weights finite numbers; a repeated term id would add up its weights.
    Raises ValueError (TypeError for a non-numeric weight) otherwise."""
    positions = [array("i") for _ in range(vocab_size)]
    weights = [array("d") for _ in range(vocab_size)]
    for pos, vec in enumerate(vectors):
        prev = -1
        for tid, w in vec:
            if type(tid) is not int or not prev < tid < vocab_size:
                raise ValueError(
                    f"document {pos}: term id {tid!r} is not an int in [0, {vocab_size})"
                    f" above the previous term id {prev}"
                )
            prev = tid
            positions[tid].append(pos)
            weights[tid].append(w)
    for tid, ws in enumerate(weights):
        if not all(map(math.isfinite, ws)):
            raise ValueError(f"term id {tid}: a weight is not finite")
    return tuple(zip(positions, weights))


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

    def vector(tokens: list[str]) -> list[tuple[int, float]]:
        weights = [(vocabulary[t], count * idf[vocabulary[t]]) for t, count in Counter(tokens).items()]
        # the norm's float depends on summation order: first occurrence, then sort
        norm = math.sqrt(sum(w * w for _, w in weights))
        if norm > 0.0:
            weights.sort()
            return [(tid, w / norm) for tid, w in weights if w != 0.0]
        return []

    return TfIdfIndex(vocabulary, idf, _postings(map(vector, token_lists), len(terms)), tuple(docs))


def _scores(index: TfIdfIndex, text: str) -> list[float]:
    """Cosine similarity of ``text`` to every document, by position.

    Each document's dot product adds its terms' products in query-term
    order, as a dense left-to-right sum over the query terms would: the
    terms a document lacks would only add +0.0."""
    counts = Counter(t for t in tokenize(text) if t in index.vocabulary)
    qvec = [(index.vocabulary[t], c * index.idf[index.vocabulary[t]]) for t, c in counts.items()]
    qnorm = math.sqrt(sum(w * w for _, w in qvec))
    dots = [0.0] * index.doc_count
    if qnorm == 0.0:
        return dots
    for tid, qw in qvec:
        for pos, w in zip(*index.postings[tid]):
            dots[pos] += qw * w
    return [dot / qnorm for dot in dots]


def _top(scores: list[float], positions: Iterable[int], k: int) -> list[tuple[int, float]]:
    """The k best of ``positions`` (which must ascend) with a positive score,
    as (doc id, score): descending score, ties by ascending doc id.
    ``nlargest`` equals a stable ``sorted(..., reverse=True)[:k]``, so tied
    positions keep their ascending order."""
    best = heapq.nlargest(k, positions, key=scores.__getitem__)
    return [(pos, scores[pos]) for pos in best if scores[pos] > 0.0]


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
    positions = (
        pos
        for pos, d in enumerate(index.docs)
        if (filter_skill is None or d.skill.id == filter_skill.id)
        and (filter_role is None or d.side_role is filter_role)
    )
    return _top(_scores(index, text), positions, k)


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

    The query is the concatenation of both pair texts, scored once against
    the index; each (skill, role) bucket keeps its top hits as ``query``
    would rank them. Variant v pairs the v-th ranked context of every
    bucket together; when a bucket has fewer than v+1 hits, that skill's
    entry is simply omitted for the variant. Variants with no context at
    all are dropped.
    """
    first, second = pair
    if not first.text.strip() or not second.text.strip():
        raise ValueError("seed pair texts must be non-blank")
    template = role_template if role_template is not None else default_role_template(cfg.skill_roster)
    query_text = first.text + " " + second.text

    scores = _scores(index, query_text)
    needed = {(sid, role) for side in template for sid, role in side.items()}
    buckets = {
        key: [index.docs[pos] for pos, _ in _top(scores, positions, cfg.seeds_per_pair)]
        for key, positions in index.buckets.items()
        if key in needed
    }

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


def _doc_rows(index: TfIdfIndex) -> Iterator[list[dict]]:
    """The stored form of the documents, in chunks of consecutive ones."""
    for lo in range(0, index.doc_count, _SAVE_CHUNK):
        yield [
            {
                "doc_id": d.doc_id,
                "skill": {"id": d.skill.id, "index": d.skill.index},
                "role": d.side_role.value,
                "lines": list(d.lines),
            }
            for d in index.docs[lo : lo + _SAVE_CHUNK]
        ]


def _vector_rows(index: TfIdfIndex) -> Iterator[list[list[list]]]:
    """The per-document ``[[term id, weight], ...]`` rows, term ids
    ascending, in chunks of consecutive documents rebuilt from the
    postings."""
    cursors = [0] * len(index.postings)
    for lo in range(0, index.doc_count, _SAVE_CHUNK):
        hi = min(lo + _SAVE_CHUNK, index.doc_count)
        rows: list[list[list]] = [[] for _ in range(lo, hi)]
        for tid, (positions, weights) in enumerate(index.postings):
            start = cursors[tid]
            end = cursors[tid] = bisect_left(positions, hi, start)
            for pos, w in zip(positions[start:end], weights[start:end]):
                rows[pos - lo].append([tid, w])
        yield rows


def _write_json_array(fh, chunks: Iterable[list]) -> None:
    """Write the concatenation of ``chunks`` as one compact JSON array."""
    fh.write("[")
    sep = ""
    for chunk in chunks:
        fh.write(sep + _dumps(chunk)[1:-1])
        sep = ","
    fh.write("]")


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def save_index(index: TfIdfIndex, path: str) -> None:
    """Persist the index as a single versioned JSON file. The file holds
    per-document vectors (``[[term id, weight], ...]``, term ids ascending);
    it is written a chunk of documents at a time."""
    header = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "doc_count": index.doc_count,
        "vocabulary": dict(index.vocabulary),
        "idf": list(index.idf),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header)[:-1] + ',"docs":')
        _write_json_array(fh, _doc_rows(index))
        fh.write(',"vectors":')
        _write_json_array(fh, _vector_rows(index))
        fh.write("}")


def load_index(path: str) -> TfIdfIndex:
    """Load a persisted index, validating the header, the document count,
    every vector entry (see ``_postings``) and that every document id
    equals its position. Documents of one skill share one ``SkillId``."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or obj.get("format") != INDEX_FORMAT:
        raise ValueError(f"{path}: not a {INDEX_FORMAT} file")
    if obj.get("version") != INDEX_VERSION:
        raise ValueError(f"{path}: unsupported index version {obj.get('version')!r}")
    skills: dict[tuple[str, int], SkillId] = {}
    roles = {r.value: r for r in SideRole}  # a dict lookup is cheaper than SideRole(value)
    docs = []
    for d in obj["docs"]:
        key = (d["skill"]["id"], d["skill"]["index"])
        skill = skills.get(key) or skills.setdefault(key, SkillId(*key))
        role = roles.get(d["role"])
        if role is None:
            raise ValueError(f"{path}: unknown side role {d['role']!r}")
        docs.append(ContextDoc(d["doc_id"], skill, role, tuple(d["lines"])))
    vectors = obj["vectors"]
    if obj.get("doc_count") != len(docs) or len(vectors) != len(docs):
        raise ValueError(f"{path}: document count does not match header")
    vocabulary = obj["vocabulary"]
    try:
        postings = _postings(vectors, len(vocabulary))
        return TfIdfIndex(vocabulary, tuple(float(x) for x in obj["idf"]), postings, tuple(docs))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None

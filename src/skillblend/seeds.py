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

import base64
import heapq
import json
import math
import os
import random
import re
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from operator import lt, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .core import ConfigError, EngineConfig, SkillContext, SkillContextSet, SkillId, compact_json

_TOKEN_RE = re.compile(r"[a-z0-9]+")

INDEX_FORMAT = "skillblend-tfidf"
INDEX_VERSION = 3

# documents per compact_json call when saving an index
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
    """One retrievable skill context: the lines of one record side of the
    skill ``skill_id``."""

    skill_id: str
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
    each of their L2-normalized vectors. A document's position in ``docs``
    is its id; ``buckets`` lists the positions of each (skill id, side
    role) in ascending order."""

    vocabulary: Mapping[str, int]
    idf: tuple[float, ...]
    postings: tuple[tuple[array, array], ...]
    docs: tuple[ContextDoc, ...]
    buckets: Mapping[tuple[str, SideRole], array] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        buckets: dict[tuple[str, SideRole], array] = {}
        for pos, d in enumerate(self.docs):
            buckets.setdefault((d.skill_id, d.side_role), array("i")).append(pos)
        object.__setattr__(self, "buckets", buckets)

    @property
    def doc_count(self) -> int:
        return len(self.docs)

    def doc(self, pos: int) -> ContextDoc:
        if not 0 <= pos < len(self.docs):
            raise KeyError(f"no document at position {pos}")
        return self.docs[pos]


@dataclass(frozen=True)
class SeedEpisode:
    """Seed for one episode: the texts of a dataset's consecutive turn pair
    and per-side contexts. The pair's provenance skill ``seed_dataset`` is
    also the initially active skill; the episode seats the pair."""

    seed_dataset: SkillId
    pair: tuple[str, str]
    contexts: tuple[SkillContextSet, SkillContextSet]


def build_index(docs: Sequence[ContextDoc]) -> TfIdfIndex:
    """Index documents with tf = raw term count and
    idf = max(0, ln(N / (1 + df)) + 1); vectors are L2-normalized.

    Each document is tokenized once into term ids and counts; the ids are
    numbered in order of first appearance until the vocabulary is sorted at
    the end. The postings are then built term by term: df is a term's
    postings length and each weight is count * idf / norm, where a
    document's norm sums its squared weights in the order its terms first
    occur (the float depends on that order). Since df <= N, idf > 0, so
    every weight is positive and a document without tokens has no entry."""
    if not docs:
        raise ValueError("cannot index an empty corpus")
    ids: dict[str, int] = {}
    positions: list[array] = []  # per term id: the documents holding it, ascending
    counts: list[array] = []  # per term id: its count in each of those documents
    doc_terms, doc_counts, ends = array("i"), array("i"), array("i")  # per document, concatenated
    for pos, d in enumerate(docs):
        for term, count in Counter(tokenize(d.text)).items():
            tid = ids.get(term)
            if tid is None:
                tid = ids[term] = len(positions)
                positions.append(array("i"))
                counts.append(array("i"))
            positions[tid].append(pos)
            counts[tid].append(count)
            doc_terms.append(tid)
            doc_counts.append(count)
        ends.append(len(doc_terms))
    n = len(docs)
    idf = [max(0.0, math.log(n / (1 + len(p))) + 1.0) for p in positions]
    norms = array("d")
    start = 0
    for end in ends:
        weights = map(mul, doc_counts[start:end], map(idf.__getitem__, doc_terms[start:end]))
        norms.append(math.sqrt(sum(w * w for w in weights)))
        start = end

    terms = sorted(ids)
    postings = []
    for term in terms:
        tid = ids[term]
        term_idf = idf[tid]
        term_weights = [c * term_idf / norms[p] for p, c in zip(positions[tid], counts[tid])]
        postings.append((positions[tid], array("d", term_weights)))
    vocabulary = {t: i for i, t in enumerate(terms)}
    return TfIdfIndex(vocabulary, tuple(idf[ids[t]] for t in terms), tuple(postings), tuple(docs))


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
    as (position, score): descending score, ties by ascending position.
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
    """Top-k documents as (position, score) by cosine similarity, descending,
    ties by ascending position. Zero-score documents are excluded, so fewer
    than k results may come back."""
    if k < 1:
        raise ValueError("k must be at least 1")
    positions = (
        pos
        for pos, d in enumerate(index.docs)
        if (filter_skill is None or d.skill_id == filter_skill.id)
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
    pair: tuple[str, str],
    seed_dataset: SkillId,
    index: TfIdfIndex,
    cfg: EngineConfig,
) -> list[SeedEpisode]:
    """Assemble up to ``cfg.seeds_per_pair`` seed variants for one pair of
    utterance texts.

    The query is the concatenation of both pair texts, scored once against
    the index; each (skill, role) bucket keeps its top hits as ``query``
    would rank them. Variant v pairs the v-th ranked context of every
    bucket together; when a bucket has fewer than v+1 hits, that skill's
    entry is simply omitted for the variant. Variants with no context at
    all are dropped; a variant is empty only when every bucket has at most
    v hits, so only a suffix is dropped and the seed at position v of the
    list is variant v. Every variant carries ``pair`` itself.
    """
    first, second = pair
    if not first.strip() or not second.strip():
        raise ValueError("seed pair texts must be non-blank")
    template = default_role_template(cfg.skill_roster)
    query_text = first + " " + second

    scores = _scores(index, query_text)
    needed = {(sid, role) for side in template for sid, role in side.items()}
    buckets = {
        key: [index.docs[pos] for pos, _ in _top(scores, positions, cfg.seeds_per_pair)]
        for key, positions in index.buckets.items()
        if key in needed
    }

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
            seeds.append(SeedEpisode(seed_dataset, pair, (sides[0], sides[1])))
    return seeds


def iter_seed_pairs(
    records: Iterable, roster: Sequence[SkillId], rng_seed: int
) -> Iterator[tuple[tuple[str, str], SkillId]]:
    """Seeded endless stream of (pair texts, provenance skill) over dataset
    records: the skill chosen uniformly over the roster, then uniformly one
    consecutive turn pair of that skill's records (pairs in record order).
    Reads ``records`` once, at once, pooling each record's consecutive turn
    texts; raises ConfigError when a roster skill has no pair."""
    pools: dict[str, list[tuple[str, str]]] = {s.id: [] for s in roster}
    for rec in records:
        pools[rec.skill.id].extend(zip(rec.turns, rec.turns[1:]))
    for skill in roster:
        if not pools[skill.id]:
            raise ConfigError(f"no seed pairs available for skill {skill.id!r}")
    rng = random.Random(rng_seed)

    def draw() -> Iterator[tuple[tuple[str, str], SkillId]]:
        while True:
            skill = roster[rng.randrange(len(roster))]
            pool = pools[skill.id]
            yield pool[rng.randrange(len(pool))], skill

    return draw()


def docs_from_records(records) -> list[ContextDoc]:
    """Turn dataset records into the retrieval corpus: each record side with
    any context lines becomes one document (side 0 primary, side 1
    counterpart); empty sides carry no seed information and are skipped."""
    docs: list[ContextDoc] = []
    for rec in records:
        for side, role in ((0, SideRole.PRIMARY), (1, SideRole.COUNTERPART)):
            lines = rec.side_contexts[side]
            if lines:
                docs.append(ContextDoc(rec.skill.id, role, tuple(lines)))
    return docs


def _doc_rows(index: TfIdfIndex) -> Iterator[list[list]]:
    """The stored form of the documents, ``[skill id, side role, lines]``
    rows, in chunks of consecutive ones."""
    for lo in range(0, index.doc_count, _SAVE_CHUNK):
        yield [[d.skill_id, d.side_role.value, list(d.lines)] for d in index.docs[lo : lo + _SAVE_CHUNK]]


def _write_json_array(fh, chunks: Iterable[list]) -> None:
    """Write the concatenation of ``chunks`` as one compact JSON array."""
    fh.write("[")
    sep = ""
    for chunk in chunks:
        fh.write(sep + compact_json(chunk)[1:-1])
        sep = ","
    fh.write("]")


def _blob(values: array) -> str:
    """``values`` as little-endian bytes, base64-encoded. Byte-swaps
    ``values`` in place on a big-endian host."""
    if sys.byteorder == "big":
        values.byteswap()
    return base64.b64encode(values).decode("ascii")


def _unblob(postings: Mapping, key: str, typecode: str) -> array:
    """Decode the little-endian base64 blob ``postings[key]``."""
    raw = postings.get(key)
    if not isinstance(raw, str):
        raise ValueError(f"postings {key!r} is not a base64 string")
    try:
        data = base64.b64decode(raw, validate=True)
    except ValueError as exc:
        raise ValueError(f"postings {key!r} is not valid base64 ({exc})") from None
    values = array(typecode)
    if len(data) % values.itemsize:
        raise ValueError(f"postings {key!r} holds {len(data)} bytes, not a multiple of {values.itemsize}")
    values.frombytes(data)
    if sys.byteorder == "big":
        values.byteswap()
    return values


def save_index(index: TfIdfIndex, path: str) -> None:
    """Persist the index as a single versioned JSON file: a header, the
    document rows (written a chunk at a time; a row's position is its
    document's id) and the postings as three little-endian base64 blobs
    (int32 ``lengths`` per term id, int32 ``positions`` and float64
    ``weights`` of every term in term-id order).

    The file is written under a temporary name next to ``path`` and renamed
    over it once complete, so a failed save leaves any previous file intact.
    """
    header = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "doc_count": index.doc_count,
        "vocabulary": dict(index.vocabulary),
        "idf": list(index.idf),
    }
    lengths, positions, weights = array("i"), array("i"), array("d")
    for term_positions, term_weights in index.postings:
        lengths.append(len(term_positions))
        positions.extend(term_positions)
        weights.extend(term_weights)
    postings = {"lengths": _blob(lengths), "positions": _blob(positions), "weights": _blob(weights)}
    # named per process: concurrent saves of one path must come from different processes
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(compact_json(header)[:-1] + ',"docs":')
            _write_json_array(fh, _doc_rows(index))
            fh.write(',"postings":' + compact_json(postings) + "}")
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            # name the file asked for, not its temporary twin
            exc.filename, exc.filename2 = path, None
        raise


def load_index(path: str) -> TfIdfIndex:
    """Load a persisted index. Raises ValueError naming the file when it is
    not JSON, not a version-3 index, or fails a check of ``_decode_index``."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: not a JSON file ({exc})") from None
    try:
        return _decode_index(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _decode_index(obj) -> TfIdfIndex:
    """Build the index from a parsed file, checking the header, every
    document row (its context lines non-blank, as the dataset reader
    requires), that the vocabulary ids are exactly 0..V-1, that ``idf``
    holds V finite numbers, and that the postings hold one non-negative
    length per term, agree in size, and give each term finite weights and
    strictly ascending positions inside [0, doc_count)."""
    if not isinstance(obj, dict) or obj.get("format") != INDEX_FORMAT:
        raise ValueError(f"not a {INDEX_FORMAT} file")
    if obj.get("version") != INDEX_VERSION:
        raise ValueError(
            f"unsupported index version {obj.get('version')!r}; re-run `skillblend index` to rebuild it"
        )
    vocabulary = obj.get("vocabulary")
    if (
        not isinstance(vocabulary, dict)
        or not set(map(type, vocabulary.values())) <= {int}
        or sorted(vocabulary.values()) != list(range(len(vocabulary)))
    ):
        raise ValueError("vocabulary is not an object mapping terms to the ids 0..V-1")
    idf = obj.get("idf")
    if (
        not isinstance(idf, list)
        or len(idf) != len(vocabulary)
        or not set(map(type, idf)) <= {int, float}
        or not all(map(math.isfinite, idf))
    ):
        raise ValueError(f"idf is not a list of {len(vocabulary)} finite numbers")
    rows = obj.get("docs")
    if not isinstance(rows, list):
        raise ValueError("docs is not a list")
    if type(obj.get("doc_count")) is not int or obj["doc_count"] != len(rows):
        raise ValueError("document count does not match header")

    roles = {r.value: r for r in SideRole}  # a dict lookup is cheaper than SideRole(value)
    docs: list[ContextDoc] = []
    try:
        for row in rows:
            if type(row) is not list or len(row) != 3:
                raise ValueError("not a [skill id, side role, lines] row")
            skill_id, role_value, lines = row
            if type(skill_id) is not str or not skill_id.strip():
                raise ValueError(f"skill id {skill_id!r} is not a non-blank string")
            role = roles.get(role_value) if type(role_value) is str else None
            if role is None:
                raise ValueError(f"unknown side role {role_value!r}")
            if type(lines) is not list or not all(map(isinstance, lines, repeat(str))):
                raise ValueError("lines is not a list of strings")
            if "" in lines or any(map(str.isspace, lines)):
                raise ValueError("context lines must be non-blank")
            docs.append(ContextDoc(skill_id, role, tuple(lines)))
    except ValueError as exc:
        raise ValueError(f"document {len(docs)}: {exc}") from None

    blobs = obj.get("postings")
    if not isinstance(blobs, dict):
        raise ValueError("postings is not an object")
    lengths = _unblob(blobs, "lengths", "i")
    positions = _unblob(blobs, "positions", "i")
    weights = _unblob(blobs, "weights", "d")
    if len(lengths) != len(vocabulary) or (lengths and min(lengths) < 0):
        raise ValueError(f"postings lengths are not {len(vocabulary)} non-negative counts, one per term")
    if sum(lengths) != len(positions) or len(positions) != len(weights):
        raise ValueError(
            f"postings sizes disagree: lengths sum to {sum(lengths)},"
            f" {len(positions)} positions, {len(weights)} weights"
        )
    if positions and (min(positions) < 0 or max(positions) >= len(docs)):
        raise ValueError(f"a postings position lies outside [0, {len(docs)})")
    if not all(map(math.isfinite, weights)):
        raise ValueError("a postings weight is not finite")
    postings = []
    start = 0
    for tid, n in enumerate(lengths):
        end = start + n
        term_positions = positions[start:end]
        # strictly ascending: no (term, document) pair appears twice
        if not all(map(lt, term_positions, term_positions[1:])):
            raise ValueError(f"term id {tid}: positions do not strictly ascend")
        postings.append((term_positions, weights[start:end]))
        start = end
    return TfIdfIndex(vocabulary, tuple(map(float, idf)), tuple(postings), tuple(docs))

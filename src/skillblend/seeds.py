"""TF-IDF retrieval over skill-context corpora and seed-episode construction.

The index is a plain unigram tf-idf with smoothed natural-log idf and cosine
similarity, stored as an inverted index: each term maps to the documents
that contain it. It is built once, immutable afterwards, and safe to query
from concurrent workers. Seed construction retrieves rank-aligned context
variants for each skill and speaker side: seed side s draws on record side
s of every skill, except that side 1 has no empathy grounding.
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
from itertools import accumulate, repeat
from operator import lt, mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import ConfigError, EngineConfig, SkillContext, SkillContextSet, SkillId, compact_json

_TOKEN_RE = re.compile(r"[a-z0-9]+")

INDEX_FORMAT = "skillblend-tfidf"
INDEX_VERSION = 4

# documents per compact_json call when saving an index
_SAVE_CHUNK = 1024


def tokenize(text: str) -> list[str]:
    """Lowercase terms: maximal runs of ASCII alphanumerics; everything else
    separates. No stemming, no stop-word removal."""
    return _TOKEN_RE.findall(text.lower())


class ContextDoc(NamedTuple):
    """One retrievable skill context: the lines of side ``side`` (0 or 1) of
    a record of the skill ``skill_id``. As a tuple it is the document's
    stored row ``[skill id, side, lines]``."""

    skill_id: str
    side: int
    lines: tuple[str, ...]

    @property
    def text(self) -> str:
        """All context lines joined by a single space."""
        return " ".join(self.lines)


@dataclass(frozen=True)
class TfIdfIndex:
    """Immutable tf-idf index, held as its file holds it. A term's id is its
    position in ``terms``, which ascend, and a document's id its position in
    ``docs``. The postings are three flat columns in term-id order: per term,
    ``lengths`` holds its number of documents, ``positions`` those documents
    (ascending) and ``weights`` its weight in each of their L2-normalized
    vectors. Derived: ``idf`` (by ``_idf``), ``starts`` (term t's postings
    lie in [starts[t], starts[t + 1])), ``vocabulary`` (term -> id) and
    ``buckets`` (the ascending positions of each (skill id, side))."""

    terms: tuple[str, ...]
    lengths: array
    positions: array
    weights: array
    docs: tuple[ContextDoc, ...]
    idf: tuple[float, ...] = field(init=False, repr=False, compare=False)
    starts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    vocabulary: Mapping[str, int] = field(init=False, repr=False, compare=False)
    buckets: Mapping[tuple[str, int], array] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        buckets: dict[tuple[str, int], array] = {}
        for pos, d in enumerate(self.docs):
            buckets.setdefault((d.skill_id, d.side), array("i")).append(pos)
        object.__setattr__(self, "idf", tuple(_idf(len(self.docs), df) for df in self.lengths))
        object.__setattr__(self, "starts", tuple(accumulate(self.lengths, initial=0)))
        object.__setattr__(self, "vocabulary", {t: i for i, t in enumerate(self.terms)})
        object.__setattr__(self, "buckets", buckets)

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


def _idf(n: int, df: int) -> float:
    """The idf of a term held by ``df`` of ``n`` documents,
    max(0, ln(n / (1 + df)) + 1). ``TfIdfIndex`` derives its idf from
    ``lengths`` through it, so a loaded idf equals the built one bit for bit."""
    return max(0.0, math.log(n / (1 + df)) + 1.0)


def build_index(docs: Sequence[ContextDoc]) -> TfIdfIndex:
    """Index documents with tf = raw term count and idf = ``_idf(N, df)``;
    vectors are L2-normalized.

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
    idf = [_idf(len(docs), len(p)) for p in positions]
    norms = array("d")
    start = 0
    for end in ends:
        products = map(mul, doc_counts[start:end], map(idf.__getitem__, doc_terms[start:end]))
        norms.append(math.sqrt(sum(w * w for w in products)))
        start = end

    terms = tuple(sorted(ids))
    lengths, all_positions, weights = array("i"), array("i"), array("d")
    for term in terms:
        tid = ids[term]
        term_idf = idf[tid]
        lengths.append(len(positions[tid]))
        all_positions.extend(positions[tid])
        weights.extend([c * term_idf / norms[p] for p, c in zip(positions[tid], counts[tid])])
    return TfIdfIndex(terms, lengths, all_positions, weights, tuple(docs))


def _scores(index: TfIdfIndex, text: str) -> list[float]:
    """Cosine similarity of ``text`` to every document, by position.

    Each document's dot product adds its terms' products in query-term
    order, as a dense left-to-right sum over the query terms would: the
    terms a document lacks would only add +0.0."""
    counts = Counter(t for t in tokenize(text) if t in index.vocabulary)
    qvec = [(index.vocabulary[t], c * index.idf[index.vocabulary[t]]) for t, c in counts.items()]
    qnorm = math.sqrt(sum(w * w for _, w in qvec))
    dots = [0.0] * len(index.docs)
    if qnorm == 0.0:
        return dots
    # memoryview slices share the columns; array slices would copy them
    positions, weights, starts = memoryview(index.positions), memoryview(index.weights), index.starts
    for tid, qw in qvec:
        lo, hi = starts[tid], starts[tid + 1]
        for pos, w in zip(positions[lo:hi], weights[lo:hi]):
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
    filter_side: int | None = None,
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
        and (filter_side is None or d.side == filter_side)
    )
    return _top(_scores(index, text), positions, k)


def build_seeds(
    pair: tuple[str, str],
    seed_dataset: SkillId,
    index: TfIdfIndex,
    cfg: EngineConfig,
) -> list[SeedEpisode]:
    """Assemble up to ``cfg.seeds_per_pair`` seed variants for one pair of
    utterance texts: seed side 0 draws on record side 0 of every roster
    skill, seed side 1 on record side 1 of every skill but empathy.

    The query is the concatenation of both pair texts, scored once against
    the index; each (skill, side) bucket keeps its top hits as ``query``
    would rank them. Variant v pairs the v-th ranked context of every
    bucket together; when a bucket has fewer than v+1 hits, that skill's
    entry is simply omitted for the variant. A variant is empty only when
    every bucket has at most v hits, so the list ends at the first empty
    one and the seed at position v is variant v. Every variant carries
    ``pair`` itself.
    """
    first, second = pair
    if not first.strip() or not second.strip():
        raise ValueError("seed pair texts must be non-blank")
    scores = _scores(index, first + " " + second)
    k = cfg.seeds_per_pair

    def hits(skill: SkillId, side: int) -> list[ContextDoc]:
        positions = index.buckets.get((skill.id, side), ())
        return [index.docs[pos] for pos, _ in _top(scores, positions, k)]

    sides = (
        [(skill, hits(skill, 0)) for skill in cfg.skill_roster],
        [(skill, hits(skill, 1)) for skill in cfg.skill_roster if skill.id != "E"],
    )
    seeds: list[SeedEpisode] = []
    for variant in range(k):
        contexts = tuple(
            SkillContextSet(
                tuple(SkillContext(skill, docs[variant].lines) for skill, docs in side if variant < len(docs))
            )
            for side in sides
        )
        if not any(map(len, contexts)):
            break
        seeds.append(SeedEpisode(seed_dataset, pair, contexts))
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
    any context lines becomes one document of that side; empty sides carry
    no seed information and are skipped."""
    docs: list[ContextDoc] = []
    for rec in records:
        for side, lines in enumerate(rec.side_contexts):
            if lines:
                docs.append(ContextDoc(rec.skill.id, side, tuple(lines)))
    return docs


def _write_json_array(fh, chunks: Iterable[Sequence]) -> None:
    """Write the concatenation of ``chunks`` as one compact JSON array."""
    fh.write("[")
    sep = ""
    for chunk in chunks:
        fh.write(sep + compact_json(chunk)[1:-1])
        sep = ","
    fh.write("]")


def _blob(values: array) -> str:
    """``values`` as little-endian bytes, base64-encoded. On a big-endian
    host a byte-swapped copy is encoded; ``values`` itself never changes."""
    if sys.byteorder == "big":
        values = array(values.typecode, values)
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
    """Persist the index as one versioned JSON file, each part as memory
    holds it: a header with the ``terms``, the ``docs`` (``ContextDoc``
    rows, written a chunk at a time) and the ``postings`` columns as
    little-endian base64 blobs (int32 ``lengths`` and ``positions``, float64
    ``weights``). The idf and the document count follow from the rows and
    ``lengths``, so they are not stored.

    The file is written under a temporary name next to ``path`` and renamed
    over it once complete, so a failed save leaves any previous file intact.
    """
    header = {"format": INDEX_FORMAT, "version": INDEX_VERSION, "terms": list(index.terms)}
    docs = index.docs
    # named per process: concurrent saves of one path must come from different processes
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(compact_json(header)[:-1] + ',"docs":')
            _write_json_array(fh, (docs[lo : lo + _SAVE_CHUNK] for lo in range(0, len(docs), _SAVE_CHUNK)))
            for sep, name in zip((',"postings":{', ",", ","), ("lengths", "positions", "weights")):
                fh.write(f'{sep}"{name}":"{_blob(getattr(index, name))}"')
            fh.write("}}")
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
    not JSON, not a version-4 index, or fails a check of ``_decode_index``."""
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
    """Build the index from a parsed file, checking the header, that
    ``terms`` strictly ascend, every document row (its side 0 or 1, its
    context lines non-blank, as the dataset reader requires), and that the
    postings hold one non-negative length per term, agree in size, and give
    each term finite weights and strictly ascending positions inside
    [0, number of rows). The decoded columns become the index's own."""
    if not isinstance(obj, dict) or obj.get("format") != INDEX_FORMAT:
        raise ValueError(f"not a {INDEX_FORMAT} file")
    if obj.get("version") != INDEX_VERSION:
        raise ValueError(
            f"unsupported index version {obj.get('version')!r}; re-run `skillblend index` to rebuild it"
        )
    terms = obj.get("terms")
    if (
        type(terms) is not list
        or not all(map(isinstance, terms, repeat(str)))
        or not all(map(lt, terms, terms[1:]))
    ):
        raise ValueError("terms is not a list of strictly ascending strings")
    rows = obj.get("docs")
    if not isinstance(rows, list):
        raise ValueError("docs is not a list")

    docs: list[ContextDoc] = []
    try:
        for row in rows:
            if type(row) is not list or len(row) != 3:
                raise ValueError("not a [skill id, side, lines] row")
            skill_id, side, lines = row
            if type(skill_id) is not str or not skill_id.strip():
                raise ValueError(f"skill id {skill_id!r} is not a non-blank string")
            if type(side) is not int or side not in (0, 1):
                raise ValueError(f"side {side!r} is not 0 or 1")
            if type(lines) is not list or not all(map(isinstance, lines, repeat(str))):
                raise ValueError("lines is not a list of strings")
            if "" in lines or any(map(str.isspace, lines)):
                raise ValueError("context lines must be non-blank")
            docs.append(ContextDoc(skill_id, side, tuple(lines)))
    except ValueError as exc:
        raise ValueError(f"document {len(docs)}: {exc}") from None

    blobs = obj.get("postings")
    if not isinstance(blobs, dict):
        raise ValueError("postings is not an object")
    lengths = _unblob(blobs, "lengths", "i")
    positions = _unblob(blobs, "positions", "i")
    weights = _unblob(blobs, "weights", "d")
    if len(lengths) != len(terms) or (lengths and min(lengths) < 0):
        raise ValueError(f"postings lengths are not {len(terms)} non-negative counts, one per term")
    if sum(lengths) != len(positions) or len(positions) != len(weights):
        raise ValueError(
            f"postings sizes disagree: lengths sum to {sum(lengths)},"
            f" {len(positions)} positions, {len(weights)} weights"
        )
    if positions and (min(positions) < 0 or max(positions) >= len(docs)):
        raise ValueError(f"a postings position lies outside [0, {len(docs)})")
    if not all(map(math.isfinite, weights)):
        raise ValueError("a postings weight is not finite")
    view = memoryview(positions)
    start = 0
    for tid, n in enumerate(lengths):
        term_positions = view[start : start + n]
        # strictly ascending: no (term, document) pair appears twice
        if not all(map(lt, term_positions, term_positions[1:])):
            raise ValueError(f"term id {tid}: positions do not strictly ascend")
        start += n
    return TfIdfIndex(tuple(terms), lengths, positions, weights, tuple(docs))

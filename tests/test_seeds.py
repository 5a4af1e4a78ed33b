from __future__ import annotations

import base64
import importlib.util
import json
import math
import os
import pathlib
import random
import struct
import sys
import tempfile
from array import array
from collections import Counter
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillblend import seeds
from skillblend.core import DEFAULT_ROSTER, EngineConfig, SkillContext, SkillContextSet, compact_json
from skillblend.dataio import SingleSkillRecord, read_dataset
from skillblend.seeds import (
    ContextDoc,
    SeedEpisode,
    build_index,
    build_seeds,
    docs_from_records,
    iter_seed_pairs,
    load_index,
    query,
    save_index,
    tokenize,
)

import helpers

P, K, E = DEFAULT_ROSTER
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def doc(skill, text, side=0):
    return ContextDoc(skill.id, side, tuple(text.split("; ")))


# --- tokenize ----------------------------------------------------------------


def test_tokenize_rules():
    assert tokenize("I love Sneakers!") == ["i", "love", "sneakers"]
    assert tokenize("") == []
    assert tokenize("a-b_c 42") == ["a", "b", "c", "42"]


# --- build_index ---------------------------------------------------------------


def test_single_doc_is_one_hot_after_l2():
    index = build_index([doc(P, "apple apple")])
    assert (index.lengths, index.positions, index.weights) == (
        array("i", [1]), array("i", [0]), array("d", [1.0])
    )


def test_disjoint_docs_are_orthogonal():
    index = build_index([doc(P, "apple pie"), doc(P, "river stone")])
    # no term's postings hold both documents, so their dot product is zero
    starts = index.starts
    assert sorted(tuple(index.positions[lo:hi]) for lo, hi in zip(starts, starts[1:])) == [
        (0,), (0,), (1,), (1,)
    ]


def test_build_index_rejects_an_empty_corpus():
    with pytest.raises(ValueError):
        build_index([])


def test_doc_looks_up_by_position():
    docs = [doc(P, "apple pie"), doc(K, "river stone"), doc(E, "quiet night")]
    index = build_index(docs)
    assert [index.doc(i) for i in range(3)] == docs
    for bad in (-1, 3):
        with pytest.raises(KeyError):
            index.doc(bad)


def _columns(index):
    """The posting columns of an index as (typecode, bytes)."""
    return [(c.typecode, c.tobytes()) for c in (index.lengths, index.positions, index.weights)]


def _bits(index):
    """Vocabulary, idf and posting columns of an index, floats as their bits."""
    return index.vocabulary, [x.hex() for x in index.idf], _columns(index)


# words with repeats, a token-less line, upper case, digits and non-ASCII
# letters, which separate tokens ("café" -> "caf", "İ" lowercases to "i"
# plus a combining dot)
_ORACLE_WORDS = ["apple", "river", "stone", "Apple", "x2", "?!", "café", "naïve", "東京", "İstanbul"]
_ORACLE_LINES = st.lists(st.sampled_from(_ORACLE_WORDS), min_size=1, max_size=8).map(" ".join) | st.text(
    min_size=1, max_size=12
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_ORACLE_LINES, min_size=1, max_size=3), min_size=1, max_size=12))
@example([["?!"]])
@example([["?!"], ["?! ?!"]])
@example([["apple apple apple pie"]])
@example([["apple river"], ["stone apple"], ["apple apple"]])
@example([["café naïve"], ["東京 İstanbul", "?!"], ["caf na ve"]])
def test_build_index_equals_the_oracle_bit_for_bit(corpus):
    docs = [ContextDoc(DEFAULT_ROSTER[i % 3].id, 0, tuple(lines)) for i, lines in enumerate(corpus)]
    assert _bits(build_index(docs)) == _bits(helpers.build_index_oracle(docs))


def _brute_force_cosines(docs, query_text):
    """Dense oracle: same tf/idf formulas, independent arithmetic path."""
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


def test_pairwise_cosines_match_dense_oracle():
    rng = random.Random(7)
    words = ["apple", "river", "stone", "cloud", "ember", "violet", "moss", "tide"]
    docs = [
        doc(DEFAULT_ROSTER[i % 3], " ".join(rng.choice(words) for _ in range(rng.randrange(2, 9))))
        for i in range(40)
    ]
    index = build_index(docs)
    for trial in range(10):
        q = " ".join(rng.choice(words) for _ in range(3))
        mine = query(index, q, k=len(docs))
        oracle = _brute_force_cosines(docs, q)
        assert [d for d, _ in mine] == [d for d, _ in oracle]
        for (_, a), (_, b) in zip(mine, oracle):
            assert abs(a - b) <= 1e-9


# --- query -----------------------------------------------------------------------


def test_query_ranks_unique_term_doc_first():
    docs = [doc(P, f"common words {i}") for i in range(7)]
    docs.append(doc(P, "common words zephyr"))
    index = build_index(docs)
    results = query(index, "zephyr", k=3)
    assert results[0][0] == 7


def test_query_oov_returns_empty():
    index = build_index([doc(P, "apple pie")])
    assert query(index, "zzz qqq", k=5) == []


def test_query_respects_corpus_bound_and_filters():
    docs = [
        doc(P, "shared token alpha"),
        doc(P, "shared token beta"),
        doc(K, "shared token gamma"),
        doc(K, "shared token delta", side=1),
    ]
    index = build_index(docs)
    assert len(query(index, "shared token", k=10)) == 4
    only_p = query(index, "shared token", k=10, filter_skill=P)
    assert {d for d, _ in only_p} == {0, 1}
    only_side_1 = query(index, "shared token", k=10, filter_side=1)
    assert [d for d, _ in only_side_1] == [3]
    with pytest.raises(ValueError):
        query(index, "shared", k=0)


def test_query_tie_order_by_doc_id():
    docs = [doc(P, "twin text"), doc(P, "twin text"), doc(P, "other words")]
    index = build_index(docs)
    results = query(index, "twin text", k=3)
    assert [d for d, _ in results[:2]] == [0, 1]
    assert results[0][1] == results[1][1]


def test_query_self_retrieval_hits_cosine_one():
    docs = [
        doc(P, "i like to ski; i hate mexican food"),
        doc(K, "armadillo; armadillo means little armoured one"),
        doc(E, "my brother scared me; terrified"),
    ]
    index = build_index(docs)
    for pos, d in enumerate(docs):
        results = query(index, d.text, k=1)
        assert results[0][0] == pos
        assert abs(results[0][1] - 1.0) <= 1e-9


def test_query_rankings_are_reproducible():
    docs = [doc(P, f"alpha beta {i}") for i in range(10)]
    index_a = build_index(docs)
    index_b = build_index(docs)
    assert query(index_a, "alpha beta 3", k=10) == query(index_b, "alpha beta 3", k=10)


# --- exactness against the brute-force algorithm ------------------------------------


def _old_index(docs):
    """Vocabulary, idf and per-document {term id: weight} dicts, computed as
    the index computed them before it kept postings."""
    token_lists = [tokenize(d.text) for d in docs]
    df = Counter()
    for tokens in token_lists:
        df.update(set(tokens))
    terms = sorted(df)
    vocabulary = {t: i for i, t in enumerate(terms)}
    idf = tuple(max(0.0, math.log(len(docs) / (1 + df[t])) + 1.0) for t in terms)
    vectors = []
    for tokens in token_lists:
        weights = {vocabulary[t]: c * idf[vocabulary[t]] for t, c in Counter(tokens).items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        vectors.append({t: w / norm for t, w in weights.items() if w != 0.0} if norm > 0.0 else {})
    return vocabulary, idf, vectors


def _old_query(docs, old, text, k, skill=None, side=None):
    """One filtered full scan over every document, then sorted(...)[:k]."""
    vocabulary, idf, vectors = old
    counts = Counter(t for t in tokenize(text) if t in vocabulary)
    qvec = {vocabulary[t]: c * idf[vocabulary[t]] for t, c in counts.items()}
    qnorm = math.sqrt(sum(w * w for w in qvec.values()))
    if qnorm == 0.0:
        return []
    results = []
    for pos, (d, vec) in enumerate(zip(docs, vectors)):
        if (skill is not None and d.skill_id != skill.id) or (side is not None and d.side != side):
            continue
        # the scan's sum() added left to right (as sum() did up to Python
        # 3.11); spelled out so that the oracle is the same on every version
        dot = 0
        for tid, qw in qvec.items():
            dot += qw * vec.get(tid, 0.0)
        score = dot / qnorm
        if score > 0.0:
            results.append((pos, score))
    results.sort(key=lambda r: (-r[1], r[0]))
    return results[:k]


def _old_build_seeds(pair, seed_dataset, docs, old, cfg):
    """build_seeds with one full scan per (skill, side) bucket. Seed side 0
    draws on record side 0 of every skill, seed side 1 on record side 1 of
    every skill but E."""
    template = (
        {s.id: 0 for s in cfg.skill_roster},
        {s.id: 1 for s in cfg.skill_roster if s.id != "E"},
    )
    text = pair[0] + " " + pair[1]
    needed = {(sid, side) for sides in template for sid, side in sides.items()}
    buckets = {
        (skill.id, side): [docs[i] for i, _ in _old_query(docs, old, text, cfg.seeds_per_pair, skill, side)]
        for skill in cfg.skill_roster
        for side in (0, 1)
        if (skill.id, side) in needed
    }
    seeds = []
    for variant in range(cfg.seeds_per_pair):
        sides = [
            SkillContextSet(
                tuple(
                    SkillContext(skill, buckets[(skill.id, side[skill.id])][variant].lines)
                    for skill in cfg.skill_roster
                    if skill.id in side and variant < len(buckets[(skill.id, side[skill.id])])
                )
            )
            for side in template
        ]
        if any(len(side) for side in sides):
            seeds.append(SeedEpisode(seed_dataset, pair, tuple(sides)))
    return seeds


_WORDS = ["apple", "river", "stone", "cloud", "ember", "violet", "moss", "tide"]
# "?!" tokenizes to nothing, so a document of such lines has a zero vector
_LINES = st.lists(st.sampled_from(_WORDS + ["?!"]), min_size=1, max_size=6).map(" ".join)
_TEXTS = st.lists(st.sampled_from(_WORDS + ["unseen"]), min_size=1, max_size=6).map(" ".join)


@st.composite
def _corpora(draw):
    """Random corpora with a document in every roster bucket, some exact
    duplicates (tied scores) and some zero-vector documents."""
    buckets = [(s, side) for s in DEFAULT_ROSTER for side in (0, 1)]
    buckets += draw(st.lists(st.sampled_from(buckets), max_size=30))
    docs = [
        ContextDoc(skill.id, side, tuple(draw(st.lists(_LINES, min_size=1, max_size=3))))
        for skill, side in buckets
    ]
    docs += [docs[i] for i in draw(st.lists(st.integers(0, len(docs) - 1), max_size=10))]
    docs += [ContextDoc(skill.id, side, ("?!",)) for skill, side in draw(st.lists(st.sampled_from(buckets), max_size=3))]
    return draw(st.permutations(docs))


@settings(max_examples=200, deadline=None)
@given(_corpora(), _TEXTS, _TEXTS, st.integers(1, 6))
def test_build_seeds_and_query_equal_the_full_scan(docs, first, second, k):
    index = build_index(docs)
    old = _old_index(docs)
    assert (index.vocabulary, index.idf) == old[:2]
    pair = (first, second)
    text = first + " " + second
    assert query(index, text, k) == _old_query(docs, old, text, k)
    for skill in DEFAULT_ROSTER:
        for side in (0, 1):
            assert query(index, text, k, skill, side) == _old_query(docs, old, text, k, skill, side)
    cfg = EngineConfig(seeds_per_pair=k)
    for seed_dataset in DEFAULT_ROSTER:
        assert build_seeds(pair, seed_dataset, index, cfg) == _old_build_seeds(pair, seed_dataset, docs, old, cfg)


# --- build_seeds -------------------------------------------------------------------


def _seed_corpus():
    """Five-plus docs per needed (skill, side) bucket, all sharing 'topic'."""
    docs = []
    for n in range(6):
        docs.append(doc(P, f"topic persona {n}; extra persona line {n}"))
        docs.append(doc(P, f"topic persona other {n}", side=1))
        docs.append(doc(K, f"topic {n}"))
        docs.append(doc(K, f"topic {n}; knowledge about topic {n}", side=1))
        docs.append(doc(E, f"topic situation {n}; emotion {n}"))
    return docs


def _pair(a="tell me about the topic", b="the topic is lovely"):
    return (a, b)


def test_build_seeds_full_buckets_yield_all_variants():
    cfg = EngineConfig(seeds_per_pair=5)
    docs = _seed_corpus()
    pair = _pair()
    seeds = build_seeds(pair, P, build_index(docs), cfg)
    assert len(seeds) == 5
    # the seed at position v carries the v-th ranked context of each bucket
    text = "tell me about the topic the topic is lovely"
    ranked = _old_query(docs, _old_index(docs), text, 5, P, 0)
    assert [s.contexts[0].get(P).lines for s in seeds] == [docs[d].lines for d, _ in ranked]
    for seed in seeds:
        assert seed.seed_dataset == P
        # every variant carries the dataset's pair itself; the episode seats it
        assert seed.pair[0] is pair[0] and seed.pair[1] is pair[1]


def test_build_seeds_side_asymmetry_follows_role_template():
    cfg = EngineConfig(seeds_per_pair=2)
    index = build_index(_seed_corpus())
    side0, side1 = build_seeds(_pair(), K, index, cfg)[0].contexts
    assert [c.skill.id for c in side0] == ["P", "K", "E"]
    assert [c.skill.id for c in side1] == ["P", "K"]  # no empathy entry
    # side 0 knowledge context is the topic-only flavor; side 1 carries passages
    assert len(side0.get(K).lines) == 1
    assert len(side1.get(K).lines) == 2


def test_build_seeds_short_bucket_omits_entry():
    cfg = EngineConfig(seeds_per_pair=5)
    # keep only two empathy docs
    e_docs = [d for d in _seed_corpus() if d.skill_id == "E"][:2]
    docs = [d for d in _seed_corpus() if d.skill_id != "E"] + e_docs
    index = build_index(docs)
    seeds = build_seeds(_pair(), P, index, cfg)
    assert len(seeds) == 5
    for position, seed in enumerate(seeds):
        has_e = seed.contexts[0].get(E) is not None
        assert has_e == (position < 2)


def test_build_seeds_drops_fully_empty_variants():
    cfg = EngineConfig(seeds_per_pair=5)
    index = build_index([doc(P, "topic persona")])
    seeds = build_seeds(_pair(), P, index, cfg)
    assert len(seeds) == 1  # variants 1..4 have no retrievable context at all


def test_blank_seed_texts_cannot_be_constructed():
    index = build_index([doc(P, "topic persona")])
    for pair in (("   ", "the topic"), ("the topic", "\t\n")):
        with pytest.raises(ValueError, match="non-blank"):
            build_seeds(pair, P, index, EngineConfig())


def test_seed_side_s_draws_on_record_side_s():
    # one record per skill with both sides filled: all six (skill, side)
    # buckets hold a document
    records = [
        SingleSkillRecord(skill, ((f"topic {skill.id} zero",), (f"topic {skill.id} one",)), ("a", "b"))
        for skill in DEFAULT_ROSTER
    ]
    docs = docs_from_records(records)
    assert [(d.skill_id, d.side, d.lines) for d in docs] == [
        (skill.id, side, (f"topic {skill.id} {name}",))
        for skill in DEFAULT_ROSTER
        for side, name in ((0, "zero"), (1, "one"))
    ]
    (seed,) = build_seeds(("the topic", "a topic"), P, build_index(docs), EngineConfig(seeds_per_pair=1))
    side0, side1 = ([(c.skill.id, c.lines) for c in side] for side in seed.contexts)
    assert side0 == [("P", ("topic P zero",)), ("K", ("topic K zero",)), ("E", ("topic E zero",))]
    assert side1 == [("P", ("topic P one",)), ("K", ("topic K one",))]  # no empathy entry


# --- seed pair sampling --------------------------------------------------------------


def _record(skill, *texts):
    return SingleSkillRecord(skill, ((), ()), texts)


def test_iter_seed_pairs_deterministic_and_uniform_over_roster():
    records = [
        _record(P, "p a", "p b", "p c"),  # 3 turns -> 2 pairs
        _record(K, "k a", "k b"),
        _record(E, "e a", "e b"),
        _record(K, "k c", "k d"),
    ]
    first = list(islice(iter_seed_pairs(records, DEFAULT_ROSTER, rng_seed=42), 60))
    second = list(islice(iter_seed_pairs(records, DEFAULT_ROSTER, rng_seed=42), 60))
    assert first == second
    # exactly the consecutive turn pairs' texts, each tagged with its record's skill
    expected = {
        (pair, rec.skill) for rec in records for pair in zip(rec.turns, rec.turns[1:])
    }
    assert len(expected) == 5
    assert set(first) == expected
    # a skill without pairs fails at the call, before any draw
    with pytest.raises(ValueError, match="no seed pairs available for skill 'K'"):
        iter_seed_pairs([records[0], records[2]], DEFAULT_ROSTER, 1)


# --- records -> docs and persistence ---------------------------------------------------


def test_docs_from_records_skips_empty_sides(corpus_files, cfg):
    records = [r for path in corpus_files for r in read_dataset(path, cfg.skill_roster)]
    docs = docs_from_records(records)
    assert all(d.lines for d in docs)
    sides = {(d.skill_id, d.side) for d in docs}
    assert ("E", 1) not in sides  # listener side is empty
    assert ("E", 0) in sides
    assert ("K", 1) in sides


def test_index_save_load_roundtrip(tmp_path):
    index = build_index(_seed_corpus())
    path = str(tmp_path / "ctx.idx")
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.vocabulary == dict(index.vocabulary)
    assert loaded.idf == index.idf
    assert loaded.docs == index.docs
    assert _columns(loaded) == _columns(index)
    assert query(loaded, "topic persona 3", k=4) == query(index, "topic persona 3", k=4)


def test_index_load_validates_header(tmp_path):
    index = build_index([doc(P, "apple")])
    path = str(tmp_path / "ctx.idx")
    save_index(index, path)

    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["version"] = 99
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    with pytest.raises(ValueError):
        load_index(path)
    obj["version"] = seeds.INDEX_VERSION
    obj["docs"][0][1] = "listener"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    with pytest.raises(ValueError, match="side 'listener' is not 0 or 1"):
        load_index(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{}")
    with pytest.raises(ValueError):
        load_index(path)


def _pack(fmt, values):
    """Little-endian ``values`` of struct format ``fmt``, base64-encoded."""
    return base64.b64encode(struct.pack(f"<{len(values)}{fmt}", *values)).decode("ascii")


def _unpack(fmt, blob):
    data = base64.b64decode(blob)
    return list(struct.unpack(f"<{len(data) // struct.calcsize(fmt)}{fmt}", data))


def _v4_save_bytes(docs):
    """The index file as one json.dumps of the whole version-4 object,
    with postings inverted from the per-document vectors of ``_old_index``."""
    vocabulary, idf, vectors = _old_index(docs)
    lengths, positions, weights = [], [], []
    for tid in range(len(vocabulary)):
        hits = [(pos, vec[tid]) for pos, vec in enumerate(vectors) if tid in vec]
        lengths.append(len(hits))
        positions += [pos for pos, _ in hits]
        weights += [w for _, w in hits]
    obj = {
        "format": "skillblend-tfidf",
        "version": 4,
        "terms": sorted(vocabulary),
        "docs": [[d.skill_id, d.side, list(d.lines)] for d in docs],
        "postings": {
            "lengths": _pack("i", lengths),
            "positions": _pack("i", positions),
            "weights": _pack("d", weights),
        },
    }
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


@pytest.mark.parametrize("chunk", [1, 2, 3, 6, 7, seeds._SAVE_CHUNK])
def test_save_index_writes_the_bytes_of_one_json_dump(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(seeds, "_SAVE_CHUNK", chunk)
    docs = [
        doc(P, "café crème; naïve façade"),
        doc(K, "日本語 text; ünïcode \"quoted\" line", side=1),
        doc(E, "?!; —"),  # zero vector
        doc(P, "plain ascii; café again"),
        doc(K, "emoji 😀 and tab\tand newline\n"),
        doc(E, "plain ascii; café again"),
    ]
    path = tmp_path / "ctx.idx"
    save_index(build_index(docs), str(path))
    expected = _v4_save_bytes(docs)
    assert path.read_bytes() == expected
    # a loaded index saves to the same bytes again
    save_index(load_index(str(path)), str(path))
    assert path.read_bytes() == expected


_GOLDEN_INDEX = (
    '{"format":"skillblend-tfidf","version":4,"terms":["apple","pie","river","stone"],'
    '"docs":[["P",0,["apple pie"]],["K",1,["river apple stone"]],["E",0,["?!"]]],'
    '"postings":{"lengths":"AgAAAAEAAAABAAAAAQAAAA==",'
    '"positions":"AAAAAAEAAAAAAAAAAQAAAAEAAAA=",'
    '"weights":"Y2JPHTiN4j8jhqb1kMPcP8imrKPcEuo/42etIp425D/jZ60injbkPw=="}}'
)

# the same three documents as written by format version 3, which also
# stored the document count, a term -> id object, the idf of every term and
# each side as a role name
_GOLDEN_INDEX_V3 = (
    '{"format":"skillblend-tfidf","version":3,"doc_count":3,'
    '"vocabulary":{"apple":0,"pie":1,"river":2,"stone":3},'
    '"idf":[1.0,1.4054651081081644,1.4054651081081644,1.4054651081081644],'
    '"docs":[["P","primary",["apple pie"]],'
    '["K","counterpart",["river apple stone"]],'
    '["E","primary",["?!"]]],'
    '"postings":{"lengths":"AgAAAAEAAAABAAAAAQAAAA==",'
    '"positions":"AAAAAAEAAAAAAAAAAQAAAAEAAAA=",'
    '"weights":"Y2JPHTiN4j8jhqb1kMPcP8imrKPcEuo/42etIp425D/jZ60injbkPw=="}}'
)

# the same three documents as written by format version 2, which stored a
# document id and the skill's roster index in every row
_GOLDEN_INDEX_V2 = (
    '{"format":"skillblend-tfidf","version":2,"doc_count":3,'
    '"vocabulary":{"apple":0,"pie":1,"river":2,"stone":3},'
    '"idf":[1.0,1.4054651081081644,1.4054651081081644,1.4054651081081644],'
    '"docs":[{"doc_id":0,"skill":{"id":"P","index":0},"role":"primary","lines":["apple pie"]},'
    '{"doc_id":1,"skill":{"id":"K","index":1},"role":"counterpart","lines":["river apple stone"]},'
    '{"doc_id":2,"skill":{"id":"E","index":2},"role":"primary","lines":["?!"]}],'
    '"postings":{"lengths":"AgAAAAEAAAABAAAAAQAAAA==",'
    '"positions":"AAAAAAEAAAAAAAAAAQAAAAEAAAA=",'
    '"weights":"Y2JPHTiN4j8jhqb1kMPcP8imrKPcEuo/42etIp425D/jZ60injbkPw=="}}'
)


def test_saved_index_matches_the_golden_bytes(tmp_path):
    docs = [
        doc(P, "apple pie"),
        doc(K, "river apple stone", side=1),
        doc(E, "?!"),
    ]
    path = tmp_path / "ctx.idx"
    save_index(build_index(docs), str(path))
    assert path.read_bytes() == _GOLDEN_INDEX.encode("utf-8")
    blobs = json.loads(_GOLDEN_INDEX)["postings"]
    # int32 lengths per term id, then every term's positions and float64 weights
    assert _unpack("i", blobs["lengths"]) == [2, 1, 1, 1]
    assert _unpack("i", blobs["positions"]) == [0, 1, 0, 1, 1]
    a, r = 1.0, 1.4054651081081644
    assert _unpack("d", blobs["weights"]) == [
        a / math.sqrt(a * a + r * r),
        a / math.sqrt(a * a + 2 * r * r),
        r / math.sqrt(a * a + r * r),
        r / math.sqrt(a * a + 2 * r * r),
        r / math.sqrt(a * a + 2 * r * r),
    ]
    loaded = load_index(str(path))
    assert _columns(loaded) == _columns(build_index(docs))
    # the derived idf is the one version 3 stored
    assert loaded.idf == tuple(json.loads(_GOLDEN_INDEX_V3)["idf"]) == (a, r, r, r)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_index_load_rejects_version_1_files_with_a_rebuild_hint(tmp_path, version):
    path = tmp_path / "ctx.idx"
    obj = json.loads(_GOLDEN_INDEX_V3 if version == 3 else _GOLDEN_INDEX_V2)
    if version == 1:
        obj["version"] = 1
        del obj["postings"]
        obj["vectors"] = [[[0, 0.58], [1, 0.82]], [[0, 0.45], [2, 0.63], [3, 0.63]], []]
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"ctx\.idx: unsupported index version {version}; re-run `skillblend index`"):
        load_index(str(path))


def test_index_save_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "ctx.idx"
    save_index(build_index([doc(P, "apple pie")]), str(path))
    before = path.read_bytes()
    write_json_array = seeds._write_json_array

    def fail_after_one_chunk(fh, chunks):
        def first_then_fail():
            yield next(iter(chunks))
            raise OSError("disk full")

        write_json_array(fh, first_then_fail())

    monkeypatch.setattr(seeds, "_SAVE_CHUNK", 1)
    monkeypatch.setattr(seeds, "_write_json_array", fail_after_one_chunk)
    other = build_index([doc(K, "river stone"), doc(E, "moss")])
    with pytest.raises(OSError, match="disk full"):
        save_index(other, str(path))
    assert path.read_bytes() == before
    with pytest.raises(OSError, match="disk full"):
        save_index(other, str(tmp_path / "new.idx"))
    assert [p.name for p in tmp_path.iterdir()] == ["ctx.idx"]


def test_saved_docs_are_the_compact_json_of_the_index_rows(tmp_path, monkeypatch):
    # written a chunk at a time, the docs array is still the one compact
    # dump of the ContextDoc tuples themselves
    monkeypatch.setattr(seeds, "_SAVE_CHUNK", 2)
    index = build_index(
        [
            doc(P, "café crème; naïve façade"),
            doc(K, "日本語 text; \"quoted\" line", side=1),
            doc(E, "?!"),
            doc(P, "tab\tand newline\n", side=1),
            doc(K, "river stone"),
        ]
    )
    path = tmp_path / "ctx.idx"
    save_index(index, str(path))
    text = path.read_text(encoding="utf-8")
    docs = text[text.index(',"docs":') + len(',"docs":') : text.index(',"postings":')]
    assert docs == compact_json(list(index.docs))


@pytest.mark.parametrize("values", [array("i", [1, -2, 70_000]), array("d", [0.5, -1e300, 3.25])])
def test_blob_encodes_a_swapped_copy_on_a_big_endian_host(monkeypatch, values):
    before = values.tobytes()
    with monkeypatch.context() as patch:
        patch.setattr(seeds.sys, "byteorder", "big")
        blob = seeds._blob(values)
    assert values.tobytes() == before
    # each item's bytes reversed: what turns a big-endian host's own bytes
    # into the little-endian encoding
    swapped = array(values.typecode, values)
    swapped.byteswap()
    assert base64.b64decode(blob) == swapped.tobytes()


@settings(max_examples=100, deadline=None)
@given(_corpora(), _TEXTS, _TEXTS)
def test_saved_index_loads_bit_for_bit(docs, first, second):
    index = build_index(docs)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "ctx.idx")
        save_index(index, path)
        loaded = load_index(path)
    assert _columns(loaded) == _columns(index)
    assert [x.hex() for x in loaded.idf] == [x.hex() for x in index.idf]
    assert loaded.vocabulary == index.vocabulary
    assert loaded.docs == index.docs
    pair = (first, second)
    cfg = EngineConfig(seeds_per_pair=3)
    for seed_dataset in DEFAULT_ROSTER:
        assert build_seeds(pair, seed_dataset, loaded, cfg) == build_seeds(pair, seed_dataset, index, cfg)


def test_the_retrieval_inputs_round_trip_bit_for_bit(tmp_path, monkeypatch):
    # the benchmark's 10 500-document corpus; the file is imported as it is,
    # leaving no bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    records = []
    for name, rows in inputs.retrieval_corpus(2).items():
        path = tmp_path / name
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        records += read_dataset(str(path), DEFAULT_ROSTER)
    index = build_index(docs_from_records(records))
    path = str(tmp_path / "ctx.idx")
    save_index(index, path)
    loaded = load_index(path)
    assert len(loaded.docs) == 10_500
    assert [x.hex() for x in loaded.idf] == [x.hex() for x in index.idf]
    assert loaded.terms == index.terms
    assert _columns(loaded) == _columns(index)
    assert loaded.docs == index.docs


def _saved_postings(tmp_path):
    """A two-document index file and its parsed object. Terms: apple 0,
    pie 1, river 2, stone 3; postings positions [0, 1], [0], [1], [1]."""
    index = build_index([doc(P, "apple pie"), doc(K, "river apple stone")])
    path = tmp_path / "ctx.idx"
    save_index(index, str(path))
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert _unpack("i", obj["postings"]["lengths"]) == [2, 1, 1, 1]
    assert _unpack("i", obj["postings"]["positions"]) == [0, 1, 0, 1, 1]
    return path, obj


def _rejected(path, obj, reason):
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValueError, match=r"ctx\.idx: .*" + reason):
        load_index(str(path))


# rows replacing document 1 of the ``_saved_postings`` file
_NOT_A_ROW = r"not a \[skill id, side, lines\] row"
_BAD_ROWS = {
    "too-short": (["K", 1], _NOT_A_ROW),
    "too-long": (["K", 1, ["river"], 1], _NOT_A_ROW),
    "object": ({"skill": "K", "side": 1, "lines": ["river"]}, _NOT_A_ROW),
    "skill-id-int": ([7, 1, ["river"]], "skill id 7 is not a non-blank string"),
    "skill-id-blank": ([" ", 1, ["river"]], "skill id ' ' is not a non-blank string"),
    "side-two": (["K", 2, ["river"]], "side 2 is not 0 or 1"),
    "side-negative": (["K", -1, ["river"]], "side -1 is not 0 or 1"),
    # True == 1, but a bool is not a side
    "side-true": (["K", True, ["river"]], "side True is not 0 or 1"),
    "side-float": (["K", 1.0, ["river"]], r"side 1\.0 is not 0 or 1"),
    # the version-3 role name
    "side-role-name": (["K", "primary", ["river"]], "side 'primary' is not 0 or 1"),
    "side-list": (["K", [1], ["river"]], r"side \[1\] is not 0 or 1"),
    "line-int": (["K", 1, ["river", 5]], "lines is not a list of strings"),
    "line-blank": (["K", 1, ["river", "   "]], "context lines must be non-blank"),
    "line-empty": (["K", 1, [""]], "context lines must be non-blank"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ROWS))
def test_index_load_rejects_bad_document_rows(tmp_path, case):
    path, obj = _saved_postings(tmp_path)
    row, reason = _BAD_ROWS[case]
    obj["docs"][1] = row
    _rejected(path, obj, "document 1: " + reason)


# ``terms`` values replacing ["apple", "pie", "river", "stone"]; None drops the key
_BAD_TERMS = {
    "missing": None,
    "unsorted": ["pie", "apple", "river", "stone"],
    "duplicate": ["apple", "pie", "pie", "stone"],
    "non-string": ["apple", "pie", 7, "stone"],
    "null-term": [None, "pie", "river", "stone"],
    # the version-3 term -> id object
    "object": {"apple": 0, "pie": 1, "river": 2, "stone": 3},
    "string": "apple pie river stone",
}


@pytest.mark.parametrize("case", sorted(_BAD_TERMS))
def test_index_load_rejects_bad_terms(tmp_path, case):
    path, obj = _saved_postings(tmp_path)
    if _BAD_TERMS[case] is None:
        del obj["terms"]
    else:
        obj["terms"] = _BAD_TERMS[case]
    _rejected(path, obj, "terms is not a list of strictly ascending strings")


_BAD_ENTRIES = {
    # positions written as float64: twice as many int32 items as lengths sum to
    "float-id": ("positions", lambda blob: _pack("d", _unpack("i", blob)), "sizes disagree"),
    "string-id": ("positions", lambda blob: "not base64!", "not valid base64"),
    "bool-id": ("positions", lambda blob: True, "not a base64 string"),
    "negative-id": ("positions", lambda blob: _pack("i", [-1] + _unpack("i", blob)[1:]), "outside"),
    # a length for a term id past ``terms``
    "id-past-vocabulary": ("lengths", lambda blob: _pack("i", _unpack("i", blob) + [0]), "lengths are not"),
    # line-wrapped base64 is not strict base64
    "string-weight": ("weights", lambda blob: blob[:8] + "\n" + blob[8:], "not valid base64"),
    "null-weight": ("weights", lambda blob: None, "not a base64 string"),
    # three bytes past the last float64
    "three-items": (
        "weights",
        lambda blob: base64.b64encode(base64.b64decode(blob) + b"\0\0\0").decode(),
        "not a multiple of 8",
    ),
}


@pytest.mark.parametrize("entry", sorted(_BAD_ENTRIES), ids=sorted(_BAD_ENTRIES))
def test_index_load_rejects_bad_vector_entries(tmp_path, entry):
    path, obj = _saved_postings(tmp_path)
    key, corrupt, reason = _BAD_ENTRIES[entry]
    obj["postings"][key] = corrupt(obj["postings"][key])
    _rejected(path, obj, reason)


_BAD_POSTINGS = {
    "position-past-doc-count": ("positions", [0, 1, 0, 1, 2], "outside"),
    "negative-length": ("lengths", [2, 1, 1, -1], "lengths are not"),
    "lengths-sum-too-small": ("lengths", [1, 1, 1, 1], "sizes disagree"),
    "lengths-sum-too-large": ("lengths", [2, 1, 1, 2], "sizes disagree"),
    "too-few-lengths": ("lengths", [2, 1, 1], "lengths are not"),
}


@pytest.mark.parametrize("case", sorted(_BAD_POSTINGS))
def test_index_load_rejects_bad_postings(tmp_path, case):
    path, obj = _saved_postings(tmp_path)
    key, values, reason = _BAD_POSTINGS[case]
    obj["postings"][key] = _pack("i", values)
    _rejected(path, obj, reason)


@pytest.mark.parametrize("postings", [None, [], "AAAA"], ids=["missing", "list", "string"])
def test_index_load_rejects_postings_that_are_not_an_object(tmp_path, postings):
    path, obj = _saved_postings(tmp_path)
    if postings is None:
        del obj["postings"]
    else:
        obj["postings"] = postings
    _rejected(path, obj, "postings is not an object")


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
def test_index_load_rejects_non_finite_weights(tmp_path, weight):
    path, obj = _saved_postings(tmp_path)
    weights = _unpack("d", obj["postings"]["weights"])
    weights[3] = float(weight)
    obj["postings"]["weights"] = _pack("d", weights)
    _rejected(path, obj, "not finite")


@pytest.mark.parametrize("order", ["repeated", "descending"])
def test_index_load_rejects_term_ids_that_do_not_ascend(tmp_path, order):
    path, obj = _saved_postings(tmp_path)
    # term 0 ("apple") holds documents [0, 1]; a repeated position would add
    # both weights into that document's score
    positions = _unpack("i", obj["postings"]["positions"])
    positions[:2] = [1, 1] if order == "repeated" else [1, 0]
    obj["postings"]["positions"] = _pack("i", positions)
    _rejected(path, obj, "strictly ascend")

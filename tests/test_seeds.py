from __future__ import annotations

import io
import json
import math
import random
from array import array
from collections import Counter
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillblend import seeds
from skillblend.core import DEFAULT_ROSTER, EngineConfig, SkillContext, SkillContextSet, Utterance
from skillblend.seeds import (
    ContextDoc,
    SeedEpisode,
    SideRole,
    build_index,
    build_seeds,
    default_role_template,
    docs_from_records,
    iter_seed_pairs,
    load_index,
    query,
    save_index,
    tokenize,
)

P, K, E = DEFAULT_ROSTER


def doc(i, skill, text, role=SideRole.PRIMARY):
    return ContextDoc(i, skill, role, tuple(text.split("; ")))


# --- tokenize ----------------------------------------------------------------


def test_tokenize_rules():
    assert tokenize("I love Sneakers!") == ["i", "love", "sneakers"]
    assert tokenize("") == []
    assert tokenize("a-b_c 42") == ["a", "b", "c", "42"]


# --- build_index ---------------------------------------------------------------


def test_single_doc_is_one_hot_after_l2():
    index = build_index([doc(0, P, "apple apple")])
    assert index.postings == ((array("i", [0]), array("d", [1.0])),)


def test_disjoint_docs_are_orthogonal():
    index = build_index([doc(0, P, "apple pie"), doc(1, P, "river stone")])
    # no term's postings hold both documents, so their dot product is zero
    assert sorted(tuple(positions) for positions, _ in index.postings) == [
        (0,), (0,), (1,), (1,)
    ]


def test_build_index_rejects_empty_and_duplicate_ids():
    with pytest.raises(ValueError):
        build_index([])
    with pytest.raises(ValueError):
        build_index([doc(0, P, "a"), doc(0, P, "b")])
    # ids must equal positions, which is what makes doc() a direct lookup
    with pytest.raises(ValueError):
        build_index([doc(1, P, "a"), doc(0, P, "b")])
    with pytest.raises(ValueError):
        build_index([doc(0, P, "a"), doc(2, P, "b")])


def test_doc_looks_up_by_position():
    docs = [doc(0, P, "apple pie"), doc(1, K, "river stone"), doc(2, E, "quiet night")]
    index = build_index(docs)
    assert [index.doc(i) for i in range(3)] == docs
    for bad in (-1, 3):
        with pytest.raises(KeyError):
            index.doc(bad)


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
    for d, row in zip(docs, dense):
        norm = math.sqrt(sum(x * x for x in row))
        if qnorm == 0.0 or norm == 0.0:
            continue
        cos = sum(a * b for a, b in zip(qvec, row)) / (qnorm * norm)
        if cos > 0.0:
            out.append((d.doc_id, cos))
    out.sort(key=lambda r: (-r[1], r[0]))
    return out


def test_pairwise_cosines_match_dense_oracle():
    rng = random.Random(7)
    words = ["apple", "river", "stone", "cloud", "ember", "violet", "moss", "tide"]
    docs = [
        doc(i, DEFAULT_ROSTER[i % 3], " ".join(rng.choice(words) for _ in range(rng.randrange(2, 9))))
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
    docs = [doc(i, P, f"common words {i}") for i in range(7)]
    docs.append(doc(7, P, "common words zephyr"))
    index = build_index(docs)
    results = query(index, "zephyr", k=3)
    assert results[0][0] == 7


def test_query_oov_returns_empty():
    index = build_index([doc(0, P, "apple pie")])
    assert query(index, "zzz qqq", k=5) == []


def test_query_respects_corpus_bound_and_filters():
    docs = [
        doc(0, P, "shared token alpha"),
        doc(1, P, "shared token beta"),
        doc(2, K, "shared token gamma"),
        doc(3, K, "shared token delta", role=SideRole.COUNTERPART),
    ]
    index = build_index(docs)
    assert len(query(index, "shared token", k=10)) == 4
    only_p = query(index, "shared token", k=10, filter_skill=P)
    assert {d for d, _ in only_p} == {0, 1}
    only_counter = query(index, "shared token", k=10, filter_role=SideRole.COUNTERPART)
    assert [d for d, _ in only_counter] == [3]
    with pytest.raises(ValueError):
        query(index, "shared", k=0)


def test_query_tie_order_by_doc_id():
    docs = [doc(0, P, "twin text"), doc(1, P, "twin text"), doc(2, P, "other words")]
    index = build_index(docs)
    results = query(index, "twin text", k=3)
    assert [d for d, _ in results[:2]] == [0, 1]
    assert results[0][1] == results[1][1]


def test_query_self_retrieval_hits_cosine_one():
    docs = [
        doc(0, P, "i like to ski; i hate mexican food"),
        doc(1, K, "armadillo; armadillo means little armoured one"),
        doc(2, E, "my brother scared me; terrified"),
    ]
    index = build_index(docs)
    for d in docs:
        results = query(index, d.text, k=1)
        assert results[0][0] == d.doc_id
        assert abs(results[0][1] - 1.0) <= 1e-9


def test_query_rankings_are_reproducible():
    docs = [doc(i, P, f"alpha beta {i}") for i in range(10)]
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


def _old_query(docs, old, text, k, skill=None, role=None):
    """One filtered full scan over every document, then sorted(...)[:k]."""
    vocabulary, idf, vectors = old
    counts = Counter(t for t in tokenize(text) if t in vocabulary)
    qvec = {vocabulary[t]: c * idf[vocabulary[t]] for t, c in counts.items()}
    qnorm = math.sqrt(sum(w * w for w in qvec.values()))
    if qnorm == 0.0:
        return []
    results = []
    for d, vec in zip(docs, vectors):
        if (skill is not None and d.skill.id != skill.id) or (role is not None and d.side_role is not role):
            continue
        # the scan's sum() added left to right (as sum() did up to Python
        # 3.11); spelled out so that the oracle is the same on every version
        dot = 0
        for tid, qw in qvec.items():
            dot += qw * vec.get(tid, 0.0)
        score = dot / qnorm
        if score > 0.0:
            results.append((d.doc_id, score))
    results.sort(key=lambda r: (-r[1], r[0]))
    return results[:k]


def _old_build_seeds(pair, seed_dataset, docs, old, cfg):
    """build_seeds with one full scan per (skill, role) bucket."""
    template = default_role_template(cfg.skill_roster)
    text = pair[0].text + " " + pair[1].text
    needed = {(sid, role) for side in template for sid, role in side.items()}
    buckets = {
        (skill.id, role): [docs[i] for i, _ in _old_query(docs, old, text, cfg.seeds_per_pair, skill, role)]
        for skill in cfg.skill_roster
        for role in SideRole
        if (skill.id, role) in needed
    }
    norm_pair = (Utterance(0, 0, pair[0].text), Utterance(1, 1, pair[1].text))
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
            seeds.append(SeedEpisode(seed_dataset, norm_pair, tuple(sides), seed_dataset, variant))
    return seeds


_WORDS = ["apple", "river", "stone", "cloud", "ember", "violet", "moss", "tide"]
# "?!" tokenizes to nothing, so a document of such lines has a zero vector
_LINES = st.lists(st.sampled_from(_WORDS + ["?!"]), min_size=1, max_size=6).map(" ".join)
_TEXTS = st.lists(st.sampled_from(_WORDS + ["unseen"]), min_size=1, max_size=6).map(" ".join)


@st.composite
def _corpora(draw):
    """Random corpora with a document in every roster bucket, some exact
    duplicates (tied scores) and some zero-vector documents."""
    buckets = [(s, r) for s in DEFAULT_ROSTER for r in SideRole]
    buckets += draw(st.lists(st.sampled_from(buckets), max_size=30))
    docs = [
        ContextDoc(0, skill, role, tuple(draw(st.lists(_LINES, min_size=1, max_size=3))))
        for skill, role in buckets
    ]
    docs += [docs[i] for i in draw(st.lists(st.integers(0, len(docs) - 1), max_size=10))]
    docs += [ContextDoc(0, skill, role, ("?!",)) for skill, role in draw(st.lists(st.sampled_from(buckets), max_size=3))]
    return [replace(d, doc_id=i) for i, d in enumerate(draw(st.permutations(docs)))]


@settings(max_examples=200, deadline=None)
@given(_corpora(), _TEXTS, _TEXTS, st.integers(1, 6))
def test_build_seeds_and_query_equal_the_full_scan(docs, first, second, k):
    index = build_index(docs)
    old = _old_index(docs)
    assert (index.vocabulary, index.idf) == old[:2]
    pair = (Utterance(0, 4, first), Utterance(1, 5, second))
    text = first + " " + second
    assert query(index, text, k) == _old_query(docs, old, text, k)
    for skill in DEFAULT_ROSTER:
        for role in SideRole:
            assert query(index, text, k, skill, role) == _old_query(docs, old, text, k, skill, role)
    cfg = EngineConfig(seeds_per_pair=k)
    for seed_dataset in DEFAULT_ROSTER:
        assert build_seeds(pair, seed_dataset, index, cfg) == _old_build_seeds(pair, seed_dataset, docs, old, cfg)


# --- build_seeds -------------------------------------------------------------------


def _seed_corpus():
    """Five-plus docs per needed (skill, role) bucket, all sharing 'topic'."""
    docs = []
    i = 0
    for n in range(6):
        docs.append(doc(i, P, f"topic persona {n}; extra persona line {n}")); i += 1
        docs.append(ContextDoc(i, P, SideRole.COUNTERPART, (f"topic persona other {n}",))); i += 1
        docs.append(doc(i, K, f"topic {n}")); i += 1
        docs.append(ContextDoc(i, K, SideRole.COUNTERPART, (f"topic {n}", f"knowledge about topic {n}"))); i += 1
        docs.append(doc(i, E, f"topic situation {n}; emotion {n}")); i += 1
    return docs


def _pair(a="tell me about the topic", b="the topic is lovely"):
    return (Utterance(0, 2, a), Utterance(1, 3, b))


def test_build_seeds_full_buckets_yield_all_variants():
    cfg = EngineConfig(seeds_per_pair=5)
    index = build_index(_seed_corpus())
    seeds = build_seeds(_pair(), P, index, cfg)
    assert len(seeds) == 5
    assert [s.variant_index for s in seeds] == [0, 1, 2, 3, 4]
    for seed in seeds:
        assert seed.initial_active == P
        assert seed.seed_dataset == P
        # pair re-indexed to turns 0/1, speakers 0/1
        assert [u.turn for u in seed.pair] == [0, 1]
        assert [u.speaker for u in seed.pair] == [0, 1]


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
    docs = [d for d in _seed_corpus() if not (d.skill.id == "E" and d.doc_id >= 10)]
    # keep only two empathy docs
    e_docs = [d for d in docs if d.skill.id == "E"][:2]
    docs = [d for d in docs if d.skill.id != "E"] + e_docs
    # renumber: the index requires every doc id to equal its position
    docs = [replace(d, doc_id=i) for i, d in enumerate(docs)]
    index = build_index(docs)
    seeds = build_seeds(_pair(), P, index, cfg)
    assert len(seeds) == 5
    for seed in seeds:
        has_e = seed.contexts[0].get(E) is not None
        assert has_e == (seed.variant_index < 2)


def test_build_seeds_drops_fully_empty_variants():
    cfg = EngineConfig(seeds_per_pair=5)
    index = build_index([doc(0, P, "topic persona")])
    seeds = build_seeds(_pair(), P, index, cfg)
    assert len(seeds) == 1  # variants 1..4 have no retrievable context at all


def test_blank_seed_texts_cannot_be_constructed():
    # the non-blank precondition is enforced by the Utterance type itself
    with pytest.raises(ValueError):
        Utterance(0, 0, "   ")


def test_default_role_template_shape():
    side0, side1 = default_role_template(DEFAULT_ROSTER)
    assert side0 == {"P": SideRole.PRIMARY, "K": SideRole.PRIMARY, "E": SideRole.PRIMARY}
    assert side1 == {"P": SideRole.COUNTERPART, "K": SideRole.COUNTERPART}


# --- seed pair sampling --------------------------------------------------------------


def test_iter_seed_pairs_deterministic_and_uniform_over_roster():
    pools = {
        "P": [_pair("p a", "p b")],
        "K": [_pair("k a", "k b"), _pair("k c", "k d")],
        "E": [_pair("e a", "e b")],
    }
    first = list(islice(iter_seed_pairs(pools, DEFAULT_ROSTER, rng_seed=42), 30))
    second = list(islice(iter_seed_pairs(pools, DEFAULT_ROSTER, rng_seed=42), 30))
    assert first == second
    skills = {skill.id for _, skill in first}
    assert skills == {"P", "K", "E"}
    with pytest.raises(ValueError):
        next(iter_seed_pairs({"P": pools["P"], "K": [], "E": pools["E"]}, DEFAULT_ROSTER, 1))


# --- records -> docs and persistence ---------------------------------------------------


def test_docs_from_records_skips_empty_sides(corpus_files, cfg):
    from skillblend.dataio import read_dataset

    records = [r for path in corpus_files for r in read_dataset(path, cfg.skill_roster)]
    docs = docs_from_records(records)
    assert all(d.lines for d in docs)
    roles = {(d.skill.id, d.side_role) for d in docs}
    assert (("E", SideRole.COUNTERPART)) not in roles  # listener side is empty
    assert ("E", SideRole.PRIMARY) in roles
    assert ("K", SideRole.COUNTERPART) in roles


def test_index_save_load_roundtrip(tmp_path):
    index = build_index(_seed_corpus())
    path = str(tmp_path / "ctx.idx")
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.vocabulary == dict(index.vocabulary)
    assert loaded.idf == index.idf
    assert loaded.docs == index.docs
    assert loaded.postings == index.postings
    assert query(loaded, "topic persona 3", k=4) == query(index, "topic persona 3", k=4)


def test_index_load_validates_header(tmp_path):
    index = build_index([doc(0, P, "apple")])
    path = str(tmp_path / "ctx.idx")
    save_index(index, path)

    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["version"] = 99
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    with pytest.raises(ValueError):
        load_index(path)
    obj["version"] = 1
    obj["doc_count"] = 5
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    with pytest.raises(ValueError):
        load_index(path)
    obj["doc_count"] = 1
    obj["docs"][0]["role"] = "listener"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    with pytest.raises(ValueError, match="side role"):
        load_index(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{}")
    with pytest.raises(ValueError):
        load_index(path)


def test_index_load_rejects_ids_that_differ_from_positions(tmp_path):
    index = build_index([doc(0, P, "apple"), doc(1, K, "river")])
    path = tmp_path / "ctx.idx"
    save_index(index, str(path))
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["docs"][0]["doc_id"], obj["docs"][1]["doc_id"] = 1, 0
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValueError, match="position"):
        load_index(str(path))


def _old_save_bytes(docs):
    """The index file as one json.dump of the whole object wrote it."""
    vocabulary, idf, vectors = _old_index(docs)
    obj = {
        "format": "skillblend-tfidf",
        "version": 1,
        "doc_count": len(docs),
        "vocabulary": vocabulary,
        "idf": list(idf),
        "docs": [
            {
                "doc_id": d.doc_id,
                "skill": {"id": d.skill.id, "index": d.skill.index},
                "role": d.side_role.value,
                "lines": list(d.lines),
            }
            for d in docs
        ],
        "vectors": [[[tid, w] for tid, w in sorted(vec.items())] for vec in vectors],
    }
    buf = io.StringIO()
    json.dump(obj, buf, separators=(",", ":"), ensure_ascii=False)
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("chunk", [1, 2, 3, 6, 7, seeds._SAVE_CHUNK])
def test_save_index_writes_the_bytes_of_one_json_dump(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(seeds, "_SAVE_CHUNK", chunk)
    docs = [
        doc(0, P, "café crème; naïve façade"),
        doc(1, K, "日本語 text; ünïcode \"quoted\" line", role=SideRole.COUNTERPART),
        doc(2, E, "?!; —"),  # zero vector
        doc(3, P, "plain ascii; café again"),
        doc(4, K, "emoji 😀 and tab\tand newline\n"),
        doc(5, E, "plain ascii; café again"),
    ]
    path = tmp_path / "ctx.idx"
    save_index(build_index(docs), str(path))
    expected = _old_save_bytes(docs)
    assert path.read_bytes() == expected
    # a loaded index saves to the same bytes again
    save_index(load_index(str(path)), str(path))
    assert path.read_bytes() == expected


def _saved_vectors(tmp_path):
    index = build_index([doc(0, P, "apple pie"), doc(1, K, "river apple stone")])
    path = tmp_path / "ctx.idx"
    save_index(index, str(path))
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj["vectors"][1][0][0] == 0  # "apple" is term id 0 of 4
    return path, obj


@pytest.mark.parametrize(
    "entry",
    [[1.0, 0.5], ["1", 0.5], [True, 0.5], [-1, 0.5], [4, 0.5], [1, "0.5"], [1, None], [1, 0.5, 0.5]],
    ids=[
        "float-id", "string-id", "bool-id", "negative-id", "id-past-vocabulary",
        "string-weight", "null-weight", "three-items",
    ],
)
def test_index_load_rejects_bad_vector_entries(tmp_path, entry):
    path, obj = _saved_vectors(tmp_path)
    obj["vectors"][0] = [entry]
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValueError, match="ctx.idx"):
        load_index(str(path))


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
def test_index_load_rejects_non_finite_weights(tmp_path, weight):
    path, obj = _saved_vectors(tmp_path)
    obj["vectors"][1][1][1] = float(weight)
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert weight in path.read_text(encoding="utf-8")
    with pytest.raises(ValueError, match="ctx.idx"):
        load_index(str(path))


@pytest.mark.parametrize("order", ["repeated", "descending"])
def test_index_load_rejects_term_ids_that_do_not_ascend(tmp_path, order):
    path, obj = _saved_vectors(tmp_path)
    first, second = obj["vectors"][1][:2]
    # a repeated term id would add both weights into the postings
    obj["vectors"][1][:2] = [first, [first[0], 0.25]] if order == "repeated" else [second, first]
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValueError, match="ctx.idx"):
        load_index(str(path))

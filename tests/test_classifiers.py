from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillblend import classifiers
from skillblend.agents import BackendEndpoint, ProtocolError, serve_mock
from skillblend.classifiers import (
    LexicalNliJudge,
    LexicalSkillScorer,
    LexiconSpec,
    RemoteNliJudge,
    RemoteSkillScorer,
    default_lexicon,
)
from skillblend.core import DEFAULT_ROSTER, Utterance, compact_json
from skillblend.orchestrator import _annotate


@pytest.fixture
def spec():
    return LexiconSpec(
        roster=DEFAULT_ROSTER,
        keywords={
            "P": (("sneakers", math.log(2.0)), ("tennis", 1.0)),
            "K": (("fact", 1.0),),
            "E": (("sorry", 1.0),),
        },
        contradiction_pairs=(("sneakers everyday", "sandals"),),
    )


def test_lexicon_requires_roster_coverage_and_clean_patterns():
    with pytest.raises(ValueError):
        LexiconSpec(DEFAULT_ROSTER, {"Z": (("x", 1.0),)})
    with pytest.raises(ValueError):
        LexiconSpec(DEFAULT_ROSTER, {}, contradiction_pairs=(("", "x"),))
    with pytest.raises(ValueError):
        LexiconSpec(DEFAULT_ROSTER, {"P": ((" ", 1.0),)})
    # missing roster skills are filled with empty keyword lists
    spec = LexiconSpec(DEFAULT_ROSTER, {"P": (("hi", 1.0),)})
    assert spec.keywords["K"] == ()


def test_lexical_nli_sneaker_sandal_conflict(spec):
    judge = LexicalNliJudge(spec)
    assert judge.judge(("I wear sneakers everyday",), "my sandals were torn yesterday") == (True,)


def test_lexical_nli_defaults_to_neutral():
    # an unmatched premise is not contradicted
    empty = LexiconSpec(DEFAULT_ROSTER, {})
    assert LexicalNliJudge(empty).judge(("anything at all",), "whatever else") == (False,)
    assert LexicalNliJudge(empty).judge((), "whatever else") == ()


def test_lexical_nli_batch_keeps_premise_order(spec):
    premises = ("I like tennis", "I wear sneakers everyday", "nothing here", "SNEAKERS EVERYDAY")
    bits = LexicalNliJudge(spec).judge(premises, "sandals, and I enjoy tennis")
    assert bits == (False, True, False, True)


def _lexical_nli_oracle(spec, premise, hypothesis):
    """The lexical judge as a per-pair scan of the pattern table."""
    premise_l = premise.lower()
    hypothesis_l = hypothesis.lower()
    return any(
        prem_pat.lower() in premise_l and hyp_pat.lower() in hypothesis_l
        for prem_pat, hyp_pat in spec.contradiction_pairs
    )


_WORDS = ("Alpha", "beta", "GAMMA", "delta")
_phrases = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(
    contradictions=st.lists(st.tuples(_phrases, _phrases), max_size=3),
    premises=st.lists(_phrases, max_size=5),
    hypothesis=_phrases,
)
def test_lexical_nli_batch_matches_per_pair_oracle(contradictions, premises, hypothesis):
    spec = LexiconSpec(DEFAULT_ROSTER, {}, contradiction_pairs=tuple(contradictions))
    bits = LexicalNliJudge(spec).judge(tuple(premises), hypothesis)
    assert bits == tuple(_lexical_nli_oracle(spec, p, hypothesis) for p in premises)


def test_lexical_skill_score_uniform_without_keywords(spec):
    got = LexicalSkillScorer(spec).score("plain text with nothing in it")
    assert got.probs == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)


def test_lexical_skill_score_single_weighted_keyword(spec):
    # one skill-P keyword of weight ln 2 -> exp-normalize by hand: (2,1,1)/4
    got = LexicalSkillScorer(spec).score("my SNEAKERS are new")
    assert got.probs == pytest.approx((0.5, 0.25, 0.25), abs=1e-12)


def test_lexical_skill_score_symmetry():
    spec = LexiconSpec(
        DEFAULT_ROSTER,
        {"P": (("alpha", 1.0),), "K": (("beta", 1.0),), "E": ()},
    )
    got = LexicalSkillScorer(spec).score("alpha beta together").probs
    assert got[0] == got[1]
    assert got[0] > got[2]


def test_lexical_scorer_is_pure_and_normalized(spec):
    scorer = LexicalSkillScorer(spec)
    # a mixed-case twin of the spec scores and judges as the lower-case spec does
    mixed = LexiconSpec(
        spec.roster,
        {skill: tuple((kw.title(), w) for kw, w in kws) for skill, kws in spec.keywords.items()},
        contradiction_pairs=tuple((p.upper(), h.title()) for p, h in spec.contradiction_pairs),
    )
    texts = ["sneakers fact sorry", "", "FACT!", "tennis sorry sorry", "Sneakers Everyday"]
    for text in texts:
        first = scorer.score(text)
        second = scorer.score(text)
        assert first == second
        assert abs(sum(first.probs) - 1.0) <= 1e-12
        assert LexicalSkillScorer(mixed).score(text) == first
        premises, hypothesis = (text, "i wear sneakers everyday"), "sandals " + text
        bits = LexicalNliJudge(spec).judge(premises, hypothesis)
        assert LexicalNliJudge(mixed).judge(premises, hypothesis) == bits


def _label(scorer, text):
    """The skill label the orchestrator annotates an utterance of ``text`` with."""
    return _annotate(Utterance(0, text), scorer, False, 0, ()).skill_label


def test_annotate_label_argmax_and_tie_break(spec):
    scorer = LexicalSkillScorer(spec)
    assert _label(scorer, "sneakers and tennis all day").id == "P"
    # keyword-free text scores uniform; ties break to the lowest index
    assert _label(scorer, "nothing matches").id == "P"


def test_annotate_label_matches_brute_force_oracle(spec):
    scorer = LexicalSkillScorer(spec)
    words = ["sneakers", "tennis", "fact", "sorry", "and", "blue", "sky"]
    texts = [
        " ".join(words[(i + j) % len(words)] for j in range(1 + i % 4)) for i in range(50)
    ]
    for text in texts:
        # oracle: recompute raw keyword sums and scan for the first maximum
        lowered = text.lower()
        raw = [
            sum(w for kw, w in spec.keywords[s.id] if kw.lower() in lowered)
            for s in spec.roster
        ]
        best = 0
        for i, v in enumerate(raw):
            if v > raw[best]:
                best = i
        assert _label(scorer, text).id == spec.roster[best].id


def test_default_lexicon_covers_roster():
    lex = default_lexicon(DEFAULT_ROSTER)
    assert set(lex.keywords) == {"P", "K", "E"}
    judge = LexicalNliJudge(lex)
    assert judge.judge(("i wear sneakers everyday",), "my sandals were torn yesterday") == (True,)


def test_remote_judge_and_scorer_roundtrip():
    tables = {
        "nli": {
            "pairs": [
                {
                    "premise": "i wear sneakers everyday",
                    "hypothesis": "my sandals were torn",
                    "label": "contradict",
                    "confidence": 1.0,
                },
                {
                    "premise": "i like tennis",
                    "hypothesis": "my sandals were torn",
                    "label": "entail",
                    "confidence": 0.9,
                },
            ],
            "default": {"label": "neutral", "confidence": 0.5},
        },
        "classify": {"by_text": {"hello": [0.2, 0.3, 0.5]}, "default": [0.4, 0.3, 0.3]},
    }
    with serve_mock(tables) as server:
        judge = RemoteNliJudge(server.endpoint())
        # only "contradict" is a contradiction; "entail" and "neutral" are not
        bits = judge.judge(
            ("a", "i wear sneakers everyday", "i like tennis"), "my sandals were torn"
        )
        assert bits == (False, True, False)
        assert judge.judge(("i wear sneakers everyday",), "b") == (False,)
        # several items in one request, one bit tuple per item
        batch = judge.judge_batch(
            [(("i like tennis", "i wear sneakers everyday"), "my sandals were torn"), (("a",), "b")]
        )
        assert batch == [(False, True), (False,)]
        assert [r for r, _ in server.requests] == ["/nli", "/nli", "/nli"]

        scorer = RemoteSkillScorer(server.endpoint(), DEFAULT_ROSTER)
        assert scorer.score("hello").probs == (0.2, 0.3, 0.5)
        assert scorer.score("other").probs == (0.4, 0.3, 0.3)
        assert _label(scorer, "hello").id == "E"
        dists = scorer.score_batch(["other", "hello"])
        assert [d.probs for d in dists] == [(0.4, 0.3, 0.3), (0.2, 0.3, 0.5)]
        assert json.loads(server.requests[-1][1]) == {"texts": ["other", "hello"]}


def test_remote_scorer_rejects_wrong_arity_and_bad_sum():
    tables = {"classify": {"by_text": {"short": [0.5, 0.5], "skew": [0.9, 0.9, 0.2]}}}
    with serve_mock(tables) as server:
        scorer = RemoteSkillScorer(server.endpoint(), DEFAULT_ROSTER)
        with pytest.raises(ProtocolError):
            scorer.score("short")
        with pytest.raises(ProtocolError):
            scorer.score("skew")


_PROBABILITY_MESSAGE = "/classify: non-numeric probability in response"


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"distributions":[[0.2,0.3,0.5]]}', "/classify: expected 2 distributions, got 1"),
        (b'{"distributions":[[0.2,0.3,0.5],[0.2,0.3,0.5],[0.2,0.3,0.5]]}',
         "/classify: expected 2 distributions, got 3"),
        (b'{"distributions":[0.2,0.3,0.5]}', "/classify: expected 2 distributions, got 3"),
        (b'{"distribution":[0.2,0.3,0.5]}', "/classify: expected 2 distributions, got no"),
        (b'{"distributions":[[0.2,0.3,0.5],{"P":1.0}]}', "/classify: expected 3 probabilities, got no"),
        (b'{"distributions":[[0.2,0.3,0.5],[0.5,0.5]]}', "/classify: expected 3 probabilities, got 2"),
        (b'{"distributions":[[0.2,0.3,0.5],[0.2,NaN,0.5]]}', _PROBABILITY_MESSAGE),
        (b'{"distributions":[[0.2,0.3,0.5],[0.2,Infinity,0.5]]}', _PROBABILITY_MESSAGE),
        (b'{"distributions":[[0.2,0.3,0.5],[0.2,0.3,0.9]]}', "/classify: "),
    ],
)
def test_remote_scorer_rejects_a_malformed_batch(monkeypatch, raw, message):
    monkeypatch.setattr(classifiers, "post_json", lambda *args: (json.loads(raw), raw))
    scorer = RemoteSkillScorer(BackendEndpoint("http://127.0.0.1:9"), DEFAULT_ROSTER)
    with pytest.raises(ProtocolError, match=message) as err:
        scorer.score_batch(["a", "b"])
    assert err.value.body == raw


@pytest.mark.parametrize(
    "probability",
    ["0.3", True, None, math.nan, math.inf, -math.inf, 10**400],
    ids=["string", "bool", "null", "NaN", "Infinity", "-Infinity", "beyond float range"],
)
def test_remote_scorer_rejects_a_malformed_probability(probability):
    dist = [0.5, probability, 0.5]
    with serve_mock({"classify": {"default": dist}}) as server:
        scorer = RemoteSkillScorer(server.endpoint(), DEFAULT_ROSTER)
        with pytest.raises(ProtocolError, match=_PROBABILITY_MESSAGE) as err:
            scorer.score("text")
    assert err.value.body == compact_json({"distributions": [dist]}).encode("utf-8")


def test_remote_judge_rejects_unknown_label():
    tables = {"nli": {"default": {"label": "maybe", "confidence": 0.5}}}
    with serve_mock(tables) as server:
        judge = RemoteNliJudge(server.endpoint())
        with pytest.raises(ProtocolError):
            judge.judge(("a",), "b")


def test_remote_judge_rejects_a_bad_label_inside_one_verdict():
    tables = {
        "nli": {
            "pairs": [{"premise": "b", "hypothesis": "h", "label": "maybe"}],
            "default": {"label": "neutral", "confidence": 0.5},
        }
    }
    with serve_mock(tables) as server:
        with pytest.raises(ProtocolError, match="unknown 'label' 'maybe'") as err:
            RemoteNliJudge(server.endpoint()).judge(("a", "b", "c"), "h")
    assert err.value.body == (
        b'{"verdicts":[[{"label":"neutral","confidence":0.5},'
        b'{"label":"maybe","confidence":1.0},{"label":"neutral","confidence":0.5}]]}'
    )


_CONFIDENCE_MESSAGE = "/nli: missing or non-numeric 'confidence'"
_NEUTRAL = b'{"label":"neutral","confidence":0.5}'


def _second(verdict: bytes) -> bytes:
    """A response to the two-premise, one-hypothesis batch below whose
    second verdict is ``verdict``."""
    return b'{"verdicts":[[' + _NEUTRAL + b"," + verdict + b"]]}"


@pytest.mark.parametrize(
    "raw, message",
    [
        # the batch's arity and shape: one verdict list per item
        (b'{"verdicts":[[' + _NEUTRAL + b"]]}", "expected 2 verdicts, got 1"),
        (b'{"verdicts":[' + _NEUTRAL + b"]}", "expected 2 verdicts, got no"),
        (b'{"verdicts":[]}', "expected 1 verdict lists, got 0"),
        (b'{"verdicts":[[' + _NEUTRAL + b"," + _NEUTRAL + b"],[]]}", "expected 1 verdict lists, got 2"),
        (b'{"verdicts":{"label":"neutral","confidence":0.5}}', "expected 1 verdict lists, got no"),
        (b'{"label":"neutral","confidence":0.5}', "expected 1 verdict lists, got no"),
        (_second(b'"neutral"'), "not a JSON object"),
        # the confidence is checked, though no decision reads it
        (_second(b'{"label":"neutral"}'), _CONFIDENCE_MESSAGE),
        (_second(b'{"label":"neutral","confidence":"high"}'), _CONFIDENCE_MESSAGE),
        (_second(b'{"label":"neutral","confidence":true}'), _CONFIDENCE_MESSAGE),
        (_second(b'{"label":"neutral","confidence":NaN}'), _CONFIDENCE_MESSAGE),
        (_second(b'{"label":"neutral","confidence":Infinity}'), _CONFIDENCE_MESSAGE),
        (_second(b'{"label":"neutral","confidence":-Infinity}'), _CONFIDENCE_MESSAGE),
        (_second(b'{"label":"neutral","confidence":1' + b"0" * 400 + b"}"), _CONFIDENCE_MESSAGE),
        (_second(b'{"label":"contradict","confidence":1.5}'), r"/nli: confidence must be in \[0, 1\]"),
        (_second(b'{"label":"contradict","confidence":-0.1}'), r"/nli: confidence must be in \[0, 1\]"),
    ],
)
def test_remote_judge_rejects_malformed_verdicts(monkeypatch, raw, message):
    monkeypatch.setattr(classifiers, "post_json", lambda *args: (json.loads(raw), raw))
    judge = RemoteNliJudge(BackendEndpoint("http://127.0.0.1:9"))
    with pytest.raises(ProtocolError, match=message) as err:
        judge.judge(("a", "b"), "h")
    assert err.value.body == raw

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillblend.agents import ProtocolError, ScriptedAgent
from skillblend.classifiers import LexicalNliJudge, LexiconSpec
from skillblend.core import (
    DEFAULT_ROSTER,
    DialogueContext,
    ResponseCandidate,
    SkillContext,
    SkillContextSet,
    SkillDistribution,
    Utterance,
)
from skillblend.distmath import kl_divergence
from skillblend.moderator import (
    GateDecision,
    consistency_gate,
    flow_gate,
    select_final,
    simulate_approved,
)

from skillblend.orchestrator import _EpisodeMemo

from helpers import FixedRankAgent, TableJudge, TableScorer, consistency_gate_oracle, uniform

P, K, E = DEFAULT_ROSTER


def ctxset(*pairs):
    return SkillContextSet(tuple(SkillContext(skill, tuple(lines)) for skill, lines in pairs))


@pytest.fixture
def dtx():
    return DialogueContext((Utterance(0, "hello there"), Utterance(1, "prev")))


def test_consistency_gate_sneaker_sandal_conflict():
    spec = LexiconSpec(
        DEFAULT_ROSTER, {}, contradiction_pairs=(("sneakers everyday", "sandals"),)
    )
    judge = LexicalNliJudge(spec)
    stx = ctxset((P, ["I wear sneakers everyday"]), (K, ["shoes are footwear"]))
    decision = consistency_gate(judge, stx.flat_lines(), "my sandals were torn yesterday")
    assert decision == GateDecision(False, context_skill=P)


def test_consistency_gate_vacuous_on_empty_contexts():
    judge = TableJudge()
    assert consistency_gate(judge, SkillContextSet(()).flat_lines(), "anything") == GateDecision(True)


def test_consistency_gate_all_8_bit_assignments():
    # brute force: refuse iff any of the three lines is contradicted
    lines = ["line one", "line two", "line three"]
    stx = ctxset((P, [lines[0]]), (K, [lines[1]]), (E, [lines[2]]))
    for assignment in itertools.product((False, True), repeat=3):
        judge = TableJudge(dict(zip(lines, assignment)))
        decision = consistency_gate(judge, stx.flat_lines(), "candidate text")
        assert decision == consistency_gate_oracle(judge, stx, "candidate text")
        expected_refuse = True in assignment
        assert decision.approved == (not expected_refuse)
        if expected_refuse:
            first = assignment.index(True)
            assert decision.context_skill == (P, K, E)[first]
        else:
            assert decision.context_skill is None


def test_consistency_gate_randomized_against_oracle():
    rng = random.Random(99)
    for trial in range(200):
        n_lines = rng.randrange(0, 7)
        lines = [f"ctx {trial} {i}" for i in range(n_lines)]
        # each line is contradicted with probability 1/3
        assigned = {line: rng.randrange(3) == 2 for line in lines}
        per_skill: dict[str, list[str]] = {"P": [], "K": [], "E": []}
        for line in lines:
            per_skill[rng.choice("PKE")].append(line)
        stx = ctxset(*((s, per_skill[s.id]) for s in DEFAULT_ROSTER if per_skill[s.id]))
        judge = TableJudge(assigned)
        decision = consistency_gate(judge, stx.flat_lines(), "res")
        assert decision == consistency_gate_oracle(judge, stx, "res")
        assert decision.approved == (not any(assigned.values()))


class _PairJudge:
    """NLI stub with a contradiction bit per (premise, hypothesis); logs
    each batch."""

    def __init__(self, bits):
        self.bits = bits
        self.batches = []

    def judge(self, premises, hypothesis):
        self.batches.append((premises, hypothesis))
        return tuple(self.bits.get((p, hypothesis), False) for p in premises)


# a small pool, so lines repeat within a context, across skills and across sides
_LINES = ("line a", "line b", "line c", "line d")
_TEXTS = ("text x", "text y", "text z")
_context_sets = st.fixed_dictionaries(
    {s.id: st.none() | st.lists(st.sampled_from(_LINES), max_size=4) for s in DEFAULT_ROSTER}
).map(lambda d: ctxset(*((s, d[s.id]) for s in DEFAULT_ROSTER if d[s.id] is not None)))


@settings(max_examples=300, deadline=None)
@given(
    sides=st.tuples(_context_sets, _context_sets),
    bits=st.dictionaries(
        st.tuples(st.sampled_from(_LINES), st.sampled_from(_TEXTS)), st.booleans()
    ),
    calls=st.lists(st.tuples(st.integers(0, 1), st.sampled_from(_TEXTS)), max_size=10),
)
def test_consistency_gate_matches_oracle_directly_and_through_the_memo(sides, bits, calls):
    direct = _PairJudge(bits)
    behind = _PairJudge(bits)
    memo = _EpisodeMemo(behind, TableScorer(DEFAULT_ROSTER))
    for side, text in calls:
        expected = consistency_gate_oracle(direct, sides[side], text)
        assert consistency_gate(direct, sides[side].flat_lines(), text) == expected
        assert consistency_gate(memo, sides[side].flat_lines(), text) == expected
    # behind the memo: no empty batch, and each pair judged at most once
    assert all(premises for premises, _ in behind.batches)
    pairs = [(p, h) for premises, h in behind.batches for p in premises]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == {
        (line, text) for side, text in calls for line in sides[side].flat_lines()[0]
    }


def test_simulate_approved_first_attempt(dtx):
    judge = TableJudge()
    agent = ScriptedAgent(K, ("clean response",))
    result = simulate_approved(agent, judge, ((), ()), SkillContext(K), dtx, 8, "the opening")
    # the opening is gated as given, and the moderator stamps it with the
    # agent's skill and the attempt
    assert result.candidate == ResponseCandidate("the opening", K, 1)
    assert result.refusals == ()


def test_simulate_approved_retries_until_clean(dtx):
    # templates 0-1 trip the contradiction pattern, template 2 is clean
    spec = LexiconSpec(DEFAULT_ROSTER, {}, contradiction_pairs=(("premise line", "tainted"),))
    judge = LexicalNliJudge(spec)
    agent = ScriptedAgent(K, ("tainted one", "tainted two", "fresh and clean"))
    stx_all = ctxset((P, ["premise line"]))
    result = simulate_approved(
        agent, judge, stx_all.flat_lines(), SkillContext(K), dtx, 8, "tainted one"
    )
    assert result.candidate == ResponseCandidate("fresh and clean", K, 3)
    assert [r.candidate_skill.id for r in result.refusals] == ["K", "K"]
    assert [r.context_skill.id for r in result.refusals] == ["P", "P"]


def test_simulate_approved_exhaustion(dtx):
    spec = LexiconSpec(DEFAULT_ROSTER, {}, contradiction_pairs=(("premise line", "tainted"),))
    judge = LexicalNliJudge(spec)
    agent = ScriptedAgent(K, ("tainted forever",))
    result = simulate_approved(
        agent, judge, ctxset((P, ["premise line"])).flat_lines(), SkillContext(K), dtx, 8,
        "tainted forever",
    )
    assert result.candidate is None
    assert len(result.refusals) == 8
    with pytest.raises(ValueError):
        simulate_approved(agent, judge, ((), ()), SkillContext(K), dtx, 0, "tainted forever")


def _scorer():
    return TableScorer(
        DEFAULT_ROSTER,
        {
            "same": SkillDistribution((0.8, 0.1, 0.1)),
            "swap": SkillDistribution((0.1, 0.8, 0.1)),
        },
        default=uniform(3),
    )


def test_flow_gate_identity_approves():
    decision = flow_gate(_scorer(), "same", "same", 1.0, 0.0)
    assert decision.approved


def test_flow_gate_refuses_above_alpha():
    scorer = _scorer()
    assert flow_gate(scorer, "same", "swap", 1.0, 0.0) == GateDecision(False)
    expected = 0.8 * math.log(8.0) + 0.1 * math.log(1.0 / 8.0)
    kl = kl_divergence(scorer.score("same"), scorer.score("swap"), 0.0)
    assert kl == pytest.approx(expected, abs=1e-12)
    assert kl >= 1.0


def test_flow_gate_huge_alpha_approves_anything():
    assert flow_gate(_scorer(), "same", "swap", 1e9, 0.0).approved
    with pytest.raises(ValueError):
        flow_gate(_scorer(), "same", "swap", 0.0, 0.0)


def test_flow_gate_monotone_in_alpha():
    rng = random.Random(5)
    scorer = _scorer()
    for _ in range(100):
        alpha = rng.uniform(0.01, 2.0)
        bigger = alpha + rng.uniform(0.01, 2.0)
        if flow_gate(scorer, "same", "swap", alpha, 0.0).approved:
            assert flow_gate(scorer, "same", "swap", bigger, 0.0).approved


def _candidates(texts_origins):
    return [ResponseCandidate(text, origin) for text, origin in texts_origins]


def _gate_scorer():
    # "ok" texts share the previous distribution (KL 0); "block" is far away
    return TableScorer(
        DEFAULT_ROSTER,
        {"block": SkillDistribution((0.97, 0.02, 0.01))},
        default=uniform(3),
    )


def test_select_final_restricted_argmax(dtx):
    # ranker scores [0.9, 0.5, 0.7], gates [0, 1, 1]: max over {0, 0.5, 0.7} -> 2
    agent = FixedRankAgent(P, [0.9, 0.5, 0.7])
    cands = _candidates([("block", P), ("ok a", K), ("ok b", E)])
    scorer = _gate_scorer()
    outcome = select_final(agent, scorer, SkillContext(P), dtx, cands, 0.5, 0.0)
    assert outcome.winner is cands[2]
    assert outcome.mic_passed
    assert not outcome.used_fallback
    gates = [flow_gate(scorer, dtx.turns[-1].text, c.text, 0.5, 0.0) for c in cands]
    assert [g.approved for g in gates] == [False, True, True]


def test_select_final_all_approved_plain_argmax(dtx):
    agent = FixedRankAgent(P, [0.9, 0.5, 0.7])
    cands = _candidates([("ok a", P), ("ok b", K), ("ok c", E)])
    outcome = select_final(agent, _gate_scorer(), SkillContext(P), dtx, cands, 0.5, 0.0)
    assert outcome.winner is cands[0]
    assert not outcome.mic_passed  # candidate 0 belongs to the active skill


def test_select_final_fallback_prefers_active_candidate(dtx):
    agent = FixedRankAgent(P, [0.1, 0.9, 0.8])
    cands = _candidates([("block", P), ("block", K), ("block", E)])
    outcome = select_final(agent, _gate_scorer(), SkillContext(P), dtx, cands, 0.5, 0.0)
    assert outcome.used_fallback
    assert outcome.winner is cands[0]
    assert not outcome.mic_passed


def test_select_final_fallback_without_active_candidate(dtx):
    agent = FixedRankAgent(P, [0.1, 0.9, 0.8])
    cands = _candidates([("block", K), ("block", E), ("block", K)])
    outcome = select_final(agent, _gate_scorer(), SkillContext(P), dtx, cands, 0.5, 0.0)
    assert outcome.used_fallback
    assert outcome.winner is cands[1]  # highest ranker score
    assert outcome.mic_passed


def test_select_final_scaling_invariance(dtx):
    rng = random.Random(17)
    scorer = _gate_scorer()
    for _ in range(50):
        scores = [rng.uniform(0.0, 5.0) for _ in range(3)]
        cands = _candidates([("ok", P), ("block", K), ("ok", E)])
        base = select_final(FixedRankAgent(P, scores), scorer, SkillContext(P), dtx,
                            cands, 0.5, 0.0)
        scale = rng.uniform(0.1, 25.0)
        scaled = select_final(FixedRankAgent(P, [s * scale for s in scores]), scorer,
                              SkillContext(P), dtx, cands, 0.5, 0.0)
        assert base.winner is scaled.winner


def test_select_final_mic_flag_matches_winner_origin(dtx):
    rng = random.Random(23)
    scorer = _gate_scorer()
    origins = [P, K, E]
    for _ in range(50):
        cands = _candidates(
            [(rng.choice(["ok", "block"]), rng.choice(origins)) for _ in range(3)]
        )
        scores = [rng.uniform(0, 1) for _ in range(3)]
        outcome = select_final(FixedRankAgent(P, scores), scorer, SkillContext(P), dtx, cands, 0.5, 0.0)
        assert outcome.mic_passed == (outcome.winner.origin.id != "P")


def test_select_final_preconditions_and_arity(dtx):
    agent = FixedRankAgent(P, [0.5, 0.5])
    with pytest.raises(ValueError):
        select_final(agent, _gate_scorer(), SkillContext(P), dtx, [], 0.5, 0.0)
    with pytest.raises(ValueError):
        select_final(agent, _gate_scorer(), SkillContext(P), DialogueContext(()),
                     _candidates([("ok", P)]), 0.5, 0.0)
    with pytest.raises(ProtocolError):
        select_final(agent, _gate_scorer(), SkillContext(P), dtx,
                     _candidates([("ok", P)]), 0.5, 0.0)

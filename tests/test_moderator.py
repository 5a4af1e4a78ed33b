from __future__ import annotations

import itertools
import math
import random

import pytest

from skillblend.agents import ProtocolError, ScriptedAgent, ScriptedAgentSpec
from skillblend.classifiers import LexicalNliJudge, LexiconSpec, NliLabel
from skillblend.core import (
    DEFAULT_ROSTER,
    DialogueContext,
    ResponseCandidate,
    SkillContext,
    SkillContextSet,
    SkillDistribution,
    Utterance,
)
from skillblend.moderator import (
    GateDecision,
    REASON_KL_EXCEEDED,
    REASON_NLI_CONTRADICTION,
    consistency_gate,
    flow_gate,
    select_final,
    simulate_approved,
)

from helpers import FixedRankAgent, TableJudge, TableScorer, uniform

P, K, E = DEFAULT_ROSTER


def ctxset(*pairs):
    return SkillContextSet(tuple(SkillContext(skill, tuple(lines)) for skill, lines in pairs))


@pytest.fixture
def dtx():
    return DialogueContext((Utterance(0, 0, "hello there"), Utterance(1, 1, "prev")))


def test_gate_decision_invariant():
    with pytest.raises(ValueError):
        GateDecision(True, REASON_KL_EXCEEDED)
    assert GateDecision.ok().approved
    assert not GateDecision.kl_exceeded(2.0).approved


def test_consistency_gate_sneaker_sandal_conflict():
    spec = LexiconSpec(
        DEFAULT_ROSTER, {}, contradiction_pairs=(("sneakers everyday", "sandals"),)
    )
    judge = LexicalNliJudge(spec)
    stx = ctxset((P, ["I wear sneakers everyday"]), (K, ["shoes are footwear"]))
    decision = consistency_gate(judge, stx, "my sandals were torn yesterday")
    assert not decision.approved
    assert decision.reason == REASON_NLI_CONTRADICTION
    assert decision.context_skill == P


def test_consistency_gate_vacuous_on_empty_contexts():
    judge = TableJudge()
    assert consistency_gate(judge, SkillContextSet(()), "anything").approved


def test_consistency_gate_all_27_label_assignments():
    # brute force: refuse iff any of the three verdicts is Contradict
    lines = ["line one", "line two", "line three"]
    labels = (NliLabel.ENTAIL, NliLabel.NEUTRAL, NliLabel.CONTRADICT)
    stx = ctxset((P, [lines[0]]), (K, [lines[1]]), (E, [lines[2]]))
    for assignment in itertools.product(labels, repeat=3):
        judge = TableJudge(dict(zip(lines, assignment)))
        decision = consistency_gate(judge, stx, "candidate text")
        expected_refuse = NliLabel.CONTRADICT in assignment
        assert decision.approved == (not expected_refuse)
        if expected_refuse:
            first = assignment.index(NliLabel.CONTRADICT)
            assert decision.context_skill == (P, K, E)[first]


def test_consistency_gate_randomized_against_oracle():
    rng = random.Random(99)
    labels = (NliLabel.ENTAIL, NliLabel.NEUTRAL, NliLabel.CONTRADICT)
    for trial in range(200):
        n_lines = rng.randrange(0, 7)
        lines = [f"ctx {trial} {i}" for i in range(n_lines)]
        assigned = {line: labels[rng.randrange(3)] for line in lines}
        per_skill: dict[str, list[str]] = {"P": [], "K": [], "E": []}
        for line in lines:
            per_skill[rng.choice("PKE")].append(line)
        stx = ctxset(*((s, per_skill[s.id]) for s in DEFAULT_ROSTER if per_skill[s.id]))
        decision = consistency_gate(TableJudge(assigned), stx, "res")
        assert decision.approved == all(
            assigned[line] is not NliLabel.CONTRADICT for line in lines
        )


def test_simulate_approved_first_attempt(dtx):
    judge = TableJudge()
    agent = ScriptedAgent(ScriptedAgentSpec(K, (("clean response", 0.5),)))
    result = simulate_approved(agent, judge, SkillContextSet(()), SkillContext(K), dtx, 8)
    assert result.candidate.attempts == 1
    assert result.refusals == ()
    assert result.candidate is not None


def test_simulate_approved_retries_until_clean(dtx):
    # templates 0-1 trip the contradiction pattern, template 2 is clean
    spec = LexiconSpec(DEFAULT_ROSTER, {}, contradiction_pairs=(("premise line", "tainted"),))
    judge = LexicalNliJudge(spec)
    agent = ScriptedAgent(
        ScriptedAgentSpec(
            K,
            (("tainted one", 0.9), ("tainted two", 0.8), ("fresh and clean", 0.7)),
        )
    )
    stx_all = ctxset((P, ["premise line"]))
    result = simulate_approved(agent, judge, stx_all, SkillContext(K), dtx, 8)
    assert result.candidate.text == "fresh and clean"
    assert result.candidate.attempts == 3
    assert [r.candidate_skill.id for r in result.refusals] == ["K", "K"]
    assert [r.context_skill.id for r in result.refusals] == ["P", "P"]


def test_simulate_approved_exhaustion(dtx):
    spec = LexiconSpec(DEFAULT_ROSTER, {}, contradiction_pairs=(("premise line", "tainted"),))
    judge = LexicalNliJudge(spec)
    agent = ScriptedAgent(ScriptedAgentSpec(K, (("tainted forever", 0.9),)))
    result = simulate_approved(agent, judge, ctxset((P, ["premise line"])), SkillContext(K), dtx, 8)
    assert result.candidate is None
    assert len(result.refusals) == 8
    with pytest.raises(ValueError):
        simulate_approved(agent, judge, SkillContextSet(()), SkillContext(K), dtx, 0)


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
    decision = flow_gate(_scorer(), "same", "swap", 1.0, 0.0)
    assert not decision.approved
    assert decision.reason == REASON_KL_EXCEEDED
    expected = 0.8 * math.log(8.0) + 0.1 * math.log(1.0 / 8.0)
    assert decision.kl_value == pytest.approx(expected, abs=1e-12)


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
    return [ResponseCandidate(text, origin, 0.5) for text, origin in texts_origins]


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
    outcome = select_final(agent, _gate_scorer(), SkillContext(P), dtx, cands, 0.5, 0.0)
    assert outcome.winner_index == 2
    assert outcome.mic_passed
    assert not outcome.used_fallback
    assert [g.approved for g in outcome.gate_log] == [False, True, True]


def test_select_final_all_approved_plain_argmax(dtx):
    agent = FixedRankAgent(P, [0.9, 0.5, 0.7])
    cands = _candidates([("ok a", P), ("ok b", K), ("ok c", E)])
    outcome = select_final(agent, _gate_scorer(), SkillContext(P), dtx, cands, 0.5, 0.0)
    assert outcome.winner_index == 0
    assert not outcome.mic_passed  # candidate 0 belongs to the active skill


def test_select_final_fallback_prefers_active_candidate(dtx):
    agent = FixedRankAgent(P, [0.1, 0.9, 0.8])
    cands = _candidates([("block", P), ("block", K), ("block", E)])
    outcome = select_final(agent, _gate_scorer(), SkillContext(P), dtx, cands, 0.5, 0.0)
    assert outcome.used_fallback
    assert outcome.winner_index == 0
    assert not outcome.mic_passed


def test_select_final_fallback_without_active_candidate(dtx):
    agent = FixedRankAgent(P, [0.1, 0.9, 0.8])
    cands = _candidates([("block", K), ("block", E), ("block", K)])
    outcome = select_final(agent, _gate_scorer(), SkillContext(P), dtx, cands, 0.5, 0.0)
    assert outcome.used_fallback
    assert outcome.winner_index == 1  # highest ranker score
    assert outcome.mic_passed


def test_select_final_scaling_invariance(dtx):
    rng = random.Random(17)
    scorer = _gate_scorer()
    for _ in range(50):
        scores = [rng.uniform(0.0, 5.0) for _ in range(3)]
        texts = [("ok", P), ("block", K), ("ok", E)]
        base = select_final(FixedRankAgent(P, scores), scorer, SkillContext(P), dtx,
                            _candidates(texts), 0.5, 0.0)
        scale = rng.uniform(0.1, 25.0)
        scaled = select_final(FixedRankAgent(P, [s * scale for s in scores]), scorer,
                              SkillContext(P), dtx, _candidates(texts), 0.5, 0.0)
        assert base.winner_index == scaled.winner_index


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

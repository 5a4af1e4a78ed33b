"""Moderator decision gates and the per-turn workflow around them.

Two binary gates realize the moderator's approval/refusal action space:
the consistency gate (NLI against every context line) and the flow gate
(KL divergence between consecutive skill distributions against a
threshold). Everything here is stateless given its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .agents import ProtocolError, SkillAgent
from .classifiers import NliJudge, NliLabel, SkillScorer
from .core import (
    DialogueContext,
    Refusal,
    ResponseCandidate,
    SkillContext,
    SkillContextSet,
    SkillId,
)
from .distmath import kl_divergence, stable_argmax

REASON_OK = "ok"
REASON_NLI_CONTRADICTION = "nli_contradiction"
REASON_KL_EXCEEDED = "kl_exceeded"


@dataclass(frozen=True)
class GateDecision:
    approved: bool
    reason: str
    context_skill: SkillId | None = None
    kl_value: float | None = None

    def __post_init__(self) -> None:
        if self.approved != (self.reason == REASON_OK):
            raise ValueError("approved must hold exactly when the reason is 'ok'")

    @classmethod
    def ok(cls) -> "GateDecision":
        return cls(True, REASON_OK)

    @classmethod
    def nli_contradiction(cls, context_skill: SkillId) -> "GateDecision":
        return cls(False, REASON_NLI_CONTRADICTION, context_skill=context_skill)

    @classmethod
    def kl_exceeded(cls, kl_value: float) -> "GateDecision":
        return cls(False, REASON_KL_EXCEEDED, kl_value=kl_value)


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of the bounded regeneration loop: the first approved
    candidate, or None when the attempt budget ran out. ``refusals`` logs
    every refused attempt either way."""

    candidate: ResponseCandidate | None
    refusals: tuple[Refusal, ...]


@dataclass(frozen=True)
class SelectionOutcome:
    winner: ResponseCandidate
    winner_index: int
    mic_passed: bool
    gate_log: tuple[GateDecision, ...]
    used_fallback: bool


def consistency_gate(judge: NliJudge, stx_all: SkillContextSet, res: str) -> GateDecision:
    """Refuse iff any (context line, res) pair judges Contradict; lines are
    checked in roster order then line order, and the first contradicting
    context's skill is recorded."""
    for ctx in stx_all:
        for line in ctx.lines:
            if judge.judge(line, res).label is NliLabel.CONTRADICT:
                return GateDecision.nli_contradiction(ctx.skill)
    return GateDecision.ok()


def simulate_approved(
    agent: SkillAgent,
    judge: NliJudge,
    stx_all: SkillContextSet,
    stx_own: SkillContext,
    dtx: DialogueContext,
    max_attempts: int,
) -> SimulationResult:
    """Regenerate until the consistency gate approves, at most
    ``max_attempts`` times. Exhausted agents contribute no candidate for
    the turn."""
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    refusals: list[Refusal] = []
    for attempt in range(1, max_attempts + 1):
        candidate = agent.generate(stx_own, dtx, attempt)
        assert candidate.origin.id == agent.skill.id, "candidate origin must match the agent"
        decision = consistency_gate(judge, stx_all, candidate.text)
        if decision.approved:
            return SimulationResult(replace(candidate, attempts=attempt), tuple(refusals))
        refusals.append(Refusal(candidate_skill=agent.skill, context_skill=decision.context_skill))
    return SimulationResult(None, tuple(refusals))


def flow_gate(
    scorer: SkillScorer, prev_text: str, cand_text: str, alpha: float, epsilon: float
) -> GateDecision:
    """Approve iff KL(score(prev) || score(cand)) < alpha."""
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    kl = kl_divergence(scorer.score(prev_text), scorer.score(cand_text), epsilon)
    if kl < alpha:
        return GateDecision.ok()
    return GateDecision.kl_exceeded(kl)


def select_final(
    active: SkillAgent,
    scorer: SkillScorer,
    stx_active: SkillContext,
    dtx: DialogueContext,
    candidates: Sequence[ResponseCandidate],
    alpha: float,
    epsilon: float,
) -> SelectionOutcome:
    """Pick the turn's final response: stable argmax of ranker score times
    flow-gate bit, restricted to approved candidates.

    When every gate refuses, fall back to the active agent's own candidate
    if present, otherwise the highest-ranked candidate. The mic passes
    exactly when the winner's origin differs from the active skill.
    """
    if not candidates:
        raise ValueError("select_final requires at least one candidate")
    if not dtx.turns:
        raise ValueError("select_final requires a previous utterance")
    scores = list(active.rank(stx_active, dtx, list(candidates)))
    if len(scores) != len(candidates):
        raise ProtocolError(
            f"ranker returned {len(scores)} scores for {len(candidates)} candidates"
        )
    prev_text = dtx.turns[-1].text
    gate_log = tuple(
        flow_gate(scorer, prev_text, cand.text, alpha, epsilon) for cand in candidates
    )

    winner_index: int | None = None
    for i, (score, gate) in enumerate(zip(scores, gate_log)):
        if gate.approved and (winner_index is None or score > scores[winner_index]):
            winner_index = i
    used_fallback = winner_index is None
    if winner_index is None:
        own = [i for i, c in enumerate(candidates) if c.origin.id == active.skill.id]
        winner_index = own[0] if own else stable_argmax(scores)
    winner = candidates[winner_index]
    return SelectionOutcome(
        winner=winner,
        winner_index=winner_index,
        mic_passed=winner.origin.id != active.skill.id,
        gate_log=gate_log,
        used_fallback=used_fallback,
    )

"""Moderator decision gates and the per-turn workflow around them.

Two binary gates realize the moderator's approval/refusal action space:
the consistency gate (NLI against every context line of the speaking side,
in one batched judge call) and the flow gate
(KL divergence between consecutive skill distributions against a
threshold). Everything here is stateless given its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .agents import ProtocolError, SkillAgent
from .classifiers import NliJudge, SkillScorer
from .core import (
    DialogueContext,
    Refusal,
    ResponseCandidate,
    SkillContext,
    SkillId,
)
from .distmath import kl_divergence, stable_argmax


@dataclass(frozen=True)
class GateDecision:
    """A gate's verdict. A refusal records what caused it: the first
    contradicting context's skill (consistency gate) or the KL value
    (flow gate)."""

    approved: bool
    context_skill: SkillId | None = None
    kl_value: float | None = None


_APPROVED = GateDecision(True)


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
    mic_passed: bool
    used_fallback: bool


def consistency_gate(
    judge: NliJudge, side_lines: tuple[tuple[str, ...], tuple[SkillId, ...]], res: str
) -> GateDecision:
    """Refuse iff res contradicts any context line.
    ``side_lines`` is the speaking side's ``SkillContextSet.flat_lines()``.
    Every line goes to the judge in one batch; the first contradicting line
    in roster order, then line order, decides, and its skill is recorded."""
    lines, skills = side_lines
    if not lines:
        return _APPROVED
    for contradicts, skill in zip(judge.judge(lines, res), skills, strict=True):
        if contradicts:
            return GateDecision(False, context_skill=skill)
    return _APPROVED


def simulate_approved(
    agent: SkillAgent,
    judge: NliJudge,
    side_lines: tuple[tuple[str, ...], tuple[SkillId, ...]],
    stx_own: SkillContext,
    dtx: DialogueContext,
    max_attempts: int,
    opening: str | None = None,
) -> SimulationResult:
    """Regenerate until the consistency gate approves, at most
    ``max_attempts`` times. Each generated text becomes a candidate stamped
    here, with the agent's skill as its origin and the attempt number as
    its attempt count. ``opening``, when given, is the agent's attempt-1
    text, already generated; the agent is then asked only for the retries.
    Exhausted agents contribute no candidate for the turn."""
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    refusals: list[Refusal] = []
    for attempt in range(1, max_attempts + 1):
        if attempt == 1 and opening is not None:
            text = opening
        else:
            text = agent.generate(stx_own, dtx, attempt)
        candidate = ResponseCandidate(text, agent.skill, attempt)
        decision = consistency_gate(judge, side_lines, candidate.text)
        if decision.approved:
            return SimulationResult(candidate, tuple(refusals))
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
        return _APPROVED
    return GateDecision(False, kl_value=kl)


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
        mic_passed=winner.origin.id != active.skill.id,
        used_fallback=used_fallback,
    )

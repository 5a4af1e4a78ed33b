"""Shared domain types for the multi-skill dialogue engine.

Everything in this module is immutable value data: instances can be shared
freely across concurrent episode workers. Local invariants are enforced at
construction time; cross-field invariants that only make sense against an
:class:`EngineConfig` are re-checked by :func:`validate_episode`, which
reports violations as data instead of raising.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring
from typing import Iterator, Sequence


@dataclass(frozen=True)
class SkillId:
    """A roster entry: a short identifier plus its 0-based roster position."""

    id: str
    index: int

    def __post_init__(self) -> None:
        if not self.id.strip():
            raise ValueError("skill id must be non-blank")
        if self.index < 0:
            raise ValueError("skill index must be non-negative")


def make_roster(ids: Sequence[str]) -> tuple[SkillId, ...]:
    """Build a roster from identifier strings, assigning indices in order."""
    if len(ids) < 2:
        raise ValueError("a skill roster needs at least two skills")
    if len(set(ids)) != len(ids):
        raise ValueError("skill ids must be unique")
    return tuple(SkillId(sid, i) for i, sid in enumerate(ids))


DEFAULT_ROSTER = make_roster(["P", "K", "E"])


@dataclass(frozen=True)
class SkillContext:
    """Grounding description for one skill: persona lines, topic and
    knowledge passages, or a situation with an emotion descriptor.

    ``lines`` may be empty for sides that carry no grounding for the skill
    (e.g. the listener side of an empathy exchange).
    """

    skill: SkillId
    lines: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for line in self.lines:
            if not line.strip():
                raise ValueError("context lines must be non-blank")

    @property
    def first_line(self) -> str:
        return self.lines[0] if self.lines else ""


@dataclass(frozen=True)
class SkillContextSet:
    """Per-speaker map from skill to its context; entries are optional per
    skill and kept sorted by roster index so iteration order is stable."""

    entries: tuple[SkillContext, ...] = ()

    def __post_init__(self) -> None:
        ids = [e.skill.id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("at most one context entry per skill")
        ordered = tuple(sorted(self.entries, key=lambda e: e.skill.index))
        if ordered != self.entries:
            object.__setattr__(self, "entries", ordered)

    def get(self, skill: SkillId) -> SkillContext | None:
        for entry in self.entries:
            if entry.skill.id == skill.id:
                return entry
        return None

    def __iter__(self) -> Iterator[SkillContext]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def flat_lines(self) -> tuple[tuple[str, ...], tuple[SkillId, ...]]:
        """Every context line in iteration order (roster, then line order),
        and each line's skill."""
        lines = [line for e in self.entries for line in e.lines]
        skills = [e.skill for e in self.entries for _line in e.lines]
        return tuple(lines), tuple(skills)


@dataclass(frozen=True)
class Utterance:
    """One dialogue turn: speaker side (0 or 1) and text. Its turn index is
    its position in the dialogue, which no field restates."""

    speaker: int
    text: str

    def __post_init__(self) -> None:
        if self.speaker not in (0, 1):
            raise ValueError("speaker must be 0 or 1")
        if not self.text.strip():
            raise ValueError("utterance text must be non-blank")


@dataclass(frozen=True)
class DialogueContext:
    """Ordered utterances so far, speakers alternating."""

    turns: tuple[Utterance, ...] = ()

    def __post_init__(self) -> None:
        for i in range(1, len(self.turns)):
            if self.turns[i].speaker == self.turns[i - 1].speaker:
                raise ValueError(f"speakers must alternate (turn {i})")

    @property
    def last(self) -> Utterance | None:
        return self.turns[-1] if self.turns else None

    def extended(self, utt: Utterance) -> "DialogueContext":
        return DialogueContext(self.turns + (utt,))


@dataclass(frozen=True)
class ResponseCandidate:
    """A skill agent's proposed utterance as the moderator stamps it: the
    text the agent returned, the agent's skill as ``origin`` and, in
    ``attempts``, the number of consistency-phase generations it took."""

    text: str
    origin: SkillId
    attempts: int = 1

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("candidate text must be non-blank")
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")


@dataclass(frozen=True)
class SkillDistribution:
    """Probability vector over the M roster skills."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("distribution must be non-empty")
        coerced = tuple(float(p) for p in self.probs)
        if coerced != self.probs:
            object.__setattr__(self, "probs", coerced)
        for p in coerced:
            if not math.isfinite(p) or p < 0.0:
                raise ValueError("probabilities must be finite and non-negative")
        if abs(sum(coerced) - 1.0) > 1e-6:
            raise ValueError("probabilities must sum to 1 within 1e-6")


@dataclass(frozen=True)
class Refusal:
    """One consistency-phase refusal: which skill's candidate conflicted
    with which skill's context."""

    candidate_skill: SkillId
    context_skill: SkillId


@dataclass(frozen=True)
class AnnotatedTurn:
    """An utterance plus its skill annotation and per-turn moderation log."""

    utterance: Utterance
    skill_label: SkillId
    distribution: SkillDistribution
    mic_passed: bool
    phase2_attempts: int
    refusals: tuple[Refusal, ...] = ()

    def __post_init__(self) -> None:
        if self.phase2_attempts < 0:
            raise ValueError("phase2_attempts must be non-negative")


@dataclass(frozen=True)
class Episode:
    """One generated conversation: seed provenance, per-side contexts, and
    the annotated turns (seed turns included)."""

    id: str
    seed_dataset: SkillId
    seed_pair: tuple[Utterance, Utterance]
    contexts: tuple[SkillContextSet, SkillContextSet]
    turns: tuple[AnnotatedTurn, ...]
    config_digest: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("episode id must be non-empty")
        if len(self.seed_pair) != 2:
            raise ValueError("seed pair must hold exactly two utterances")
        if len(self.contexts) != 2:
            raise ValueError("episodes carry one context set per side")


class ConfigError(ValueError):
    """A malformed or inconsistent engine configuration."""


@dataclass(frozen=True)
class EngineConfig:
    """Engine-wide knobs.

    ``alpha`` is the KL-divergence approval threshold for the flow gate;
    ``epsilon`` smooths the log ratio so the gate stays total when
    classifier outputs contain exact zeros.
    """

    alpha: float = 1.0
    episode_length: int = 10
    max_attempts: int = 8
    epsilon: float = 1e-9
    rng_seed: int = 0
    seeds_per_pair: int = 5
    skill_roster: tuple[SkillId, ...] = DEFAULT_ROSTER

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and > 0")
        if self.episode_length < 4:
            raise ValueError("episode_length must be at least 4")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and > 0")
        if self.seeds_per_pair < 1:
            raise ValueError("seeds_per_pair must be at least 1")
        if len(self.skill_roster) < 2:
            raise ValueError("a skill roster needs at least two skills")
        for i, skill in enumerate(self.skill_roster):
            if skill.index != i:
                raise ValueError("roster indices must match roster positions")
        ids = [s.id for s in self.skill_roster]
        if len(set(ids)) != len(ids):
            raise ValueError("skill ids must be unique")


# JSON without whitespace, non-ASCII kept, through the C encoder. Floats are
# ``repr``, so only for values without floats does it equal canonical_json.
compact_json = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def canonical_json(value) -> str:
    """Serialize to byte-stable JSON: insertion key order, no insignificant
    whitespace, floats rendered with 17 significant digits (round-trip exact
    for binary64)."""
    out: list[str] = []
    _emit(value, out)
    return "".join(out)


def _emit(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("non-finite float in canonical serialization")
        out.append(format(value, ".17g"))
    elif isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError("canonical JSON object keys must be strings")
            if i:
                out.append(",")
            out.append(encode_basestring(key))
            out.append(":")
            _emit(item, out)
        out.append("}")
    else:
        raise TypeError(f"cannot canonically serialize {type(value).__name__}")


def config_digest(cfg: EngineConfig) -> str:
    """Stable hash of the canonical serialized config, embedded in every
    episode for provenance."""
    obj = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    obj["skill_roster"] = [s.id for s in cfg.skill_roster]
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def validate_episode(ep: Episode, cfg: EngineConfig) -> list[str]:
    """Check every episode and per-turn invariant under ``cfg``.

    Total: never raises for structurally well-typed input; returns one
    human-readable description per violation (empty list when clean).
    """
    from .distmath import stable_argmax  # distmath imports core, so not at the top

    out: list[str] = []
    roster = cfg.skill_roster
    roster_ids = {s.id for s in roster}

    if len(ep.turns) != cfg.episode_length:
        out.append(
            f"length: episode has {len(ep.turns)} turns, config requires {cfg.episode_length}"
        )
    if len(ep.turns) < 2:
        out.append("seed: episode is shorter than its seed pair")
    for i, seed_utt in enumerate(ep.seed_pair):
        if i >= len(ep.turns):
            break
        turn = ep.turns[i]
        if turn.utterance.text != seed_utt.text:
            out.append(f"seed: turn {i} text differs from the seed pair")
        if turn.mic_passed:
            out.append(f"seed: turn {i} must not pass the mic")
        if turn.phase2_attempts != 0:
            out.append(f"seed: turn {i} must record 0 consistency attempts")

    for i, turn in enumerate(ep.turns):
        if i > 0 and turn.utterance.speaker == ep.turns[i - 1].utterance.speaker:
            out.append(f"turns: speakers do not alternate at turn {i}")
        if turn.skill_label.id not in roster_ids:
            out.append(f"roster: turn {i} label {turn.skill_label.id!r} is not in the roster")
        probs = turn.distribution.probs
        if len(probs) != len(roster):
            out.append(
                f"distribution: turn {i} has {len(probs)} entries for {len(roster)} skills"
            )
        elif turn.skill_label.id in roster_ids:
            best = roster[stable_argmax(probs)]
            if turn.skill_label.id != best.id:
                out.append(
                    f"label: turn {i} label {turn.skill_label.id!r} is not the argmax skill {best.id!r}"
                )
        if turn.phase2_attempts > cfg.max_attempts:
            out.append(
                f"attempts: turn {i} used {turn.phase2_attempts} attempts, max is {cfg.max_attempts}"
            )
        if i >= 2 and turn.phase2_attempts < 1:
            out.append(f"attempts: generated turn {i} must record at least one attempt")
        for ref in turn.refusals:
            if ref.candidate_skill.id not in roster_ids or ref.context_skill.id not in roster_ids:
                out.append(f"roster: turn {i} refusal references a skill outside the roster")

    if ep.seed_dataset.id not in roster_ids:
        out.append(f"roster: seed dataset {ep.seed_dataset.id!r} is not in the roster")
    for side, ctxset in enumerate(ep.contexts):
        for entry in ctxset:
            if entry.skill.id not in roster_ids:
                out.append(f"roster: side {side} context skill {entry.skill.id!r} is not in the roster")
    return out

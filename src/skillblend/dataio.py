"""Line-delimited readers and writers for datasets and generated episodes.

Both formats are UTF-8 JSON, one record per line. Episode serialization is
canonical (fixed key order, no insignificant whitespace, floats at 17
significant digits), so structurally equal episodes produce equal bytes.

Dataset record schema (converter target for external corpora):

    {"skill": "P", "episode_id": "c2-0001",
     "contexts": [["line", ...], ["line", ...]],
     "turns": [{"speaker": 0, "text": "..."}, ...]}

Episode schema (normative key order):

    id, seed_dataset, seed_pair, config_digest,
    contexts (two objects keyed by skill id -> array of strings),
    turns (array of {speaker, text, skill, dist, mic_passed,
                     phase2_attempts, refusals})
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import (
    AnnotatedTurn,
    Episode,
    Refusal,
    SkillContext,
    SkillContextSet,
    SkillDistribution,
    SkillId,
    Utterance,
    canonical_json,
)


class ParseError(ValueError):
    """A malformed line; carries the line number and the offending field path."""

    def __init__(self, line_no: int, path: str, message: str):
        location = f"line {line_no}"
        if path:
            location += f": {path}"
        super().__init__(f"{location}: {message}")
        self.line_no = line_no
        self.path = path


class RosterError(ParseError):
    """A record references a skill id outside the configured roster."""


class ConfigError(ValueError):
    """A malformed or inconsistent engine configuration."""


@dataclass(frozen=True)
class SingleSkillRecord:
    """One source dialogue: per-side skill contexts plus alternating turns."""

    skill: SkillId
    episode_id: str
    side_contexts: tuple[tuple[str, ...], tuple[str, ...]]
    turns: tuple[Utterance, ...]

    def __post_init__(self) -> None:
        for i in range(1, len(self.turns)):
            if self.turns[i].speaker == self.turns[i - 1].speaker:
                raise ValueError(f"turns must alternate speakers (turn {i})")


def _require(obj: dict, key: str, line_no: int, path: str = ""):
    if key not in obj:
        raise ParseError(line_no, f"{path}.{key}" if path else key, "missing field")
    return obj[key]


def _as_str(value, line_no: int, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(line_no, path, "expected a string")
    return value


def _as_int(value, line_no: int, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(line_no, path, "expected an integer")
    return value


def _as_bool(value, line_no: int, path: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(line_no, path, "expected a boolean")
    return value


def _as_list(value, line_no: int, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(line_no, path, "expected an array")
    return value


def _as_obj(value, line_no: int, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(line_no, path, "expected an object")
    return value


def _iter_json_lines(path: str) -> Iterator[tuple[int, dict]]:
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, "", f"invalid JSON ({exc.msg})")
            if not isinstance(obj, dict):
                raise ParseError(line_no, "", "expected a JSON object")
            yield line_no, obj


def read_dataset(path: str, roster: Sequence[SkillId]) -> Iterator[SingleSkillRecord]:
    """Stream single-skill records from a line-delimited file, validating
    every record; errors carry the line number."""
    by_id = {s.id: s for s in roster}
    for line_no, obj in _iter_json_lines(path):
        skill_id = _as_str(_require(obj, "skill", line_no), line_no, "skill")
        if skill_id not in by_id:
            raise RosterError(line_no, "skill", f"unknown skill id {skill_id!r}")
        episode_id = _as_str(_require(obj, "episode_id", line_no), line_no, "episode_id")
        raw_contexts = _as_list(_require(obj, "contexts", line_no), line_no, "contexts")
        if len(raw_contexts) != 2:
            raise ParseError(line_no, "contexts", "expected exactly two context arrays")
        sides = []
        for s, raw in enumerate(raw_contexts):
            lines = _as_list(raw, line_no, f"contexts[{s}]")
            sides.append(
                tuple(_as_str(x, line_no, f"contexts[{s}][{j}]") for j, x in enumerate(lines))
            )
        raw_turns = _as_list(_require(obj, "turns", line_no), line_no, "turns")
        turns = []
        for i, raw in enumerate(raw_turns):
            turn_obj = _as_obj(raw, line_no, f"turns[{i}]")
            speaker = _as_int(_require(turn_obj, "speaker", line_no, f"turns[{i}]"), line_no, f"turns[{i}].speaker")
            text = _as_str(_require(turn_obj, "text", line_no, f"turns[{i}]"), line_no, f"turns[{i}].text")
            try:
                turns.append(Utterance(speaker, i, text))
            except ValueError as exc:
                raise ParseError(line_no, f"turns[{i}]", str(exc))
        try:
            yield SingleSkillRecord(by_id[skill_id], episode_id, (sides[0], sides[1]), tuple(turns))
        except ValueError as exc:
            raise ParseError(line_no, "turns", str(exc))


def extract_pairs(
    records: Iterable[SingleSkillRecord],
) -> list[tuple[tuple[Utterance, Utterance], SkillId]]:
    """Every consecutive utterance pair of every record, tagged with the
    record's skill."""
    pairs = []
    for rec in records:
        for i in range(len(rec.turns) - 1):
            pairs.append(((rec.turns[i], rec.turns[i + 1]), rec.skill))
    return pairs


# --- episode serialization ---------------------------------------------------


def _utterance_obj(utt: Utterance) -> dict:
    return {"speaker": utt.speaker, "text": utt.text}


def _context_set_obj(ctxset: SkillContextSet) -> dict:
    return {entry.skill.id: list(entry.lines) for entry in ctxset}


def _turn_obj(turn: AnnotatedTurn) -> dict:
    return {
        "speaker": turn.utterance.speaker,
        "text": turn.utterance.text,
        "skill": turn.skill_label.id,
        "dist": [float(p) for p in turn.distribution.probs],
        "mic_passed": turn.mic_passed,
        "phase2_attempts": turn.phase2_attempts,
        "refusals": [[r.candidate_skill.id, r.context_skill.id] for r in turn.refusals],
    }


def episode_to_obj(ep: Episode) -> dict:
    return {
        "id": ep.id,
        "seed_dataset": ep.seed_dataset.id,
        "seed_pair": [_utterance_obj(u) for u in ep.seed_pair],
        "config_digest": ep.config_digest,
        "contexts": [_context_set_obj(cs) for cs in ep.contexts],
        "turns": [_turn_obj(t) for t in ep.turns],
    }


def episode_line(ep: Episode) -> str:
    return canonical_json(episode_to_obj(ep))


class EpisodeWriter:
    """Single-owner buffered writer; one canonical line per episode."""

    def __init__(self, path: str):
        self._fh = open(path, "w", encoding="utf-8", newline="\n")

    def write(self, ep: Episode) -> None:
        self._fh.write(episode_line(ep))
        self._fh.write("\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "EpisodeWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _skill_from_id(skill_id: str, by_id: dict, line_no: int, path: str) -> SkillId:
    if skill_id not in by_id:
        raise RosterError(line_no, path, f"unknown skill id {skill_id!r}")
    return by_id[skill_id]


def _episode_from_obj(obj: dict, by_id: dict, line_no: int) -> Episode:
    ep_id = _as_str(_require(obj, "id", line_no), line_no, "id")
    seed_id = _as_str(_require(obj, "seed_dataset", line_no), line_no, "seed_dataset")
    seed_skill = _skill_from_id(seed_id, by_id, line_no, "seed_dataset")

    raw_pair = _as_list(_require(obj, "seed_pair", line_no), line_no, "seed_pair")
    if len(raw_pair) != 2:
        raise ParseError(line_no, "seed_pair", "expected exactly two utterances")
    pair = []
    for i, raw in enumerate(raw_pair):
        utt_obj = _as_obj(raw, line_no, f"seed_pair[{i}]")
        speaker = _as_int(_require(utt_obj, "speaker", line_no, f"seed_pair[{i}]"), line_no, f"seed_pair[{i}].speaker")
        text = _as_str(_require(utt_obj, "text", line_no, f"seed_pair[{i}]"), line_no, f"seed_pair[{i}].text")
        try:
            pair.append(Utterance(speaker, i, text))
        except ValueError as exc:
            raise ParseError(line_no, f"seed_pair[{i}]", str(exc))

    digest = _as_str(_require(obj, "config_digest", line_no), line_no, "config_digest")

    raw_contexts = _as_list(_require(obj, "contexts", line_no), line_no, "contexts")
    if len(raw_contexts) != 2:
        raise ParseError(line_no, "contexts", "expected exactly two context sets")
    context_sets = []
    for s, raw in enumerate(raw_contexts):
        ctx_obj = _as_obj(raw, line_no, f"contexts[{s}]")
        entries = []
        for skill_id, raw_lines in ctx_obj.items():
            skill = _skill_from_id(skill_id, by_id, line_no, f"contexts[{s}].{skill_id}")
            lines = _as_list(raw_lines, line_no, f"contexts[{s}].{skill_id}")
            str_lines = tuple(
                _as_str(x, line_no, f"contexts[{s}].{skill_id}[{j}]") for j, x in enumerate(lines)
            )
            try:
                entries.append(SkillContext(skill, str_lines))
            except ValueError as exc:
                raise ParseError(line_no, f"contexts[{s}].{skill_id}", str(exc))
        try:
            context_sets.append(SkillContextSet(tuple(entries)))
        except ValueError as exc:
            raise ParseError(line_no, f"contexts[{s}]", str(exc))

    raw_turns = _as_list(_require(obj, "turns", line_no), line_no, "turns")
    turns = []
    for i, raw in enumerate(raw_turns):
        turn_obj = _as_obj(raw, line_no, f"turns[{i}]")
        speaker = _as_int(_require(turn_obj, "speaker", line_no, f"turns[{i}]"), line_no, f"turns[{i}].speaker")
        text = _as_str(_require(turn_obj, "text", line_no, f"turns[{i}]"), line_no, f"turns[{i}].text")
        label_id = _as_str(_require(turn_obj, "skill", line_no, f"turns[{i}]"), line_no, f"turns[{i}].skill")
        label = _skill_from_id(label_id, by_id, line_no, f"turns[{i}].skill")
        raw_dist = _as_list(_require(turn_obj, "dist", line_no, f"turns[{i}]"), line_no, f"turns[{i}].dist")
        for j, p in enumerate(raw_dist):
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise ParseError(line_no, f"turns[{i}].dist[{j}]", "expected a number")
        mic = _as_bool(_require(turn_obj, "mic_passed", line_no, f"turns[{i}]"), line_no, f"turns[{i}].mic_passed")
        attempts = _as_int(
            _require(turn_obj, "phase2_attempts", line_no, f"turns[{i}]"),
            line_no,
            f"turns[{i}].phase2_attempts",
        )
        raw_refusals = _as_list(
            _require(turn_obj, "refusals", line_no, f"turns[{i}]"), line_no, f"turns[{i}].refusals"
        )
        refusals = []
        for j, raw_ref in enumerate(raw_refusals):
            ref = _as_list(raw_ref, line_no, f"turns[{i}].refusals[{j}]")
            if len(ref) != 2:
                raise ParseError(
                    line_no, f"turns[{i}].refusals[{j}]", "expected a [candidate, context] pair"
                )
            cand = _skill_from_id(
                _as_str(ref[0], line_no, f"turns[{i}].refusals[{j}][0]"),
                by_id, line_no, f"turns[{i}].refusals[{j}][0]",
            )
            ctx = _skill_from_id(
                _as_str(ref[1], line_no, f"turns[{i}].refusals[{j}][1]"),
                by_id, line_no, f"turns[{i}].refusals[{j}][1]",
            )
            refusals.append(Refusal(cand, ctx))
        try:
            turns.append(
                AnnotatedTurn(
                    Utterance(speaker, i, text),
                    label,
                    SkillDistribution(tuple(float(p) for p in raw_dist)),
                    mic,
                    attempts,
                    tuple(refusals),
                )
            )
        except ValueError as exc:
            raise ParseError(line_no, f"turns[{i}]", str(exc))

    try:
        return Episode(ep_id, seed_skill, (pair[0], pair[1]), (context_sets[0], context_sets[1]), tuple(turns), digest)
    except ValueError as exc:
        raise ParseError(line_no, "", str(exc))


def read_episodes(path: str, roster: Sequence[SkillId]) -> list[Episode]:
    """Read an episode file back into structurally equal episodes; schema
    violations raise :class:`ParseError` naming the line and field path."""
    by_id = {s.id: s for s in roster}
    return [_episode_from_obj(obj, by_id, line_no) for line_no, obj in _iter_json_lines(path)]


# --- configuration files ------------------------------------------------------

CONFIG_KEYS = (
    "alpha",
    "episode_length",
    "max_attempts",
    "epsilon",
    "rng_seed",
    "seeds_per_pair",
    "skill_roster",
)


def load_config_file(path: str) -> dict[str, str]:
    """Parse a key = value configuration file (one pair per line, # comments).
    Returns raw string values; unknown keys are configuration errors."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown configuration key {key!r}")
            values[key] = value.strip()
    return values

"""Line-delimited readers and writers for datasets and generated episodes.

Both formats are UTF-8 JSON, one record per line. Episode serialization is
canonical (fixed key order, no insignificant whitespace, floats at 17
significant digits), so structurally equal episodes produce equal bytes.
:func:`episode_line` writes that form directly from a fixed template, with
the C JSON encoder for strings; :func:`skillblend.core.canonical_json` of
the episode's object form remains its reference, and the test suite checks
the two agree.

Dataset record schema (converter target for external corpora):

    {"skill": "P", "episode_id": "c2-0001",
     "contexts": [["line", ...], ["line", ...]],
     "turns": [{"speaker": 0, "text": "..."}, ...]}

Episode schema (normative key order):

    id, seed_dataset, seed_pair, config_digest,
    contexts (two objects keyed by skill id -> array of strings),
    turns (array of {speaker, text, skill, dist, mic_passed,
                     phase2_attempts, refusals})

Error contract of both readers: every malformed record raises
:class:`ParseError` (:class:`RosterError` for a skill id outside the
roster) naming the 1-based line and the field path, e.g.
``line 4: turns[3].refusals[0][1]: unknown skill id 'Z'``. The path is
empty only when the fault is the line as a whole: not JSON, not an object,
or an episode-level invariant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring
from typing import Iterable, Iterator, Sequence

from .core import (
    AnnotatedTurn,
    EngineConfig,
    Episode,
    Refusal,
    SkillContext,
    SkillContextSet,
    SkillDistribution,
    SkillId,
    Utterance,
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


_NUMBER = (int, float)
_EXPECTED = {
    str: "a string",
    int: "an integer",
    bool: "a boolean",
    list: "an array",
    dict: "an object",
    _NUMBER: "a number",
}


def _as(value, kind, line_no: int, path: str):
    """Return ``value`` when it has the JSON kind ``kind``: str, int, bool,
    list, dict or ``_NUMBER``, where an int is never a bool. ``kind`` may
    instead be a roster mapping skill ids to ``SkillId``; then the value
    must be a string naming a roster skill, and that ``SkillId`` is
    returned."""
    if type(value) is kind:  # the common case, and never a bool for int
        return value
    if isinstance(kind, dict):
        skill = kind.get(_as(value, str, line_no, path))
        if skill is None:
            raise RosterError(line_no, path, f"unknown skill id {value!r}")
        return skill
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ParseError(line_no, path, f"expected {_EXPECTED[kind]}")


def _field(obj: dict, key: str, kind, line_no: int, path: str = ""):
    """``obj[key]`` checked by :func:`_as`; the field path is ``path.key``."""
    field_path = f"{path}.{key}" if path else key
    if key not in obj:
        raise ParseError(line_no, field_path, "missing field")
    return _as(obj[key], kind, line_no, field_path)


def _strings(value, line_no: int, path: str) -> tuple[str, ...]:
    """A JSON array of strings, as a tuple."""
    lines = _as(value, list, line_no, path)
    return tuple(_as(x, str, line_no, f"{path}[{j}]") for j, x in enumerate(lines))


def _context_lines(value, line_no: int, path: str) -> tuple[str, ...]:
    """A dataset side's context: a JSON array of non-blank strings."""
    lines = _strings(value, line_no, path)
    for j, line in enumerate(lines):
        if not line.strip():
            raise ParseError(line_no, f"{path}[{j}]", "context lines must be non-blank")
    return lines


def _utterance(value, turn: int, line_no: int, path: str) -> Utterance:
    """A ``{speaker, text}`` object as the utterance of turn ``turn``."""
    obj = _as(value, dict, line_no, path)
    speaker = _field(obj, "speaker", int, line_no, path)
    text = _field(obj, "text", str, line_no, path)
    try:
        return Utterance(speaker, turn, text)
    except ValueError as exc:
        raise ParseError(line_no, path, str(exc))


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
        skill = _field(obj, "skill", by_id, line_no)
        episode_id = _field(obj, "episode_id", str, line_no)
        raw_contexts = _field(obj, "contexts", list, line_no)
        if len(raw_contexts) != 2:
            raise ParseError(line_no, "contexts", "expected exactly two context arrays")
        sides = [
            _context_lines(raw, line_no, f"contexts[{s}]") for s, raw in enumerate(raw_contexts)
        ]
        raw_turns = _field(obj, "turns", list, line_no)
        turns = tuple(_utterance(raw, i, line_no, f"turns[{i}]") for i, raw in enumerate(raw_turns))
        try:
            yield SingleSkillRecord(skill, episode_id, (sides[0], sides[1]), turns)
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

# episode_line writes canonical_json's bytes without building the object:
# strings, string arrays and objects go through the C encoder, whose output
# for them equals canonical_json's; only the dist floats need the 17-digit
# format, which differs from the encoder's ``repr`` for about 40% of them.
_ENCODE = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
_TURN = (
    '{"speaker":%s,"text":%s,"skill":%s,"dist":[%s],'
    '"mic_passed":%s,"phase2_attempts":%s,"refusals":%s}'
)
_EPISODE = (
    '{"id":%s,"seed_dataset":%s,"seed_pair":%s,"config_digest":%s,'
    '"contexts":%s,"turns":[%s]}'
)


def _literal(value) -> str:
    """An int or bool field: a bool, which is also an int, writes true/false."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _turn_line(turn: AnnotatedTurn) -> str:
    utt = turn.utterance
    probs = turn.distribution.probs
    if not all(map(math.isfinite, probs)):
        raise ValueError("non-finite float in canonical serialization")
    refusals = "[]"
    if turn.refusals:
        refusals = _ENCODE([[r.candidate_skill.id, r.context_skill.id] for r in turn.refusals])
    return _TURN % (
        _literal(utt.speaker),
        encode_basestring(utt.text),
        encode_basestring(turn.skill_label.id),
        ",".join([format(p, ".17g") for p in probs]),
        _literal(turn.mic_passed),
        _literal(turn.phase2_attempts),
        refusals,
    )


def episode_line(ep: Episode) -> str:
    """The episode's canonical line, equal to ``canonical_json`` of its
    object form (key order as in the module docstring)."""
    return _EPISODE % (
        encode_basestring(ep.id),
        encode_basestring(ep.seed_dataset.id),
        _ENCODE([{"speaker": u.speaker, "text": u.text} for u in ep.seed_pair]),
        encode_basestring(ep.config_digest),
        _ENCODE([{e.skill.id: e.lines for e in cs} for cs in ep.contexts]),
        ",".join([_turn_line(t) for t in ep.turns]),
    )


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


def _episode_from_obj(obj: dict, by_id: dict, line_no: int) -> Episode:
    ep_id = _field(obj, "id", str, line_no)
    seed_skill = _field(obj, "seed_dataset", by_id, line_no)

    raw_pair = _field(obj, "seed_pair", list, line_no)
    if len(raw_pair) != 2:
        raise ParseError(line_no, "seed_pair", "expected exactly two utterances")
    pair = [_utterance(raw, i, line_no, f"seed_pair[{i}]") for i, raw in enumerate(raw_pair)]

    digest = _field(obj, "config_digest", str, line_no)

    raw_contexts = _field(obj, "contexts", list, line_no)
    if len(raw_contexts) != 2:
        raise ParseError(line_no, "contexts", "expected exactly two context sets")
    context_sets = []
    for s, raw in enumerate(raw_contexts):
        entries = []
        for skill_id, raw_lines in _as(raw, dict, line_no, f"contexts[{s}]").items():
            path = f"contexts[{s}].{skill_id}"
            skill = _as(skill_id, by_id, line_no, path)
            lines = _strings(raw_lines, line_no, path)
            try:
                entries.append(SkillContext(skill, lines))
            except ValueError as exc:
                raise ParseError(line_no, path, str(exc))
        # object keys are unique, so the set never holds one skill twice
        context_sets.append(SkillContextSet(tuple(entries)))

    turns = []
    for i, raw in enumerate(_field(obj, "turns", list, line_no)):
        path = f"turns[{i}]"
        utterance = _utterance(raw, i, line_no, path)
        label = _field(raw, "skill", by_id, line_no, path)
        dist = [
            float(_as(p, _NUMBER, line_no, f"{path}.dist[{j}]"))
            for j, p in enumerate(_field(raw, "dist", list, line_no, path))
        ]
        mic = _field(raw, "mic_passed", bool, line_no, path)
        attempts = _field(raw, "phase2_attempts", int, line_no, path)
        refusals = []
        for j, raw_ref in enumerate(_field(raw, "refusals", list, line_no, path)):
            ref_path = f"{path}.refusals[{j}]"
            ref = _as(raw_ref, list, line_no, ref_path)
            if len(ref) != 2:
                raise ParseError(line_no, ref_path, "expected a [candidate, context] pair")
            candidate = _as(ref[0], by_id, line_no, f"{ref_path}[0]")
            refusals.append(Refusal(candidate, _as(ref[1], by_id, line_no, f"{ref_path}[1]")))
        try:
            distribution = SkillDistribution(tuple(dist))
            turns.append(
                AnnotatedTurn(utterance, label, distribution, mic, attempts, tuple(refusals))
            )
        except ValueError as exc:
            raise ParseError(line_no, path, str(exc))

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

def load_config_file(path: str) -> dict[str, str]:
    """Parse a key = value configuration file (one pair per line, # comments).
    Returns raw string values; the keys are the fields of
    :class:`EngineConfig`, and any other key is a configuration error."""
    keys = {f.name for f in fields(EngineConfig)}
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
            if key not in keys:
                raise ConfigError(f"{path}:{line_no}: unknown configuration key {key!r}")
            values[key] = value.strip()
    return values

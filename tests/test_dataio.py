from __future__ import annotations

import copy
import json
import math
import os
import tempfile
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillblend import dataio
from skillblend.core import (
    DEFAULT_ROSTER,
    AnnotatedTurn,
    EngineConfig,
    Episode,
    Refusal,
    SkillContext,
    SkillContextSet,
    SkillDistribution,
    Utterance,
    canonical_json,
    make_roster,
)
from skillblend.dataio import (
    ConfigError,
    EpisodeWriter,
    ParseError,
    RosterError,
    episode_line,
    load_config_file,
    read_dataset,
    read_episodes,
)
from skillblend.seeds import iter_seed_pairs

import helpers

P, K, E = DEFAULT_ROSTER


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _record_line(**overrides):
    obj = {
        "skill": "P",
        "episode_id": "p-1",
        "contexts": [["i ski"], ["i paint"]],
        "turns": [
            {"speaker": 0, "text": "hello"},
            {"speaker": 1, "text": "hi"},
            {"speaker": 0, "text": "again"},
        ],
    }
    obj.update(overrides)
    return json.dumps(obj)


def test_read_dataset_happy_path(tmp_path):
    path = _write(tmp_path, "ds.jsonl", [_record_line(episode_id=f"p-{i}") for i in range(3)])
    records = list(read_dataset(path, DEFAULT_ROSTER))
    assert len(records) == 3
    assert records[0].skill == P
    assert records[0].side_contexts == (("i ski",), ("i paint",))
    assert records[0].turns == ("hello", "hi", "again")  # speakers checked, not kept


def test_read_dataset_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert list(read_dataset(str(path), DEFAULT_ROSTER)) == []


def test_read_dataset_reports_line_numbers(tmp_path):
    path = _write(tmp_path, "bad.jsonl", [_record_line(), "{not json"])
    with pytest.raises(ParseError) as excinfo:
        list(read_dataset(path, DEFAULT_ROSTER))
    assert excinfo.value.line_no == 2


def test_read_dataset_flags_non_alternating_speakers(tmp_path):
    bad_turns = [{"speaker": 0, "text": "a"}, {"speaker": 0, "text": "b"}]
    path = _write(tmp_path, "bad.jsonl", [_record_line(turns=bad_turns)])
    with pytest.raises(ParseError) as excinfo:
        list(read_dataset(path, DEFAULT_ROSTER))
    assert excinfo.value.line_no == 1
    assert "alternate" in str(excinfo.value)


def test_read_dataset_roster_error(tmp_path):
    path = _write(tmp_path, "bad.jsonl", [_record_line(skill="Z")])
    with pytest.raises(RosterError):
        list(read_dataset(path, DEFAULT_ROSTER))


def test_extract_pairs_sliding_window(tmp_path):
    path = _write(
        tmp_path,
        "ds.jsonl",
        [
            _record_line(),  # 3 turns -> 2 pairs
            _record_line(
                skill="K",
                episode_id="k-1",
                turns=[{"speaker": 0, "text": "q"}, {"speaker": 1, "text": "a"}],
            ),
        ],
    )
    records = list(read_dataset(path, DEFAULT_ROSTER))
    roster = [s for s in DEFAULT_ROSTER if s.id in ("P", "K")]
    drawn = set(islice(iter_seed_pairs(records, roster, rng_seed=3), 200))
    pairs = sorted((pair, s.id) for pair, s in drawn)
    # every consecutive turn pair, tagged with its source record's skill
    assert pairs == sorted(
        [(("hello", "hi"), "P"), (("hi", "again"), "P"), (("q", "a"), "K")]
    )


def test_episode_roundtrip_structural_equality(tmp_path, corpus_files):
    cfg = EngineConfig(episode_length=6, rng_seed=11)
    out = tmp_path / "episodes.jsonl"
    helpers.generate_file(corpus_files, cfg, 20, out)
    episodes = read_episodes(str(out), cfg.skill_roster)
    assert len(episodes) == 20
    path2 = tmp_path / "rewritten.jsonl"
    with EpisodeWriter(str(path2)) as writer:
        for ep in episodes:
            writer.write(ep)
    assert (tmp_path / "rewritten.jsonl").read_bytes() == out.read_bytes()
    assert read_episodes(str(path2), cfg.skill_roster) == episodes


def test_equal_episodes_produce_equal_bytes(cfg):
    a = helpers.hand_episode(cfg)
    b = helpers.hand_episode(cfg)
    assert a == b
    assert episode_line(a) == episode_line(b)


# text with the characters JSON escapes or passes through: quotes,
# backslashes, control characters, non-ASCII and astral code points
_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é☃😀'), st.characters()),
    min_size=1,
    max_size=12,
).filter(str.strip)
_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.1, 1e16, 5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308]),
)
# a bool is an int, and Utterance and AnnotatedTurn accept one
_SPEAKER = st.sampled_from([0, 1, False, True])


@st.composite
def _episodes(draw):
    roster = make_roster(draw(st.lists(_TEXT, min_size=2, max_size=4, unique=True)))
    skill = st.sampled_from(roster)

    def utterance():
        return Utterance(draw(_SPEAKER), draw(_TEXT))

    def context_set():
        chosen = draw(st.lists(skill, max_size=len(roster), unique=True))
        return SkillContextSet(
            tuple(SkillContext(s, tuple(draw(st.lists(_TEXT, max_size=3)))) for s in chosen)
        )

    turns = []
    for i in range(draw(st.integers(0, 5))):
        dist = SkillDistribution((1.0,))
        # serialization writes any finite value; the sum rule is not its concern
        object.__setattr__(dist, "probs", tuple(draw(st.lists(_FLOAT, min_size=1, max_size=4))))
        pairs = draw(st.lists(st.tuples(skill, skill), max_size=3))
        refusals = tuple(Refusal(a, b) for a, b in pairs)
        turns.append(
            AnnotatedTurn(
                utterance(),
                draw(skill),
                dist,
                draw(st.booleans()),
                draw(st.one_of(st.integers(0, 10**20), st.booleans())),
                refusals,
            )
        )
    return Episode(
        draw(_TEXT),
        draw(skill),
        (utterance(), utterance()),
        (context_set(), context_set()),
        tuple(turns),
        draw(st.sampled_from(["0" * 64, "digest", "é\\\""])),
    )


@settings(deadline=None)
@given(_episodes())
def test_episode_line_equals_canonical_json_of_the_object_form(ep):
    assert episode_line(ep) == canonical_json(helpers.episode_obj(ep))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_episode_line_rejects_non_finite_dist(cfg, bad):
    ep = helpers.hand_episode(cfg)
    object.__setattr__(ep.turns[3].distribution, "probs", (0.5, bad, 0.5))
    for serialize in (episode_line, lambda e: canonical_json(helpers.episode_obj(e))):
        with pytest.raises(ValueError) as excinfo:
            serialize(ep)
        assert str(excinfo.value) == "non-finite float in canonical serialization"


def test_distributions_survive_roundtrip_to_17_digits(tmp_path, cfg):
    ep = helpers.mini_episode(
        cfg.skill_roster,
        ["P", "K", "E", "P"],
        "P",
        dists=[
            SkillDistribution((1.0, 0.0, 0.0)),
            SkillDistribution((0.0, 1 / 3 + 1e-16, 2 / 3)),
            SkillDistribution((0.123456789012345, 0.5, 0.376543210987655)),
            SkillDistribution((0.9999999, 0.0000001, 0.0)),
        ],
    )
    path = str(tmp_path / "one.jsonl")
    with EpisodeWriter(path) as writer:
        writer.write(ep)
    back = read_episodes(path, cfg.skill_roster)[0]
    for original, reread in zip(ep.turns, back.turns):
        for x, y in zip(original.distribution.probs, reread.distribution.probs):
            assert abs(x - y) <= 1e-12


def test_read_episodes_names_missing_field_path(tmp_path, cfg):
    ep = helpers.hand_episode(cfg)
    path = tmp_path / "eps.jsonl"
    with EpisodeWriter(str(path)) as writer:
        writer.write(ep)
    obj = json.loads(path.read_text(encoding="utf-8"))
    del obj["turns"][1]["skill"]
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        read_episodes(str(path), cfg.skill_roster)
    assert excinfo.value.path == "turns[1].skill"
    assert "turns[1].skill" in str(excinfo.value)


def test_read_episodes_rejects_bad_distribution(tmp_path, cfg):
    ep = helpers.hand_episode(cfg)
    path = tmp_path / "eps.jsonl"
    with EpisodeWriter(str(path)) as writer:
        writer.write(ep)
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["turns"][0]["dist"] = [0.9, 0.9, 0.9]
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        read_episodes(str(path), cfg.skill_roster)
    assert "turns[0]" in str(excinfo.value)


def test_read_episodes_unknown_skill_is_roster_error(tmp_path, cfg):
    ep = helpers.hand_episode(cfg)
    path = tmp_path / "eps.jsonl"
    with EpisodeWriter(str(path)) as writer:
        writer.write(ep)
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["seed_dataset"] = "Z"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(RosterError):
        read_episodes(str(path), cfg.skill_roster)


_DEL = object()  # marks a case that deletes the key instead of replacing it

# (key path, new value or _DEL, error class, error path, full message); the
# faulty record is line 2 of its file, after one good record
_DATASET_FAULTS = [
    (("skill",), _DEL, ParseError, "skill", "line 2: skill: missing field"),
    (("skill",), 5, ParseError, "skill", "line 2: skill: expected a string"),
    (("skill",), " ", RosterError, "skill", "line 2: skill: unknown skill id ' '"),
    (("skill",), "Z", RosterError, "skill", "line 2: skill: unknown skill id 'Z'"),
    (("episode_id",), _DEL, ParseError, "episode_id", "line 2: episode_id: missing field"),
    (("episode_id",), None, ParseError, "episode_id", "line 2: episode_id: expected a string"),
    (("contexts",), _DEL, ParseError, "contexts", "line 2: contexts: missing field"),
    (("contexts",), {}, ParseError, "contexts", "line 2: contexts: expected an array"),
    (("contexts",), [["a"]], ParseError, "contexts",
     "line 2: contexts: expected exactly two context arrays"),
    (("contexts", 1), "i paint", ParseError, "contexts[1]", "line 2: contexts[1]: expected an array"),
    (("contexts", 0, 0), 3, ParseError, "contexts[0][0]", "line 2: contexts[0][0]: expected a string"),
    (("contexts", 0, 0), "   ", ParseError, "contexts[0][0]",
     "line 2: contexts[0][0]: context lines must be non-blank"),
    (("turns",), _DEL, ParseError, "turns", "line 2: turns: missing field"),
    (("turns",), {}, ParseError, "turns", "line 2: turns: expected an array"),
    (("turns", 1), "hi", ParseError, "turns[1]", "line 2: turns[1]: expected an object"),
    (("turns", 1, "speaker"), _DEL, ParseError, "turns[1].speaker",
     "line 2: turns[1].speaker: missing field"),
    (("turns", 1, "speaker"), "1", ParseError, "turns[1].speaker",
     "line 2: turns[1].speaker: expected an integer"),
    (("turns", 1, "speaker"), True, ParseError, "turns[1].speaker",
     "line 2: turns[1].speaker: expected an integer"),
    (("turns", 1, "speaker"), 2, ParseError, "turns[1]", "line 2: turns[1]: speaker must be 0 or 1"),
    (("turns", 1, "speaker"), 0, ParseError, "turns",
     "line 2: turns: turns must alternate speakers (turn 1)"),
    (("turns", 1, "text"), _DEL, ParseError, "turns[1].text", "line 2: turns[1].text: missing field"),
    (("turns", 1, "text"), 1, ParseError, "turns[1].text", "line 2: turns[1].text: expected a string"),
    (("turns", 1, "text"), " ", ParseError, "turns[1]",
     "line 2: turns[1]: utterance text must be non-blank"),
]

_EPISODE_FAULTS = [
    (("id",), _DEL, ParseError, "id", "line 2: id: missing field"),
    (("id",), 1, ParseError, "id", "line 2: id: expected a string"),
    (("id",), "", ParseError, "", "line 2: episode id must be non-empty"),
    (("seed_dataset",), _DEL, ParseError, "seed_dataset", "line 2: seed_dataset: missing field"),
    (("seed_dataset",), [], ParseError, "seed_dataset", "line 2: seed_dataset: expected a string"),
    (("seed_dataset",), "Z", RosterError, "seed_dataset",
     "line 2: seed_dataset: unknown skill id 'Z'"),
    (("seed_pair",), _DEL, ParseError, "seed_pair", "line 2: seed_pair: missing field"),
    (("seed_pair",), {}, ParseError, "seed_pair", "line 2: seed_pair: expected an array"),
    (("seed_pair", 1), _DEL, ParseError, "seed_pair",
     "line 2: seed_pair: expected exactly two utterances"),
    (("seed_pair", 0), "hello", ParseError, "seed_pair[0]", "line 2: seed_pair[0]: expected an object"),
    (("seed_pair", 0, "speaker"), _DEL, ParseError, "seed_pair[0].speaker",
     "line 2: seed_pair[0].speaker: missing field"),
    (("seed_pair", 0, "speaker"), 0.0, ParseError, "seed_pair[0].speaker",
     "line 2: seed_pair[0].speaker: expected an integer"),
    (("seed_pair", 0, "speaker"), -1, ParseError, "seed_pair[0]",
     "line 2: seed_pair[0]: speaker must be 0 or 1"),
    (("seed_pair", 1, "text"), _DEL, ParseError, "seed_pair[1].text",
     "line 2: seed_pair[1].text: missing field"),
    (("seed_pair", 1, "text"), None, ParseError, "seed_pair[1].text",
     "line 2: seed_pair[1].text: expected a string"),
    (("seed_pair", 1, "text"), "", ParseError, "seed_pair[1]",
     "line 2: seed_pair[1]: utterance text must be non-blank"),
    (("config_digest",), _DEL, ParseError, "config_digest", "line 2: config_digest: missing field"),
    (("config_digest",), 0, ParseError, "config_digest", "line 2: config_digest: expected a string"),
    (("contexts",), _DEL, ParseError, "contexts", "line 2: contexts: missing field"),
    (("contexts",), {}, ParseError, "contexts", "line 2: contexts: expected an array"),
    (("contexts", 1), _DEL, ParseError, "contexts",
     "line 2: contexts: expected exactly two context sets"),
    (("contexts", 1), [], ParseError, "contexts[1]", "line 2: contexts[1]: expected an object"),
    (("contexts", 1, "Z"), [], RosterError, "contexts[1].Z", "line 2: contexts[1].Z: unknown skill id 'Z'"),
    (("contexts", 0, "P"), "i like to ski", ParseError, "contexts[0].P",
     "line 2: contexts[0].P: expected an array"),
    (("contexts", 0, "P", 0), 7, ParseError, "contexts[0].P[0]",
     "line 2: contexts[0].P[0]: expected a string"),
    (("contexts", 0, "P", 0), " ", ParseError, "contexts[0].P",
     "line 2: contexts[0].P: context lines must be non-blank"),
    (("turns",), _DEL, ParseError, "turns", "line 2: turns: missing field"),
    (("turns",), "", ParseError, "turns", "line 2: turns: expected an array"),
    (("turns", 1), 5, ParseError, "turns[1]", "line 2: turns[1]: expected an object"),
    (("turns", 1, "speaker"), _DEL, ParseError, "turns[1].speaker",
     "line 2: turns[1].speaker: missing field"),
    (("turns", 1, "speaker"), False, ParseError, "turns[1].speaker",
     "line 2: turns[1].speaker: expected an integer"),
    (("turns", 1, "speaker"), 5, ParseError, "turns[1]", "line 2: turns[1]: speaker must be 0 or 1"),
    (("turns", 1, "text"), _DEL, ParseError, "turns[1].text", "line 2: turns[1].text: missing field"),
    (("turns", 1, "text"), ["hi"], ParseError, "turns[1].text",
     "line 2: turns[1].text: expected a string"),
    (("turns", 1, "text"), "\t", ParseError, "turns[1]",
     "line 2: turns[1]: utterance text must be non-blank"),
    (("turns", 1, "skill"), _DEL, ParseError, "turns[1].skill", "line 2: turns[1].skill: missing field"),
    (("turns", 1, "skill"), 1, ParseError, "turns[1].skill", "line 2: turns[1].skill: expected a string"),
    (("turns", 1, "skill"), "Z", RosterError, "turns[1].skill",
     "line 2: turns[1].skill: unknown skill id 'Z'"),
    (("turns", 1, "dist"), _DEL, ParseError, "turns[1].dist", "line 2: turns[1].dist: missing field"),
    (("turns", 1, "dist"), {}, ParseError, "turns[1].dist", "line 2: turns[1].dist: expected an array"),
    (("turns", 1, "dist"), [], ParseError, "turns[1]",
     "line 2: turns[1]: distribution must be non-empty"),
    (("turns", 1, "dist"), [0.5, 0.5, 0.5], ParseError, "turns[1]",
     "line 2: turns[1]: probabilities must sum to 1 within 1e-6"),
    (("turns", 1, "dist", 0), True, ParseError, "turns[1].dist[0]",
     "line 2: turns[1].dist[0]: expected a number"),
    (("turns", 1, "dist", 2), -1, ParseError, "turns[1]",
     "line 2: turns[1]: probabilities must be finite and non-negative"),
    (("turns", 1, "mic_passed"), _DEL, ParseError, "turns[1].mic_passed",
     "line 2: turns[1].mic_passed: missing field"),
    (("turns", 1, "mic_passed"), 0, ParseError, "turns[1].mic_passed",
     "line 2: turns[1].mic_passed: expected a boolean"),
    (("turns", 1, "phase2_attempts"), _DEL, ParseError, "turns[1].phase2_attempts",
     "line 2: turns[1].phase2_attempts: missing field"),
    (("turns", 1, "phase2_attempts"), 1.5, ParseError, "turns[1].phase2_attempts",
     "line 2: turns[1].phase2_attempts: expected an integer"),
    (("turns", 1, "phase2_attempts"), -1, ParseError, "turns[1]",
     "line 2: turns[1]: phase2_attempts must be non-negative"),
    (("turns", 1, "refusals"), _DEL, ParseError, "turns[1].refusals",
     "line 2: turns[1].refusals: missing field"),
    (("turns", 1, "refusals"), None, ParseError, "turns[1].refusals",
     "line 2: turns[1].refusals: expected an array"),
    (("turns", 3, "refusals", 0), "PK", ParseError, "turns[3].refusals[0]",
     "line 2: turns[3].refusals[0]: expected an array"),
    (("turns", 3, "refusals", 0), ["P"], ParseError, "turns[3].refusals[0]",
     "line 2: turns[3].refusals[0]: expected a [candidate, context] pair"),
    (("turns", 3, "refusals", 0, 0), 0, ParseError, "turns[3].refusals[0][0]",
     "line 2: turns[3].refusals[0][0]: expected a string"),
    (("turns", 3, "refusals", 0, 0), "Z", RosterError, "turns[3].refusals[0][0]",
     "line 2: turns[3].refusals[0][0]: unknown skill id 'Z'"),
    (("turns", 3, "refusals", 0, 1), {}, ParseError, "turns[3].refusals[0][1]",
     "line 2: turns[3].refusals[0][1]: expected a string"),
    (("turns", 3, "refusals", 0, 1), "", RosterError, "turns[3].refusals[0][1]",
     "line 2: turns[3].refusals[0][1]: unknown skill id ''"),
]


def _with_fault(base: dict, keys: tuple, value) -> dict:
    obj = json.loads(json.dumps(base))
    target = obj
    for key in keys[:-1]:
        target = target[key]
    if value is _DEL:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return obj


def _read_fault(tmp_path, kind, keys, value):
    """Read a file of one good record and the same record with the fault."""
    if kind == "dataset":
        base = json.loads(_record_line())
    else:
        ep = helpers.mini_episode(DEFAULT_ROSTER, ["P", "K", "E", "P"], "P", refusal_pairs=[("P", "K")])
        base = json.loads(episode_line(ep))
    lines = [json.dumps(base), json.dumps(_with_fault(base, keys, value))]
    path = _write(tmp_path, "fault.jsonl", lines)
    if kind == "dataset":
        list(read_dataset(path, DEFAULT_ROSTER))
    else:
        read_episodes(path, DEFAULT_ROSTER)


def _fault_id(kind: str, keys: tuple, value) -> str:
    return f"{kind}-{'/'.join(map(str, keys))}-{'del' if value is _DEL else json.dumps(value)}"


@pytest.mark.parametrize(
    "kind, keys, value, error, path, message",
    [
        pytest.param(kind, *case, id=_fault_id(kind, *case[:2]))
        for kind, cases in (("dataset", _DATASET_FAULTS), ("episode", _EPISODE_FAULTS))
        for case in cases
    ],
)
def test_single_fault_records_name_line_and_field(
    tmp_path, kind, keys, value, error, path, message
):
    with pytest.raises(ParseError) as excinfo:
        _read_fault(tmp_path, kind, keys, value)
    assert type(excinfo.value) is error
    assert excinfo.value.line_no == 2
    assert excinfo.value.path == path
    assert str(excinfo.value) == message


# --- the dataset reader against its record-by-record oracle -------------------

# JSON values of every kind, including bools for speakers, blank strings
# (the Unicode spaces str.strip removes too), unknown skill ids, and a
# string that is not blank though it looks it (U+200B is not a space)
_VALUES = st.sampled_from([
    None, True, False, 0, 1, 2, -1, 0.0, 1.0, "", " ", "\t\u3000", "\x1c", "\u200b",
    "P", "K", "Z", "hi", [], ["hi"], [" "], [0, 1], {}, {"speaker": 0, "text": "hi"},
]).map(copy.deepcopy)  # a later fault may edit inside an array or object drawn here
_LINE = st.sampled_from(["i ski", "tea", "é☃", "a b"])


def _nodes(node, path=()):
    """The key path of every value inside a record, the record excluded."""
    items = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _set(obj, keys, value):
    for key in keys[:-1]:
        obj = obj[key]
    if value is _DEL:
        del obj[keys[-1]]
    else:
        obj[keys[-1]] = value


@st.composite
def _dataset_record(draw):
    """A dataset record with zero, one or several faults."""
    first = draw(st.sampled_from([0, 1]))
    texts = draw(st.lists(_LINE, max_size=5))
    obj = {
        "skill": draw(st.sampled_from(["P", "K", "E"])),
        "episode_id": "r-1",
        "contexts": [draw(st.lists(_LINE, max_size=3)), draw(st.lists(_LINE, max_size=3))],
        "turns": [{"speaker": (first + i) % 2, "text": t} for i, t in enumerate(texts)],
    }
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["value", "delete", "speaker", "break-then-blank"]))
        turns = obj.get("turns")
        whole_turns = type(turns) is list and all(type(t) is dict for t in turns)
        if kind == "value":
            _set(obj, draw(st.sampled_from(list(_nodes(obj)))), draw(_VALUES))
        elif kind == "delete":
            _set(obj, draw(st.sampled_from(list(_nodes(obj)))), _DEL)
        elif kind == "speaker" and whole_turns and turns:
            turns[draw(st.integers(0, len(turns) - 1))]["speaker"] = draw(_VALUES | st.booleans())
        elif kind == "break-then-blank" and whole_turns and len(turns) >= 3:
            # turn i repeats its predecessor's speaker; a later turn is blank
            i = draw(st.integers(1, len(turns) - 2))
            turns[i]["speaker"] = turns[i - 1].get("speaker")
            turns[draw(st.integers(i + 1, len(turns) - 1))]["text"] = draw(st.sampled_from(["", " "]))
    return obj


def _outcome(reader, path):
    """The records' fields, or the error's class, line, path and message."""
    try:
        return [(r.skill, r.side_contexts, r.turns) for r in reader(path, DEFAULT_ROSTER)]
    except ParseError as exc:
        return type(exc), exc.line_no, exc.path, str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(_dataset_record(), min_size=1, max_size=3))
def test_read_dataset_equals_the_oracle(records):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "ds.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(obj) + "\n" for obj in records)
        assert _outcome(read_dataset, path) == _outcome(helpers.read_dataset_oracle, path)


@pytest.mark.parametrize(
    "line",
    ['{"a": 1}', ' {"a": 1}', '\t{"a": [1]} ', '{"a": 1}\x0c', '{"a": 1}\u3000', '{"a": 1}{}',
     '{"a": 1', "[1]", "NaN"],
)
def test_json_lines_decode_as_json_loads_does(tmp_path, line):
    path = tmp_path / "one.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    try:
        obj = json.loads(line)
        expected = obj if type(obj) is dict else "line 1: expected a JSON object"
    except json.JSONDecodeError as exc:
        expected = f"line 1: invalid JSON ({exc.msg})"
    try:
        [(_, got)] = dataio._iter_json_lines(str(path))
    except ParseError as exc:
        got = str(exc)
    assert got == expected


def test_read_dataset_reports_a_turn_fault_before_an_alternation_break(tmp_path):
    turns = [{"speaker": 0, "text": "a"}, {"speaker": 0, "text": "b"}, {"speaker": 1, "text": " "}]
    path = _write(tmp_path, "bad.jsonl", [_record_line(turns=turns)])
    with pytest.raises(ParseError) as excinfo:
        list(read_dataset(path, DEFAULT_ROSTER))
    assert str(excinfo.value) == "line 1: turns[2]: utterance text must be non-blank"


# --- bytes that are not UTF-8 ---------------------------------------------------


def _bytes_file(tmp_path, name, lines: list[bytes], ends: list[bytes]):
    path = tmp_path / name
    path.write_bytes(b"".join(line + end for line, end in zip(lines, ends)))
    return str(path)


def test_read_dataset_names_the_line_that_is_not_utf8(tmp_path):
    good = _record_line().encode()
    bad = good.replace(b'"p-1"', b'"p-\xe9"')  # a lone 0xe9 byte
    # \n, \r\n and \r each end a line, as text mode counts them; line 3 is blank
    ends = [b"\n", b"\r\n", b"\r", b"\n", b"\n"]
    path = _bytes_file(tmp_path, "ds.jsonl", [good, good, b"", good, bad], ends)
    with pytest.raises(ParseError) as excinfo:
        list(read_dataset(path, DEFAULT_ROSTER))
    assert (excinfo.value.line_no, excinfo.value.path) == (5, "")
    assert str(excinfo.value) == "line 5: not UTF-8 text"


def test_read_episodes_reports_an_earlier_fault_before_bytes_that_are_not_utf8(tmp_path):
    ep = helpers.mini_episode(DEFAULT_ROSTER, ["P", "K", "E", "P"], "P")
    good = episode_line(ep).encode()
    path = _bytes_file(tmp_path, "eps.jsonl", [good, b"{}", good + b"\xff"], [b"\n"] * 3)
    with pytest.raises(ParseError) as excinfo:
        read_episodes(path, DEFAULT_ROSTER)
    assert str(excinfo.value) == "line 2: id: missing field"
    path = _bytes_file(tmp_path, "eps.jsonl", [good, good + b"\xff", b"{}"], [b"\n"] * 3)
    with pytest.raises(ParseError) as excinfo:
        read_episodes(path, DEFAULT_ROSTER)
    assert str(excinfo.value) == "line 2: not UTF-8 text"


def test_load_config_file_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_bytes(b"# r\xc3\xa9glages\nalpha = 0.75\n\nepisode_length = 8 \xff\n")
    with pytest.raises(ConfigError) as excinfo:
        load_config_file(str(path))
    assert str(excinfo.value) == f"{path}:4: not UTF-8 text"


def test_load_config_file(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text(
        "# engine settings\n"
        "alpha = 0.75\n"
        "episode_length = 8\n"
        "skill_roster = P,K,E\n",
        encoding="utf-8",
    )
    values = load_config_file(str(path))
    assert values == {"alpha": "0.75", "episode_length": "8", "skill_roster": "P,K,E"}


def test_load_config_file_rejects_junk(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("mystery = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(str(bad_key))
    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("alpha 0.75\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(str(bad_line))

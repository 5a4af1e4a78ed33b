from __future__ import annotations

import json

import pytest

from skillblend.core import DEFAULT_ROSTER, EngineConfig, SkillDistribution
from skillblend.dataio import (
    ConfigError,
    EpisodeWriter,
    ParseError,
    RosterError,
    episode_line,
    extract_pairs,
    load_config_file,
    read_dataset,
    read_episodes,
)

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
    assert [u.turn for u in records[0].turns] == [0, 1, 2]


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
    pairs = extract_pairs(records)
    assert len(pairs) == 3
    # tags match source record skills, verified by recount
    assert sum(1 for _, s in pairs if s.id == "P") == 2
    assert sum(1 for _, s in pairs if s.id == "K") == 1
    assert pairs[0][0][0].text == "hello" and pairs[0][0][1].text == "hi"


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

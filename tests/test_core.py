from __future__ import annotations

import math
from dataclasses import replace

import pytest

from skillblend.core import (
    DEFAULT_ROSTER,
    DialogueContext,
    EngineConfig,
    SkillContext,
    SkillContextSet,
    SkillDistribution,
    SkillId,
    Utterance,
    canonical_json,
    config_digest,
    make_roster,
    validate_episode,
)

import helpers


def test_make_roster_assigns_indices():
    roster = make_roster(["P", "K", "E"])
    assert [s.id for s in roster] == ["P", "K", "E"]
    assert [s.index for s in roster] == [0, 1, 2]


def test_make_roster_rejects_duplicates_and_tiny_rosters():
    with pytest.raises(ValueError):
        make_roster(["P", "P"])
    with pytest.raises(ValueError):
        make_roster(["P"])


def test_skill_context_rejects_blank_lines():
    skill = DEFAULT_ROSTER[0]
    with pytest.raises(ValueError):
        SkillContext(skill, ("fine", "   "))
    assert SkillContext(skill).first_line == ""


def test_context_set_sorts_by_roster_index_and_rejects_duplicates():
    p, k, e = DEFAULT_ROSTER
    ctxset = SkillContextSet((SkillContext(e, ("sad day",)), SkillContext(p, ("i ski",))))
    assert [c.skill.id for c in ctxset] == ["P", "E"]
    assert ctxset.get(e).lines == ("sad day",)
    assert ctxset.get(k) is None
    with pytest.raises(ValueError):
        SkillContextSet((SkillContext(p, ("a",)), SkillContext(p, ("b",))))


def test_dialogue_context_invariants():
    a = Utterance(0, 0, "hello")
    b = Utterance(1, 1, "hi")
    dtx = DialogueContext((a, b))
    assert dtx.last.text == "hi"
    extended = dtx.extended(Utterance(0, 2, "more"))
    assert len(extended.turns) == 3
    with pytest.raises(ValueError):
        DialogueContext((a, Utterance(0, 1, "same side twice")))
    with pytest.raises(ValueError):
        DialogueContext((a, Utterance(1, 5, "bad index")))


def test_utterance_rejects_bad_fields():
    with pytest.raises(ValueError):
        Utterance(2, 0, "x")
    with pytest.raises(ValueError):
        Utterance(0, 0, "  ")


def test_distribution_validation():
    SkillDistribution((0.5, 0.25, 0.25))
    with pytest.raises(ValueError):
        SkillDistribution((0.5, 0.6, 0.2))
    with pytest.raises(ValueError):
        SkillDistribution((-0.1, 0.6, 0.5))
    with pytest.raises(ValueError):
        SkillDistribution(())
    # integer inputs are coerced to floats
    assert SkillDistribution((1, 0, 0)).probs == (1.0, 0.0, 0.0)


def test_engine_config_bounds():
    EngineConfig()
    with pytest.raises(ValueError):
        EngineConfig(alpha=0.0)
    with pytest.raises(ValueError):
        EngineConfig(episode_length=3)
    with pytest.raises(ValueError):
        EngineConfig(max_attempts=0)
    with pytest.raises(ValueError):
        EngineConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        EngineConfig(seeds_per_pair=0)
    with pytest.raises(ValueError):
        EngineConfig(skill_roster=(SkillId("P", 1), SkillId("K", 0)))
    for key in ("alpha", "epsilon"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError) as excinfo:
                EngineConfig(**{key: bad})
            assert str(excinfo.value) == f"{key} must be finite and > 0"


def test_config_digest_is_stable_and_sensitive():
    cfg = EngineConfig()
    # pinned: every episode line embeds this digest
    assert config_digest(cfg) == "6d65ade2c44cdead4c2fceb97407caf8624fe5da22959b5d9613022716c33f90"
    assert config_digest(cfg) == config_digest(EngineConfig())
    assert config_digest(cfg) != config_digest(EngineConfig(alpha=2.0))
    assert len(config_digest(cfg)) == 64
    # equal configs can differ in their digest (a bool alpha writes true),
    # so a digest cached by config equality would stamp the wrong one
    assert EngineConfig(alpha=True) == EngineConfig(alpha=1.0)
    assert config_digest(EngineConfig(alpha=True)) != config_digest(EngineConfig(alpha=1.0))


def test_canonical_json_shape():
    obj = {"b": 1, "a": [1.0, 0.5, True, None, "x"]}
    # insertion order is preserved, floats carry 17 significant digits
    assert canonical_json(obj) == '{"b":1,"a":[1,0.5,true,null,"x"]}'
    assert canonical_json(1 / 3) == "0.33333333333333331"
    assert float(canonical_json(0.1)) == 0.1
    with pytest.raises(ValueError):
        canonical_json(math.inf)
    with pytest.raises(TypeError):
        canonical_json({1: "non-string key"})


def test_validate_episode_clean_by_construction(cfg):
    ep = helpers.hand_episode(cfg)
    assert validate_episode(ep, cfg) == []


def test_validate_episode_flags_wrong_length(cfg):
    ep = helpers.hand_episode(cfg)
    short = replace(ep, turns=ep.turns[:-1])
    violations = validate_episode(short, cfg)
    assert any(v.startswith("length:") for v in violations)


def test_validate_episode_flags_label_not_argmax(cfg):
    # Mutate turn 3's distribution so its stored label stops being the argmax,
    # recomputed by hand: argmax((0.1, 0.8, 0.1)) -> K, stored label stays P.
    ep = helpers.hand_episode(cfg)
    turn = ep.turns[3]
    mutated = replace(turn, distribution=SkillDistribution((0.1, 0.8, 0.1)))
    bad = replace(ep, turns=ep.turns[:3] + (mutated,) + ep.turns[4:])
    violations = validate_episode(bad, cfg)
    assert violations == ["label: turn 3 label 'P' is not the argmax skill 'K'"]


def test_validate_episode_flags_seed_annotation_rules(cfg):
    ep = helpers.hand_episode(cfg)
    bad_seed = replace(ep.turns[0], mic_passed=True, phase2_attempts=2)
    ep2 = replace(ep, turns=(bad_seed,) + ep.turns[1:])
    violations = validate_episode(ep2, cfg)
    assert "seed: turn 0 must not pass the mic" in violations
    assert "seed: turn 0 must record 0 consistency attempts" in violations


def test_validate_episode_is_total_on_odd_input(cfg):
    # Roster-foreign labels are violations, not crashes.
    stranger = SkillId("Z", 9)
    ep = helpers.hand_episode(cfg)
    weird = replace(ep.turns[2], skill_label=stranger)
    ep2 = replace(ep, turns=ep.turns[:2] + (weird,) + ep.turns[3:])
    violations = validate_episode(ep2, cfg)
    assert any(v.startswith("roster:") for v in violations)

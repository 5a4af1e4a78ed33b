from __future__ import annotations

import math

import pytest

from skillblend.core import DEFAULT_ROSTER, EngineConfig, canonical_json
from skillblend.dataio import read_episodes
from skillblend.stats import (
    build_report,
    contradiction_breakdown,
    continuity_after_seed,
    cross_type_share,
    default_entropy_edges,
    entropy_histogram,
    format_report,
    kld_histogram,
    skill_percentages,
    skills_per_dialogue,
    write_report,
)

import helpers

ROSTER = DEFAULT_ROSTER


def test_skill_percentages_single_skill_corpus():
    eps = [helpers.mini_episode(ROSTER, ["K"] * 4, "K")]
    assert skill_percentages(eps, ROSTER) == [0.0, 100.0, 0.0]


def test_skill_percentages_counted_by_hand():
    eps = [
        helpers.mini_episode(ROSTER, ["P", "K"], "P", ep_id="a"),
        helpers.mini_episode(ROSTER, ["K", "E"], "K", ep_id="b"),
    ]
    assert skill_percentages(eps, ROSTER) == [25.0, 50.0, 25.0]


def test_skill_percentages_empty_corpus_and_sum():
    assert skill_percentages([], ROSTER) == [0.0, 0.0, 0.0]
    eps = [helpers.mini_episode(ROSTER, ["P", "K", "E", "P", "K"], "P")]
    assert sum(skill_percentages(eps, ROSTER)) == pytest.approx(100.0, abs=0.01)


def test_skills_per_dialogue_buckets_partition():
    eps = [
        helpers.mini_episode(ROSTER, ["P", "P", "P", "P"], "P", ep_id="one"),
        helpers.mini_episode(ROSTER, ["P", "K", "P", "K"], "P", ep_id="two"),
        helpers.mini_episode(ROSTER, ["P", "K", "E", "P"], "P", ep_id="three"),
        helpers.mini_episode(ROSTER, ["K", "K", "K", "K"], "K", ep_id="four"),
    ]
    buckets = skills_per_dialogue(eps, ROSTER)
    assert buckets == {1: 2, 2: 1, 3: 1}
    assert sum(buckets.values()) == len(eps)


def test_contradiction_breakdown_counts_and_share():
    eps = [
        helpers.mini_episode(
            ROSTER, ["P", "K", "E"], "P", refusal_pairs=(("P", "K"), ("P", "K"), ("E", "E"))
        )
    ]
    matrix = contradiction_breakdown(eps, ROSTER)
    assert matrix[0][1] == 2
    assert matrix[2][2] == 1
    assert sum(sum(r) for r in matrix) == 3
    assert cross_type_share(matrix) == pytest.approx(2 / 3)


def test_contradiction_breakdown_empty():
    eps = [helpers.mini_episode(ROSTER, ["P", "K"], "P")]
    matrix = contradiction_breakdown(eps, ROSTER)
    assert all(all(c == 0 for c in row) for row in matrix)
    assert cross_type_share(matrix) is None


def test_kld_histogram_constant_distributions_land_in_first_bin():
    dists = [helpers.uniform(3)] * 4
    eps = [helpers.mini_episode(ROSTER, ["P"] * 4, "P", dists=dists)]
    hist = kld_histogram(eps, edges=[0.0, 0.5, 1.0])
    assert hist.counts == (3, 0)  # 3 consecutive pairs, all KL 0
    assert hist.out_of_range == 0


def test_entropy_histogram_one_hot_mass_at_zero():
    dists = [helpers.one_hot(0, 3)] * 4
    eps = [helpers.mini_episode(ROSTER, ["P"] * 4, "P", dists=dists)]
    hist = entropy_histogram(eps, edges=[0.0, 0.1, math.log(3)])
    assert hist.counts == (4, 0)


def test_entropy_histogram_default_edges_cover_uniform():
    dists = [helpers.uniform(3)] * 4
    eps = [helpers.mini_episode(ROSTER, ["P"] * 4, "P", dists=dists)]
    hist = entropy_histogram(eps)
    assert hist.out_of_range == 0
    assert sum(hist.counts) == 4
    assert hist.counts[-1] == 4  # uniform entropy sits in the top bin
    with pytest.raises(ValueError):
        entropy_histogram([])


def test_histograms_dual_path_recompute(corpus_files, tmp_path):
    # every re-read distribution equals re-scoring its text with the
    # generation-time scorer, so the histograms over them agree too
    cfg = EngineConfig(episode_length=6, rng_seed=9)
    out = tmp_path / "eps.jsonl"
    helpers.generate_file(corpus_files, cfg, 12, out)
    episodes = read_episodes(str(out), cfg.skill_roster)
    _, _, scorer = helpers.scripted_stack(cfg)
    for ep in episodes:
        for turn in ep.turns:
            rescored = scorer.score(turn.utterance.text)
            assert turn.distribution == rescored, (ep.id, turn.utterance.turn)


def test_continuity_after_seed_all_continue():
    eps = [helpers.mini_episode(ROSTER, ["P", "P", "P", "P"], "P")]
    fractions = continuity_after_seed(eps, ROSTER)
    assert fractions == {"P": 1.0, "K": None, "E": None}


def test_continuity_after_seed_counted_by_hand():
    # 4 K-seeded episodes whose first generated labels are K, K, P, E
    eps = [
        helpers.mini_episode(ROSTER, ["K", "K", first, "K"], "K", ep_id=f"e{i}")
        for i, first in enumerate(["K", "K", "P", "E"])
    ]
    fractions = continuity_after_seed(eps, ROSTER)
    assert fractions["K"] == 0.5


def test_continuity_window_extends_the_measure():
    eps = [helpers.mini_episode(ROSTER, ["K", "K", "K", "P"], "K")]
    assert continuity_after_seed(eps, ROSTER, window=1)["K"] == 1.0
    assert continuity_after_seed(eps, ROSTER, window=2)["K"] == 0.5
    with pytest.raises(ValueError):
        continuity_after_seed(eps, ROSTER, window=0)
    for value in continuity_after_seed(eps, ROSTER).values():
        assert value is None or 0.0 <= value <= 1.0


def test_default_entropy_edges_admit_the_maximum():
    edges = default_entropy_edges(3)
    assert len(edges) == 21
    assert edges[0] == 0.0
    assert edges[-1] >= math.log(3)


def test_report_roundtrip_and_files(tmp_path, corpus_files):
    cfg = EngineConfig(episode_length=6, rng_seed=13)
    out = tmp_path / "eps.jsonl"
    report_batch = helpers.generate_file(corpus_files, cfg, 10, out)
    episodes = read_episodes(str(out), cfg.skill_roster)
    report = build_report(episodes, cfg.skill_roster, epsilon=cfg.epsilon)
    assert report.episode_count == 10
    assert report.turn_count == 60
    assert report.refusal_total == report_batch.refusal_total
    assert sum(report.skill_shares) == pytest.approx(100.0, abs=0.01)
    assert sum(report.dialogue_buckets.values()) == 10

    text = format_report(report)
    assert "episodes: 10" in text
    assert "skill shares" in text

    paths = write_report(report, str(tmp_path / "report"))
    assert len(paths) == 8
    for path in paths:
        assert (tmp_path / path.split("/")[-1]).exists()
    json_text = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert json_text.strip() == canonical_json(report.to_obj())

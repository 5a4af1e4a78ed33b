"""The corpus report: hand-counted statistics, the pinned report bytes, and
the one-pass fold against the per-statistic oracle in ``helpers``."""

from __future__ import annotations

import csv
import json
import math
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillblend.core import (
    DEFAULT_ROSTER,
    EngineConfig,
    SkillDistribution,
    canonical_json,
    make_roster,
)
from skillblend.dataio import read_episodes
from skillblend.distmath import kl_divergence
from skillblend.stats import (
    DEFAULT_KLD_EDGES,
    build_report,
    default_entropy_edges,
    format_report,
    write_report,
)

import helpers

ROSTER = DEFAULT_ROSTER
EPSILON = EngineConfig().epsilon


def fold(episodes):
    return build_report(iter(episodes), ROSTER, EPSILON)


def test_skill_percentages_single_skill_corpus():
    eps = [helpers.mini_episode(ROSTER, ["K"] * 4, "K")]
    assert fold(eps)["skill_shares"] == {"P": 0.0, "K": 100.0, "E": 0.0}


def test_skill_percentages_counted_by_hand():
    eps = [
        helpers.mini_episode(ROSTER, ["P", "K"], "P", ep_id="a"),
        helpers.mini_episode(ROSTER, ["K", "E"], "K", ep_id="b"),
    ]
    assert fold(eps)["skill_shares"] == {"P": 25.0, "K": 50.0, "E": 25.0}


def test_skill_percentages_empty_corpus_and_sum():
    assert fold([])["skill_shares"] == {"P": 0.0, "K": 0.0, "E": 0.0}
    eps = [helpers.mini_episode(ROSTER, ["P", "K", "E", "P", "K"], "P")]
    assert sum(fold(eps)["skill_shares"].values()) == pytest.approx(100.0, abs=0.01)


def test_skills_per_dialogue_buckets_partition():
    eps = [
        helpers.mini_episode(ROSTER, ["P", "P", "P", "P"], "P", ep_id="one"),
        helpers.mini_episode(ROSTER, ["P", "K", "P", "K"], "P", ep_id="two"),
        helpers.mini_episode(ROSTER, ["P", "K", "E", "P"], "P", ep_id="three"),
        helpers.mini_episode(ROSTER, ["K", "K", "K", "K"], "K", ep_id="four"),
    ]
    buckets = fold(eps)["skills_per_dialogue"]
    assert buckets == {"1": 2, "2": 1, "3": 1}
    assert sum(buckets.values()) == len(eps)


def test_contradiction_breakdown_counts_and_share():
    eps = [
        helpers.mini_episode(
            ROSTER, ["P", "K", "E"], "P", refusal_pairs=(("P", "K"), ("P", "K"), ("E", "E"))
        )
    ]
    got = fold(eps)
    matrix = got["contradictions"]["matrix"]
    assert matrix[0][1] == 2
    assert matrix[2][2] == 1
    assert sum(sum(r) for r in matrix) == got["refusal_total"] == 3
    assert got["contradictions"]["cross_type_share"] == pytest.approx(2 / 3)


def test_contradiction_breakdown_empty():
    eps = [helpers.mini_episode(ROSTER, ["P", "K"], "P")]
    got = fold(eps)
    assert all(all(c == 0 for c in row) for row in got["contradictions"]["matrix"])
    assert got["refusal_total"] == 0
    assert got["contradictions"]["cross_type_share"] is None


def test_kld_histogram_constant_distributions_land_in_first_bin():
    dists = [helpers.uniform(3)] * 4
    eps = [helpers.mini_episode(ROSTER, ["P"] * 4, "P", dists=dists)]
    hist = fold(eps)["kld_histogram"]
    assert hist["counts"][0] == 3  # 3 consecutive pairs, all KL 0
    assert sum(hist["counts"]) == 3
    assert hist["out_of_range"] == 0


def test_entropy_histogram_one_hot_mass_at_zero():
    dists = [helpers.one_hot(0, 3)] * 4
    eps = [helpers.mini_episode(ROSTER, ["P"] * 4, "P", dists=dists)]
    hist = fold(eps)["entropy_histogram"]
    assert hist["counts"][0] == 4
    assert sum(hist["counts"]) == 4


def test_entropy_histogram_default_edges_cover_uniform():
    dists = [helpers.uniform(3)] * 4
    eps = [helpers.mini_episode(ROSTER, ["P"] * 4, "P", dists=dists)]
    hist = fold(eps)["entropy_histogram"]
    assert hist["out_of_range"] == 0
    assert sum(hist["counts"]) == 4
    assert hist["counts"][-1] == 4  # uniform entropy sits in the top bin


def test_histograms_dual_path_recompute(corpus_files, tmp_path):
    # every re-read distribution equals re-scoring its text with the
    # generation-time scorer, so the histograms over them agree too
    cfg = EngineConfig(episode_length=6, rng_seed=9)
    out = tmp_path / "eps.jsonl"
    helpers.generate_file(corpus_files, cfg, 12, out)
    episodes = read_episodes(str(out), cfg.skill_roster)
    _, _, scorer = helpers.scripted_stack(cfg)
    for ep in episodes:
        for i, turn in enumerate(ep.turns):
            rescored = scorer.score(turn.utterance.text)
            assert turn.distribution == rescored, (ep.id, i)


def test_continuity_after_seed_all_continue():
    eps = [helpers.mini_episode(ROSTER, ["P", "P", "P", "P"], "P")]
    assert fold(eps)["continuity_after_seed"] == {"P": 1.0, "K": None, "E": None}


def test_continuity_after_seed_counted_by_hand():
    # 4 K-seeded episodes whose first generated labels are K, K, P, E
    eps = [
        helpers.mini_episode(ROSTER, ["K", "K", first, "K"], "K", ep_id=f"e{i}")
        for i, first in enumerate(["K", "K", "P", "E"])
    ]
    assert fold(eps)["continuity_after_seed"]["K"] == 0.5


def test_continuity_reads_only_the_first_generated_turn():
    eps = [helpers.mini_episode(ROSTER, ["K", "K", "K", "P"], "K")]
    continuity = fold(eps)["continuity_after_seed"]
    assert continuity["K"] == 1.0
    for value in continuity.values():
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
    assert report["episodes"] == 10
    assert report["turns"] == 60
    assert report["refusal_total"] == report_batch.refusal_total
    assert sum(report["skill_shares"].values()) == pytest.approx(100.0, abs=0.01)
    assert sum(report["skills_per_dialogue"].values()) == 10

    text = format_report(report)
    assert "episodes: 10" in text
    assert "skill shares" in text

    paths = write_report(report, str(tmp_path / "report"))
    assert len(paths) == 8
    for path in paths:
        assert (tmp_path / path.split("/")[-1]).exists()
    json_text = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert json_text.strip() == canonical_json(report)


def test_a_ten_skill_roster_lists_its_buckets_in_numeric_order(tmp_path):
    # a string sort would put "10" before "2"
    roster = make_roster([f"S{i}" for i in range(10)])
    ids = [s.id for s in roster]
    episodes = [
        helpers.mini_episode(roster, ids, "S0", ep_id="all"),
        helpers.mini_episode(roster, ["S1", "S2", "S1"], "S1", ep_id="two"),
        helpers.mini_episode(roster, ["S9", "S9"], "S9", ep_id="one"),
    ]
    report = build_report(episodes, roster, EPSILON)
    assert report == helpers.report_oracle(episodes, roster, EPSILON)
    order = [str(n) for n in range(1, 11)]
    assert list(report["skills_per_dialogue"]) == order

    write_report(report, str(tmp_path / "report"))
    written = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert list(written["skills_per_dialogue"]) == order
    text = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert "dialogues by distinct skills: 1:1  2:1  3:0  4:0  5:0  6:0  7:0  8:0  9:0  10:1\n" in text
    with open(tmp_path / "report_skills_per_dialogue.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    counts = {"1": "1", "2": "1", "10": "1"}
    assert rows == [["distinct_skills", "dialogues"]] + [[n, counts.get(n, "0")] for n in order]


# --- report golden ------------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden" / "report"


def golden_corpus():
    """Hand corpus for the report golden: refusals on and off the diagonal,
    two seed skills, one episode covering every skill, one-hot label flips
    (KL above the top edge), uniform turns (entropy in the top bin) and a
    two-turn episode (no continuity sample)."""
    mixed = [(0.5, 0.3, 0.2), (0.6, 0.3, 0.1), (0.2, 0.7, 0.1), (0.1, 0.8, 0.1), (0.3, 0.4, 0.3)]
    return [
        helpers.mini_episode(
            ROSTER, ["P", "K", "E", "P", "K", "E"], "P", ep_id="g-all",
            refusal_pairs=(("P", "K"), ("P", "K"), ("E", "E")),
        ),
        helpers.mini_episode(
            ROSTER, ["K"] * 4, "K", ep_id="g-uniform", dists=[helpers.uniform(3)] * 4
        ),
        helpers.mini_episode(
            ROSTER, ["K", "K", "P", "K", "K"], "K", ep_id="g-mixed",
            dists=[SkillDistribution(d) for d in mixed], refusal_pairs=(("K", "P"), ("K", "K")),
        ),
        helpers.mini_episode(ROSTER, ["P", "P"], "P", ep_id="g-short"),
    ]


def test_report_files_match_the_golden_bytes(tmp_path):
    paths = write_report(fold(golden_corpus()), str(tmp_path / "report"))
    names = [pathlib.Path(p).name for p in paths]
    assert sorted(names) == sorted(p.name for p in GOLDEN.iterdir())
    for path, name in zip(paths, names):
        assert pathlib.Path(path).read_bytes() == (GOLDEN / name).read_bytes(), name


def _top_edge_episode():
    """Two turns whose KL (epsilon 1e-9) is exactly 5.0, the top KL edge:
    one-hot on P, then q, found by stepping q[0] one ulp at a time from
    the solution of (1 + eps) / (q[0] + eps) = e**5."""
    q0 = 0.0067379460058234145
    dists = [helpers.one_hot(0, 3), SkillDistribution((q0, 1.0 - q0, 0.0))]
    return helpers.mini_episode(ROSTER, ["P", "K"], "P", ep_id="ep-top", dists=dists)


def test_a_kl_on_the_top_edge_lands_in_the_last_bin():
    ep = _top_edge_episode()
    kl = kl_divergence(ep.turns[0].distribution, ep.turns[1].distribution, EPSILON)
    assert kl == DEFAULT_KLD_EDGES[-1] == 5.0
    report = fold([ep])
    assert report["kld_histogram"]["counts"] == [0] * 19 + [1]
    assert report["kld_histogram"]["out_of_range"] == 0
    assert report == helpers.report_oracle([ep], ROSTER, EPSILON)


# --- the fold against the oracle ------------------------------------------------

_LABELS = st.sampled_from([s.id for s in ROSTER])


@st.composite
def _distribution(draw, label_id):
    kind = draw(st.sampled_from(["one_hot", "uniform", "random"]))
    if kind == "one_hot":
        return helpers.one_hot([s.id for s in ROSTER].index(label_id), len(ROSTER))
    if kind == "uniform":
        return helpers.uniform(len(ROSTER))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(ROSTER), max_size=len(ROSTER)))
    total = sum(weights)
    if total == 0.0:
        return helpers.uniform(len(ROSTER))
    return SkillDistribution(tuple(w / total for w in weights))


@st.composite
def _episode(draw, number):
    labels = draw(st.lists(_LABELS, min_size=2, max_size=7))
    return helpers.mini_episode(
        ROSTER,
        labels,
        draw(_LABELS),
        ep_id=f"ep-{number}",
        dists=[draw(_distribution(label)) for label in labels],
        refusal_pairs=tuple(draw(st.lists(st.tuples(_LABELS, _LABELS), max_size=3))),
    )


@st.composite
def _corpus(draw):
    return [draw(_episode(n)) for n in range(draw(st.integers(0, 6)))]


@given(_corpus())
@example([])
@example([helpers.mini_episode(ROSTER, ["P", "K"], "E")])
@example([_top_edge_episode()])
@settings(deadline=None, max_examples=150)
def test_one_pass_report_equals_the_oracle(episodes):
    # two-turn episodes give no continuity sample; one-hot label flips give
    # KL values of about 20.7 (epsilon 1e-9), above the top edge of 5
    assert fold(episodes) == helpers.report_oracle(episodes, ROSTER, EPSILON)

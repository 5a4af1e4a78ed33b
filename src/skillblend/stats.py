"""Corpus diagnostics over generated episode files.

``build_report`` folds the episodes into one set of counters in a single
pass over any iterable; every histogram edge is fixed before the first
episode is read. The report depends on the episodes alone, so a re-read
file gives the batch-time report exactly. It is the plain object that
``report.json`` holds, and it comes out three ways: that canonical JSON
file, a text summary, and per-figure CSV tables for external plotting.
"""

from __future__ import annotations

import csv
import math
from typing import Iterable, Sequence

from .core import Episode, SkillId, canonical_json
from .distmath import bin_index, entropy, kl_divergence

DEFAULT_KLD_EDGES = tuple(i * 0.25 for i in range(21))  # 20 bins over [0, 5]


def default_entropy_edges(m: int) -> tuple[float, ...]:
    """20 bins over [0, ln M]; the last edge is padded by an ulp-scale
    margin so a numerically maximal uniform entropy still lands in-range."""
    top = math.log(m)
    edges = [top * i / 20 for i in range(21)]
    edges[-1] = top + 1e-12
    return tuple(edges)


def build_report(episodes: Iterable[Episode], roster: Sequence[SkillId], epsilon: float) -> dict:
    """Fold ``episodes`` (any iterable, read once) into the corpus report:
    label counts, distinct-skill buckets, the refusal matrix, seed
    continuity at turn 2, and KL (over consecutive turns) and entropy
    binned on the fixed edges. The report is the object ``report.json``
    holds: plain dicts, lists, numbers and None, keyed by skill id, and
    with the distinct-skill buckets keyed "1" to "M" in numeric order. An
    episode without turns, or with a distribution whose length is not the
    roster's, is a ValueError naming the episode."""
    m = len(roster)
    position = {s.id: i for i, s in enumerate(roster)}
    labels = [0] * m
    buckets = [0] * m  # by distinct skills minus one
    matrix = [[0] * m for _ in roster]
    continued = [0] * m
    sampled = [0] * m
    kld_edges, entropy_edges = DEFAULT_KLD_EDGES, default_entropy_edges(m)
    # the bin counts of each histogram, then its out-of-range count
    kld = [0] * len(kld_edges)
    turn_entropy = [0] * len(entropy_edges)
    episode_count = 0
    for ep in episodes:
        if not ep.turns:
            raise ValueError(f"{ep.id}: episode has no turns")
        episode_count += 1
        seen = [position[turn.skill_label.id] for turn in ep.turns]
        for i in seen:
            labels[i] += 1
        buckets[len(set(seen)) - 1] += 1
        for i, turn in enumerate(ep.turns):
            n = len(turn.distribution.probs)
            if n != m:
                raise ValueError(f"{ep.id}: turn {i} has {n} entries for {m} skills")
            for refusal in turn.refusals:
                matrix[position[refusal.candidate_skill.id]][position[refusal.context_skill.id]] += 1
            turn_entropy[bin_index(entropy(turn.distribution), entropy_edges)] += 1
        for prev, cur in zip(ep.turns, ep.turns[1:]):
            value = kl_divergence(prev.distribution, cur.distribution, epsilon)
            kld[bin_index(value, kld_edges)] += 1
        if len(seen) > 2:
            seed = position[ep.seed_dataset.id]
            sampled[seed] += 1
            continued[seed] += seen[2] == seed

    turn_count = sum(labels)
    refusal_total = sum(map(sum, matrix))
    diagonal = sum(matrix[i][i] for i in range(m))
    return {
        "roster": [s.id for s in roster],
        "episodes": episode_count,
        "turns": turn_count,
        "refusal_total": refusal_total,
        "skill_shares": {
            s.id: 100.0 * labels[i] / turn_count if turn_count else 0.0 for i, s in enumerate(roster)
        },
        "skills_per_dialogue": {str(n): c for n, c in enumerate(buckets, 1)},
        "contradictions": {
            "matrix": matrix,
            "cross_type_share": (refusal_total - diagonal) / refusal_total if refusal_total else None,
        },
        "kld_histogram": {"edges": list(kld_edges), "counts": kld[:-1], "out_of_range": kld[-1]},
        "entropy_histogram": {
            "edges": list(entropy_edges),
            "counts": turn_entropy[:-1],
            "out_of_range": turn_entropy[-1],
        },
        "continuity_after_seed": {
            s.id: continued[i] / sampled[i] if sampled[i] else None for i, s in enumerate(roster)
        },
    }


def format_report(report: dict) -> str:
    cross_type = report["contradictions"]["cross_type_share"]
    lines = [
        f"episodes: {report['episodes']}  turns: {report['turns']}  refusals: {report['refusal_total']}",
        "skill shares (%): "
        + "  ".join(f"{sid} {share:.2f}" for sid, share in report["skill_shares"].items()),
        "dialogues by distinct skills: "
        + "  ".join(f"{n}:{c}" for n, c in report["skills_per_dialogue"].items()),
    ]
    if cross_type is None:
        lines.append("contradictions: none logged")
    else:
        lines.append(
            f"contradictions: {report['refusal_total']} logged, cross-type share {cross_type:.3f}"
        )
    lines.append(
        "continuity after seed: "
        + "  ".join(
            f"{sid} {'n/a' if frac is None else format(frac, '.3f')}"
            for sid, frac in report["continuity_after_seed"].items()
        )
    )
    lines.append(_histogram_line("kld", report["kld_histogram"]))
    lines.append(_histogram_line("entropy", report["entropy_histogram"]))
    return "\n".join(lines)


def _histogram_line(name: str, h: dict) -> str:
    edges = h["edges"]
    populated = [
        f"[{edges[i]:.3g},{edges[i + 1]:.3g}):{c}" for i, c in enumerate(h["counts"]) if c
    ]
    tail = f" out-of-range {h['out_of_range']}" if h["out_of_range"] else ""
    return f"{name} histogram: " + (" ".join(populated) if populated else "empty") + tail


def write_report(report: dict, prefix: str) -> list[str]:
    """Write ``report`` as the machine-readable ``.json``, the text summary
    and per-figure CSVs; returns the paths written."""
    paths = []

    json_path = prefix + ".json"
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(report) + "\n")
    paths.append(json_path)

    text_path = prefix + ".txt"
    with open(text_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_report(report) + "\n")
    paths.append(text_path)

    def table(name: str, header: list[str], rows: list[list]) -> None:
        path = f"{prefix}_{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(path)

    roster = report["roster"]
    matrix = report["contradictions"]["matrix"]
    table(
        "skill_shares",
        ["skill", "percent"],
        [[sid, repr(share)] for sid, share in report["skill_shares"].items()],
    )
    table(
        "skills_per_dialogue",
        ["distinct_skills", "dialogues"],
        [[n, c] for n, c in report["skills_per_dialogue"].items()],
    )
    table(
        "contradictions",
        ["candidate_skill", "context_skill", "count"],
        [[cand, ctx, matrix[i][j]] for i, cand in enumerate(roster) for j, ctx in enumerate(roster)],
    )
    for name, key in (("kld_hist", "kld_histogram"), ("entropy_hist", "entropy_histogram")):
        hist = report[key]
        edges = hist["edges"]
        rows = [[repr(edges[i]), repr(edges[i + 1]), c] for i, c in enumerate(hist["counts"])]
        rows.append(["out_of_range", "", hist["out_of_range"]])
        table(name, ["bin_start", "bin_end", "count"], rows)
    table(
        "continuity",
        ["seed_skill", "fraction"],
        [
            [sid, "" if frac is None else repr(frac)]
            for sid, frac in report["continuity_after_seed"].items()
        ],
    )
    return paths

"""Corpus diagnostics over generated episode files.

``build_report`` folds the episodes into one set of counters in a single
pass over any iterable; every histogram edge is fixed before the first
episode is read. The report depends on the episodes alone, so a re-read
file gives the batch-time report exactly. Reports come out three ways: a
text summary, one canonical JSON file, and per-figure CSV tables for
external plotting.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Episode, SkillId, canonical_json
from .distmath import Histogram, bin_index, entropy, kl_divergence

DEFAULT_KLD_EDGES = tuple(i * 0.25 for i in range(21))  # 20 bins over [0, 5]


def default_entropy_edges(m: int) -> tuple[float, ...]:
    """20 bins over [0, ln M]; the last edge is padded by an ulp-scale
    margin so a numerically maximal uniform entropy still lands in-range."""
    top = math.log(m)
    edges = [top * i / 20 for i in range(21)]
    edges[-1] = top + 1e-12
    return tuple(edges)


@dataclass(frozen=True)
class CorpusReport:
    roster_ids: tuple[str, ...]
    episode_count: int
    turn_count: int
    refusal_total: int
    skill_shares: tuple[float, ...]
    dialogue_buckets: dict[int, int]
    contradiction_matrix: tuple[tuple[int, ...], ...]
    cross_type: float | None
    kld: Histogram
    turn_entropy: Histogram
    continuity: dict[str, float | None]

    def to_obj(self) -> dict:
        return {
            "roster": list(self.roster_ids),
            "episodes": self.episode_count,
            "turns": self.turn_count,
            "refusal_total": self.refusal_total,
            "skill_shares": {sid: share for sid, share in zip(self.roster_ids, self.skill_shares)},
            "skills_per_dialogue": {str(n): c for n, c in sorted(self.dialogue_buckets.items())},
            "contradictions": {
                "matrix": [list(row) for row in self.contradiction_matrix],
                "cross_type_share": self.cross_type,
            },
            "kld_histogram": _histogram_obj(self.kld),
            "entropy_histogram": _histogram_obj(self.turn_entropy),
            "continuity_after_seed": dict(self.continuity),
        }


def _histogram_obj(h: Histogram) -> dict:
    return {
        "edges": [float(e) for e in h.bin_edges],
        "counts": list(h.counts),
        "out_of_range": h.out_of_range,
    }


def build_report(
    episodes: Iterable[Episode], roster: Sequence[SkillId], epsilon: float
) -> CorpusReport:
    """Fold ``episodes`` (any iterable, read once) into the corpus report:
    label counts, distinct-skill buckets, the refusal matrix, seed
    continuity at turn 2, and KL (over consecutive turns) and entropy
    binned on the fixed edges. An episode without turns, or with a
    distribution whose length is not the roster's, is a ValueError naming
    the episode."""
    m = len(roster)
    position = {s.id: i for i, s in enumerate(roster)}
    labels = [0] * m
    buckets = dict.fromkeys(range(1, m + 1), 0)
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
        buckets[len(set(seen))] += 1
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
    return CorpusReport(
        roster_ids=tuple(s.id for s in roster),
        episode_count=episode_count,
        turn_count=turn_count,
        refusal_total=refusal_total,
        skill_shares=tuple(100.0 * c / turn_count if turn_count else 0.0 for c in labels),
        dialogue_buckets=buckets,
        contradiction_matrix=tuple(map(tuple, matrix)),
        cross_type=(refusal_total - diagonal) / refusal_total if refusal_total else None,
        kld=Histogram(kld_edges, tuple(kld[:-1]), kld[-1]),
        turn_entropy=Histogram(entropy_edges, tuple(turn_entropy[:-1]), turn_entropy[-1]),
        continuity={
            s.id: continued[i] / sampled[i] if sampled[i] else None for i, s in enumerate(roster)
        },
    )


def format_report(report: CorpusReport) -> str:
    lines = [
        f"episodes: {report.episode_count}  turns: {report.turn_count}  refusals: {report.refusal_total}",
        "skill shares (%): "
        + "  ".join(f"{sid} {share:.2f}" for sid, share in zip(report.roster_ids, report.skill_shares)),
        "dialogues by distinct skills: "
        + "  ".join(f"{n}:{c}" for n, c in sorted(report.dialogue_buckets.items())),
    ]
    if report.cross_type is None:
        lines.append("contradictions: none logged")
    else:
        lines.append(
            f"contradictions: {report.refusal_total} logged, cross-type share {report.cross_type:.3f}"
        )
    lines.append(
        "continuity after seed: "
        + "  ".join(
            f"{sid} {'n/a' if frac is None else format(frac, '.3f')}"
            for sid, frac in report.continuity.items()
        )
    )
    lines.append(_histogram_line("kld", report.kld))
    lines.append(_histogram_line("entropy", report.turn_entropy))
    return "\n".join(lines)


def _histogram_line(name: str, h: Histogram) -> str:
    populated = [
        f"[{h.bin_edges[i]:.3g},{h.bin_edges[i + 1]:.3g}):{c}"
        for i, c in enumerate(h.counts)
        if c
    ]
    tail = f" out-of-range {h.out_of_range}" if h.out_of_range else ""
    return f"{name} histogram: " + (" ".join(populated) if populated else "empty") + tail


def write_report(report: CorpusReport, prefix: str) -> list[str]:
    """Write the machine-readable report plus per-figure CSVs; returns the
    paths written."""
    paths = []

    json_path = prefix + ".json"
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(report.to_obj()) + "\n")
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

    table(
        "skill_shares",
        ["skill", "percent"],
        [[sid, repr(share)] for sid, share in zip(report.roster_ids, report.skill_shares)],
    )
    table(
        "skills_per_dialogue",
        ["distinct_skills", "dialogues"],
        [[n, c] for n, c in sorted(report.dialogue_buckets.items())],
    )
    table(
        "contradictions",
        ["candidate_skill", "context_skill", "count"],
        [
            [cand, ctx, report.contradiction_matrix[i][j]]
            for i, cand in enumerate(report.roster_ids)
            for j, ctx in enumerate(report.roster_ids)
        ],
    )
    for name, hist in (("kld_hist", report.kld), ("entropy_hist", report.turn_entropy)):
        rows = [
            [repr(hist.bin_edges[i]), repr(hist.bin_edges[i + 1]), c]
            for i, c in enumerate(hist.counts)
        ]
        rows.append(["out_of_range", "", hist.out_of_range])
        table(name, ["bin_start", "bin_end", "count"], rows)
    table(
        "continuity",
        ["seed_skill", "fraction"],
        [[sid, "" if frac is None else repr(frac)] for sid, frac in report.continuity.items()],
    )
    return paths

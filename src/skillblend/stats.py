"""Corpus diagnostics over generated episode files.

Every statistic is a pure, single-pass function of the episodes, so
recomputation on a re-read file matches the batch-time report exactly.
Reports come out three ways: a text summary, one canonical JSON file, and
per-figure CSV tables for external plotting.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

from .core import Episode, SkillId, canonical_json
from .distmath import Histogram, entropy, histogram, kl_divergence

DEFAULT_KLD_EDGES = tuple(i * 0.25 for i in range(21))  # 20 bins over [0, 5]


def default_entropy_edges(m: int) -> tuple[float, ...]:
    """20 bins over [0, ln M]; the last edge is padded by an ulp-scale
    margin so a numerically maximal uniform entropy still lands in-range."""
    top = math.log(m)
    edges = [top * i / 20 for i in range(21)]
    edges[-1] = top + 1e-12
    return tuple(edges)


def skill_percentages(episodes: Sequence[Episode], roster: Sequence[SkillId]) -> list[float]:
    """Share of all annotated turns per roster skill, in percent."""
    position = {s.id: i for i, s in enumerate(roster)}
    counts = [0] * len(roster)
    total = 0
    for ep in episodes:
        for turn in ep.turns:
            counts[position[turn.skill_label.id]] += 1
            total += 1
    if total == 0:
        return [0.0] * len(roster)
    return [100.0 * c / total for c in counts]


def skills_per_dialogue(episodes: Sequence[Episode], roster: Sequence[SkillId]) -> dict[int, int]:
    """Episodes bucketed by how many distinct skills their labels cover."""
    buckets = {n: 0 for n in range(1, len(roster) + 1)}
    for ep in episodes:
        distinct = len({turn.skill_label.id for turn in ep.turns})
        buckets[distinct] += 1
    return buckets


def contradiction_breakdown(
    episodes: Sequence[Episode], roster: Sequence[SkillId]
) -> list[list[int]]:
    """M x M refusal counts by (candidate skill, conflicting context skill)."""
    position = {s.id: i for i, s in enumerate(roster)}
    matrix = [[0] * len(roster) for _ in roster]
    for ep in episodes:
        for turn in ep.turns:
            for refusal in turn.refusals:
                matrix[position[refusal.candidate_skill.id]][position[refusal.context_skill.id]] += 1
    return matrix


def cross_type_share(matrix: Sequence[Sequence[int]]) -> float | None:
    """Off-diagonal refusal mass over the total; None for an empty matrix."""
    total = sum(sum(row) for row in matrix)
    if total == 0:
        return None
    diagonal = sum(matrix[i][i] for i in range(len(matrix)))
    return (total - diagonal) / total


def kld_histogram(
    episodes: Sequence[Episode],
    edges: Sequence[float] | None = None,
    epsilon: float = 0.0,
) -> Histogram:
    """KL divergence over consecutive annotated-turn distribution pairs
    within each episode."""
    values = []
    for ep in episodes:
        dists = [t.distribution for t in ep.turns]
        for prev, cur in zip(dists, dists[1:]):
            values.append(kl_divergence(prev, cur, epsilon))
    return histogram(values, edges if edges is not None else DEFAULT_KLD_EDGES)


def entropy_histogram(
    episodes: Sequence[Episode], edges: Sequence[float] | None = None
) -> Histogram:
    """Entropy of every turn's skill distribution across the corpus."""
    values = []
    m = None
    for ep in episodes:
        for turn in ep.turns:
            m = len(turn.distribution.probs)
            values.append(entropy(turn.distribution))
    if edges is None:
        if m is None:
            raise ValueError("explicit edges are required for an empty corpus")
        edges = default_entropy_edges(m)
    return histogram(values, edges)


def continuity_after_seed(
    episodes: Sequence[Episode], roster: Sequence[SkillId], window: int = 1
) -> dict[str, float | None]:
    """Per seed skill: the fraction of the first ``window`` generated turns
    labeled with the seed's skill. None where no episodes contribute."""
    if window < 1:
        raise ValueError("window must be at least 1")
    matches = {s.id: 0 for s in roster}
    totals = {s.id: 0 for s in roster}
    for ep in episodes:
        for turn in ep.turns[2 : 2 + window]:
            totals[ep.seed_dataset.id] += 1
            if turn.skill_label.id == ep.seed_dataset.id:
                matches[ep.seed_dataset.id] += 1
    return {
        sid: (matches[sid] / totals[sid] if totals[sid] else None) for sid in (s.id for s in roster)
    }


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
    episodes: Sequence[Episode], roster: Sequence[SkillId], epsilon: float = 0.0
) -> CorpusReport:
    matrix = contradiction_breakdown(episodes, roster)
    return CorpusReport(
        roster_ids=tuple(s.id for s in roster),
        episode_count=len(episodes),
        turn_count=sum(len(ep.turns) for ep in episodes),
        refusal_total=sum(len(t.refusals) for ep in episodes for t in ep.turns),
        skill_shares=tuple(skill_percentages(episodes, roster)),
        dialogue_buckets=skills_per_dialogue(episodes, roster),
        contradiction_matrix=tuple(tuple(row) for row in matrix),
        cross_type=cross_type_share(matrix),
        kld=kld_histogram(episodes, epsilon=epsilon),
        turn_entropy=entropy_histogram(episodes, default_entropy_edges(len(roster))),
        continuity=continuity_after_seed(episodes, roster),
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

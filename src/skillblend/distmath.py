"""Probability-vector arithmetic for the moderation gates and diagnostics.

All functions are pure and operate on length-M vectors only. Natural
logarithm everywhere, so KL divergence and entropy share one unit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

from .core import SkillDistribution


def softmax(scores: Sequence[float]) -> SkillDistribution:
    """Exp-normalize a score vector into a distribution (shift-invariant)."""
    if len(scores) == 0:
        raise ValueError("softmax of an empty vector")
    if any(not math.isfinite(s) for s in scores):
        raise ValueError("softmax requires finite scores")
    peak = max(scores)
    exps = [math.exp(s - peak) for s in scores]
    total = sum(exps)
    return SkillDistribution(tuple(e / total for e in exps))


def kl_divergence(p: SkillDistribution, q: SkillDistribution, epsilon: float = 0.0) -> float:
    """KL(p || q) = sum_i p_i * ln((p_i + epsilon) / (q_i + epsilon)).

    With epsilon = 0 the convention 0 * ln(0/x) = 0 applies; a positive
    p_i against q_i = 0 yields +inf. Results are clamped at 0 so gate
    comparisons never see floating-point negatives.
    """
    if len(p.probs) != len(q.probs):
        raise ValueError("distributions must have the same length")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    total = 0.0
    for pi, qi in zip(p.probs, q.probs):
        if pi == 0.0:
            continue
        den = qi + epsilon
        if den == 0.0:
            return math.inf
        total += pi * math.log((pi + epsilon) / den)
    return max(0.0, total)


def entropy(p: SkillDistribution) -> float:
    """Shannon entropy -sum_i p_i ln p_i with 0 ln 0 = 0; in [0, ln M]."""
    total = 0.0
    for pi in p.probs:
        if pi > 0.0:
            total -= pi * math.log(pi)
    return max(0.0, total)


def stable_argmax(values: Sequence[float]) -> int:
    """Index of the maximum; ties break to the lowest index."""
    if len(values) == 0:
        raise ValueError("argmax of an empty vector")
    if any(not math.isfinite(v) for v in values):
        raise ValueError("argmax requires finite entries")
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def bin_index(value: float, edges: tuple[float, ...]) -> int:
    """The bin of ``value`` among the half-open bins [edges[i], edges[i+1]),
    the last also right-closed; ``len(edges) - 1``, one past the last bin,
    for NaN or a value outside the edges."""
    if math.isnan(value) or value < edges[0] or value > edges[-1]:
        return len(edges) - 1
    if value == edges[-1]:
        return len(edges) - 2
    return bisect_right(edges, value) - 1

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import histogram
from skillblend.core import SkillDistribution
from skillblend.distmath import (
    bin_index,
    entropy,
    kl_divergence,
    softmax,
    stable_argmax,
)


def dist(*probs):
    return SkillDistribution(tuple(probs))


def _normalize(weights):
    total = sum(weights)
    return SkillDistribution(tuple(w / total for w in weights))


def dist_strategy(min_size=2, max_size=6):
    return st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=min_size, max_size=max_size
    ).map(_normalize)


def dist_pair_strategy():
    return st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(dist_strategy(n, n), dist_strategy(n, n))
    )


# --- softmax -----------------------------------------------------------------


def test_softmax_uniform_on_zeros():
    assert softmax([0.0, 0.0, 0.0]).probs == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)


def test_softmax_exp_normalizes():
    # exp-normalize by hand: (2, 1, 1) / 4
    got = softmax([math.log(2.0), 0.0, 0.0]).probs
    assert got == pytest.approx((0.5, 0.25, 0.25), abs=1e-12)


def test_softmax_rejects_bad_input():
    with pytest.raises(ValueError):
        softmax([])
    with pytest.raises(ValueError):
        softmax([0.0, math.nan])
    with pytest.raises(ValueError):
        softmax([math.inf, 0.0])


@given(
    st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=6),
    st.floats(min_value=-100, max_value=100),
)
@settings(deadline=None)
def test_softmax_shift_invariant_and_valid(scores, shift):
    base = softmax(scores)
    shifted = softmax([s + shift for s in scores])
    assert all(p > 0 for p in base.probs)
    assert abs(sum(base.probs) - 1.0) <= 1e-12
    assert max(abs(a - b) for a, b in zip(base.probs, shifted.probs)) <= 1e-12


# --- KL divergence ------------------------------------------------------------


def test_kl_identity_is_zero():
    u = dist(1 / 3, 1 / 3, 1 / 3)
    assert kl_divergence(u, u, 0.0) == 0.0


def test_kl_one_hot_against_spread():
    # direct summation: only the first term survives -> ln 2
    got = kl_divergence(dist(1.0, 0.0, 0.0), dist(0.5, 0.25, 0.25), 0.0)
    assert got == pytest.approx(math.log(2.0), abs=1e-12)


def test_kl_swapped_mass():
    # 0.8 ln 8 + 0.1 ln(1/8) + 0
    expected = 0.8 * math.log(8.0) + 0.1 * math.log(1.0 / 8.0)
    got = kl_divergence(dist(0.8, 0.1, 0.1), dist(0.1, 0.8, 0.1), 0.0)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(1.45561, abs=1e-5)


def test_kl_infinite_when_support_disjoint():
    assert kl_divergence(dist(1.0, 0.0), dist(0.0, 1.0), 0.0) == math.inf
    # smoothing makes the gate total
    assert math.isfinite(kl_divergence(dist(1.0, 0.0), dist(0.0, 1.0), 1e-9))


def test_kl_rejects_length_mismatch_and_bad_epsilon():
    with pytest.raises(ValueError):
        kl_divergence(dist(0.5, 0.5), dist(1 / 3, 1 / 3, 1 / 3), 0.0)
    with pytest.raises(ValueError):
        kl_divergence(dist(0.5, 0.5), dist(0.5, 0.5), -1.0)


@given(dist_pair_strategy(), st.floats(min_value=0.0, max_value=1e-3))
@settings(deadline=None)
def test_kl_nonnegative(pair, epsilon):
    p, q = pair
    assert kl_divergence(p, q, epsilon) >= 0.0


@given(dist_strategy())
@settings(deadline=None)
def test_kl_self_is_zero(p):
    assert kl_divergence(p, p, 0.0) == 0.0


# --- entropy -------------------------------------------------------------------


def test_entropy_one_hot_is_zero():
    assert entropy(dist(1.0, 0.0, 0.0)) == 0.0


def test_entropy_uniform_is_log_m():
    assert entropy(dist(1 / 3, 1 / 3, 1 / 3)) == pytest.approx(math.log(3.0), abs=1e-12)


def test_entropy_mixed():
    expected = 0.5 * math.log(2.0) + 2 * 0.25 * math.log(4.0)
    assert entropy(dist(0.5, 0.25, 0.25)) == pytest.approx(expected, abs=1e-12)
    assert entropy(dist(0.5, 0.25, 0.25)) == pytest.approx(1.039721, abs=1e-6)


@given(dist_strategy())
@settings(deadline=None)
def test_entropy_bounds(p):
    h = entropy(p)
    assert 0.0 <= h <= math.log(len(p.probs)) + 1e-12


# --- stable argmax ---------------------------------------------------------------


def test_argmax_breaks_ties_low():
    assert stable_argmax([0.2, 0.9, 0.9]) == 1
    assert stable_argmax([5.0]) == 0
    assert stable_argmax([1.0, 1.0, 1.0]) == 0


def test_argmax_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        stable_argmax([])
    with pytest.raises(ValueError):
        stable_argmax([0.0, math.nan])


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=12))
@settings(deadline=None)
def test_argmax_matches_linear_scan(values):
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    assert stable_argmax(values) == best


# --- histogram --------------------------------------------------------------------

_EDGES = (0.0, 0.5, 1.0)


@pytest.mark.parametrize(
    "value, expected",
    [
        (0.0, 0),  # the bottom edge
        (math.nextafter(0.5, 0.0), 0),
        (0.5, 1),  # an interior edge opens the next bin
        (math.nextafter(1.0, 0.0), 1),
        (1.0, 1),  # the top edge closes the last bin
        (math.nextafter(0.0, -1.0), 2),  # just below the range
        (math.nextafter(1.0, 2.0), 2),  # just above the range
        (math.nan, 2),
        (-math.inf, 2),
        (math.inf, 2),
    ],
)
def test_bin_index_edges_and_out_of_range(value, expected):
    assert bin_index(value, _EDGES) == expected


@given(st.floats(min_value=-0.5, max_value=1.5) | st.sampled_from(_EDGES + (math.nan,)))
def test_bin_index_matches_the_oracle_histogram(value):
    h = histogram([value], _EDGES)
    tally = h["counts"] + [h["out_of_range"]]
    assert tally.index(1) == bin_index(value, _EDGES)



def test_histogram_last_bin_right_closed():
    h = histogram([0.1, 0.5, 0.9], [0.0, 0.5, 1.0])
    assert h["counts"] == [1, 2]
    assert histogram([1.0], [0.0, 0.5, 1.0])["counts"] == [0, 1]


def test_histogram_empty_values():
    assert histogram([], [0.0, 1.0, 2.0])["counts"] == [0, 0]


def test_histogram_out_of_range_reported_separately():
    h = histogram([-1.0, 0.5, 3.0, math.inf, math.nan], [0.0, 1.0, 2.0])
    assert h["counts"] == [1, 0]
    assert h["out_of_range"] == 4


def test_histogram_rejects_unsorted_edges():
    with pytest.raises(ValueError):
        histogram([0.5], [0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        histogram([0.5], [1.0])


def test_histogram_uniform_counts_within_binomial_bound():
    rng = random.Random(1234)
    values = [rng.random() for _ in range(1000)]
    h = histogram(values, [i / 10 for i in range(11)])
    sigma = math.sqrt(1000 * 0.1 * 0.9)
    assert h["out_of_range"] == 0
    assert sum(h["counts"]) == 1000
    for count in h["counts"]:
        assert abs(count - 100) <= 5 * sigma

"""Property tests of matching: ``hungarian`` commutes with permuting the rows
and columns of its cost matrix, and ``stable_cls_cost`` depends on the
prediction only through q = p * s'**beta and falls strictly as q rises."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from casdet.matching import PROB_EPS, hungarian, stable_cls_cost


@st.composite
def permuted_costs(draw, unique: bool):
    """A cost matrix of 1-6 rows and 1-6 columns and one permutation of each.

    With ``unique``, the cells are distinct powers of two, so every
    assignment has its own total and the optimum is unique. Otherwise they
    are small integers, so ties are common; integer sums are exact, so every
    optimum has the same total.
    """
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if unique:
        cost = np.ldexp(1.0, np.array(draw(st.permutations(range(n * m)))).reshape(n, m))
    else:
        cost = np.array(draw(st.lists(st.integers(0, 4), min_size=n * m, max_size=n * m)), dtype=float).reshape(n, m)
    rows = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    cols = np.array(draw(st.permutations(range(m))), dtype=np.intp)
    return cost, rows, cols


def total(cost, pairs):
    return math.fsum(cost[r, c] for r, c in pairs)


@settings(max_examples=300, deadline=None)
@given(permuted_costs(unique=True))
def test_hungarian_pairs_follow_a_permutation_of_rows_and_columns(case):
    cost, rows, cols = case
    pairs = hungarian(cost[rows][:, cols])  # permuted cell (i, j) is cost[rows[i], cols[j]]
    assert sorted((int(rows[i]), int(cols[j])) for i, j in pairs) == hungarian(cost)
    assert total(cost[rows][:, cols], pairs) == total(cost, hungarian(cost))


@settings(max_examples=300, deadline=None)
@given(permuted_costs(unique=False))
def test_hungarian_total_survives_a_permutation_with_ties(case):
    cost, rows, cols = case
    permuted = cost[rows][:, cols]
    pairs = hungarian(permuted)
    assert len(pairs) == min(cost.shape)
    assert total(permuted, pairs) == total(cost, hungarian(cost))


probability = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(probability, probability, st.floats(0.1, 2.0))
def test_stable_cls_cost_depends_only_on_q(p, s_prime, beta):
    q = p * s_prime**beta
    got = stable_cls_cost(p, s_prime, beta=beta)
    assert got == pytest.approx(stable_cls_cost(q, 1.0, beta=beta), rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(probability, probability, probability, probability)
def test_stable_cls_cost_strictly_decreasing_in_q(p1, s1, p2, s2):
    q1, q2 = (min(max(p * s**0.5, PROB_EPS), 1.0 - PROB_EPS) for p, s in ((p1, s1), (p2, s2)))
    assume(abs(q1 - q2) > 1e-9)
    c1, c2 = stable_cls_cost(p1, s1), stable_cls_cost(p2, s2)
    assert (c1 > c2) == (q1 < q2)

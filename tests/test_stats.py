from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dahl.stats import (
    apportion_largest_remainder,
    f_test_equal_variance,
    pearson,
    reg_inc_beta,
    stratified_sample,
    t_sf_two_tailed,
    t_test,
)
from dahl.types import Question

import oracles


# ---------------------------------------------------------------------------
# reg_inc_beta


def test_reg_inc_beta_boundaries_and_median():
    assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0
    assert reg_inc_beta(4.0, 4.0, 0.5) == 0.5


def test_reg_inc_beta_uniform_is_identity():
    # a=b=1 is the uniform distribution, so I_x(1,1) = x.
    for x in (0.1, 0.25, 0.5, 0.9):
        assert reg_inc_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)


def test_reg_inc_beta_closed_forms():
    # I_x(1, b) = 1 - (1-x)^b and I_x(a, 1) = x^a.
    for b in (2.0, 5.0, 50.0):
        assert reg_inc_beta(1.0, b, 0.3) == pytest.approx(1 - 0.7**b, abs=1e-13)
    for a in (2.0, 5.0, 50.0):
        assert reg_inc_beta(a, 1.0, 0.3) == pytest.approx(0.3**a, abs=1e-13)


def test_reg_inc_beta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        reg_inc_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        reg_inc_beta(1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        reg_inc_beta(1.0, 1.0, 1.5)


def test_reg_inc_beta_against_quadrature_spot_grid():
    # A coarse slice of the acceptance grid; the full 200-point sweep
    # lives in the acceptance suite.
    for a in (0.5, 2.0, 50.0):
        for b in (1.0, 5.0):
            for x in (0.05, 0.37, 0.61, 0.93):
                want = oracles.beta_cdf_quad(a, b, x)
                assert reg_inc_beta(a, b, x) == pytest.approx(want, abs=1e-11)


@settings(max_examples=120, deadline=None)
@given(
    a=st.floats(0.5, 60.0),
    b=st.floats(0.5, 60.0),
    x=st.floats(0.001, 0.999),
)
def test_reg_inc_beta_symmetry_property(a, b, x):
    left = reg_inc_beta(a, b, x)
    right = reg_inc_beta(b, a, 1.0 - x)
    assert left + right == pytest.approx(1.0, abs=1e-9)
    assert -1e-12 <= left <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.5, 20.0),
    b=st.floats(0.5, 20.0),
    x1=st.floats(0.01, 0.98),
    dx=st.floats(0.001, 0.02),
)
def test_reg_inc_beta_monotone_in_x(a, b, x1, dx):
    x2 = min(0.999, x1 + dx)
    assert reg_inc_beta(a, b, x2) >= reg_inc_beta(a, b, x1) - 1e-12


# ---------------------------------------------------------------------------
# t tail


def test_t_sf_cauchy_unit_point_is_exact():
    # df=1 is the Cauchy distribution; P(|T| >= 1) is exactly 1/2.
    assert abs(t_sf_two_tailed(1.0, 1.0) - 0.5) <= 1e-12


def test_t_sf_zero_statistic():
    assert t_sf_two_tailed(0.0, 7.0) == 1.0


def test_t_sf_sign_symmetric():
    assert t_sf_two_tailed(-2.2, 9.0) == t_sf_two_tailed(2.2, 9.0)


def test_t_sf_matches_quadrature():
    for t, df in ((0.31, 3.0), (1.5, 10.0), (2.5, 7.0), (4.0, 30.0), (9.0, 2.0)):
        want = oracles.t_two_tailed_quad(t, df)
        assert t_sf_two_tailed(t, df) == pytest.approx(want, abs=1e-12)


def test_t_sf_normal_limit():
    # For huge df the t distribution is the standard normal.
    assert t_sf_two_tailed(1.96, 1e8) == pytest.approx(
        oracles.normal_two_tailed(1.96), abs=1e-6
    )


def test_t_sf_rejects_nonpositive_df():
    with pytest.raises(ValueError):
        t_sf_two_tailed(1.0, 0.0)


# ---------------------------------------------------------------------------
# pearson


def test_pearson_perfect_correlation():
    x = [1.0, 2.0, 3.0, 4.0]
    res = pearson(x, [2 * v + 1 for v in x])
    assert res.statistic == pytest.approx(1.0)
    assert res.p_two_tailed == 0.0
    res = pearson(x, [-3 * v for v in x])
    assert res.statistic == pytest.approx(-1.0)
    assert res.p_two_tailed == 0.0


def test_pearson_p_matches_t_transform():
    rng = random.Random(5)
    x = [rng.random() for _ in range(40)]
    y = [v + rng.gauss(0, 0.4) for v in x]
    res = pearson(x, y)
    r = res.statistic
    t = r * math.sqrt(38 / (1 - r * r))
    assert res.df == 38.0
    assert res.p_two_tailed == pytest.approx(oracles.t_two_tailed_quad(t, 38.0), rel=1e-10)


def test_pearson_input_validation():
    with pytest.raises(ValueError, match="same length"):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(ValueError, match="at least 3"):
        pearson([1, 2], [3, 4])
    with pytest.raises(ValueError, match="zero variance"):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError, match="non-finite"):
        pearson([1, 2, float("nan")], [1, 2, 3])


def test_pearson_tiny_values_give_the_r_of_scaled_up_values():
    # The products of the raw deviations underflow to zero for the
    # first pair, and the mean of the subnormal x rounds off the grid.
    expected = pearson([0, 0, 0, 1], [0, 0, 1, 2]).statistic
    tiny = pearson([0, 0, 0, 1e-100], [0, 0, 1e-100, 2e-100]).statistic
    subnormal = pearson([0, 0, 0, 5e-324], [0, 0, 1, 2]).statistic
    assert tiny == pytest.approx(expected)
    assert subnormal == pytest.approx(expected)


def _spread_survives(values):
    """True when the spread of values is not lost against their magnitude."""
    return max(values) - min(values) > 1e-4 * max(abs(v) for v in values)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=4, max_size=30
    ),
    scale=st.floats(0.5, 8.0),
    shift=st.floats(-30.0, 30.0),
)
# x + 1 rounds every value to 1.0: the moved x is constant, so pearson
# is right to raise, and the case is outside the property.
@example(
    data=[(0.0, 1.0), (0.0, 2.0), (0.0, 4.0), (3.17e-25, 3.0)], scale=1.0, shift=1.0
)
def test_pearson_affine_invariance(data, scale, shift):
    xs = [p[0] for p in data]
    ys = [p[1] for p in data]
    moved_xs = [scale * v + shift for v in xs]
    if not (_spread_survives(xs) and _spread_survives(moved_xs)):
        return
    if len(set(ys)) == 1:
        for x_values in (xs, moved_xs):
            with pytest.raises(ValueError, match="zero variance"):
                pearson(x_values, ys)
        return
    base = pearson(xs, ys)
    moved = pearson(moved_xs, ys)
    assert moved.statistic == pytest.approx(base.statistic, abs=1e-9)
    assert moved.p_two_tailed == pytest.approx(base.p_two_tailed, abs=1e-9)


# ---------------------------------------------------------------------------
# f test


def test_f_test_statistic_is_at_least_one_and_symmetric():
    x = [1.0, 2.0, 3.0, 4.5, 2.2]
    y = [10.0, 30.0, -5.0, 44.0, 7.5]
    a = f_test_equal_variance(x, y)
    b = f_test_equal_variance(y, x)
    assert a.statistic >= 1.0
    assert a.statistic == b.statistic
    assert a.p_two_tailed == b.p_two_tailed
    assert a.df == b.df


def test_f_test_identical_samples():
    x = [3.0, 1.0, 4.0, 1.0, 5.0]
    res = f_test_equal_variance(x, list(x))
    assert res.statistic == pytest.approx(1.0)
    assert res.p_two_tailed == pytest.approx(1.0)


def test_f_test_matches_quadrature():
    x = [12.1, 14.3, 11.8, 15.2, 13.9, 12.5, 16.0, 11.2]
    y = [10.0, 18.4, 9.1, 19.9, 8.2, 21.0, 7.7, 20.5]
    res = f_test_equal_variance(x, y)
    tail = oracles.f_upper_tail_quad(res.statistic, res.df[0], res.df[1])
    want = min(1.0, 2.0 * min(tail, 1.0 - tail))
    assert res.p_two_tailed == pytest.approx(want, abs=1e-10)


def test_f_test_zero_variance_is_an_error():
    with pytest.raises(ValueError, match="zero variance"):
        f_test_equal_variance([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# t test


def test_t_test_identical_samples_give_p_one():
    x = [4.0, 5.0, 6.0, 7.0]
    res = t_test(x, list(x))
    assert res.statistic == 0.0
    assert res.p_two_tailed == 1.0


def test_t_test_is_antisymmetric_in_arguments():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [2.5, 3.5, 4.5, 6.5]
    ab = t_test(x, y)
    ba = t_test(y, x)
    assert ab.statistic == pytest.approx(-ba.statistic)
    assert ab.p_two_tailed == pytest.approx(ba.p_two_tailed)


def test_t_test_pooled_matches_quadrature():
    x = [12.1, 14.3, 11.8, 15.2, 13.9, 12.5, 16.0, 11.2]
    y = [10.0, 18.4, 9.1, 19.9, 8.2, 21.0, 7.7, 20.5]
    res = t_test(x, y)
    assert res.df == 14.0
    assert res.p_two_tailed == pytest.approx(
        oracles.t_two_tailed_quad(res.statistic, 14.0), abs=1e-12
    )


def test_t_test_welch_df_and_p():
    x = [12.1, 14.3, 11.8, 15.2, 13.9, 12.5, 16.0, 11.2]
    y = [10.0, 18.4, 9.1, 19.9, 8.2, 21.0, 7.7, 20.5]
    res = t_test(x, y, variant="welch")
    # Welch-Satterthwaite df is fractional and below the pooled 14.
    assert 7.0 < res.df < 14.0
    assert res.p_two_tailed == pytest.approx(
        oracles.t_two_tailed_quad(res.statistic, res.df), abs=1e-12
    )


def test_t_test_degenerate_variance_cases():
    res = t_test([5.0, 5.0, 5.0], [5.0, 5.0])
    assert res.statistic == 0.0 and res.p_two_tailed == 1.0
    with pytest.raises(ValueError):
        t_test([5.0, 5.0, 5.0], [6.0, 6.0])


def test_t_test_rejects_unknown_variant_and_tiny_samples():
    with pytest.raises(ValueError, match="variant"):
        t_test([1, 2, 3], [1, 2, 3], variant="paired")
    with pytest.raises(ValueError, match="at least 2"):
        t_test([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# apportionment


def test_apportionment_exact_on_divisible_sizes():
    sizes = {"a": 100, "b": 200, "c": 700}
    assert apportion_largest_remainder(sizes, 10) == {"a": 1, "b": 2, "c": 7}


def test_apportionment_conserves_target_and_matches_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n_groups = rng.randint(1, 12)
        sizes = {f"g{i:02d}": rng.randint(1, 400) for i in range(n_groups)}
        target = rng.randint(0, sum(sizes.values()))
        got = apportion_largest_remainder(sizes, target)
        assert sum(got.values()) == target
        assert got == oracles.apportion_oracle(sizes, target)


def test_apportionment_remainder_tie_prefers_larger_group_then_label():
    # Quotas 0.25 each: one seat goes to the larger group.
    assert apportion_largest_remainder({"x": 10, "y": 30}, 1) == {"x": 0, "y": 1}
    # Equal sizes, equal remainders: the smaller label wins.
    assert apportion_largest_remainder({"b": 10, "a": 10}, 1) == {"a": 1, "b": 0}


def test_apportionment_never_exceeds_group_size():
    sizes = {"tiny": 1, "big": 999}
    for target in (0, 1, 500, 1000):
        got = apportion_largest_remainder(sizes, target)
        assert all(got[k] <= sizes[k] for k in sizes)


def test_apportionment_rejects_out_of_range_target():
    with pytest.raises(ValueError):
        apportion_largest_remainder({"a": 3}, 4)
    with pytest.raises(ValueError):
        apportion_largest_remainder({"a": 3}, -1)


# ---------------------------------------------------------------------------
# stratified sampling


def _questions(counts: dict) -> list:
    out = []
    i = 0
    for category, n in counts.items():
        for _ in range(n):
            out.append(
                Question(
                    question_id=f"q{i:04d}",
                    text=f"Question {i}?",
                    category=category,
                    source_doc_id="d",
                )
            )
            i += 1
    random.Random(3).shuffle(out)
    return out


def test_stratified_sample_counts_follow_apportionment():
    counts = {"Surgery": 137, "Medicine": 55, "Dental": 9, "Other": 3}
    questions = _questions(counts)
    sample = stratified_sample(questions, 0.1, seed=4)
    target = int(math.floor(0.1 * len(questions) + 0.5))
    assert len(sample) == target
    want = oracles.apportion_oracle(counts, target)
    got: dict = {}
    for q in sample:
        got[q.category] = got.get(q.category, 0) + 1
    for label in counts:
        assert got.get(label, 0) == want[label]


def test_stratified_sample_preserves_input_order():
    questions = _questions({"Surgery": 40, "Medicine": 40})
    sample = stratified_sample(questions, 0.25, seed=0)
    ids = [q.question_id for q in questions]
    positions = [ids.index(q.question_id) for q in sample]
    assert positions == sorted(positions)


def test_stratified_sample_deterministic_and_seed_sensitive():
    questions = _questions({"Surgery": 60, "Medicine": 60, "Dental": 30})
    first = [q.question_id for q in stratified_sample(questions, 0.2, seed=8)]
    again = [q.question_id for q in stratified_sample(questions, 0.2, seed=8)]
    other = [q.question_id for q in stratified_sample(questions, 0.2, seed=9)]
    assert first == again
    assert first != other
    # per-category counts are identical across seeds
    def tally(ids):
        by_id = {q.question_id: q.category for q in questions}
        t: dict = {}
        for i in ids:
            t[by_id[i]] = t.get(by_id[i], 0) + 1
        return t

    assert tally(first) == tally(other)


def test_stratified_sample_full_fraction_returns_everything():
    questions = _questions({"Surgery": 7, "Medicine": 5})
    sample = stratified_sample(questions, 1.0, seed=1)
    assert [q.question_id for q in sample] == [q.question_id for q in questions]


def test_stratified_sample_validates_inputs():
    questions = _questions({"Surgery": 4})
    with pytest.raises(ValueError):
        stratified_sample(questions, 0.0)
    with pytest.raises(ValueError):
        stratified_sample(questions, 1.2)
    bare = Question(question_id="x", text="t?", category="", source_doc_id="d")
    with pytest.raises(ValueError, match="no category"):
        stratified_sample([bare], 0.5)
    assert stratified_sample([], 0.5) == []

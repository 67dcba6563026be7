"""Statistical toolkit: special functions, hypothesis tests, sampling.

The regularized incomplete beta function is evaluated in-repo with the
modified Lentz continued fraction, so t- and F-test p-values depend on
nothing outside the standard library and stay bit-stable across
installs. Tolerances: reg_inc_beta is good to about 1e-13 absolute on
moderate parameters (verified against adaptive quadrature in the test
suite), which carries through to the p-values built on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Union


@dataclass(frozen=True)
class TestResult:
    """Outcome of one hypothesis test. df is a pair for the F-test."""

    __test__ = False  # keep pytest from collecting this as a test class

    statistic: float
    p_two_tailed: float
    df: Union[float, tuple]


# ---------------------------------------------------------------------------
# Special functions


def _lbeta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz method.

    Evaluates the fraction that multiplies the front factor
    x^a (1-x)^b / (a B(a,b)); convergence is fast for
    x < (a+1)/(a+b+2), which the caller guarantees via the symmetry
    switch.
    """
    max_iter = 500
    eps = 1e-15
    fpmin = 1e-300

    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # Even step.
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        # Odd step.
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Continued fraction evaluation with the usual symmetry switch at
    x > (a+1)/(a+b+2) so the fraction always converges quickly.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if a == b and x == 0.5:
        # Symmetric density: the median is exactly 1/2.
        return 0.5

    # Front factor x^a (1-x)^b / B(a,b), computed in log space. It is
    # symmetric under (a, b, x) -> (b, a, 1-x), so one value serves
    # both branches below.
    log_front = a * math.log(x) + b * math.log1p(-x) - _lbeta(a, b)
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf_two_tailed(t: float, df: float) -> float:
    """Two-tailed p-value for a t statistic: P(|T| >= |t|)."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if t == 0.0:
        return 1.0
    return reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))


# ---------------------------------------------------------------------------
# Hypothesis tests


def _as_floats(values: Iterable, name: str) -> list:
    out = [float(v) for v in values]
    for v in out:
        if not math.isfinite(v):
            raise ValueError(f"{name} contains a non-finite value: {v}")
    return out


def _mean(values: Sequence) -> float:
    return math.fsum(values) / len(values)


def _sample_var(values: Sequence, mean: float) -> float:
    # Unbiased (n-1 denominator).
    return math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)


def _unit_deviations(values: Sequence) -> List[float]:
    # r does not change when x or y is scaled. Scaling to largest
    # magnitude 1 before centering keeps tiny values clear of subnormal
    # rounding and the sums of squares clear of underflow.
    largest = max(abs(v) for v in values) or 1.0
    scaled = [v / largest for v in values]
    mean = _mean(scaled)
    deviations = [v - mean for v in scaled]
    if not any(deviations):
        raise ValueError("zero variance: correlation is undefined for constant input")
    return deviations


def pearson(x: Iterable, y: Iterable) -> TestResult:
    """Pearson correlation with a two-tailed p-value.

    p comes from the exact null distribution via the t transform
    t = r sqrt((n-2)/(1-r^2)) with n-2 degrees of freedom. Perfect
    correlation gives p = 0.
    """
    xs = _as_floats(x, "x")
    ys = _as_floats(y, "y")
    if len(xs) != len(ys):
        raise ValueError(f"inputs must be the same length, got {len(xs)} and {len(ys)}")
    n = len(xs)
    if n < 3:
        raise ValueError(f"need at least 3 pairs, got {n}")
    dx = _unit_deviations(xs)
    dy = _unit_deviations(ys)
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if 1.0 - r * r <= 0.0:
        return TestResult(statistic=r, p_two_tailed=0.0, df=float(df))
    t = r * math.sqrt(df / (1.0 - r * r))
    return TestResult(statistic=r, p_two_tailed=t_sf_two_tailed(t, df), df=float(df))


def f_test_equal_variance(x: Iterable, y: Iterable) -> TestResult:
    """Two-tailed F-test for equality of variances.

    The larger sample variance goes in the numerator, so F >= 1 and
    the result does not depend on argument order. p = 2 * min(tail,
    1 - tail), capped at 1.
    """
    xs = _as_floats(x, "x")
    ys = _as_floats(y, "y")
    if len(xs) < 2 or len(ys) < 2:
        raise ValueError("each sample needs at least 2 values")
    vx = _sample_var(xs, _mean(xs))
    vy = _sample_var(ys, _mean(ys))
    if vx == 0.0 or vy == 0.0:
        raise ValueError("zero variance: F-test is undefined for constant input")
    if vx >= vy:
        f = vx / vy
        d1, d2 = len(xs) - 1, len(ys) - 1
    else:
        f = vy / vx
        d1, d2 = len(ys) - 1, len(xs) - 1
    # P(F > f) for the F(d1, d2) distribution, through the beta link.
    upper_tail = reg_inc_beta(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f))
    p = min(1.0, 2.0 * min(upper_tail, 1.0 - upper_tail))
    return TestResult(statistic=f, p_two_tailed=p, df=(float(d1), float(d2)))


def t_test(x: Iterable, y: Iterable, variant: str = "student_pooled") -> TestResult:
    """Two-sample t-test, pooled-variance by default, Welch by flag.

    Degenerate inputs: zero variance with equal means yields t=0, p=1;
    zero variance with unequal means is an error because the statistic
    diverges.
    """
    if variant not in ("student_pooled", "welch"):
        raise ValueError(f"unknown variant {variant!r}")
    xs = _as_floats(x, "x")
    ys = _as_floats(y, "y")
    nx, ny = len(xs), len(ys)
    if nx < 2 or ny < 2:
        raise ValueError("each sample needs at least 2 values")
    mx, my = _mean(xs), _mean(ys)
    vx, vy = _sample_var(xs, mx), _sample_var(ys, my)

    if variant == "student_pooled":
        df = float(nx + ny - 2)
        pooled = ((nx - 1) * vx + (ny - 1) * vy) / df
        se = math.sqrt(pooled * (1.0 / nx + 1.0 / ny))
    else:
        se2 = vx / nx + vy / ny
        se = math.sqrt(se2)
        if se2 > 0.0:
            df = se2 * se2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
        else:
            df = float(nx + ny - 2)

    if se == 0.0:
        if mx == my:
            return TestResult(statistic=0.0, p_two_tailed=1.0, df=df)
        raise ValueError("zero variance with unequal means: t statistic is undefined")
    t = (mx - my) / se
    return TestResult(statistic=t, p_two_tailed=t_sf_two_tailed(t, df), df=df)


# ---------------------------------------------------------------------------
# Stratified sampling


def apportion_largest_remainder(sizes: dict, target: int) -> dict:
    """Split target seats across groups in proportion to sizes.

    Exact largest-remainder apportionment over rational quotas; ties
    on the remainder go to the larger group, then to the smaller label.
    """
    total = sum(sizes.values())
    if target < 0 or target > total:
        raise ValueError(f"target {target} outside [0, {total}]")
    if not sizes:
        return {}
    quotas = {label: Fraction(target * size, total) for label, size in sizes.items()}
    base = {label: int(q) for label, q in quotas.items()}
    leftover = target - sum(base.values())
    order = sorted(
        sizes,
        key=lambda label: (-(quotas[label] - base[label]), -sizes[label], label),
    )
    for label in order[:leftover]:
        base[label] += 1
    return base


def stratified_sample(questions: Sequence, fraction: float, seed: int = 0) -> list:
    """Draw a category-proportional subset of the questions.

    The total sample size is round(fraction * N) (half away from
    zero), apportioned to categories by largest remainder; members are
    chosen per category by a seeded shuffle. The returned subset keeps
    the input order. Deterministic for a fixed seed; different seeds
    change membership but never the per-category counts.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    items = list(questions)
    if not items:
        return []
    groups: dict = {}
    for position, q in enumerate(items):
        category = getattr(q, "category", None)
        if not category:
            raise ValueError(f"question at position {position} has no category")
        groups.setdefault(category, []).append(position)

    target = int(math.floor(fraction * len(items) + 0.5))
    counts = apportion_largest_remainder({c: len(ix) for c, ix in groups.items()}, target)

    chosen = []
    for category in sorted(groups):
        positions = list(groups[category])
        rng = random.Random(f"{seed}:{category}")
        rng.shuffle(positions)
        chosen.extend(positions[: counts[category]])
    chosen.sort()
    return [items[i] for i in chosen]

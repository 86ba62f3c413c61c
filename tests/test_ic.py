import math
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icborrow import ContingencyTable, posterior_ic, signal_flag
from icborrow.errors import NumericalError
from icborrow.ic import _BLOCK_ROWS, PROB_FLOOR, default_prior

from oracles import exact_ic_mean, ic_cdf, ic_moments, numpy_ic_summaries


def posterior_gamma(table):
    counts = (table.a, table.b, table.c, table.d)
    return [alpha + count for alpha, count in zip(default_prior(table), counts)]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="c = 0 artifact: cell c's prior shrinks with the event margin, so "
    "one report with no other drug's report of the event is called certain",
)
def test_one_report_with_no_other_reports_of_its_event_is_not_certain():
    # One report of the pair among 66 of the drug, none of the event for
    # other drugs, 375 in all. Today ci_low is 2.19: a signal from one report.
    posterior = posterior_ic(ContingencyTable(1, 65, 0, 309), n_samples=100_000, seed=0)
    assert posterior.ci_low <= 0


def test_default_prior_symmetric_table():
    prior = default_prior(ContingencyTable(25, 25, 25, 25))
    assert prior == pytest.approx((0.5, 0.5, 0.5, 0.5), abs=1e-15)


def test_default_prior_margins():
    prior = default_prior(ContingencyTable(10, 90, 90, 810))
    assert prior[0] == pytest.approx(0.02, abs=1e-15)
    assert sum(prior) == pytest.approx(2.0, abs=1e-12)


def test_default_prior_zero_margin_floor():
    # Empty and full margins alike are clipped, so every pseudo-count of
    # every non-empty table is positive.
    for cells in [(0, 0, 5, 95), (5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 0, 5)]:
        assert min(default_prior(ContingencyTable(*cells))) > 0.0
    with pytest.raises(NumericalError):
        default_prior(ContingencyTable(0, 0, 0, 0))


@pytest.mark.parametrize(
    "cells",
    [(100, 300, 150, 9450), (5, 15, 10, 970), (10, 90, 90, 810), (2, 8, 8, 82)],
)
def test_pme_matches_digamma_identity(cells):
    # The sampled mean must agree with the closed-form posterior expectation.
    table = ContingencyTable(*cells)
    post = posterior_ic(table, n_samples=200_000, seed=17)
    assert post.n_floored == 0
    exact = exact_ic_mean(posterior_gamma(table))
    mc_se = math.sqrt(post.variance / post.n_samples)
    assert abs(post.pme - exact) < 4.0 * mc_se


def degenerate_tables(top: int):
    """(a, b, c, d) with a >= 1 and a = n, b = c = 0, or d = 0; cells <= top."""
    count = st.integers(0, top)
    joint = st.integers(1, top)
    return st.one_of(
        joint.map(lambda a: (a, 0, 0, 0)),
        st.tuples(joint, count).map(lambda t: (t[0], 0, 0, t[1])),
        st.tuples(joint, count, count).map(lambda t: (t[0], t[1], t[2], 0)),
    )


def assert_well_formed(post):
    # Not ci_low <= pme: for (50, 0, 0, 0) the mean lies above the 97.5%
    # quantile, since a rare large draw carries it.
    assert math.isfinite(post.pme)
    assert post.variance > 0.0
    assert post.ci_low <= post.ci_high


@settings(max_examples=100, deadline=None, derandomize=True)
@given(degenerate_tables(50), st.integers(0, 3))
def test_degenerate_tables_match_digamma_mean(cells, seed):
    # Small counts, as in one-report stores and early cutoffs. With a = n
    # above about 100 the draws are so skewed (cell d has Dirichlet shape
    # 2/(n+2)^2) that 20k draws rarely see the tail, and the sample mean
    # sits many estimated standard errors below the exact mean.
    table = ContingencyTable(*cells)
    post = posterior_ic(table, n_samples=20_000, seed=seed)
    assert_well_formed(post)
    exact = exact_ic_mean(posterior_gamma(table))
    assert abs(post.pme - exact) < 4.0 * math.sqrt(post.variance / post.n_samples)


@settings(max_examples=60, deadline=None)
@given(degenerate_tables(10**6), st.integers(0, 2**32))
def test_large_degenerate_tables_stay_finite(cells, seed):
    post = posterior_ic(ContingencyTable(*cells), n_samples=1000, seed=seed)
    assert_well_formed(post)


# Every n but 1001 puts the 2.5% point at t ~ 0.975 between order
# statistics and the 97.5% point at t ~ 0.025, the two branches of numpy's
# interpolation; at 1001 both indices are integral (t = 0). The sizes
# around _BLOCK_ROWS and the ragged 3 blocks + 5 rows check that the
# block-wise draws equal the oracle's one-shot draw across block edges.
SUMMARY_SAMPLE_SIZES = [
    1000, 1001, 2000, 20_000, 100_000,
    _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5,
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.tuples(*[st.integers(0, 10**6)] * 4).filter(lambda t: sum(t) > 0),
        degenerate_tables(10**6),
        # a = 0 under a large d: most draws of p_a fall to the floor
        st.tuples(
            st.just(0), st.integers(1, 1000), st.integers(1, 1000),
            st.integers(1000, 10**6),
        ),
    ),
    st.sampled_from(SUMMARY_SAMPLE_SIZES),
    st.integers(0, 2**64 - 1),
)
@example((0, 100, 100, 9800), 2000, 3)
# Floored and unfloored draws in each block of a ragged multi-block sample
@example((0, 100, 100, 9800), 3 * _BLOCK_ROWS + 5, 1)
@example((5, 15, 10, 970), 1001, 42)
# Tables and seeds where a + d*t and b - d*(1 - t) round differently,
# at q = 0.025 (t ~ 0.975) and at q = 0.975 (t ~ 0.025).
@example((66, 106, 192, 196), 1000, 459945883)
@example((31, 151, 109, 217), 1000, 3993684347)
def test_summaries_equal_numpy_on_the_same_draws(cells, n_samples, seed):
    table = ContingencyTable(*cells)
    got = asdict(posterior_ic(table, n_samples=n_samples, seed=seed))
    want = numpy_ic_summaries(posterior_gamma(table), n_samples, seed)
    # repr tells -0.0 from 0.0, which == does not; the result CSVs print the sign.
    assert {k: repr(v) for k, v in got.items()} == {
        k: repr(v) for k, v in want.items()
    }


def test_working_set_per_draw():
    # The IC values and their squared deviations take 16 bytes per draw,
    # and one block of the Dirichlet sample adds 256 KB while the values
    # fill; the whole n x 4 sample at once would take 48 bytes per draw.
    table = ContingencyTable(100, 300, 150, 9450)
    n = 100_000
    tracemalloc.start()
    try:
        post = posterior_ic(table, n_samples=n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert post.n_floored == 0
    assert peak / n < 20.0


@pytest.mark.parametrize(
    "cells", [(3, 20, 50, 5000), (50, 0, 0, 0), (100, 300, 150, 9450), (2, 8, 8, 82)]
)
def test_interval_ends_sit_at_their_quadrature_cdf(cells):
    # The k-th order statistic of n draws has F(X_(k)) ~ Beta(k, n + 1 - k)
    # for any continuous F, with sd close to sqrt(q(1 - q)/n). Draws carry
    # rounding error of a few ulps, so F is read at x -/+ delta: at
    # a = n most draws lie within ulps of 0 (four in ten are exactly 0).
    table = ContingencyTable(*cells)
    gamma = posterior_gamma(table)
    n = 100_000
    post = posterior_ic(table, n_samples=n, seed=11)
    assert post.n_floored == 0
    for q, x in ((0.025, post.ci_low), (0.975, post.ci_high)):
        tol = 4.0 * math.sqrt(q * (1.0 - q) / n)
        delta = 1e-14 * (1.0 + abs(x))
        assert ic_cdf(gamma, x - delta) - tol <= q <= ic_cdf(gamma, x + delta) + tol


@pytest.mark.parametrize(
    "cells", [(3, 20, 50, 5000), (100, 300, 150, 9450), (2, 8, 8, 82)]
)
def test_mean_and_variance_match_quadrature_moments(cells):
    # The sample mean has sd sqrt(var/n), and the sample variance has sd
    # close to sqrt((mu4 - var^2)/n); the quadrature mean must first agree
    # with the closed-form digamma mean.
    table = ContingencyTable(*cells)
    gamma = posterior_gamma(table)
    mean, var, mu4 = ic_moments(gamma)
    assert abs(mean - exact_ic_mean(gamma)) < 1e-8
    n = 100_000
    post = posterior_ic(table, n_samples=n, seed=23)
    assert post.n_floored == 0
    assert abs(post.pme - mean) < 4.0 * math.sqrt(var / n)
    assert abs(post.variance - var) < 4.0 * math.sqrt((mu4 - var * var) / n)


def test_balanced_independence_is_near_zero():
    post = posterior_ic(
        ContingencyTable(10_000, 10_000, 10_000, 10_000), n_samples=100_000, seed=1
    )
    assert abs(post.pme) <= 0.02
    assert post.ci_low < 0.0 < post.ci_high


def test_elevated_table_tracks_log_oe():
    table = ContingencyTable(100, 300, 150, 9450)
    post = posterior_ic(table, n_samples=100_000, seed=2)
    assert abs(post.pme - math.log2(table.observed_expected())) <= 0.1


def test_zero_cell_stays_finite():
    post = posterior_ic(ContingencyTable(0, 100, 100, 9800), n_samples=100_000, seed=3)
    assert math.isfinite(post.pme) and post.pme < 0.0
    assert math.isfinite(post.ci_low)
    assert post.n_floored > 0


def test_zero_count_table_raises():
    # Only d is counted: (p_a + p_b)(p_a + p_c) underflows to 0 on some
    # draws, and their IC is inf. The error is raised with no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"d=1000\) is not finite"):
            posterior_ic(ContingencyTable(0, 0, 0, 1000), n_samples=1000, seed=1)


def test_seed_determinism():
    table = ContingencyTable(5, 15, 10, 970)
    a = posterior_ic(table, n_samples=5000, seed=42)
    b = posterior_ic(table, n_samples=5000, seed=42)
    c = posterior_ic(table, n_samples=5000, seed=43)
    assert a == b
    assert a.pme != c.pme


def test_min_samples_guard():
    with pytest.raises(ValueError):
        posterior_ic(ContingencyTable(1, 1, 1, 1), n_samples=999, seed=0)


def test_scaling_consistency():
    # Fixed cell ratios, growing N: the posterior concentrates on log2(O/E).
    base = np.array([2, 8, 8, 82])
    log_oe = math.log2(ContingencyTable(*base).observed_expected())
    gaps, widths = [], []
    for k in (1, 10, 100):
        post = posterior_ic(ContingencyTable(*(base * k)), n_samples=100_000, seed=7)
        gaps.append(abs(post.pme - log_oe))
        widths.append(post.ci_high - post.ci_low)
    assert gaps[0] > gaps[1] > gaps[2]
    assert widths[0] > widths[1] > widths[2]
    assert gaps[2] < 0.01


def test_ci_brackets_pme():
    rng = np.random.default_rng(0)
    for _ in range(25):
        cells = rng.integers(1, 400, size=4)
        post = posterior_ic(ContingencyTable(*map(int, cells)), n_samples=2000, seed=5)
        assert post.ci_low <= post.pme <= post.ci_high
        assert post.variance >= 0.0


def test_signal_flag_thresholds():
    table = ContingencyTable(5, 15, 10, 970)
    post = posterior_ic(table, n_samples=5000, seed=0)
    assert post.ci_low > 1.0
    assert signal_flag(post, threshold=0.0)
    assert signal_flag(post, threshold=1.0)
    assert not signal_flag(post, threshold=post.ci_low)


def test_false_signal_rate_under_independence():
    # Tables drawn from exact independence should rarely clear threshold 0.
    rng = np.random.default_rng(123)
    fired = 0
    n_tables = 200
    for i in range(n_tables):
        p_drug, p_event = rng.uniform(0.05, 0.4, size=2)
        probs = [
            p_drug * p_event,
            p_drug * (1 - p_event),
            (1 - p_drug) * p_event,
            (1 - p_drug) * (1 - p_event),
        ]
        cells = rng.multinomial(2000, probs)
        post = posterior_ic(ContingencyTable(*map(int, cells)), n_samples=2000, seed=i)
        fired += signal_flag(post, threshold=0.0)
    assert fired / n_tables <= 0.05


def test_shrinkage_below_log_oe_for_elevated_tables():
    # Posterior averaging of log2 pulls the mean below the plug-in log(O/E)
    # when the joint count is moderate and the margins dominate it.
    rng = np.random.default_rng(99)
    for i in range(100):
        a = int(rng.integers(15, 101))
        b = int(rng.integers(3 * a, 6 * a))
        c = int(rng.integers(3 * a, 6 * a))
        oe_target = 2.0 ** rng.uniform(0.5, 2.0)
        d = int(round(oe_target * (a + b) * (a + c) / a)) - a - b - c
        table = ContingencyTable(a, b, c, max(d, 1))
        log_oe = math.log2(table.observed_expected())
        if log_oe < 0.5:
            continue
        post = posterior_ic(table, n_samples=40_000, seed=i)
        assert 0.0 < post.pme < log_oe


def test_depressed_table_has_negative_pme():
    post = posterior_ic(ContingencyTable(5, 95, 95, 805), n_samples=100_000, seed=8)
    assert post.pme < 0.0


def test_floor_constant_is_subnormal_boundary():
    assert PROB_FLOOR == float(np.finfo(np.float64).tiny)

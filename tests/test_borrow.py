import math
import statistics
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

from icborrow import (
    BorrowSource,
    IcPosterior,
    RobustPrior,
    RunConfig,
    borrow,
    mixture_posterior,
    random_effects_map,
)
from icborrow.borrow import _brentq, _reml_score, fixed_effect_map, reml_tau2
from icborrow.errors import NumericalError

from oracles import grid_mixture, grid_reml_tau2

# icborrow.borrow is the re-exported function; the module is here.
borrow_module = sys.modules["icborrow.borrow"]


def src(ic, vic, ssm=0.8, pt="PTX"):
    return BorrowSource(pt=pt, ic=ic, vic=vic, ssm=ssm)


def random_sources(rng, n):
    return [
        src(
            ic=float(rng.normal(0.0, 1.5)),
            vic=float(rng.uniform(0.05, 1.0)),
            ssm=float(rng.uniform(0.31, 1.0)),
            pt=f"PT{i}",
        )
        for i in range(n)
    ]


def test_source_validation():
    with pytest.raises(ValueError):
        src(ic=1.0, vic=0.0)
    with pytest.raises(ValueError):
        src(ic=1.0, vic=0.25, ssm=0.0)
    with pytest.raises(ValueError):
        src(ic=1.0, vic=0.25, ssm=1.2)


def test_fixed_effect_single_source():
    prior = fixed_effect_map([src(ic=1.0, vic=0.25, ssm=0.8)])
    assert prior.mu == pytest.approx(1.0, abs=1e-15)
    assert prior.v == pytest.approx(0.25, abs=1e-15)
    assert prior.tau2 == 0.0


def test_fixed_effect_symmetry():
    prior = fixed_effect_map([src(0.0, 0.3, 0.5), src(2.0, 0.3, 0.5)])
    assert prior.mu == pytest.approx(1.0, abs=1e-12)


def test_equal_ssm_reduces_to_inverse_variance():
    rng = np.random.default_rng(4)
    ics = rng.normal(size=5)
    vics = rng.uniform(0.1, 1.0, size=5)
    for ssm in (0.4, 1.0):
        prior = fixed_effect_map(
            [src(float(i), float(v), ssm) for i, v in zip(ics, vics)]
        )
        classic = float((ics / vics).sum() / (1.0 / vics).sum())
        assert prior.mu == pytest.approx(classic, abs=1e-12)


def test_fixed_effect_rejects_empty():
    with pytest.raises(ValueError):
        fixed_effect_map([])


def test_reml_zero_on_homogeneous():
    tau2, converged = reml_tau2([0.7, 0.7, 0.7, 0.7], [0.2, 0.3, 0.25, 0.5])
    assert tau2 == 0.0 and converged
    tau2, _ = reml_tau2([1.0], [0.2])
    assert tau2 == 0.0


def test_reml_matches_grid_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(3, 8))
        y = rng.normal(0.0, 1.2, size=n)
        v = rng.uniform(0.05, 0.6, size=n)
        tau2, converged = reml_tau2(y, v)
        assert converged
        assert tau2 == pytest.approx(grid_reml_tau2(y, v), abs=1e-3)


def test_reml_positive_for_spread_sources():
    tau2, converged = reml_tau2([-2.0, 0.0, 2.0], [0.05, 0.05, 0.05])
    assert converged and tau2 > 1.0


def test_brentq_port_matches_scipy_exactly():
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 10))
        y = rng.normal(0.0, float(rng.uniform(0.2, 2.5)), size=n)
        v = rng.uniform(0.02, 1.0, size=n)
        if _reml_score(0.0, y, v) <= 0.0:
            continue
        hi = 1.0
        while _reml_score(hi, y, v) >= 0.0:
            hi *= 2.0
        expected = brentq(_reml_score, 0.0, hi, args=(y, v), xtol=1e-8, maxiter=200)
        got = _brentq(lambda t: _reml_score(t, y, v), 0.0, hi, xtol=1e-8, maxiter=200)
        assert got == expected
        checked += 1
    for _ in range(200):
        w = float(rng.uniform())
        m1, m2 = (float(m) for m in rng.normal(0.0, 2.0, size=2))
        s1, s2 = (float(s) for s in np.sqrt(rng.uniform(0.001, 2.0, size=2)))
        lo = min(m1 - 10.0 * s1, m2 - 10.0 * s2)
        hi = max(m1 + 10.0 * s1, m2 + 10.0 * s2)
        for q in (0.025, 0.975):

            def f(x):
                return w * norm.cdf(x, m1, s1) + (1 - w) * norm.cdf(x, m2, s2) - q

            expected = brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16)
            assert _brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16) == expected


def test_brentq_errors_and_reml_fallback(monkeypatch):
    with pytest.raises(ValueError):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(RuntimeError):
        _brentq(lambda x: x**3 - 2.0, 0.0, 2.0, xtol=1e-12, maxiter=2)
    # A root search that stops early falls back to fixed-effect pooling.
    ics, vics = [-2.0, 0.0, 2.0], [0.05, 0.05, 0.05]
    assert reml_tau2(ics, vics)[1]
    monkeypatch.setattr(borrow_module, "REML_MAX_ITER", 1)
    tau2, converged = reml_tau2(ics, vics)
    assert math.isnan(tau2) and not converged


def test_brentq_endpoint_roots_and_nan():
    assert _brentq(lambda x: x, 0.0, 1.0, xtol=1e-12) == 0.0
    assert _brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-12) == 1.0
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan, 0.0, 1.0, xtol=1e-12)
    # Finite at both ends, NaN at the first step inside the bracket.
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: x if abs(x) == 1.0 else math.nan, -1.0, 1.0, xtol=1e-12)


def test_random_effects_rejects_empty_or_unequal_inputs():
    for ics, vics in (([], []), ([0.5, 1.0], [0.2])):
        with pytest.raises(ValueError, match="equal-length and non-empty"):
            reml_tau2(ics, vics)
    with pytest.raises(ValueError, match="at least one source"):
        random_effects_map([])


def test_robust_prior_rejects_weight_above_one():
    with pytest.raises(ValueError, match="mixture weight"):
        RobustPrior(mu=0.0, v=0.25, w=1.5, vague_sd=2.0)


def test_random_effects_single_source_equals_fixed():
    sources = [src(1.3, 0.4, 0.9)]
    assert random_effects_map(sources) == fixed_effect_map(sources)


def test_random_effects_falls_back_to_fixed(monkeypatch):
    sources = [src(-1.5, 0.1, 0.5), src(0.0, 0.1, 0.5), src(1.5, 0.1, 0.5)]
    monkeypatch.setattr(
        borrow_module, "reml_tau2", lambda ics, vics: (math.nan, False)
    )
    pooled = random_effects_map(sources)
    assert pooled == replace(fixed_effect_map(sources), converged=False)
    assert pooled.tau2 == 0.0


def test_reml_bracket_search_gives_up(caplog):
    # Two sources 2e13 apart call for tau^2 = (2e13)**2 / 2 - 1, about 2e26,
    # beyond the last upper end the bracket search tries (2**79, about
    # 6e23), so REML reports no convergence.
    tau2, converged = reml_tau2([-1e13, 1e13], [1.0, 1.0])
    assert math.isnan(tau2) and not converged
    sources = [src(-1e13, 1.0), src(1e13, 1.0)]
    caplog.set_level("WARNING", logger="icborrow.borrow")
    pooled = random_effects_map(sources)
    assert pooled == replace(fixed_effect_map(sources), converged=False)
    assert [r.getMessage() for r in caplog.records] == [
        "REML heterogeneity estimate did not converge over 2 sources; "
        "falling back to fixed-effect pooling"
    ]


def test_random_effects_inflates_weights_by_tau2():
    sources = [src(-1.5, 0.1, 0.5), src(0.0, 0.1, 0.5), src(1.5, 0.1, 0.5)]
    pooled = random_effects_map(sources)
    assert pooled.tau2 > 0.0
    w = np.array([s.ssm / (s.vic + pooled.tau2) for s in sources])
    mu = float((w * np.array([s.ic for s in sources])).sum() / w.sum())
    v = float((w * np.array([s.ssm for s in sources])).sum() / w.sum() ** 2)
    assert pooled.mu == pytest.approx(mu, abs=1e-12)
    assert pooled.v == pytest.approx(v, abs=1e-12)


def test_target_opt_in_changes_only_tau2_inputs():
    sources = [src(0.4, 0.2, 0.6), src(0.6, 0.3, 0.6)]
    base = random_effects_map(sources)
    opted = random_effects_map(sources, target=(5.0, 0.1))
    assert base.tau2 == 0.0
    assert opted.tau2 > base.tau2
    # pooled mean still ignores the target's own value
    assert opted.mu < 1.0


def test_weight_policies():
    # w is "max_ssm" (the largest source similarity) or a number used as given.
    target = target_posterior()
    sources = [src(0.0, 0.2, 0.96), src(0.0, 0.2, 0.5)]
    assert borrow(target, sources, RunConfig()).w == 0.96  # default w = "max_ssm"
    assert borrow(target, sources, RunConfig(w="max_ssm")).w == 0.96
    assert borrow(target, [src(0.0, 0.2, 0.301)], RunConfig()).w == 0.301
    for w in (0.8, 0.0, 1.0):
        assert borrow(target, sources, RunConfig(w=w)).w == w


def test_borrow_prior_carries_map_and_weight():
    # The robust prior is the pooled MAP prior with the chosen weight.
    target = target_posterior()
    sources = [src(0.9, 0.2, 0.96), src(1.4, 0.3, 0.7)]
    for effects, w, weight in [
        ("random", "max_ssm", 0.96), ("fixed", "max_ssm", 0.96),
        ("random", 0.8, 0.8), ("fixed", 0.3, 0.3),
    ]:
        result = borrow(target, sources, RunConfig(effects=effects, w=w, vague_sd=1.5))
        pooled = result.map_prior
        robust = RobustPrior(mu=pooled.mu, v=pooled.v, w=weight, vague_sd=1.5)
        assert result.posterior == mixture_posterior(
            robust, target.pme, target.variance
        )


def test_mixture_pure_map_equal_precision():
    # w = 1 and equal prior/data precision: posterior mean is the midpoint.
    prior = RobustPrior(mu=0.0, v=0.25, w=1.0, vague_sd=2.0)
    post = mixture_posterior(prior, ic_target=2.0, vic_target=0.25)
    assert post.w_tilde == 1.0
    assert post.pme == pytest.approx(1.0, abs=1e-12)
    assert post.variance == pytest.approx(0.125, abs=1e-12)


def test_mixture_data_dominate_as_vic_shrinks():
    prior = RobustPrior(mu=0.0, v=0.25, w=0.0, vague_sd=2.0)
    post = mixture_posterior(prior, ic_target=1.7, vic_target=1e-8)
    assert post.w_tilde == 0.0
    assert post.pme == pytest.approx(1.7, abs=1e-6)


def test_mixture_agreement_raises_weight():
    prior = RobustPrior(mu=1.0, v=0.25, w=0.5, vague_sd=2.0)
    post = mixture_posterior(prior, ic_target=1.0, vic_target=0.25)
    assert post.w_tilde > 0.5


def test_mixture_weight_decreases_with_conflict():
    # Holding the observation fixed, moving the informative prior away from
    # it can only lower the posterior weight of that component.
    last = 1.1
    for mu in (1.0, 1.5, 2.0, 3.0, 4.0):
        prior = RobustPrior(mu=mu, v=0.25, w=0.5, vague_sd=2.0)
        post = mixture_posterior(prior, ic_target=1.0, vic_target=0.25)
        assert post.w_tilde < last
        last = post.w_tilde


def test_mixture_matches_quadrature():
    cases = [
        (1.0, 0.25, 0.5, 2.0, 1.0, 0.25),
        (0.0, 0.04, 0.96, 2.0, 1.4, 0.3),
        (-0.8, 0.5, 0.3, 1.5, 0.9, 0.1),
        (2.0, 0.1, 0.7, 3.0, -0.5, 0.6),
    ]
    for mu, v, w, sd, ic, vic in cases:
        post = mixture_posterior(
            RobustPrior(mu=mu, v=v, w=w, vague_sd=sd), ic, vic
        )
        mean, var, lo, hi, w_tilde = grid_mixture(mu, v, w, sd, ic, vic)
        assert post.pme == pytest.approx(mean, abs=1e-4)
        assert post.variance == pytest.approx(var, abs=1e-4)
        assert post.ci_low == pytest.approx(lo, abs=1e-4)
        assert post.ci_high == pytest.approx(hi, abs=1e-4)
        assert post.w_tilde == pytest.approx(w_tilde, abs=1e-4)


def conjugate_components(prior, ic, vic):
    """(mean, var) of the informative and the vague component updated with
    N(ic, vic), by precision addition."""
    components = []
    for mean, var in ((prior.mu, prior.v), (0.0, prior.vague_sd**2)):
        post_var = 1.0 / (1.0 / var + 1.0 / vic)
        components.append((post_var * (mean / var + ic / vic), post_var))
    return components


@pytest.mark.parametrize(
    "mu, v, w, vague_sd, ic, vic",
    [
        (0.0, 0.25, 1.0, 2.0, 2.0, 0.25),
        (-1.3, 0.04, 1.0, 2.0, 0.4, 0.6),
        (0.0, 0.25, 0.0, 2.0, 1.7, 0.3),
        (0.9, 0.5, 0.0, 0.5, -2.5, 1e-4),
    ],
)
def test_single_component_bounds_are_normal_quantiles(mu, v, w, vague_sd, ic, vic):
    # With all mass on one component the posterior is the conjugate normal
    # update of that component alone.
    prior = RobustPrior(mu=mu, v=v, w=w, vague_sd=vague_sd)
    post = mixture_posterior(prior, ic, vic)
    mean, var = conjugate_components(prior, ic, vic)[0 if w == 1.0 else 1]
    z = statistics.NormalDist().inv_cdf(0.975)
    assert post.ci_low == pytest.approx(mean - z * math.sqrt(var), abs=1e-9)
    assert post.ci_high == pytest.approx(mean + z * math.sqrt(var), abs=1e-9)


def test_mixture_cdf_inversion_tolerance():
    prior = RobustPrior(mu=0.5, v=0.2, w=0.7, vague_sd=2.0)
    post = mixture_posterior(prior, ic_target=1.2, vic_target=0.3)
    (m1, v1), (m2, v2) = conjugate_components(prior, 1.2, 0.3)

    def cdf(x):
        return post.w_tilde * norm.cdf(x, m1, math.sqrt(v1)) + (
            1 - post.w_tilde
        ) * norm.cdf(x, m2, math.sqrt(v2))

    assert abs(cdf(post.ci_low) - 0.025) <= 1e-6
    assert abs(cdf(post.ci_high) - 0.975) <= 1e-6
    assert post.ci_low <= post.pme <= post.ci_high


def test_mixture_moments_identity():
    rng = np.random.default_rng(21)
    for _ in range(20):
        prior = RobustPrior(
            mu=float(rng.normal()),
            v=float(rng.uniform(0.05, 1.0)),
            w=float(rng.uniform(0.0, 1.0)),
            vague_sd=float(rng.uniform(0.5, 4.0)),
        )
        ic, vic = float(rng.normal()), float(rng.uniform(0.05, 1.0))
        post = mixture_posterior(prior, ic, vic)
        (m1, _), (m2, _) = conjugate_components(prior, ic, vic)
        blend = post.w_tilde * m1 + (1 - post.w_tilde) * m2
        assert post.pme == pytest.approx(blend, abs=1e-12)
        assert post.variance > 0.0


def test_consistent_prior_shrinks_variance():
    # An informative component centered on the observation cannot widen the
    # posterior relative to using the vague component alone.
    vague_only = mixture_posterior(
        RobustPrior(mu=1.0, v=0.1, w=0.0, vague_sd=2.0), 1.0, 0.4
    )
    mixed = mixture_posterior(
        RobustPrior(mu=1.0, v=0.1, w=0.8, vague_sd=2.0), 1.0, 0.4
    )
    assert mixed.variance <= vague_only.variance


def test_vague_sd_limit():
    for sd in (2.0, 10.0, 100.0):
        post = mixture_posterior(
            RobustPrior(mu=0.0, v=0.25, w=0.0, vague_sd=sd), 1.5, 0.3
        )
    assert post.pme == pytest.approx(1.5, abs=1e-3)
    assert post.variance == pytest.approx(0.3, abs=1e-3)


def target_posterior(pme=1.5, variance=0.3):
    return IcPosterior(
        pme=pme,
        variance=variance,
        ci_low=pme - 1.1,
        ci_high=pme + 1.1,
        n_samples=10_000,
    )


def test_borrow_without_sources_is_passthrough():
    target = target_posterior()
    result = borrow(target, [], RunConfig())
    assert result.map_prior is None and result.w is None
    assert result.posterior is target


def test_borrow_full_path_matches_stages():
    target = target_posterior()
    sources = [src(1.2, 0.2, 0.6, "PTA"), src(1.8, 0.25, 0.45, "PTB")]
    for in_reml in (None, (target.pme, target.variance)):
        config = RunConfig(vague_sd=2.0, include_target_in_reml=in_reml is not None)
        result = borrow(target, sources, config)
        pooled = random_effects_map(sources, target=in_reml)
        robust = RobustPrior(mu=pooled.mu, v=pooled.v, w=0.6, vague_sd=2.0)
        expected = mixture_posterior(robust, target.pme, target.variance)
        assert result.posterior == expected
        assert result.map_prior == pooled
        assert result.w == 0.6


def test_borrow_fixed_effects_mode():
    target = target_posterior()
    sources = [src(0.2, 0.3, 0.5), src(1.1, 0.2, 0.7)]
    result = borrow(target, sources, RunConfig(effects="fixed"))
    assert result.map_prior == fixed_effect_map(sources)


@pytest.mark.parametrize(
    "vague_sd", [0.0, -1.0, math.nan, math.inf, 1e300, 1e-300, 1e-160]
)
def test_robust_prior_rejects_vague_sd_without_normal_square(vague_sd):
    with pytest.raises(ValueError):
        RobustPrior(mu=0.0, v=0.25, w=0.5, vague_sd=vague_sd)


@pytest.mark.parametrize("vague_sd", [1e150, 1e-150])
def test_mixture_is_finite_at_extreme_vague_sd(vague_sd):
    post = mixture_posterior(
        RobustPrior(mu=0.5, v=0.25, w=0.5, vague_sd=vague_sd), 1.0, 0.3
    )
    values = (post.pme, post.variance, post.ci_low, post.ci_high, post.w_tilde)
    assert all(math.isfinite(x) for x in values)
    assert post.ci_low < post.pme < post.ci_high


def test_mixture_weight_survives_extreme_conflict():
    # A precise prior far from the target puts log_odds near -45000, where
    # 1 / (1 + exp(-log_odds)) overflows; the weight is exp(log_odds) there.
    prior = RobustPrior(mu=0.0, v=1e-4, w=0.5, vague_sd=2.0)
    post = mixture_posterior(prior, 10.0, 1e-3)
    assert post.w_tilde == 0.0
    vague = mixture_posterior(replace(prior, w=0.0), 10.0, 1e-3)
    assert (post.pme, post.ci_low, post.ci_high) == (
        vague.pme, vague.ci_low, vague.ci_high
    )


def test_mixture_rejects_bad_variance():
    prior = RobustPrior(mu=0.0, v=0.25, w=0.5, vague_sd=2.0)
    with pytest.raises(NumericalError):
        mixture_posterior(prior, 1.0, 0.0)

"""Similarity-weighted Bayesian borrowing for the information component.

A target pair's neighbors (either semantically similar PTs or PTs sharing a
MedDRA HLGT) contribute normal summaries of their own information components.
Those are pooled into a meta-analytic-predictive style prior, robustified
with a vague mixture component, and conjugately updated with the target's
own normal summary.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import NumericalError
from .ic import IcPosterior

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import RunConfig

log = logging.getLogger(__name__)

REML_TOL = 1e-8
REML_MAX_ITER = 200
_BRENT_RTOL = 4.0 * np.finfo(float).eps


def _brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float,
    rtol: float = _BRENT_RTOL,
    maxiter: int = 100,
) -> float:
    """Root of f in [a, b] by Brent's method.

    A step-for-step port of scipy's C ``brentq`` (Brent 1973, ch. 4): the
    same bracket update, interpolation/extrapolation step, bisection
    fallback and stopping rule, so it returns the same float. Raises
    ValueError when f(a) and f(b) share a sign or f returns NaN, and
    RuntimeError after maxiter iterations without convergence.
    """
    xpre, xcur = a, b
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError("function value is NaN; solver cannot continue")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # The bracket is accepted once it is narrower than 2 * delta.
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant interpolation
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre)
                )
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ValueError("function value is NaN; solver cannot continue")
    raise RuntimeError(
        f"failed to converge after {maxiter} iterations, value is {xcur}"
    )


@dataclass(frozen=True)
class BorrowSource:
    """One neighbor PT's contribution: its ic summary and its similarity weight."""

    pt: str
    ic: float
    vic: float
    ssm: float

    def __post_init__(self) -> None:
        if self.vic <= 0.0:
            raise ValueError(f"source variance must be positive, got {self.vic}")
        if not 0.0 < self.ssm <= 1.0:
            raise ValueError(f"source similarity must be in (0, 1], got {self.ssm}")


@dataclass(frozen=True)
class MapPrior:
    """Pooled prior N(mu, v) with the heterogeneity estimate that produced it."""

    mu: float
    v: float
    tau2: float
    converged: bool = True


def _pool(sources: list[BorrowSource], tau2: float) -> MapPrior:
    """Similarity-weighted pooling with each vic_s replaced by vic_s + tau2.

    mu = sum(ssm_s/(vic_s+tau2) * ic_s) / sum(ssm_s/(vic_s+tau2))
    v  = sum(ssm_s^2/(vic_s+tau2)) / (sum(ssm_s/(vic_s+tau2)))^2
    """
    w = np.array([s.ssm / (s.vic + tau2) for s in sources])
    w2 = np.array([s.ssm * s.ssm / (s.vic + tau2) for s in sources])
    ic = np.array([s.ic for s in sources])
    denom = w.sum()
    return MapPrior(
        mu=float((w * ic).sum() / denom),
        v=float(w2.sum() / denom**2),
        tau2=tau2,
    )


def fixed_effect_map(sources: list[BorrowSource]) -> MapPrior:
    """Similarity-weighted fixed-effect pooling of the sources: tau^2 = 0."""
    if not sources:
        raise ValueError("fixed_effect_map needs at least one source")
    return _pool(sources, 0.0)


def _reml_score(tau2: float, y: np.ndarray, v: np.ndarray) -> float:
    """Derivative of the restricted log-likelihood (intercept model) in tau^2."""
    w = 1.0 / (v + tau2)
    mu = (w * y).sum() / w.sum()
    r2 = (y - mu) ** 2
    return 0.5 * ((w**2 * r2).sum() - w.sum() + (w**2).sum() / w.sum())


def reml_tau2(
    ics: list[float] | np.ndarray, vics: list[float] | np.ndarray
) -> tuple[float, bool]:
    """REML between-source heterogeneity for the marginal model N(mu, vic_s + tau^2).

    Solved as a Brent root of the profiled score, to ``REML_TOL`` within
    ``REML_MAX_ITER`` iterations; a non-positive score at zero means
    tau^2 = 0 exactly (homogeneous sources). Returns (tau2, converged);
    callers fall back to fixed-effect pooling on failure.
    """
    y = np.asarray(ics, dtype=np.float64)
    v = np.asarray(vics, dtype=np.float64)
    if y.size != v.size or y.size == 0:
        raise ValueError("ics and vics must be equal-length and non-empty")
    if y.size == 1:
        return 0.0, True
    if _reml_score(0.0, y, v) <= 0.0:
        return 0.0, True
    hi = 1.0
    for _ in range(80):
        if _reml_score(hi, y, v) < 0.0:
            break
        hi *= 2.0
    else:
        return math.nan, False
    try:
        root = _brentq(
            lambda t: _reml_score(t, y, v),
            0.0,
            hi,
            xtol=REML_TOL,
            maxiter=REML_MAX_ITER,
        )
    except RuntimeError:
        return math.nan, False
    return root, True


def random_effects_map(
    sources: list[BorrowSource], target: tuple[float, float] | None = None
) -> MapPrior:
    """Random-effects pooling: REML tau^2, then the fixed-effect formulas
    with each vic_s replaced by vic_s + tau^2.

    A given target (ic, vic) enters the tau^2 estimation as one more study;
    it never enters the pooled mean. With a single source and no target the
    result reduces to fixed_effect_map exactly.
    """
    if not sources:
        raise ValueError("random_effects_map needs at least one source")
    ics = [s.ic for s in sources]
    vics = [s.vic for s in sources]
    if target is not None:
        ics.append(target[0])
        vics.append(target[1])
    tau2, converged = reml_tau2(ics, vics)
    if not converged:
        log.warning(
            "REML heterogeneity estimate did not converge over %d sources; "
            "falling back to fixed-effect pooling",
            len(sources),
        )
        return replace(_pool(sources, 0.0), converged=False)
    return _pool(sources, tau2)


# -- robustification and the mixture update ----------------------------------

# The ``w`` value that sets the informative weight to the largest source ssm.
MAX_SSM = "max_ssm"


def vague_sd_in_range(sd: float) -> bool:
    """True when sd > 0 and sd**2 is a finite normal float, so the vague
    component's variance and precision are both finite and nonzero."""
    return sd > 0.0 and sys.float_info.min <= sd * sd <= sys.float_info.max


@dataclass(frozen=True)
class RobustPrior:
    """w * N(mu, v) + (1 - w) * N(0, vague_sd^2)."""

    mu: float
    v: float
    w: float
    vague_sd: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"mixture weight must be in [0, 1], got {self.w}")
        if self.v <= 0.0 or not vague_sd_in_range(self.vague_sd):
            raise ValueError("prior variances must be positive and vague_sd**2 normal")


@dataclass(frozen=True)
class MixturePosterior:
    """Two-component normal mixture posterior for the target's ic."""

    pme: float
    variance: float
    ci_low: float
    ci_high: float
    w_tilde: float


def _log_norm_pdf(x: float, mean: float, var: float) -> float:
    return -0.5 * (math.log(2.0 * math.pi * var) + (x - mean) ** 2 / var)


def mixture_posterior(
    prior: RobustPrior, ic_target: float, vic_target: float
) -> MixturePosterior:
    """Conjugate update of the robust mixture prior with N(ic_target, vic_target).

    Each component updates by precision addition; the mixture weight updates
    by the components' marginal likelihoods of the observed ic. Interval
    bounds invert the mixture CDF numerically.
    """
    if vic_target <= 0.0:
        raise NumericalError("target variance must be positive")
    prec_t = 1.0 / vic_target
    # Informative component.
    prec_1 = 1.0 / prior.v + prec_t
    mean_1 = (prior.mu / prior.v + ic_target * prec_t) / prec_1
    var_1 = 1.0 / prec_1
    # Vague component, centered at zero.
    vague_var = prior.vague_sd**2
    prec_2 = 1.0 / vague_var + prec_t
    mean_2 = (ic_target * prec_t) / prec_2
    var_2 = 1.0 / prec_2
    # Posterior mixture weight via the marginal likelihoods.
    if prior.w in (0.0, 1.0):
        w_tilde = prior.w
    else:
        log_m1 = _log_norm_pdf(ic_target, prior.mu, prior.v + vic_target)
        log_m2 = _log_norm_pdf(ic_target, 0.0, vague_var + vic_target)
        log_odds = math.log(prior.w) - math.log1p(-prior.w) + log_m1 - log_m2
        try:
            w_tilde = 1.0 / (1.0 + math.exp(-log_odds))
        except OverflowError:  # log_odds below about -709.8
            w_tilde = math.exp(log_odds)
    pme = w_tilde * mean_1 + (1.0 - w_tilde) * mean_2
    second = w_tilde * (var_1 + mean_1**2) + (1.0 - w_tilde) * (var_2 + mean_2**2)
    variance = second - pme**2
    ci_low = _mixture_quantile(0.025, w_tilde, mean_1, var_1, mean_2, var_2)
    ci_high = _mixture_quantile(0.975, w_tilde, mean_1, var_1, mean_2, var_2)
    return MixturePosterior(
        pme=pme,
        variance=variance,
        ci_low=ci_low,
        ci_high=ci_high,
        w_tilde=w_tilde,
    )


def _mixture_quantile(
    q: float, w: float, mean_1: float, var_1: float, mean_2: float, var_2: float
) -> float:
    sd_1, sd_2 = math.sqrt(var_1), math.sqrt(var_2)
    # Phi((x - mean) / sd) = erfc((mean - x) / (sd * sqrt(2))) / 2
    scale_1, scale_2 = sd_1 * math.sqrt(2.0), sd_2 * math.sqrt(2.0)

    def excess(x: float) -> float:
        return (
            w * 0.5 * math.erfc((mean_1 - x) / scale_1)
            + (1.0 - w) * 0.5 * math.erfc((mean_2 - x) / scale_2)
            - q
        )

    lo = min(mean_1 - 10.0 * sd_1, mean_2 - 10.0 * sd_2)
    hi = max(mean_1 + 10.0 * sd_1, mean_2 + 10.0 * sd_2)
    return _brentq(excess, lo, hi, xtol=1e-12, rtol=8.9e-16)


# -- the full adjustment ------------------------------------------------------

RANDOM_EFFECTS = "random"
FIXED_EFFECTS = "fixed"


@dataclass(frozen=True)
class BorrowResult:
    posterior: MixturePosterior | IcPosterior
    map_prior: MapPrior | None
    w: float | None


def borrow(
    target: IcPosterior, sources: list[BorrowSource], config: RunConfig
) -> BorrowResult:
    """Full borrowing step for one target pair, under the config's
    ``effects``, ``w``, ``vague_sd`` and ``include_target_in_reml``.

    The pooled prior gets informative weight ``w``: "max_ssm" for the
    largest source similarity, or a number in [0, 1] used as given. With
    no sources the target's Monte Carlo posterior is itself the result's
    posterior: no vague-prior update happens.
    """
    if not sources:
        return BorrowResult(posterior=target, map_prior=None, w=None)
    if config.effects == FIXED_EFFECTS:
        pooled = fixed_effect_map(sources)
    elif config.include_target_in_reml:
        pooled = random_effects_map(sources, target=(target.pme, target.variance))
    else:
        pooled = random_effects_map(sources)
    w = max(s.ssm for s in sources) if config.w == MAX_SSM else config.w
    robust = RobustPrior(mu=pooled.mu, v=pooled.v, w=w, vague_sd=config.vague_sd)
    posterior = mixture_posterior(robust, target.pme, target.variance)
    return BorrowResult(posterior=posterior, map_prior=pooled, w=w)

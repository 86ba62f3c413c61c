"""Bayesian information component for a 2x2 contingency table.

The observed-to-expected ratio gets a Dirichlet-multinomial treatment: a
weak Dirichlet prior shaped from the table margins, a conjugate posterior,
and Monte Carlo summaries of ic = log2(p_a / ((p_a+p_b) * (p_a+p_c))).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError
from .reports import ContingencyTable

if TYPE_CHECKING:
    from .borrow import MixturePosterior

# Probability floor applied to Monte Carlo draws before taking logs; draws at
# or below it are counted in IcPosterior.n_floored.
PROB_FLOOR = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class DirichletPrior:
    """Prior pseudo-counts for the cells (a, b, c, d)."""

    alpha: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if min(self.alpha) <= 0.0:
            raise ValueError(f"prior pseudo-counts must be positive, got {self.alpha}")


def default_prior(table: ContingencyTable, nu: float = 2.0) -> DirichletPrior:
    """Marginal-product prior with total strength nu.

    Cell shapes are nu * q_x * q_y etc. with q_x, q_y the observed drug and
    event margins, clipped to [1/(N+2), 1 - 1/(N+2)] so every pseudo-count
    stays positive even for empty or full margins.
    """
    n = table.n
    if n == 0:
        raise NumericalError("cannot shape a prior from an empty table")
    lo = 1.0 / (n + 2)
    q_x = min(max(table.drug_margin / n, lo), 1.0 - lo)
    q_y = min(max(table.event_margin / n, lo), 1.0 - lo)
    return DirichletPrior(
        (
            nu * q_x * q_y,
            nu * q_x * (1.0 - q_y),
            nu * (1.0 - q_x) * q_y,
            nu * (1.0 - q_x) * (1.0 - q_y),
        )
    )


@dataclass(frozen=True)
class IcPosterior:
    """Monte Carlo summary of the posterior information component."""

    pme: float
    variance: float
    ci_low: float
    ci_high: float
    n_samples: int
    seed: int
    n_floored: int = 0


def posterior_ic(
    table: ContingencyTable,
    prior: DirichletPrior | None = None,
    n_samples: int = 100_000,
    seed: int = 0,
) -> IcPosterior:
    """Sample the Dirichlet posterior and summarize the information component.

    Parameters
    ----------
    table : ContingencyTable
        Observed counts; posterior shape is prior + counts.
    prior : DirichletPrior, optional
        Defaults to the marginal-product prior with nu=2.
    n_samples : int
        Monte Carlo draws, at least 1000.
    seed : int
        Stream key for the counter-based Philox generator; equal seeds give
        bit-identical results.

    Returns
    -------
    IcPosterior
        Posterior mean (pme), sample variance, and the empirical central 95%
        interval of the sampled information component.
    """
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    if prior is None:
        prior = default_prior(table)
    gamma = np.asarray(prior.alpha, dtype=np.float64) + np.array(
        [table.a, table.b, table.c, table.d], dtype=np.float64
    )
    rng = np.random.Generator(np.random.Philox(seed))
    p = rng.dirichlet(gamma, size=n_samples)
    p_a = p[:, 0]
    floored = p_a <= PROB_FLOOR
    n_floored = int(floored.sum())
    if n_floored:
        p_a = np.where(floored, PROB_FLOOR, p_a)
    ic = np.log2(p_a / ((p_a + p[:, 1]) * (p_a + p[:, 2])))
    ci_low, ci_high = np.quantile(ic, [0.025, 0.975])
    return IcPosterior(
        pme=float(ic.mean()),
        variance=float(ic.var(ddof=1)),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        n_samples=n_samples,
        seed=seed,
        n_floored=n_floored,
    )


def signal_flag(
    posterior: IcPosterior | MixturePosterior, threshold: float = 0.0
) -> bool:
    """True when the lower 95% credibility bound clears the threshold."""
    return posterior.ci_low > threshold

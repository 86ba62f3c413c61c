"""Screening runs: every active pair, every quarter, every method.

Per-pair Monte Carlo streams are keyed by a hash of (run seed, drug, event,
cutoff), so a run gives bit-identical results regardless of worker count
or evaluation order, and the plain information component computed for a pair
can be reused both as a target and as a borrowing source. The verdicts are
records (``PairResult``); ``cli.write_results_csv`` writes them.
"""

from __future__ import annotations

import hashlib
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from ._version import __version__
from .borrow import (FIXED_EFFECTS, MAX_SSM, RANDOM_EFFECTS, BorrowSource, borrow,
                     vague_sd_in_range)
from .errors import ValidationError, quote
from .ic import IcPosterior, posterior_ic, signal_flag
from .ontology import Ontology, SimilarityMatrix
from .quarters import Quarter
from .reports import ContingencyTable, ReportStore

log = logging.getLogger(__name__)

METHOD_IC = "IC"
METHOD_SSM = "IC_SSM"
METHOD_HLGT = "IC_HLGT"
METHODS = (METHOD_IC, METHOD_SSM, METHOD_HLGT)

RNG_ALGORITHM = "philox"

# Upper bound on RunConfig.threads: each worker is an OS thread, and a fixed
# bound lets a replayed effective_config.txt behave the same on every machine.
MAX_THREADS = 64

# Pairs per pool task: few tasks a cutoff, yet enough for threads to share it evenly.
_BATCH = 16


@dataclass(frozen=True)
class RunConfig:
    """Everything a screening run needs besides the data itself.

    Defaults follow the reference parametrization: similarity cutoff 0.3,
    informative-component weight = max source similarity, vague prior sd 2.0,
    random-effects pooling, signal threshold 0. ``w`` is "max_ssm" or a
    fixed weight in [0, 1].
    """

    methods: tuple[str, ...] = (METHOD_IC, METHOD_SSM)
    min_ssm: float = 0.3
    w: str | float = MAX_SSM
    vague_sd: float = 2.0
    effects: str = RANDOM_EFFECTS
    include_target_in_reml: bool = False
    threshold: float = 0.0
    n_samples: int = 100_000
    seed: int = 0
    min_a: int = 1
    threads: int = 1
    start: Quarter | None = None
    end: Quarter | None = None
    drug_filter: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValidationError("methods must name at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ValidationError(f"unknown method {quote(m)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValidationError(f"duplicate method in {quote(','.join(self.methods))}")
        if self.effects not in (RANDOM_EFFECTS, FIXED_EFFECTS):
            raise ValidationError(f"unknown effects model {quote(self.effects)}")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValidationError(
                f"threads must be in [1, {MAX_THREADS}], got {self.threads}"
            )
        if self.n_samples < 1000:
            raise ValidationError(f"n_samples must be >= 1000, got {self.n_samples}")
        if not 0.0 <= self.min_ssm <= 1.0:
            raise ValidationError(f"min_ssm must be in [0, 1], got {self.min_ssm}")
        if not vague_sd_in_range(self.vague_sd):
            raise ValidationError(f"vague_sd must be positive with a normal float "
                                  f"square, got {self.vague_sd}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.min_a < 1:
            raise ValidationError(f"min_a must be >= 1, got {self.min_a}")
        if math.isnan(self.threshold):
            raise ValidationError("threshold must be a number, got nan")
        if self.start is not None and self.end is not None and self.start > self.end:
            raise ValidationError(f"start {self.start} is after end {self.end}")
        if self.drug_filter is not None and not self.drug_filter:
            raise ValidationError("drug_filter must name at least one drug")
        if isinstance(self.w, str):
            if self.w != MAX_SSM:
                raise ValidationError(f"unknown prior weight {quote(self.w)}")
        elif not 0.0 <= self.w <= 1.0:
            raise ValidationError(f"w must be in [0, 1], got {self.w}")


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValidationError(f"expected a boolean, got {quote(text)}")


def _parse_quarter(text: str) -> Quarter | None:
    return Quarter.parse(text) if text else None


def _format_quarter(q: Quarter | None) -> str:
    return "" if q is None else str(q)


def _parse_drug_filter(text: str) -> frozenset[str] | None:
    if not text:
        return None
    return frozenset(c.strip() for c in text.split(";") if c.strip())


def _format_drug_filter(codes: frozenset[str] | None) -> str:
    return "" if codes is None else ";".join(sorted(codes))


# The run configuration schema: config key -> (parse text, format value, flag
# help). Keys are RunConfig field names; defaults live on RunConfig only.
CONFIG_SCHEMA: dict[str, tuple[Callable[[str], Any], Callable[[Any], str], str]] = {
    "methods": (lambda t: tuple(m.strip() for m in t.split(",") if m.strip()),
                ",".join, f"comma list from {{{','.join(METHODS)}}}"),
    "min_ssm": (float, str, "similarity cutoff"),
    "w": (lambda t: t if t == MAX_SSM else float(t), str,
          "informative-prior weight: max_ssm or a number"),
    "vague_sd": (float, str, "vague component standard deviation"),
    "effects": (str, str, "pooling model for the borrow prior: random or fixed"),
    "include_target_in_reml": (_parse_bool, lambda v: str(v).lower(),
                               "let the target pair inform the heterogeneity estimate"),
    "threshold": (float, str, "signal threshold on ci_low"),
    "n_samples": (int, str, "Monte Carlo draws per pair"),
    "seed": (int, str, "run seed"),
    "min_a": (int, str, "minimum joint count for screening"),
    "threads": (int, str, "worker threads"),
    "start": (_parse_quarter, _format_quarter, "first cutoff quarter (YYYYQn)"),
    "end": (_parse_quarter, _format_quarter, "last cutoff quarter (YYYYQn)"),
    "drug_filter": (_parse_drug_filter, _format_drug_filter,
                    "file listing drug codes to screen (one per line)"),
}


def parse_config_value(key: str, text: str) -> Any:
    """One config value from its text form; errors name the key."""
    if key not in CONFIG_SCHEMA:
        raise ValidationError(f"unknown config key {quote(key)}")
    parse = CONFIG_SCHEMA[key][0]
    try:
        return parse(text)
    except ValidationError as exc:
        raise ValidationError(f"config key {quote(key)}: {exc}") from None
    except ValueError:  # from int or float, whose message holds all of text
        kind = "an integer" if parse is int else "a number"
        raise ValidationError(
            f"config key {quote(key)}: {quote(text)} is not {kind}"
        ) from None


def parse_config(values: dict[str, str]) -> RunConfig:
    """RunConfig from key -> text values, as config_snapshot writes them;
    of the provenance keys, ``rng`` must match and ``version`` is ignored."""
    kwargs = {}
    for key, text in values.items():
        if key == "rng":
            if text != RNG_ALGORITHM:
                raise ValidationError(
                    f"config key 'rng': {quote(text)} is not {RNG_ALGORITHM!r}"
                )
        elif key != "version":
            kwargs[key] = parse_config_value(key, text)
    return RunConfig(**kwargs)


def config_snapshot(cfg: RunConfig) -> str:
    """Effective configuration as sorted key = value lines; parse_config
    reads it back to an equal RunConfig."""
    items = {key: fmt(getattr(cfg, key)) for key, (_, fmt, _) in CONFIG_SCHEMA.items()}
    items["rng"] = RNG_ALGORITHM
    items["version"] = __version__
    return "".join(f"{k} = {v}\n" for k, v in sorted(items.items()))


@dataclass(frozen=True, slots=True)
class PairResult:
    """One method's verdict on one (drug, event) pair at one cutoff."""

    method: str
    drug: str
    event: str
    cutoff: Quarter
    a: int
    b: int
    c: int
    d: int
    oe: float | None
    pme: float
    variance: float
    ci_low: float
    ci_high: float
    signal: bool
    s_count: int = 0
    tau2: float | None = None
    w: float | None = None
    w_tilde: float | None = None
    map_mu: float | None = None
    map_v: float | None = None


def derive_seed(seed: int, drug: str, event: str, cutoff: Quarter) -> int:
    """Stable 64-bit stream key for one pair at one cutoff."""
    text = f"{seed}|{drug}|{event}|{cutoff}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class IcCache:
    """Memoized plain information components.

    The memo is keyed by every input of a posterior: (drug, event, cutoff,
    table, run seed, n_samples). So one cache is correct for any stores and
    configs, and RunContexts given one cache (the methods of a screen, the
    points of a sweep) share its posteriors. Concurrent recomputation is
    harmless: every writer stores the same value.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple, IcPosterior] = {}

    def posterior(
        self, drug: str, event: str, cutoff: Quarter, table: ContingencyTable,
        config: RunConfig,
    ) -> IcPosterior:
        """The posterior of one pair, drawn under config's seed and n_samples."""
        key = (drug, event, cutoff, table, config.seed, config.n_samples)
        hit = self._memo.get(key)
        if hit is None:
            hit = posterior_ic(
                table,
                n_samples=config.n_samples,
                seed=derive_seed(config.seed, drug, event, cutoff),
            )
            self._memo[key] = hit
        return hit


@dataclass(frozen=True)
class RunContext:
    """The inputs of one or more screens over the same store and config.

    A context is frozen and holds only its inputs and its IcCache, the one
    mutable thing a screen carries. A given similarity matrix must be built
    at or below config.min_ssm. A given cache may be shared with any other
    contexts, whatever their store or config.
    """

    store: ReportStore
    config: RunConfig
    similarity: SimilarityMatrix | None = None
    ontology: Ontology | None = None
    cache: IcCache = field(default_factory=IcCache)

    def __post_init__(self) -> None:
        cfg = self.config
        if METHOD_SSM in cfg.methods:
            if self.similarity is None:
                raise ValidationError("IC_SSM requires a similarity matrix")
            if self.similarity.min_ssm > cfg.min_ssm:
                raise ValidationError(
                    f"similarity matrix built at min_ssm {self.similarity.min_ssm} "
                    f"drops pairs that min_ssm {cfg.min_ssm} keeps"
                )
        if METHOD_HLGT in cfg.methods and self.ontology is None:
            raise ValidationError("IC_HLGT requires an ontology")

    def neighbors(self, pt: str, method: str) -> list[tuple[str, float]]:
        """(pt, ssm) borrowing candidates for a target PT, sorted by code.

        IC_SSM takes the similarity-matrix neighbors above min_ssm; IC_HLGT
        takes every PT sharing an HLGT, each with similarity 1. The target
        itself is never a candidate.
        """
        if method == METHOD_SSM:
            return [(n, s) for n, s in self.similarity.neighbors(pt)
                    if s > self.config.min_ssm]
        if method == METHOD_HLGT:
            return [(n, 1.0) for n in self.ontology.hlgt_neighbors(pt)]
        raise ValueError(f"method {method!r} does not borrow")


def _gather_sources(
    ctx: RunContext, drug: str, event: str, cutoff: Quarter, method: str
) -> list[BorrowSource]:
    sources = []
    for pt, ssm in ctx.neighbors(event, method):
        table = ctx.store.contingency(drug, pt, cutoff)
        if table.a < 1:
            continue
        post = ctx.cache.posterior(drug, pt, cutoff, table, ctx.config)
        if post.variance <= 0.0:
            log.warning(
                "skipping degenerate source (%s, %s) at %s", drug, pt, cutoff
            )
            continue
        sources.append(BorrowSource(pt=pt, ic=post.pme, vic=post.variance, ssm=ssm))
    return sources


def analyze_pair(
    ctx: RunContext, drug: str, event: str, cutoff: Quarter
) -> list[PairResult]:
    """All configured methods applied to one pair at one cutoff."""
    cfg = ctx.config
    table = ctx.store.contingency(drug, event, cutoff)
    target = ctx.cache.posterior(drug, event, cutoff, table, cfg)
    base = dict(
        drug=drug,
        event=event,
        cutoff=cutoff,
        a=table.a,
        b=table.b,
        c=table.c,
        d=table.d,
        oe=table.observed_expected(),
    )
    results = []
    for method in cfg.methods:
        post, borrowed = target, {}
        if method != METHOD_IC:
            sources = _gather_sources(ctx, drug, event, cutoff, method)
            adjusted = borrow(target, sources, cfg)
            post, pooled = adjusted.posterior, adjusted.map_prior
            borrowed = dict(s_count=len(sources), w=adjusted.w)
            if pooled is not None:
                borrowed.update(
                    tau2=pooled.tau2, w_tilde=post.w_tilde, map_mu=pooled.mu,
                    map_v=pooled.v,
                )
        results.append(
            PairResult(
                method=method,
                pme=post.pme,
                variance=post.variance,
                ci_low=post.ci_low,
                ci_high=post.ci_high,
                signal=signal_flag(post, threshold=cfg.threshold),
                **borrowed,
                **base,
            )
        )
    return results


@dataclass
class QuarterlyRun:
    """One screen's verdicts, first alerts and cutoff quarters.

    ``results`` is in screening order: cutoff, then (drug, event), then the
    methods in ``config.methods`` order. ``first_alerts[method]`` maps each
    pair to the first cutoff at which that method flagged it.
    """

    results: list[PairResult]
    first_alerts: dict[str, dict[tuple[str, str], Quarter]]
    quarters: list[Quarter]


def run_quarters(ctx: RunContext) -> QuarterlyRun:
    """Cumulative screening of every active pair at each quarter.

    The cutoffs are the store's quarters within config.start..config.end.
    At each cutoff the pairs are those with a >= config.min_a whose drug is
    in the configured drug filter. Cutoffs go one at a time, their pairs in
    batches of ``_BATCH`` on config.threads threads; a failing pair stops the
    screen once the running batches end.
    """
    cfg = ctx.config
    all_q = ctx.store.quarters()
    if not all_q:
        raise ValidationError("report store is empty")
    lo = cfg.start or all_q[0]
    hi = cfg.end or all_q[-1]
    quarters = [q for q in all_q if lo <= q <= hi]
    if not quarters:
        raise ValidationError(f"no report quarters within {lo}..{hi}")

    def work(task: tuple[Quarter, list[tuple[str, str]]]) -> list[PairResult]:
        cutoff, batch = task
        return [r for d, e in batch for r in analyze_pair(ctx, d, e, cutoff)]

    results: list[PairResult] = []
    with ThreadPoolExecutor(cfg.threads) as pool:  # starts no thread until used
        each = map if cfg.threads == 1 else pool.map
        for cutoff in quarters:
            pairs = ctx.store.active_pairs(
                cutoff, min_a=cfg.min_a, drugs=cfg.drug_filter
            )
            batches = range(0, len(pairs), _BATCH)
            for chunk in each(work, [(cutoff, pairs[i : i + _BATCH]) for i in batches]):
                results.extend(chunk)
    first: dict[str, dict[tuple[str, str], Quarter]] = {m: {} for m in cfg.methods}
    for r in results:
        if r.signal:
            first[r.method].setdefault((r.drug, r.event), r.cutoff)
    return QuarterlyRun(results=results, first_alerts=first, quarters=quarters)


"""Brute-force reference implementations the tests compare against.

Everything here is written the slow, obvious way on purpose: set-based
graph walks, digamma identities, dense grid searches, and quadrature. None
of it shares code with the package under test, except that
``load_reports_by_line`` parses quarters with ``Quarter.parse`` and hands
its columns to the package's own ``ReportStore`` build, so that a
comparison covers the line parse alone, and that the scoring loops return
the package's ``MetricsReport`` and ``Comparison`` records.
"""

from __future__ import annotations

import logging
import math
from collections import Counter

import numpy as np
from scipy.special import betainc, betaincinv, digamma

from icborrow import Quarter
from icborrow.errors import ValidationError, quote
from icborrow.evaluate import POSITIVE, Comparison, MetricsReport
from icborrow.reports import ReportStore, _Columns


# -- ontology ------------------------------------------------------------------


def bfs_ancestors(parents: dict, code: str) -> set[str]:
    """Reflexive ancestor set by breadth-first walk over parent links."""
    seen = {code}
    frontier = [code]
    while frontier:
        nxt = []
        for cur in frontier:
            for p in parents.get(cur, ()):
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def seco_ic(parents: dict, codes: list[str]) -> dict[str, float]:
    """Intrinsic information content from strict descendant counts."""
    counts = {c: 0 for c in codes}
    for c in codes:
        for anc in bfs_ancestors(parents, c) - {c}:
            counts[anc] += 1
    n = len(codes)
    return {c: 1.0 - math.log(counts[c] + 1) / math.log(n) for c in codes}


def brute_mica_ic(parents: dict, codes: list[str], a: str, b: str) -> float:
    ic = seco_ic(parents, codes)
    common = bfs_ancestors(parents, a) & bfs_ancestors(parents, b)
    return max((ic[c] for c in common), default=0.0)


def brute_sokal(parents: dict, codes: list[str], a: str, b: str) -> float:
    if a == b:
        return 1.0
    m = brute_mica_ic(parents, codes, a, b)
    if m <= 0.0:
        return 0.0
    ic = seco_ic(parents, codes)
    return m / (2.0 * ic[a] + 2.0 * ic[b] - 3.0 * m)


def random_dag(rng: np.random.Generator, n_nodes: int) -> dict[str, tuple[str, ...]]:
    """Parent map of a random rooted DAG; node i picks parents among 0..i-1."""
    parents: dict[str, tuple[str, ...]] = {}
    for i in range(1, n_nodes):
        k = int(rng.integers(1, min(3, i) + 1))
        picks = rng.choice(i, size=k, replace=False)
        parents[f"C{i:03d}"] = tuple(sorted(f"C{int(j):03d}" for j in picks))
    return parents


# -- contingency counting --------------------------------------------------------


def rescan_table(reports, drug, event, cutoff):
    """(a, b, c, d) by scanning every report; reports are (quarter, drugs, events)."""
    a = b = c = d = 0
    for quarter, drugs, events in reports:
        if quarter > cutoff:
            continue
        has_d, has_e = drug in drugs, event in events
        if has_d and has_e:
            a += 1
        elif has_d:
            b += 1
        elif has_e:
            c += 1
        else:
            d += 1
    return a, b, c, d


def load_reports_by_line(path: str, ontology=None) -> ReportStore:
    """``load_reports`` as a loop over the file, one line at a time.

    The same skip rule, checks in the same order with the same messages,
    the same warnings in the same order (logged to the same logger), and
    codes numbered on first sight.
    """
    log = logging.getLogger("icborrow.reports")
    drug_codes: dict[str, int] = {}
    event_codes: dict[str, int] = {}
    quarter, n_drugs, n_events, drug_col, event_col = [], [], [], [], []
    warnings: list[str] = []
    latest: dict[str, int] = {}  # report id -> record index of its last line
    record_line: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            head = line.lstrip()
            if not head or head[0] == "#":
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValidationError(
                    f"{path}:{lineno}: report row needs 4 tab-separated fields"
                )
            report_id, quarter_text, drug_field, event_field = fields
            if not report_id:
                raise ValidationError(f"{path}:{lineno}: empty report id")
            try:
                ordinal = Quarter.parse(quarter_text).ordinal
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            drugs = set(drug_field.split(";"))
            drugs.discard("")
            events = set(event_field.split(";"))
            events.discard("")
            if not drugs or not events:
                raise ValidationError(
                    f"{path}:{lineno}: report needs at least one drug and one event"
                )
            record = len(quarter)
            quarter.append(ordinal)
            n_drugs.append(len(drugs))
            n_events.append(len(events))
            drug_col.extend(drug_codes.setdefault(d, len(drug_codes)) for d in drugs)
            event_col.extend(
                event_codes.setdefault(e, len(event_codes)) for e in events
            )
            record_line.append(lineno)
            previous = latest.get(report_id)
            if previous is not None:
                msg = (
                    f"duplicate report id {quote(report_id)} at line {lineno} replaces "
                    f"line {record_line[previous]}"
                )
                log.warning("%s: %s", path, msg)
                warnings.append(msg)
            latest[report_id] = record
    if ontology is not None:
        for code in sorted(set(event_codes) - set(ontology.pts())):
            msg = f"event code {quote(code)} not present in the ontology"
            log.warning("%s: %s", path, msg)
            warnings.append(msg)
    alive = np.zeros(len(record_line), dtype=bool)
    alive[list(latest.values())] = True
    ints = [
        np.array(col, dtype=np.int64)
        for col in (quarter, n_drugs, n_events, drug_col, event_col)
    ]
    return ReportStore(_Columns(drug_codes, event_codes, *ints), alive, warnings)


def store_state(store: ReportStore) -> dict:
    """Every attribute of a store, arrays as their dtype and values: what
    two loaders must agree on."""
    return {
        name: (value.dtype, value.tolist()) if isinstance(value, np.ndarray) else value
        for name, value in vars(store).items()
    }

# -- information component --------------------------------------------------------


def exact_ic_mean(gamma) -> float:
    """Posterior mean of log2(p_a / ((p_a+p_b)(p_a+p_c))) under Dirichlet(gamma).

    Aggregated Dirichlet marginals are Beta, so each log term has a digamma
    expectation and the mean needs no sampling at all.
    """
    ga, gb, gc, gd = (float(g) for g in gamma)
    gn = ga + gb + gc + gd
    return float(
        (digamma(ga) - digamma(ga + gb) - digamma(ga + gc) + digamma(gn))
        / math.log(2.0)
    )


def numpy_ic_summaries(gamma, n_samples: int, seed: int) -> dict:
    """IcPosterior fields from the same Philox stream, summarized by numpy.

    Floors p_a with np.where, then takes ndarray.mean, ndarray.var(ddof=1)
    and np.quantile at 2.5% and 97.5%, as posterior_ic once did.
    """
    floor = float(np.finfo(np.float64).tiny)
    rng = np.random.Generator(np.random.Philox(seed))
    p = rng.dirichlet(np.asarray(gamma, dtype=np.float64), size=n_samples)
    p_a = p[:, 0]
    floored = p_a <= floor
    p_a = np.where(floored, floor, p_a)
    ic = np.log2(p_a / ((p_a + p[:, 1]) * (p_a + p[:, 2])))
    ci_low, ci_high = np.quantile(ic, [0.025, 0.975])
    return dict(
        pme=float(ic.mean()),
        variance=float(ic.var(ddof=1)),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        n_samples=n_samples,
        n_floored=int(floored.sum()),
    )


def ic_cdf(gamma, x: float, nodes: int = 400) -> float:
    """P(ic <= x) under Dirichlet(gamma), by quadrature.

    Dirichlet neutrality gives ic = log2 U - log2(sU + (1-s)V) with
    s ~ Beta(ga+gb, gc+gd), U ~ Beta(ga, gb), V ~ Beta(gc, gd) independent,
    so ic <= x exactly when U <= u* = 2^x (1-s) V / (1 - 2^x s), or always
    when 2^x s >= 1. Given (s, V) that has probability I_{u*}(ga, gb); the
    outer integral over (s, V) runs on their quantile scales, where both
    are uniform, with a tensor Gauss-Legendre rule.
    """
    ga, gb, gc, gd = (float(g) for g in gamma)
    t, weights = np.polynomial.legendre.leggauss(nodes)
    t, weights = (t + 1.0) / 2.0, weights / 2.0
    s = betaincinv(ga + gb, gc + gd, t)[:, None]
    v = betaincinv(gc, gd, t)[None, :]
    r = 2.0**x
    with np.errstate(divide="ignore", invalid="ignore"):
        u_star = np.where(r * s < 1.0, r * (1.0 - s) * v / (1.0 - r * s), 1.0)
    inner = betainc(ga, gb, np.clip(u_star, 0.0, 1.0))
    return float(weights @ inner @ weights)


def ic_moments(gamma, nodes: int = 100) -> tuple[float, float, float]:
    """(E[ic], Var[ic], E[(ic - E[ic])^4]) under Dirichlet(gamma), by quadrature.

    The same neutral split as ``ic_cdf``, ic = log2 U - log2(sU + (1-s)V),
    integrated over all three of s, U and V on their quantile scales with a
    tensor Gauss-Legendre rule. Each quantile scale is reached through
    t = 10x^3 - 15x^4 + 6x^5, whose derivative vanishes to second order at
    both ends: it tames the log U singularity and the power-law quantile
    tails at t = 0 and 1, where a rule in t itself stays about 1e-5 off the
    digamma mean.
    """
    ga, gb, gc, gd = (float(g) for g in gamma)
    x, weights = np.polynomial.legendre.leggauss(nodes)
    x, weights = (x + 1.0) / 2.0, weights / 2.0
    t = x**3 * (10.0 - 15.0 * x + 6.0 * x**2)
    weights = weights * 30.0 * x**2 * (1.0 - x) ** 2
    s = betaincinv(ga + gb, gc + gd, t)[:, None, None]
    u = betaincinv(ga, gb, t)[None, :, None]
    v = betaincinv(gc, gd, t)[None, None, :]
    ic = np.log2(u) - np.log2(s * u + (1.0 - s) * v)
    w3 = weights[:, None, None] * weights[None, :, None] * weights[None, None, :]
    mean = float((w3 * ic).sum())
    dev2 = (ic - mean) ** 2
    return mean, float((w3 * dev2).sum()), float((w3 * dev2 * dev2).sum())


# -- REML ------------------------------------------------------------------------


def grid_reml_tau2(y, v, step: float = 1e-4, tau2_max: float = 10.0) -> float:
    """Argmax of the restricted log-likelihood over a dense tau^2 grid."""
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    grid = np.arange(0.0, tau2_max + step, step)
    w = 1.0 / (v[None, :] + grid[:, None])
    sw = w.sum(axis=1)
    mu = (w * y[None, :]).sum(axis=1) / sw
    r2 = (y[None, :] - mu[:, None]) ** 2
    ll = -0.5 * (
        np.log(v[None, :] + grid[:, None]).sum(axis=1) + np.log(sw) + (w * r2).sum(axis=1)
    )
    return float(grid[int(np.argmax(ll))])


# -- mixture posterior -------------------------------------------------------------


def grid_mixture(mu, v, w, vague_sd, ic, vic, n_points: int = 100_000):
    """Posterior summaries by trapezoid quadrature of the unnormalized density.

    Returns (mean, variance, ci_low, ci_high, w_tilde). The grid spans all
    three component centers plus ten of the widest standard deviations on
    each side, which leaves no visible mass outside the bracket.
    """
    sd_max = max(math.sqrt(v), float(vague_sd), math.sqrt(vic))
    lo = min(mu, 0.0, ic) - 10.0 * sd_max
    hi = max(mu, 0.0, ic) + 10.0 * sd_max
    theta = np.linspace(lo, hi, n_points)

    def npdf(x, m, var):
        return np.exp(-((x - m) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

    like = npdf(theta, ic, vic)
    post_inf = w * npdf(theta, mu, v) * like
    post_vag = (1.0 - w) * npdf(theta, 0.0, vague_sd**2) * like
    mass_inf = float(np.trapezoid(post_inf, theta))
    mass_vag = float(np.trapezoid(post_vag, theta))
    post = post_inf + post_vag
    z = mass_inf + mass_vag
    post = post / z
    mean = float(np.trapezoid(theta * post, theta))
    var = float(np.trapezoid((theta - mean) ** 2 * post, theta))
    cdf = np.concatenate(
        [[0.0], np.cumsum((post[1:] + post[:-1]) * np.diff(theta) / 2.0)]
    )
    cdf = cdf / cdf[-1]
    ci_low = float(np.interp(0.025, cdf, theta))
    ci_high = float(np.interp(0.975, cdf, theta))
    return mean, var, ci_low, ci_high, mass_inf / z


# -- reference-set scoring -----------------------------------------------------------


def loop_score(alerts, entries, strict_before: bool = True) -> MetricsReport:
    """``evaluate.score`` as one branch per entry."""
    tp = fp = tn = fn = 0
    for e in entries:
        alert = alerts.get((e.drug, e.pt))
        if e.kind == POSITIVE:
            if alert is None:
                fn += 1
            elif alert < e.label_quarter or (
                not strict_before and alert == e.label_quarter
            ):
                tp += 1
        elif alert is None:
            tn += 1
        else:
            fp += 1
    return MetricsReport.from_counts(tp, fp, tn, fn)


def loop_quarterly_curves(alerts, entries, quarters) -> dict:
    """``evaluate.quarterly_curves`` over ``loop_score``."""
    return {
        q: loop_score(
            {pair: a for pair, a in alerts.items() if a <= q},
            [e for e in entries if e.kind != POSITIVE or e.label_quarter > q],
        )
        for q in sorted(quarters)
    }


def loop_compare(
    alerts_a, alerts_b, entries, method_a="A", method_b="B", strict_before=True
) -> Comparison:
    """``evaluate.compare_methods`` with one branch per overlap cell."""
    positives = [e for e in entries if e.kind == POSITIVE]
    if not positives:
        raise ValidationError("comparison needs at least one positive control")
    imputed_quarter = max(e.label_quarter for e in positives) + 1

    def outcome(e, alert):
        if alert is None:
            return "fn"
        if alert < e.label_quarter or (not strict_before and alert == e.label_quarter):
            return "tp"
        return "ignored"

    both = only_a = only_b = neither = 0
    observed: Counter = Counter()
    imputed: Counter = Counter()
    deltas: list[int] = []
    for e in positives:
        fa = alerts_a.get((e.drug, e.pt))
        fb = alerts_b.get((e.drug, e.pt))
        ca, cb = outcome(e, fa), outcome(e, fb)
        if "ignored" in (ca, cb):
            continue
        if ca == "tp" and cb == "tp":
            both += 1
            observed[fb - fa] += 1
            deltas.append(fb - fa)
        elif ca == "tp":
            only_a += 1
            imputed[imputed_quarter - fa] += 1
            deltas.append(imputed_quarter - fa)
        elif cb == "tp":
            only_b += 1
            imputed[fb - imputed_quarter] += 1
            deltas.append(fb - imputed_quarter)
        else:
            neither += 1
    return Comparison(
        method_a=method_a,
        method_b=method_b,
        both=both,
        only_a=only_a,
        only_b=only_b,
        neither=neither,
        mean_delta=float(np.mean(deltas)) if deltas else None,
        deltas_observed=observed,
        deltas_imputed=imputed,
        n_imputed=sum(imputed.values()),
    )


def loop_bootstrap(
    alerts_by_method, entries, n_iter=1000, seed=0, strict_before=True
) -> dict:
    """``evaluate.bootstrap`` by rebuilding and rescoring every resample."""
    metrics = ("sensitivity", "specificity", "ppv", "f1", "youden")
    methods = sorted(alerts_by_method)
    rng = np.random.Generator(np.random.Philox(seed))
    n = len(entries)
    pairs = [(a, b) for a in methods for b in methods if a != b]
    wins = {(a, b, m): 0.0 for a, b in pairs for m in metrics}
    for _ in range(n_iter):
        sample = [entries[i] for i in rng.integers(0, n, size=n)]
        reports = {
            m: loop_score(alerts_by_method[m], sample, strict_before) for m in methods
        }
        for a, b in pairs:
            for metric in metrics:
                va = getattr(reports[a], metric)
                vb = getattr(reports[b], metric)
                if va is None or vb is None or va == vb:
                    wins[(a, b, metric)] += 0.5
                elif va > vb:
                    wins[(a, b, metric)] += 1.0
    fractions = {
        f"{a}>{b}": {m: wins[(a, b, m)] / n_iter for m in metrics} for a, b in pairs
    }
    return {"n_iter": n_iter, "seed": seed, "fractions": fractions}

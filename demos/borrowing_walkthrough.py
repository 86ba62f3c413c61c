"""Anatomy of one borrowed estimate, stage by stage.

Builds a toy ontology whose three sibling terms are strongly similar,
gives one drug an elevated count on each sibling, and then walks the
target pair through every stage of the similarity-weighted update:

  1. plain posterior for the target pair,
  2. similarity neighbors and their posteriors (the borrowing sources),
  3. heterogeneity estimate and pooled prior across the sources,
  4. robust mixture: pooled prior + vague fallback,
  5. final estimate, and how conflict would have flattened it.

Run with:  python demos/borrowing_walkthrough.py
"""

import os
import tempfile

from icborrow import (
    ContingencyTable,
    RobustPrior,
    RunConfig,
    borrow,
    build_similarity,
    load_ontology,
    mixture_posterior,
    posterior_ic,
)
from icborrow.borrow import BorrowSource, random_effects_map

def toy_ontology_text() -> str:
    """Three sibling terms plus enough unrelated terms to make the shared
    parent informative (similarity grows with the size of the vocabulary)."""
    lines = [
        "N\tROOT\tOTHER\troot",
        "N\tSOC1\tSOC\torgan class",
        "N\tG1\tHLGT\tgroup",
        "N\tH1\tHLT\tsubgroup",
        "N\tH2\tHLT\tother subgroup",
        "E\tSOC1\tROOT\tISA",
        "E\tG1\tSOC1\tISA",
        "E\tH1\tG1\tISA",
        "E\tH2\tG1\tISA",
        "E\tH1\tG1\tMEDDRA",
        "E\tH2\tG1\tMEDDRA",
    ]
    for pt, label in (("PT_A", "target event"), ("PT_B", "sibling one"),
                      ("PT_C", "sibling two")):
        lines.append(f"N\t{pt}\tPT\t{label}")
        lines.append(f"E\t{pt}\tH1\tISA")
        lines.append(f"E\t{pt}\tH1\tMEDDRA")
    for i in range(35):
        lines.append(f"N\tPT_X{i:02d}\tPT\tfiller {i}")
        lines.append(f"E\tPT_X{i:02d}\tH2\tISA")
        lines.append(f"E\tPT_X{i:02d}\tH2\tMEDDRA")
    return "\n".join(lines) + "\n"

TABLES = {
    "PT_A": ContingencyTable(8, 40, 30, 2000),  # sparse but elevated
    "PT_B": ContingencyTable(30, 120, 90, 6000),
    "PT_C": ContingencyTable(25, 100, 80, 5000),
}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ontology.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(toy_ontology_text())
        ontology = load_ontology(path)

    similarity = build_similarity(ontology, min_ssm=0.1)
    print("stage 1: plain posteriors")
    posteriors = {
        pt: posterior_ic(table, n_samples=50_000, seed=7)
        for pt, table in TABLES.items()
    }
    for pt, post in posteriors.items():
        print(
            f"  {pt}: pme={post.pme:+.3f}  var={post.variance:.4f} "
            f" ci=({post.ci_low:+.3f}, {post.ci_high:+.3f})"
        )

    print("\nstage 2: neighbors of PT_A and source posteriors")
    target = posteriors["PT_A"]
    sources = []
    for pt, ssm in similarity.neighbors("PT_A"):
        post = posteriors[pt]
        sources.append(BorrowSource(pt=pt, ic=post.pme, vic=post.variance, ssm=ssm))
        print(f"  {pt}: ssm={ssm:.3f}  ic={post.pme:+.3f}")

    print("\nstage 3: pooled prior (random effects)")
    pooled = random_effects_map(sources)
    print(f"  mu={pooled.mu:+.3f}  v={pooled.v:.4f}  tau2={pooled.tau2:.4f}")

    print("\nstage 4 + 5: robust mixture and the final estimate")
    config = RunConfig()  # the default w, vague_sd and random-effects pooling
    result = borrow(target, sources, config)
    post = result.posterior
    print(f"  prior weight w={result.w:.3f} (max source similarity)")
    print(f"  posterior weight w_tilde={post.w_tilde:.3f}")
    print(
        f"  borrowed: pme={post.pme:+.3f}  ci=({post.ci_low:+.3f}, "
        f"{post.ci_high:+.3f})  [plain was {target.pme:+.3f} with ci_low "
        f"{target.ci_low:+.3f}]"
    )

    print("\nconflict check: what if the prior disagreed hard?")
    clash = RobustPrior(mu=-2.0, v=pooled.v, w=result.w, vague_sd=config.vague_sd)
    clashed = mixture_posterior(clash, target.pme, target.variance)
    print(
        f"  prior at -2.0 instead: w_tilde drops to {clashed.w_tilde:.3f} and "
        f"pme stays near the data at {clashed.pme:+.3f}"
    )


if __name__ == "__main__":
    main()

import ast
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icborrow import RunConfig, build_similarity, errors, load_ontology
from icborrow.errors import CycleError, ValidationError
from icborrow.ontology import LEVELS

from conftest import (
    all_pairs_similarity,
    grouped_ontology,
    load_similarity_csv,
    make_ontology,
    save_similarity_csv,
    similarity_of,
)
from oracles import bfs_ancestors, brute_mica_ic, brute_sokal, random_dag, seco_ic

# Root plus A and B, with X under both (multi-parent), Y under A, Z under B.
DIAMOND_PARENTS = {
    "A": ("ROOT",),
    "B": ("ROOT",),
    "X": ("A", "B"),
    "Y": ("A",),
    "Z": ("B",),
}
DIAMOND_CODES = ["ROOT", "A", "B", "X", "Y", "Z"]


def test_chain_intrinsic_ic(chain_ontology):
    ic = chain_ontology.intrinsic_ic()
    assert ic["ROOT"] == 0.0
    assert ic["L1"] == 1.0 and ic["L2"] == 1.0
    assert ic["P"] == pytest.approx(0.5, abs=1e-12)
    assert ic["M5"] == pytest.approx(1.0 - math.log(4) / math.log(9), abs=1e-12)
    order = ["ROOT", "M1", "M2", "M3", "M4", "M5", "P", "L1"]
    assert all(ic[a] < ic[b] for a, b in zip(order, order[1:]))


def test_chain_sokal_values(chain_ontology):
    assert chain_ontology.sokal_sneath("L1", "L2") == pytest.approx(0.2, abs=1e-12)
    assert chain_ontology.sokal_sneath("L1", "P") == pytest.approx(1 / 3, abs=1e-12)
    assert chain_ontology.sokal_sneath("L1", "L1") == 1.0
    assert chain_ontology.mica_ic("L1", "L2") == pytest.approx(0.5, abs=1e-12)


def test_diamond_matches_brute_force():
    ont = make_ontology(DIAMOND_PARENTS, DIAMOND_CODES)
    ref_ic = seco_ic(DIAMOND_PARENTS, DIAMOND_CODES)
    for code, value in ont.intrinsic_ic().items():
        assert value == pytest.approx(ref_ic[code], abs=1e-12)
    # leaves under distinct parents share only the zero-information root
    assert ont.sokal_sneath("Y", "Z") == 0.0
    assert ont.sokal_sneath("X", "Y") == pytest.approx(
        brute_sokal(DIAMOND_PARENTS, DIAMOND_CODES, "X", "Y"), abs=1e-12
    )
    assert ont.sokal_sneath("X", "Y") == pytest.approx(0.13624256621143363, abs=1e-12)


def test_ancestors_are_reflexive(chain_ontology):
    assert chain_ontology.ancestors("L1") == frozenset(
        {"L1", "P", "M5", "M4", "M3", "M2", "M1", "ROOT"}
    )
    assert chain_ontology.ancestors("ROOT") == frozenset({"ROOT"})
    with pytest.raises(ValidationError):
        chain_ontology.ancestors("NOPE")


def test_ic_requires_two_concepts():
    ont = make_ontology({}, ["ONLY"])
    with pytest.raises(ValidationError):
        ont.intrinsic_ic()


def test_meddra_grouping(chain_ontology):
    assert chain_ontology.hlt_of("L1") == frozenset({"P"})
    assert chain_ontology.hlgt_neighbors("L1") == ["L2"]
    assert chain_ontology.hlgt_neighbors("L2") == ["L1"]
    assert chain_ontology.hlgt_neighbors("NOT_A_PT") == []
    assert chain_ontology.hlt_of("NOT_A_PT") == frozenset()


def test_unknown_code_and_level_are_refused(chain_ontology):
    for a, b in (("NOPE", "L1"), ("L1", "NOPE")):
        with pytest.raises(ValidationError, match="unknown concept code 'NOPE'"):
            chain_ontology.sokal_sneath(a, b)
    with pytest.raises(ValueError, match="unknown level 'LLT'"):
        chain_ontology.meddra_groups("L1", "LLT")


def test_hlgt_neighbors_union_across_groups(tmp_path):
    # PT X sits in two HLGTs; neighbors must be the union of both groups.
    text = "\n".join(
        ["N\tROOT\tOTHER\troot"]
        + [f"N\tG{i}\tHLGT\tgroup {i}" for i in (1, 2)]
        + [f"N\tH{i}\tHLT\tterm {i}" for i in (1, 2)]
        + [f"N\t{c}\tPT\tpt {c}" for c in ("X", "Y", "Z", "W")]
        + [
            "E\tG1\tROOT\tISA",
            "E\tG2\tROOT\tISA",
            "E\tH1\tG1\tMEDDRA",
            "E\tH2\tG2\tMEDDRA",
            "E\tH1\tG1\tISA",
            "E\tH2\tG2\tISA",
            "E\tX\tH1\tMEDDRA",
            "E\tX\tH2\tMEDDRA",
            "E\tY\tH1\tMEDDRA",
            "E\tZ\tH2\tMEDDRA",
            "E\tW\tROOT\tISA",
            "E\tX\tH1\tISA",
            "E\tY\tH1\tISA",
            "E\tZ\tH2\tISA",
        ]
    )
    path = tmp_path / "multi.tsv"
    path.write_text(text + "\n", encoding="utf-8")
    ont = load_ontology(str(path))
    assert ont.hlgt_neighbors("X") == ["Y", "Z"]
    assert ont.hlgt_neighbors("Y") == ["X"]
    # W has no HLGT at all: empty, not an error
    assert ont.hlgt_neighbors("W") == []


def test_hlgt_neighbors_hands_out_copies(chain_ontology):
    first = chain_ontology.hlgt_neighbors("L1")
    first.append("L9")
    assert chain_ontology.hlgt_neighbors("L1") == ["L2"]


def test_hlgt_neighbors_from_many_threads():
    # Worker threads fill one ontology's neighbour lists at once; a racing
    # writer stores the list every other writer stores.
    shared = grouped_ontology(0)
    codes = sorted(shared.concepts)
    expected = [grouped_ontology(0).hlgt_neighbors(c) for c in codes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            runs = [pool.submit(lambda: [shared.hlgt_neighbors(c) for c in codes])
                    for _ in range(16)]
            got = [run.result(timeout=60) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected] * 16
    assert [shared.hlgt_neighbors(c) for c in codes] == expected


def test_hlgt_neighbors_warning_names_the_level(caplog):
    # Codes above HLT level have no HLGT ancestor either: an event coded at
    # HLGT or SOC level borrows from nobody, and the log says which level.
    ont = make_ontology(
        {},
        ["S", "G", "H", "P", "W"],
        levels={"S": "SOC", "G": "HLGT", "H": "HLT", "P": "PT", "W": "PT"},
        meddra_parents={"G": ["S"], "H": ["G"], "P": ["H"]},
    )
    caplog.set_level("WARNING", logger="icborrow.ontology")
    assert [ont.hlgt_neighbors(c) for c in ("P", "G", "S", "W")] == [[]] * 4
    assert [r.getMessage() for r in caplog.records] == [
        f"{level} {code} has no HLGT ancestor; no group neighbors"
        for level, code in [("HLGT", "G"), ("SOC", "S"), ("PT", "W")]
    ]


def test_loader_rejects_cycle(tmp_path):
    text = (
        "N\tA\tPT\ta\nN\tB\tOTHER\tb\n"
        "E\tA\tB\tISA\nE\tB\tA\tISA\n"
    )
    path = tmp_path / "cycle.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CycleError) as err:
        load_ontology(str(path))
    assert "A" in str(err.value) and "B" in str(err.value)


@pytest.mark.parametrize(
    "line, message",
    [
        ("N\tA\tNOPE\tlabel", "unknown level"),
        ("E\tA\tB\tISA", "unknown code"),
        ("N\tROOT\tOTHER\tdup", "duplicate concept"),
        ("X\tA\tB\tISA", "unknown row tag"),
        ("N\tA\tPT", "4 tab-separated fields"),
        ("E\tROOT\tROOT", "edge row needs 4 tab-separated fields"),
        ("E\tROOT\tROOT\tISA\tx", "edge row needs 4 tab-separated fields"),
        ("N\t\tPT\tlabel", "empty concept code"),
    ],
)
def test_loader_rejects_malformed(tmp_path, line, message):
    path = tmp_path / "bad.tsv"
    path.write_text(f"N\tROOT\tOTHER\troot\n{line}\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_ontology(str(path))
    assert message in str(err.value)
    assert ":2:" in str(err.value)


def test_loader_rejects_orphan_pt(tmp_path):
    path = tmp_path / "orphan.tsv"
    path.write_text("N\tROOT\tOTHER\troot\nN\tA\tPT\tfloating\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_ontology(str(path))
    assert "A" in str(err.value)


def test_minimal_three_node_graph(tmp_path):
    text = (
        "N\tR\tOTHER\troot\nN\tA\tPT\ta\nN\tB\tPT\tb\n"
        "E\tA\tR\tISA\nE\tB\tR\tISA\n"
    )
    path = tmp_path / "tiny.tsv"
    path.write_text(text, encoding="utf-8")
    ont = load_ontology(str(path))
    ic = ont.intrinsic_ic()
    assert ic["R"] == 0.0
    assert ic["A"] == 1.0
    # two leaves under a bare root share no information
    assert ont.sokal_sneath("A", "B") == 0.0


def test_similarity_matrix_threshold(chain_ontology):
    # 0.2 pair survives at threshold 0, is dropped at the 0.3 default
    open_matrix = build_similarity(chain_ontology, min_ssm=0.0)
    assert similarity_of(open_matrix, "L1", "L2") == pytest.approx(0.2)
    default = build_similarity(chain_ontology, min_ssm=RunConfig().min_ssm)
    assert similarity_of(default, "L1", "L2") == 0.0
    assert default.n_pairs() == 0
    assert similarity_of(default, "L1", "L1") == 1.0


def test_similarity_csv_round_trip(tmp_path, chain_ontology):
    matrix = build_similarity(chain_ontology, min_ssm=0.1)
    path = tmp_path / "sim.csv"
    save_similarity_csv(matrix, str(path))
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "pt_a,pt_b,ssm"
    assert "L1,L2,0.200000" in text
    again = load_similarity_csv(str(path), min_ssm=0.1)
    assert similarity_of(again, "L1", "L2") == pytest.approx(0.2, abs=1e-6)
    assert again.neighbors("L1") == [("L2", 0.2)]
    with pytest.raises(ValidationError):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n", encoding="utf-8")
        load_similarity_csv(str(bad), min_ssm=0.1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(5, 30))
def test_random_dags_match_brute_force(seed, n_nodes):
    rng = np.random.default_rng(seed)
    parents = random_dag(rng, n_nodes)
    codes = [f"C{i:03d}" for i in range(n_nodes)]
    ont = make_ontology(parents, codes)
    ic = ont.intrinsic_ic()
    ref = seco_ic(parents, codes)
    assert all(abs(ic[c] - ref[c]) < 1e-12 for c in codes)
    picks = rng.choice(n_nodes, size=min(8, n_nodes), replace=False)
    for i in picks:
        for j in picks:
            a, b = codes[int(i)], codes[int(j)]
            assert ont.mica_ic(a, b) == pytest.approx(
                brute_mica_ic(parents, codes, a, b), abs=1e-12
            )
            s = ont.sokal_sneath(a, b)
            assert s == pytest.approx(brute_sokal(parents, codes, a, b), abs=1e-12)
            assert 0.0 <= s <= 1.0
            assert s == pytest.approx(ont.sokal_sneath(b, a), abs=0.0)


def _ontology_text(codes, isa, meddra) -> str:
    rows = [f"N\t{c}\tOTHER\t{c.lower()}" for c in codes]
    for kind, parents in (("ISA", isa), ("MEDDRA", meddra)):
        rows += [f"E\t{c}\t{p}\t{kind}" for c, ps in parents.items() for p in ps]
    return "\n".join(rows) + "\n"


def _has_cycle(parents) -> bool:
    return any(c in bfs_ancestors(parents, p) for c, ps in parents.items() for p in ps)


def _named_cycle(err) -> list[str]:
    prefix = "cycle detected: "
    message = str(err.value)
    assert message.startswith(prefix)
    return ast.literal_eval(message[len(prefix):]).split(" -> ")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(2, 30),
    st.sampled_from(["ISA", "MEDDRA", "both"]),
)
def test_planted_cycle_is_named(tmp_path_factory, seed, n_nodes, where):
    # One back edge: an ancestor of a code (the code itself included) gets
    # that code as a parent. Under "both" the ancestor is an ISA one and the
    # back edge is a MEDDRA one, so only the merged graph has a cycle.
    rng = np.random.default_rng(seed)
    codes = [f"C{i:03d}" for i in range(n_nodes)]
    isa, meddra = random_dag(rng, n_nodes), random_dag(rng, n_nodes)
    home = meddra if where == "MEDDRA" else isa
    child = codes[int(rng.integers(1, n_nodes))]
    ups = bfs_ancestors(home, child)
    into = home
    if where == "both":
        ups.discard(child)
        meddra.pop(child, None)  # so the MEDDRA edges alone close no cycle
        into = meddra
    top = str(rng.choice(sorted(ups)))
    into[top] = tuple(sorted({*into.get(top, ()), child}))
    assert (_has_cycle(isa), _has_cycle(meddra)) == (where == "ISA", where == "MEDDRA")

    path = tmp_path_factory.mktemp("cycle") / "ontology.tsv"
    path.write_text(_ontology_text(codes, isa, meddra), encoding="utf-8")
    with patch.object(errors, "QUOTE_CHARS", 10**6), pytest.raises(CycleError) as err:
        load_ontology(str(path))
    steps = _named_cycle(err)
    assert len(steps) >= 2 and steps[0] == steps[-1]
    assert len(set(steps)) == len(steps) - 1
    for a, b in zip(steps, steps[1:]):
        assert b in isa.get(a, ()) + meddra.get(a, ())


def test_deep_isa_chain_loads_without_recursion(tmp_path):
    # Each code sorts before its parent, so the walk starts at the leaf and
    # its open path grows to the whole chain, deeper than Python recursion.
    depth = 2000
    assert depth > sys.getrecursionlimit()
    codes = [f"C{i:04d}" for i in range(depth + 1)]
    isa = {child: (parent,) for child, parent in zip(codes, codes[1:])}
    path = tmp_path / "chain.tsv"
    path.write_text(_ontology_text(codes, isa, {}), encoding="utf-8")
    ont = load_ontology(str(path))
    assert ont.ancestors(codes[0]) == bfs_ancestors(isa, codes[0])
    assert ont.intrinsic_ic()[codes[-1]] == 0.0

    # Closed from the root back to the leaf, the cycle is the whole chain.
    isa[codes[-1]] = (codes[0],)
    path.write_text(_ontology_text(codes, isa, {}), encoding="utf-8")
    with pytest.raises(CycleError) as err:
        load_ontology(str(path))
    assert len(str(err.value)) < 300
    with patch.object(errors, "QUOTE_CHARS", 10**6), pytest.raises(CycleError) as err:
        load_ontology(str(path))
    assert _named_cycle(err) == codes + codes[:1]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(6, 30))
def test_random_meddra_grouping_matches_brute_force(seed, n_nodes):
    # Both edge kinds over one code set, levels drawn at random. The last
    # code is a PT directly under two HLGTs; the one before it is an HLT
    # under the first of them, so group lookups also start from a non-PT.
    rng = np.random.default_rng(seed)
    codes = [f"C{i:03d}" for i in range(n_nodes)]
    isa = random_dag(rng, n_nodes)
    meddra = {c: ps for c, ps in random_dag(rng, n_nodes).items() if rng.random() < 0.8}
    levels = {c: str(rng.choice(LEVELS)) for c in codes}
    g1, g2 = (codes[int(i)] for i in rng.choice(n_nodes - 2, size=2, replace=False))
    levels.update({g1: "HLGT", g2: "HLGT", codes[-2]: "HLT", codes[-1]: "PT"})
    meddra[codes[-2]] = (g1,)
    meddra[codes[-1]] = tuple(sorted((g1, g2)))
    ont = make_ontology(isa, codes, levels, meddra)

    def groups(code, level):
        return {a for a in bfs_ancestors(meddra, code) - {code} if levels[a] == level}

    pts = [c for c in codes if levels[c] == "PT"]
    assert groups(codes[-1], "HLGT") >= {g1, g2}
    for code in codes:
        assert ont.hlt_of(code) == groups(code, "HLT")
        own = groups(code, "HLGT")
        assert ont.meddra_groups(code, "HLGT") == own
        expected = sorted(p for p in pts if p != code and own & groups(p, "HLGT"))
        assert ont.hlgt_neighbors(code) == expected
    assert codes[-1] in ont.hlgt_neighbors(codes[-2])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(2, 30),
    st.integers(0, 3),
    st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
)
def test_pruned_similarity_equals_all_pairs(seed, n_nodes, extra_roots, min_ssm):
    rng = np.random.default_rng(seed)
    parents = random_dag(rng, n_nodes)
    codes = ["C000"] + sorted(parents)
    # Cut some nodes loose from their parents: each becomes one more root.
    for code in rng.choice(codes[1:], size=min(extra_roots, n_nodes - 1), replace=False):
        del parents[str(code)]
    pt_codes = [c for c in codes if rng.random() < 0.6]
    subset = [c for c in codes if rng.random() < 0.5]
    for pts in (pt_codes, subset):
        ont = make_ontology(parents, codes, levels={c: "PT" for c in pts})
        matrix = build_similarity(ont, min_ssm=min_ssm)
        kept = {(a, b): s for a in pts for b, s in matrix.neighbors(a) if a < b}
        assert kept == all_pairs_similarity(ont, pts, min_ssm)
        assert matrix.n_pairs() == len(kept)
        for (a, b), s in kept.items():
            assert abs(s - brute_sokal(parents, codes, a, b)) <= 1e-12


def test_similarity_rejects_negative_threshold(chain_ontology):
    # Below 0 every pair would clear the threshold, even ones with no
    # common ancestor, which the ancestor index never pairs up.
    with pytest.raises(ValidationError):
        build_similarity(chain_ontology, min_ssm=-0.1)

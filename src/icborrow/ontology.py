"""Medical-terminology graph: intrinsic information content and term similarity.

The graph mixes two edge kinds. ``ISA`` edges carry subsumption semantics and
feed the information-content and similarity computations; ``MEDDRA`` edges
carry the PT -> HLT -> HLGT -> SOC grouping used for group-based borrowing.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import CycleError, ValidationError

log = logging.getLogger(__name__)

LEVELS = ("PT", "HLT", "HLGT", "SOC", "OTHER")
EDGE_KINDS = ("ISA", "MEDDRA")


@dataclass(frozen=True)
class Concept:
    code: str
    level: str
    label: str


@dataclass
class Ontology:
    """A validated acyclic concept graph with ISA and MEDDRA parent links."""

    concepts: dict[str, Concept]
    isa_parents: dict[str, tuple[str, ...]]
    meddra_parents: dict[str, tuple[str, ...]]

    # Lazy caches; keyed structures are rebuilt on demand, never mutated after.
    _ic: dict[str, float] | None = field(default=None, repr=False)
    _ancestors: dict[str, frozenset[str]] | None = field(default=None, repr=False)
    _anc_by_ic: dict[str, tuple[str, ...]] | None = field(default=None, repr=False)
    _groups: dict[str, dict[str, frozenset[str]]] = field(default_factory=dict, repr=False)
    _group_members: dict[str, dict[str, frozenset[str]]] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.concepts)

    def pts(self) -> list[str]:
        return sorted(c.code for c in self.concepts.values() if c.level == "PT")

    # -- intrinsic information content -------------------------------------

    def intrinsic_ic(self) -> dict[str, float]:
        """Seco-style intrinsic information content per concept.

        ic(c) = 1 - log(|descendants(c)| + 1) / log(N) over ISA edges, where
        descendants exclude c itself and N is the total concept count. Leaves
        score 1, a root subsuming everything scores 0.
        """
        if self._ic is None:
            n = len(self.concepts)
            if n < 2:
                raise ValidationError(
                    "intrinsic information content needs at least 2 concepts"
                )
            counts = self._isa_descendant_counts()
            log_n = math.log(n)
            self._ic = {
                code: 1.0 - math.log(counts[code] + 1) / log_n for code in self.concepts
            }
        return self._ic

    def _isa_children(self) -> dict[str, list[str]]:
        children: dict[str, list[str]] = {code: [] for code in self.concepts}
        for child, parents in self.isa_parents.items():
            for p in parents:
                children[p].append(child)
        return children

    def _isa_descendant_counts(self) -> dict[str, int]:
        # Descendant *sets* (not subtree sums): multi-parent nodes must be
        # counted once per ancestor.
        return {code: len(s) - 1 for code, s in self._isa_descendant_sets().items()}

    def _isa_descendant_sets(self) -> dict[str, set[str]]:
        children = self._isa_children()
        order = _topo_order(self.isa_parents, self.concepts)
        desc: dict[str, set[str]] = {}
        for code in order:  # parents come after children
            s = {code}
            for ch in children[code]:
                s |= desc[ch]
            desc[code] = s
        return desc

    # -- ancestors and similarity -------------------------------------------

    def ancestors(self, code: str) -> frozenset[str]:
        """Reflexive ISA ancestor set (includes code itself)."""
        if self._ancestors is None:
            order = _topo_order(self.isa_parents, self.concepts)
            anc: dict[str, frozenset[str]] = {}
            for code_ in reversed(order):  # roots first
                s = {code_}
                for p in self.isa_parents.get(code_, ()):
                    s |= anc[p]
                anc[code_] = frozenset(s)
            self._ancestors = anc
        try:
            return self._ancestors[code]
        except KeyError:
            raise ValidationError(f"unknown concept code {code!r}") from None

    def _ancestors_by_ic(self, code: str) -> tuple[str, ...]:
        if self._anc_by_ic is None:
            self._anc_by_ic = {}
        cached = self._anc_by_ic.get(code)
        if cached is None:
            ic = self.intrinsic_ic()
            cached = tuple(sorted(self.ancestors(code), key=lambda c: (-ic[c], c)))
            self._anc_by_ic[code] = cached
        return cached

    def mica_ic(self, code_a: str, code_b: str) -> float:
        """Information content of the maximum-IC common ISA ancestor.

        Returns 0.0 when the two concepts share no ancestor.
        """
        anc_b = self.ancestors(code_b)
        for cand in self._ancestors_by_ic(code_a):  # descending IC, early exit
            if cand in anc_b:
                return self.intrinsic_ic()[cand]
        return 0.0

    def sokal_sneath(self, code_a: str, code_b: str) -> float:
        """Sokal-Sneath semantic similarity in [0, 1].

        ssm = m / (2*ic(a) + 2*ic(b) - 3*m) with m the MICA information
        content. Identical codes score 1; concepts with no common ancestor
        (or a zero-information one) score 0.
        """
        if code_a not in self.concepts or code_b not in self.concepts:
            missing = code_a if code_a not in self.concepts else code_b
            raise ValidationError(f"unknown concept code {missing!r}")
        if code_a == code_b:
            return 1.0
        m = self.mica_ic(code_a, code_b)
        if m <= 0.0:
            return 0.0
        ic = self.intrinsic_ic()
        denom = 2.0 * ic[code_a] + 2.0 * ic[code_b] - 3.0 * m
        return m / denom

    # -- MedDRA grouping -----------------------------------------------------

    def meddra_groups(self, pt: str, level: str) -> frozenset[str]:
        """Codes of the given level reachable from pt via MEDDRA edges."""
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}")
        by_level = self._groups.setdefault(level, {})
        hit = by_level.get(pt)
        if hit is None:
            if pt not in self.concepts:
                raise ValidationError(f"unknown concept code {pt!r}")
            found: set[str] = set()
            stack = [pt]
            seen = {pt}
            while stack:
                cur = stack.pop()
                for parent in self.meddra_parents.get(cur, ()):
                    if parent in seen:
                        continue
                    seen.add(parent)
                    if self.concepts[parent].level == level:
                        found.add(parent)
                    stack.append(parent)
            hit = frozenset(found)
            by_level[pt] = hit
        return hit

    def hlt_of(self, pt: str) -> frozenset[str]:
        return self.meddra_groups(pt, "HLT")

    def hlgt_neighbors(self, pt: str) -> list[str]:
        """Sorted PTs sharing at least one HLGT with pt, excluding pt itself.

        A PT with no HLGT ancestor yields an empty list and a logged warning.
        A code outside the ontology (load_reports keeps such event codes and
        warns about them) yields an empty list.
        """
        if pt not in self.concepts:
            return []
        own = self.meddra_groups(pt, "HLGT")
        if not own:
            log.warning("PT %s has no HLGT ancestor; no group neighbors", pt)
            return []
        members = self._members_index("HLGT")
        out: set[str] = set()
        for g in own:
            out |= members.get(g, frozenset())
        out.discard(pt)
        return sorted(out)

    def _members_index(self, level: str) -> dict[str, frozenset[str]]:
        idx = self._group_members.get(level)
        if idx is None:
            acc: dict[str, set[str]] = {}
            for pt in self.pts():
                for g in self.meddra_groups(pt, level):
                    acc.setdefault(g, set()).add(pt)
            idx = {g: frozenset(s) for g, s in acc.items()}
            self._group_members[level] = idx
        return idx


def _topo_order(parents: dict[str, tuple[str, ...]], concepts: dict) -> list[str]:
    """Topological order with children before parents (Kahn over child->parent)."""
    out_deg = {code: 0 for code in concepts}  # number of unprocessed children
    for child, ps in parents.items():
        for p in ps:
            out_deg[p] += 1
    ready = sorted(code for code, d in out_deg.items() if d == 0)
    order: list[str] = []
    while ready:
        code = ready.pop()
        order.append(code)
        for p in sorted(parents.get(code, ()), reverse=True):
            out_deg[p] -= 1
            if out_deg[p] == 0:
                ready.append(p)
    if len(order) != len(concepts):
        raise CycleError("cycle detected: " + _find_cycle(parents, concepts, set(order)))
    return order


def _find_cycle(parents, concepts, done: set[str]) -> str:
    # Shrink the unprocessed set to its cyclic core: drop nodes until every
    # survivor has at least one parent among the survivors.
    core = {c for c in concepts if c not in done}
    changed = True
    while changed:
        changed = False
        for code in sorted(core):
            if not any(p in core for p in parents.get(code, ())):
                core.discard(code)
                changed = True
    start = sorted(core)[0]
    path = [start]
    seen = {start}
    cur = start
    while True:
        nxt = next(p for p in parents[cur] if p in core)
        if nxt in seen:
            i = path.index(nxt)
            return " -> ".join(path[i:] + [nxt])
        seen.add(nxt)
        path.append(nxt)
        cur = nxt


def load_ontology(path: str) -> Ontology:
    """Parse and validate a tab-separated concept graph file.

    Rows are ``N <code> <level> <label>`` followed by
    ``E <child> <parent> <ISA|MEDDRA>``; ``#`` starts a comment line.
    Rejects duplicate codes, unknown levels or edge kinds, edges with
    unknown endpoints, cycles, and PTs with no parent at all.
    """
    concepts: dict[str, Concept] = {}
    isa: dict[str, list[str]] = {}
    meddra: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            tag = fields[0]
            if tag == "N":
                if len(fields) != 4:
                    raise ValidationError(
                        f"{path}:{lineno}: node row needs 4 tab-separated fields"
                    )
                _, code, level, label = fields
                if level not in LEVELS:
                    raise ValidationError(f"{path}:{lineno}: unknown level {level!r}")
                if code in concepts:
                    raise ValidationError(f"{path}:{lineno}: duplicate concept {code!r}")
                concepts[code] = Concept(code, level, label)
            elif tag == "E":
                if len(fields) != 4:
                    raise ValidationError(
                        f"{path}:{lineno}: edge row needs 4 tab-separated fields"
                    )
                _, child, parent, kind = fields
                if kind not in EDGE_KINDS:
                    raise ValidationError(f"{path}:{lineno}: unknown edge kind {kind!r}")
                for code in (child, parent):
                    if code not in concepts:
                        raise ValidationError(
                            f"{path}:{lineno}: edge references unknown code {code!r}"
                        )
                target = isa if kind == "ISA" else meddra
                target.setdefault(child, []).append(parent)
            else:
                raise ValidationError(f"{path}:{lineno}: unknown row tag {tag!r}")

    ont = Ontology(
        concepts=concepts,
        isa_parents={c: tuple(sorted(set(ps))) for c, ps in isa.items()},
        meddra_parents={c: tuple(sorted(set(ps))) for c, ps in meddra.items()},
    )
    _validate(ont)
    return ont


def _validate(ont: Ontology) -> None:
    merged: dict[str, tuple[str, ...]] = {}
    for code in ont.concepts:
        ps = tuple(ont.isa_parents.get(code, ())) + tuple(ont.meddra_parents.get(code, ()))
        if ps:
            merged[code] = ps
    _topo_order(merged, ont.concepts)  # raises CycleError on cycles
    orphans = [
        c.code
        for c in ont.concepts.values()
        if c.level == "PT" and c.code not in merged
    ]
    if orphans:
        raise ValidationError(
            "PTs with no path to a root: " + ", ".join(sorted(orphans)[:10])
        )


# -- sparse pairwise similarity ----------------------------------------------


@dataclass
class SimilarityMatrix:
    """Symmetric sparse PT-pair similarity, storing only values above min_ssm."""

    min_ssm: float
    _adj: dict[str, dict[str, float]] = field(default_factory=dict)

    def neighbors(self, pt: str) -> list[tuple[str, float]]:
        """(neighbor, ssm) pairs sorted by code; self never included."""
        return sorted(self._adj.get(pt, {}).items())

    def n_pairs(self) -> int:
        return sum(len(d) for d in self._adj.values()) // 2

    def _put(self, a: str, b: str, value: float) -> None:
        self._adj.setdefault(a, {})[b] = value
        self._adj.setdefault(b, {})[a] = value


def build_similarity(
    ont: Ontology, pts: list[str] | None = None, min_ssm: float = 0.3
) -> SimilarityMatrix:
    """Sokal-Sneath over the given PTs, keeping values > min_ssm.

    Only pairs that can clear the threshold are scored. The MICA is an
    ancestor of both codes and intrinsic IC falls strictly towards the
    root, so its IC m is at most ic(a) and ic(b); then ssm <= m / (2*ic(a) - m),
    and ssm > t needs m > 2*t*ic(a) / (1 + t). Each b > a sharing an
    ancestor above that bound with a is scored; every other pair scores at
    most t. The kept pairs and values equal those of an all-pairs scan.
    Output is independent of the input ordering of pts.
    """
    if not min_ssm >= 0.0:
        raise ValidationError(f"min_ssm must be >= 0, got {min_ssm!r}")
    codes = sorted(set(pts if pts is not None else ont.pts()))
    out = SimilarityMatrix(min_ssm=min_ssm)
    if len(codes) < 2:
        return out
    members: dict[str, list[str]] = {}  # ancestor -> sorted codes under it
    for code in codes:
        for anc in ont.ancestors(code):  # raises on an unknown code
            members.setdefault(anc, []).append(code)
    ic = ont.intrinsic_ic()
    for a in codes:
        # The slack keeps the bound conservative under rounding; a shared
        # ancestor of IC 0 gives ssm 0, which never clears min_ssm >= 0.
        floor = max(2.0 * min_ssm * ic[a] / (1.0 + min_ssm) - 1e-12, 0.0)
        candidates: set[str] = set()
        for anc in ont.ancestors(a):
            if ic[anc] > floor:
                group = members[anc]
                candidates.update(group[bisect_right(group, a) :])
        for b in sorted(candidates):
            s = ont.sokal_sneath(a, b)
            if s > min_ssm:
                out._put(a, b, s)
    return out

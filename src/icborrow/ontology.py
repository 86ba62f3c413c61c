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
from functools import cached_property

from .errors import CycleError, ValidationError, data_lines, quote

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
    """A concept graph with ISA and MEDDRA parent links.

    load_ontology checks that the two edge kinds together form no cycle.
    Every relation reads one reflexive ancestor set per code and edge kind:
    intrinsic IC counts the ISA sets that hold a code, the MICA is the
    largest IC in the intersection of two ISA sets, and MedDRA groups are
    read off the MEDDRA sets.
    """

    concepts: dict[str, Concept]
    isa_parents: dict[str, tuple[str, ...]]
    meddra_parents: dict[str, tuple[str, ...]]
    # code -> its hlgt_neighbors, filled as codes are asked for
    _hlgt_neighbor_lists: dict[str, tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.concepts)

    def pts(self) -> list[str]:
        return sorted(c.code for c in self.concepts.values() if c.level == "PT")

    @cached_property
    def _isa_closure(self) -> dict[str, frozenset[str]]:
        return _closure(self.isa_parents, self.concepts)

    @cached_property
    def _meddra_closure(self) -> dict[str, frozenset[str]]:
        return _closure(self.meddra_parents, self.concepts)

    # -- intrinsic information content -------------------------------------

    def intrinsic_ic(self) -> dict[str, float]:
        """Seco-style intrinsic information content per concept.

        ic(c) = 1 - log(|descendants(c)| + 1) / log(N) over ISA edges, where
        descendants exclude c itself and N is the total concept count. Leaves
        score 1, a root subsuming everything scores 0.
        """
        return self._ic_table

    @cached_property
    def _ic_table(self) -> dict[str, float]:
        n = len(self.concepts)
        if n < 2:
            raise ValidationError(
                "intrinsic information content needs at least 2 concepts"
            )
        # Codes whose closure holds c: its descendants plus c itself, each
        # counted once however many paths lead up to c.
        counts = dict.fromkeys(self.concepts, 0)
        for closure in self._isa_closure.values():
            for code in closure:
                counts[code] += 1
        log_n = math.log(n)
        return {code: 1.0 - math.log(counts[code]) / log_n for code in self.concepts}

    # -- ancestors and similarity -------------------------------------------

    def ancestors(self, code: str) -> frozenset[str]:
        """Reflexive ISA ancestor set (includes code itself)."""
        try:
            return self._isa_closure[code]
        except KeyError:
            raise ValidationError(f"unknown concept code {code!r}") from None

    def mica_ic(self, code_a: str, code_b: str) -> float:
        """Information content of the maximum-IC common ISA ancestor.

        Returns 0.0 when the two concepts share no ancestor.
        """
        ic = self.intrinsic_ic()
        common = self.ancestors(code_a) & self.ancestors(code_b)
        return max((ic[c] for c in common), default=0.0)

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
        """Codes of the given level reachable from pt via MEDDRA edges.

        A code outside the ontology has no groups.
        """
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}")
        return frozenset(
            code
            for code in self._meddra_closure.get(pt, ())
            if code != pt and self.concepts[code].level == level
        )

    def hlt_of(self, pt: str) -> frozenset[str]:
        return self.meddra_groups(pt, "HLT")

    def hlgt_neighbors(self, pt: str) -> list[str]:
        """Sorted PTs sharing at least one HLGT with pt, excluding pt itself.

        A code with no HLGT ancestor yields an empty list and a logged warning
        naming its level. An event coded at HLGT or SOC level has no HLGT
        ancestor, so it borrows from nobody under IC_HLGT. A code outside the
        ontology (load_reports keeps such event codes and warns about them)
        yields an empty list.

        The ontology keeps each code's list, so the warning comes once per
        code; every call returns a new list.
        """
        hit = self._hlgt_neighbor_lists.get(pt)
        if hit is None:
            hit = self._hlgt_neighbor_lists[pt] = self._find_hlgt_neighbors(pt)
        return list(hit)

    def _find_hlgt_neighbors(self, pt: str) -> tuple[str, ...]:
        if pt not in self.concepts:
            return ()
        own = self.meddra_groups(pt, "HLGT")
        if not own:
            log.warning("%s %s has no HLGT ancestor; no group neighbors",
                        self.concepts[pt].level, pt)
            return ()
        out: set[str] = set()
        for g in own:
            out.update(self._hlgt_members.get(g, ()))
        out.discard(pt)
        return tuple(sorted(out))

    @cached_property
    def _hlgt_members(self) -> dict[str, set[str]]:
        """HLGT code -> the PTs under it."""
        members: dict[str, set[str]] = {}
        for pt in self.pts():
            for g in self.meddra_groups(pt, "HLGT"):
                members.setdefault(g, set()).add(pt)
        return members


def _closure(
    parents: dict[str, tuple[str, ...]], concepts: dict
) -> dict[str, frozenset[str]]:
    """Reflexive ancestor set of every concept over one parent map."""
    closure: dict[str, frozenset[str]] = {}
    for code in _parents_first(parents, concepts):
        s = {code}
        for p in parents.get(code, ()):
            s |= closure[p]
        closure[code] = frozenset(s)
    return closure


def _parents_first(parents: dict[str, tuple[str, ...]], concepts: dict) -> list[str]:
    """Every concept once, each after all of its parents.

    An iterative depth-first walk, started from each code in sorted order and
    following each code's parents in the order given, lists a code once all
    of its parents are listed. A parent met again while still on the walk's
    open path closes a cycle: CycleError names it from that parent, child to
    parent, back to itself.
    """
    order: list[str] = []
    done: dict[str, bool] = {}  # False while on the open path, True once listed
    for start in sorted(concepts):
        if start in done:
            continue
        done[start] = False
        path = [start]
        todo = [iter(parents.get(start, ()))]
        while todo:
            for p in todo[-1]:
                if p not in done:
                    done[p] = False
                    path.append(p)
                    todo.append(iter(parents.get(p, ())))
                    break
                if not done[p]:
                    cycle = " -> ".join(path[path.index(p):] + [p])
                    raise CycleError("cycle detected: " + quote(cycle))
            else:  # every parent of the path's last code is listed
                todo.pop()
                code = path.pop()
                done[code] = True
                order.append(code)
    return order


def load_ontology(path: str) -> Ontology:
    """Parse and validate a tab-separated concept graph file.

    Rows are ``N <code> <level> <label>`` followed by
    ``E <child> <parent> <ISA|MEDDRA>``, read by ``errors.data_lines``.
    Rejects duplicate codes, unknown levels or edge kinds, edges with
    unknown endpoints, and PTs with no parent at all. ISA and MEDDRA edges
    are checked for cycles together, so a cycle that needs both kinds is
    rejected; the CycleError names the first cycle that a walk in code
    order meets (see _parents_first).
    """
    concepts: dict[str, Concept] = {}
    isa: dict[str, list[str]] = {}
    meddra: dict[str, list[str]] = {}
    for lineno, line in data_lines(path):
        fields = line.split("\t")
        tag = fields[0]
        if tag == "N":
            if len(fields) != 4:
                raise ValidationError(
                    f"{path}:{lineno}: node row needs 4 tab-separated fields"
                )
            _, code, level, label = fields
            if not code:
                raise ValidationError(f"{path}:{lineno}: empty concept code")
            if level not in LEVELS:
                raise ValidationError(f"{path}:{lineno}: unknown level {quote(level)}")
            if code in concepts:
                raise ValidationError(f"{path}:{lineno}: duplicate concept {quote(code)}")
            concepts[code] = Concept(code, level, label)
        elif tag == "E":
            if len(fields) != 4:
                raise ValidationError(
                    f"{path}:{lineno}: edge row needs 4 tab-separated fields"
                )
            _, child, parent, kind = fields
            if kind not in EDGE_KINDS:
                raise ValidationError(f"{path}:{lineno}: unknown edge kind {quote(kind)}")
            for code in (child, parent):
                if code not in concepts:
                    raise ValidationError(
                        f"{path}:{lineno}: edge references unknown code {quote(code)}"
                    )
            target = isa if kind == "ISA" else meddra
            target.setdefault(child, []).append(parent)
        else:
            raise ValidationError(f"{path}:{lineno}: unknown row tag {quote(tag)}")

    ont = Ontology(
        concepts=concepts,
        isa_parents={c: tuple(sorted(set(ps))) for c, ps in isa.items()},
        meddra_parents={c: tuple(sorted(set(ps))) for c, ps in meddra.items()},
    )
    _validate(ont)
    return ont


def _validate(ont: Ontology) -> None:
    merged = {
        code: ont.isa_parents.get(code, ()) + ont.meddra_parents.get(code, ())
        for code in ont.concepts
    }
    _parents_first(merged, ont.concepts)  # raises CycleError on cycles
    orphans = [
        c.code
        for c in ont.concepts.values()
        if c.level == "PT" and not merged[c.code]
    ]
    if orphans:
        raise ValidationError(f"PTs with no path to a root: {quote(sorted(orphans))}")


# -- sparse pairwise similarity ----------------------------------------------


@dataclass
class SimilarityMatrix:
    """Symmetric sparse PT-pair similarity, storing only values above min_ssm."""

    min_ssm: float = 0.0
    _adj: dict[str, dict[str, float]] = field(default_factory=dict)

    def neighbors(self, pt: str) -> list[tuple[str, float]]:
        """(neighbor, ssm) pairs sorted by code; self never included."""
        return sorted(self._adj.get(pt, {}).items())

    def n_pairs(self) -> int:
        return sum(len(d) for d in self._adj.values()) // 2

    def _put(self, a: str, b: str, value: float) -> None:
        self._adj.setdefault(a, {})[b] = value
        self._adj.setdefault(b, {})[a] = value


def build_similarity(ont: Ontology, *, min_ssm: float) -> SimilarityMatrix:
    """Sokal-Sneath over the ontology's PTs, keeping values > min_ssm.

    ``min_ssm`` has no default here: a screen's cutoff is its
    ``RunConfig.min_ssm``, and the matrix must be built at or below it.

    Only pairs that can clear the threshold are scored. The MICA is an
    ancestor of both codes and intrinsic IC falls strictly towards the
    root, so its IC m is at most ic(a) and ic(b); then ssm <= m / (2*ic(a) - m),
    and ssm > t needs m > 2*t*ic(a) / (1 + t). Each b > a sharing an
    ancestor above that bound with a is scored; every other pair scores at
    most t. The kept pairs and values equal those of an all-pairs scan.
    """
    if not min_ssm >= 0.0:
        raise ValidationError(f"min_ssm must be >= 0, got {min_ssm!r}")
    codes = ont.pts()
    out = SimilarityMatrix(min_ssm)
    if len(codes) < 2:
        return out
    members: dict[str, list[str]] = {}  # ancestor -> sorted codes under it
    for code in codes:
        for anc in ont.ancestors(code):
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

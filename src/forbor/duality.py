"""Digraph homomorphisms, cores, and bounded duality verification.

A duality pair (A, B) asserts that the digraphs admitting no homomorphism
from A are exactly those mapping into B; the generalized form replaces
both sides by finite sets.  Verification here is brute force over the
canonical universe of digraphs up to a vertex bound: each universe member
is tested on both sides and the first violation is returned with
re-verified certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import (
    Digraph, WorkBudgetExceeded, _embed, connected_components, enumerate_digraphs,
    induced_subdigraph, is_isomorphic,
)

HOM_BUDGET = 10_000_000
CORE_LIMIT = 8


@dataclass(frozen=True)
class HomWitness:
    """Arc-preserving vertex map, stored as a tuple indexed by source vertex."""

    mapping: tuple

    def verify(self, source: Digraph, target: Digraph) -> bool:
        if len(self.mapping) != source.n:
            return False
        if any(not 0 <= w < target.n for w in self.mapping):
            return False
        return all((self.mapping[u], self.mapping[v]) in target.arcs
                   for u, v in source.arcs)

    def compose(self, then: "HomWitness") -> "HomWitness":
        return HomWitness(tuple(then.mapping[w] for w in self.mapping))


def hom_exists(d1: Digraph, d2: Digraph,
               budget: int = HOM_BUDGET) -> HomWitness | None:
    """First homomorphism d1 -> d2 in deterministic order, or None.

    One run of graphs._embed: d1's vertices in decreasing degree order,
    target values ascending.  Placing v at w narrows each later neighbour's
    domain to w's out- or in-neighbours (d1._hom_checks into d2._hom_host),
    so a value left in a domain agrees with every placed neighbour.  Each
    value tried counts against budget.  The witness reads the images by
    vertex through d1._rank, the inverse of d1._order, built once per value.
    """
    images = _hom_images(d1, d2, (1 << d2.n) - 1, budget)
    if images is None:
        return None
    return HomWitness(tuple(map(images.__getitem__, d1._rank)))


def _hom_images(d1, d2, domain, budget):
    """_embed's images for the first hom d1 -> d2 with every image in the
    vertex mask domain, or None."""
    try:
        return _embed(d2._hom_host, d1._hom_checks, [domain] * d1.n, budget)
    except WorkBudgetExceeded:
        raise WorkBudgetExceeded(f"hom search exceeded {budget} nodes") from None


def is_hom_equivalent(d1: Digraph, d2: Digraph) -> bool:
    return hom_exists(d1, d2) is not None and hom_exists(d2, d1) is not None


def core_of(d: Digraph, limit: int = CORE_LIMIT) -> Digraph:
    """Minimum-order induced subdigraph hom-equivalent to d.

    d maps into d[S] exactly when some self-map of d has every image in S,
    so each vertex set S is one hom search into d itself, trying values in
    hom_exists(d, d[S])'s order; d[S] is built only for the sets that pass.
    All minimum candidates are compared pairwise to confirm the core is
    unique up to isomorphism before one is returned.
    """
    if d.n > limit:
        raise ValueError(f"core computation is exhaustive, capped at {limit} vertices")
    for size in range(d.n + 1):
        found = [induced_subdigraph(d, subset) for subset in combinations(range(d.n), size)
                 if _hom_images(d, d, sum(1 << v for v in subset), HOM_BUDGET) is not None]
        if found:
            first = found[0]
            if any(not is_isomorphic(first, other) for other in found[1:]):
                raise AssertionError("minimum retracts disagree up to isomorphism")
            return first
    raise AssertionError("unreachable: d is hom-equivalent to itself")


def is_oriented_forest(d: Digraph) -> bool:
    """No symmetric arc pair and an acyclic underlying graph."""
    if any((v, u) in d.arcs for u, v in d.arcs):
        return False
    return len(d.arcs) == d.n - len(connected_components(d))


def is_oriented_tree(d: Digraph) -> bool:
    return is_oriented_forest(d) and len(connected_components(d)) == 1


def minimal_elements(F):
    """Members D such that anything in F mapping to D also receives D."""
    F = list(F)
    out = []
    for d in F:
        if all(hom_exists(d, d2) is not None
               for d2 in F if hom_exists(d2, d) is not None):
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# duality verification over bounded universes


@dataclass(frozen=True)
class DualityReport:
    """Outcome of a bounded duality check.

    With counterexample None the pair held on every universe member up to
    holds_up_to vertices.  Otherwise lhs_witnesses[i] carries the hom from
    the i-th forbidden digraph into the counterexample (None = certified
    absence by exhaustion) and rhs_witnesses[j] the hom from the
    counterexample into the j-th target.
    """

    holds_up_to: int
    counterexample: Digraph | None = None
    lhs_witnesses: tuple = ()
    rhs_witnesses: tuple = ()

    @property
    def holds(self) -> bool:
        return self.counterexample is None


def verify_generalized_duality(F, M, n_max: int = 4) -> DualityReport:
    """Check the duality over every canonical digraph on <= n_max vertices.

    The claim under test: a digraph receives no member of F exactly when
    it maps into some member of M.  Returns the first violation in
    canonical order, certificates verified.  An n_max below 1 or past the
    enumeration cap raises ValueError before any scan.
    """
    forb = tuple(F)
    targets = tuple(M)
    enumerate_digraphs(n_max)
    for n in range(1, n_max + 1):
        for D in enumerate_digraphs(n):
            lhs = tuple(hom_exists(h, D) for h in forb)
            rhs = tuple(hom_exists(D, m) for m in targets)
            if all(w is None for w in lhs) == any(w is not None for w in rhs):
                continue
            for h, w in zip(forb, lhs):
                if w is not None and not w.verify(h, D):
                    raise AssertionError("forbidden-side certificate failed")
            for m, w in zip(targets, rhs):
                if w is not None and not w.verify(D, m):
                    raise AssertionError("target-side certificate failed")
            return DualityReport(holds_up_to=n_max, counterexample=D,
                                 lhs_witnesses=lhs, rhs_witnesses=rhs)
    return DualityReport(holds_up_to=n_max)


def verify_duality_pair(a: Digraph, b: Digraph, n_max: int = 4) -> DualityReport:
    """Check that (a, b) is a duality pair over digraphs on <= n_max vertices."""
    return verify_generalized_duality((a,), (b,), n_max)


def known_duality_catalog():
    """Small catalog of path/tournament duality pairs with verified bounds.

    Each entry is (name, source, target, bound): the directed path on k
    arcs against the acyclic tournament on k vertices, shipped as fixtures
    for tests and demos.
    """
    from .graphs import directed_path, transitive_tournament
    return tuple(
        (f"path{k + 1}-tournament{k}", directed_path(k), transitive_tournament(k), 4)
        for k in (1, 2, 3))

import random
from itertools import combinations

import pytest

import forbor
from conftest import all_labelled_digraphs, arc, c3, first_hom_oracle, p3, p4, tt3

from forbor import (
    Digraph, Graph, HomWitness, OrientedGraph, WorkBudgetExceeded, core_of,
    directed_cycle, directed_path, disjoint_union, enumerate_digraphs, hom_exists,
    induced_subdigraph, is_hom_equivalent,
    is_isomorphic, is_oriented_forest, is_oriented_tree, known_duality_catalog,
    minimal_elements, transitive_tournament, verify_duality_pair,
    verify_generalized_duality,
)


def test_hom_exists_basics():
    assert hom_exists(p3(), transitive_tournament(2)) is None
    assert hom_exists(c3(), tt3()) is None
    w = hom_exists(tt3(), tt3())
    assert w is not None and w.verify(tt3(), tt3())
    # directed path folds into a long enough cycle
    assert hom_exists(directed_path(3), directed_cycle(4)) is not None
    # the empty digraph maps anywhere, by the empty map
    assert hom_exists(Digraph(0), directed_path(2)) == HomWitness(())


def test_hom_exists_exhaustive_check():
    # independent verification that no map works: all 8 maps fail
    from itertools import product
    src, dst = p3(), transitive_tournament(2)
    assert not any(
        all((m[u], m[v]) in dst.arcs for u, v in src.arcs)
        for m in product(range(2), repeat=3))
    assert hom_exists(src, dst) is None


def test_hom_witnesses_compose():
    f = hom_exists(arc(), p3())
    g = hom_exists(p3(), tt3())
    assert f and g
    composed = f.compose(g)
    assert composed.verify(arc(), tt3())
    assert not HomWitness((0, 1)).verify(tt3(), tt3())         # wrong length
    assert not HomWitness((0, 1, 3)).verify(tt3(), tt3())      # image out of range


def test_hom_exists_on_long_source():
    # deeper than Python's recursion limit: the search keeps its own stack
    src, dst = directed_path(1500), directed_cycle(3)
    w = hom_exists(src, dst)
    assert w is not None and w.verify(src, dst)
    # a sparse source gets one check per arc, never a table of all pairs
    src = directed_path(3000)
    w = hom_exists(src, dst)
    assert w is not None and w.verify(src, dst)
    assert sum(map(len, src._hom_checks)) == len(src.arcs)
    src, dst = directed_path(1100), transitive_tournament(1101)
    w = hom_exists(src, dst)
    assert w is not None and w.verify(src, dst)


def test_hom_budget():
    big1 = transitive_tournament(6)
    big2 = transitive_tournament(5)
    with pytest.raises(WorkBudgetExceeded):
        hom_exists(big1, big2, budget=3)
    assert forbor.WorkBudgetExceeded is forbor.graphs.WorkBudgetExceeded


def test_hom_exists_first_map_matches_oracle():
    smalls = [d for n in (1, 2, 3) for d in enumerate_digraphs(n)]
    fours = enumerate_digraphs(4)
    pairs = [(a, b) for a in smalls for b in smalls]
    pairs += [(a, b) for a in fours for b in smalls]
    pairs += [(a, b) for a in smalls for b in fours]
    for d1, d2 in pairs:
        w = hom_exists(d1, d2)
        assert (w.mapping if w else None) == first_hom_oracle(d1, d2)


def _random_digraph(rng, n, p):
    return Digraph(n, frozenset((u, v) for u in range(n) for v in range(n)
                                if u != v and rng.random() < p))


def _work(d1, d2):
    """The work hom_exists spends on d1 -> d2: its smallest passing budget."""
    lo, hi = 0, 1
    while True:
        try:
            hom_exists(d1, d2, budget=hi)
            break
        except WorkBudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            hom_exists(d1, d2, budget=mid)
            hi = mid
        except WorkBudgetExceeded:
            lo = mid
    return hi


#: work of hom_exists on the pairs below, taken from the search that filtered
#: whole domain lists value by value (the same order, so the same counts)
WORK = [4, 8, 13, 5, 48, 70, 128, 64, 9, 10, 21, 21]


def test_hom_exists_work_is_pinned():
    rng = random.Random(1100)
    k5, k4 = (Digraph(n, frozenset((u, v) for u in range(n) for v in range(n) if u != v))
              for n in (5, 4))
    pairs = [
        (c3(), tt3()),
        (directed_cycle(5), transitive_tournament(4)),
        (directed_path(12), directed_cycle(3)),
        (transitive_tournament(5), transitive_tournament(6)),
        (directed_cycle(7), disjoint_union(directed_cycle(3), directed_cycle(5))),
        (directed_cycle(11), disjoint_union(directed_cycle(3), directed_cycle(4))),
        (directed_path(8), transitive_tournament(8)),
        (k5, k4),
    ] + [(_random_digraph(rng, 8, 0.25), _random_digraph(rng, 7, 0.3)) for _ in range(4)]
    assert [_work(d1, d2) for d1, d2 in pairs] == WORK


def test_core_of():
    assert is_isomorphic(core_of(tt3()), tt3())
    doubled = disjoint_union(directed_path(1), directed_path(1))
    assert is_isomorphic(core_of(doubled), directed_path(1))
    assert core_of(Digraph(1)).n == 1
    assert core_of(Digraph(0)) == Digraph(0)
    # an empty graph gets its symmetric digraph core, like every other graph
    assert type(core_of(Graph(0))) is Digraph and core_of(Graph(0)) == Digraph(0)
    assert type(core_of(OrientedGraph(0))) is OrientedGraph
    assert core_of(OrientedGraph(0)) == OrientedGraph(0)
    with pytest.raises(ValueError):
        core_of(Digraph(9))


def test_core_idempotent_and_equivalent():
    for d in (tt3(), c3(), disjoint_union(p3(), directed_path(1)),
              directed_cycle(4)):
        c = core_of(d)
        assert is_hom_equivalent(c, d)
        assert is_isomorphic(core_of(c), c)


def test_core_order_is_the_raw_minimum(monkeypatch):
    # core_of builds d[S] only for vertex sets S that d maps into
    import forbor.duality as duality
    built = []

    def recording(d, subset):
        built.append((d, subset))
        return induced_subdigraph(d, subset)

    monkeypatch.setattr(duality, "induced_subdigraph", recording)
    for n in range(1, 4):
        for d in all_labelled_digraphs(n):
            least = next(size for size in range(1, n + 1)
                         if any(first_hom_oracle(d, induced_subdigraph(d, s)) is not None
                                for s in combinations(range(n), size)))
            assert core_of(d).n == least
    assert built and all(first_hom_oracle(d, induced_subdigraph(d, s)) is not None
                         for d, s in built)


def test_is_hom_equivalent():
    assert is_hom_equivalent(disjoint_union(directed_path(1), directed_path(1)),
                             directed_path(1))
    assert not is_hom_equivalent(c3(), tt3())
    assert is_hom_equivalent(c3(), c3())


def test_oriented_forest_and_tree():
    assert is_oriented_tree(directed_path(3))
    assert not is_oriented_forest(c3())
    two = disjoint_union(directed_path(1), directed_path(1))
    assert is_oriented_forest(two) and not is_oriented_tree(two)
    assert not is_oriented_forest(Digraph(2, frozenset({(0, 1), (1, 0)})))


def test_minimal_elements():
    ms = minimal_elements([directed_path(1), p3()])
    assert len(ms) == 1 and ms[0].n == 2
    assert minimal_elements([tt3()]) == [tt3()]
    both = minimal_elements([c3(), tt3()])
    assert len(both) == 2


def test_duality_catalog_holds():
    for name, a, b, bound in known_duality_catalog():
        report = verify_duality_pair(a, b, bound)
        assert report.holds, name
        assert report.holds_up_to == bound


def test_duality_single_vertex_pair():
    report = verify_duality_pair(directed_path(1), Digraph(1), 4)
    assert report.holds


def test_duality_counterexample_certificates():
    report = verify_duality_pair(c3(), transitive_tournament(2), 4)
    assert not report.holds
    D = report.counterexample
    assert hom_exists(c3(), D) is None and hom_exists(D, transitive_tournament(2)) is None
    # the 5-cycle violates the same pair, independently of universe order
    five = directed_cycle(5)
    assert hom_exists(c3(), five) is None
    assert hom_exists(five, transitive_tournament(2)) is None


def test_nonforests_never_form_duality_pairs():
    smalls = [d for n in (1, 2, 3) for d in enumerate_digraphs(n)]
    nonforests = [d for d in smalls if not is_oriented_forest(d)]
    assert nonforests
    for a in nonforests:
        for b in smalls:
            report = verify_duality_pair(a, b, 5)
            assert not report.holds, (a, b)


def test_catalog_sources_are_tree_cores():
    for name, a, b, bound in known_duality_catalog():
        assert is_oriented_tree(core_of(a))


def test_generalized_duality():
    assert verify_generalized_duality((directed_path(1),), (Digraph(1),), 4).holds
    for k in (2, 3):
        rep = verify_generalized_duality(
            (directed_path(k),), (transitive_tournament(k),), 4)
        assert rep.holds


def test_duality_bounds_outside_the_universe_are_refused():
    # no verdict over an empty universe, and the cap error names the bound given
    for n in (0, -2):
        with pytest.raises(ValueError, match="need at least one vertex"):
            verify_duality_pair(c3(), transitive_tournament(2), n)
    with pytest.raises(ValueError, match=r"enumeration bound exceeded: 9 > 5"):
        verify_duality_pair(c3(), transitive_tournament(2), 9)


def _first_separating_oracle(F, M, n_max):
    """First universe member, in enumeration order, on which "receives no
    member of F" and "maps into some member of M" disagree, with both sides'
    brute-force maps; None if there is none."""
    for n in range(1, n_max + 1):
        for D in enumerate_digraphs(n):
            lhs = tuple(first_hom_oracle(h, D) for h in F)
            rhs = tuple(first_hom_oracle(D, m) for m in M)
            if all(w is None for w in lhs) != any(w is not None for w in rhs):
                return D, lhs, rhs
    return None


DIGON = Digraph(2, frozenset({(0, 1), (1, 0)}))


# C3/digon and C4/TT2 have three separating members on their first level
@pytest.mark.parametrize("F, M, holds", [
    ((c3(),), (transitive_tournament(2),), False),
    ((tt3(),), (tt3(),), False),
    ((p3(),), (transitive_tournament(2),), True),
    ((c3(),), (DIGON,), False),
    ((directed_cycle(4),), (transitive_tournament(2),), False),
    ((c3(), p4()), (transitive_tournament(2), DIGON), False),
])
def test_generalized_duality_reports_the_first_separating_member(F, M, holds):
    for n_max in (3, 4):
        rep = verify_generalized_duality(F, M, n_max)
        first = _first_separating_oracle(F, M, n_max)
        assert rep.holds == holds == (first is None)
        assert rep.holds_up_to == n_max
        if first is not None:
            D, lhs, rhs = first
            assert rep.counterexample == D
            assert tuple(w and w.mapping for w in rep.lhs_witnesses) == lhs
            assert tuple(w and w.mapping for w in rep.rhs_witnesses) == rhs


def test_no_finite_target_for_transitive_triangle():
    # spot check: the triangle-with-pendant-digon target survives at bound 4
    # and falls at bound 5; a plain tournament target falls immediately
    tricky = Digraph(4, frozenset({(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)}))
    assert verify_generalized_duality((tt3(),), (tricky,), 4).holds
    rep = verify_generalized_duality((tt3(),), (tricky,), 5)
    assert not rep.holds
    assert not verify_generalized_duality((tt3(),), (tt3(),), 4).holds

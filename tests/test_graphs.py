import hashlib
import math
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

import forbor
from conftest import all_labelled_digraphs, iso_oracle, max_independent_set, induced_cycle_lengths
from conftest import first_hom_oracle, graph_iso_oracle, induced_embeddings_oracle
from conftest import least_relabelling_oracle, orbit_minima_oracle, relabelling_moves
from conftest import topological_order_oracle
from conftest import arc, b1, c3, p3, tt3

from forbor import (
    Digraph, ForbiddenSet, Graph, OrientedGraph, Orientation, canonical_form, complete_graph,
    connected_components, contains_induced, core_of, coupling, directed_cycle,
    directed_path, disjoint_union,
    enumerate_digraphs, enumerate_graphs, girth, graph_union, graphs_isomorphic,
    hom_exists, is_acyclic, is_isomorphic, make_cycle, make_path, orientations_of,
    transitive_tournament, underlying,
)
from forbor.graphs import graph_canonical_form


def test_invariants_reject_bad_values():
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Digraph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        OrientedGraph(2, frozenset({(0, 1), (1, 0)}))
    # a digon is fine for a plain digraph
    assert len(Digraph(2, frozenset({(0, 1), (1, 0)})).arcs) == 2


P2 = make_path(2)

#: every invalid input names its first offending item, in the set's
#: iteration order, and checks run in the order listed: the order, then
#: integer type, range, loop, symmetric pair; for orientations, non-edge
#: arc, edge oriented twice, then missing edge
BAD_VALUES = [
    (lambda: Graph(2, frozenset({(0, 3)})), "vertex 3 out of range [0, 2)"),
    (lambda: Graph(2, frozenset({(3, 0)})), "vertex 3 out of range [0, 2)"),
    (lambda: Graph(2, frozenset({(-1, 1)})), "vertex -1 out of range [0, 2)"),
    (lambda: Graph(2, frozenset({(1, 1)})), "loop at vertex 1"),
    (lambda: Graph(3, frozenset({(0, 0), (1, 1), (2, 2)})), "loop at vertex 1"),
    (lambda: Graph(3, frozenset({(5, 5)})), "vertex 5 out of range [0, 3)"),
    (lambda: Digraph(3, frozenset({(0, 5)})), "vertex 5 out of range [0, 3)"),
    (lambda: Digraph(3, frozenset({(4, 0)})), "vertex 4 out of range [0, 3)"),
    (lambda: Digraph(3, frozenset({(-1, 0)})), "vertex -1 out of range [0, 3)"),
    (lambda: Digraph(3, frozenset({(1, 1)})), "loop at vertex 1"),
    (lambda: Digraph(3, frozenset({(0, 0), (1, 1), (2, 2)})), "loop at vertex 1"),
    (lambda: Digraph(3, frozenset({(5, 5)})), "vertex 5 out of range [0, 3)"),
    (lambda: Digraph(3, frozenset({(0, 1), (2, 2), (1, 7)})), "vertex 7 out of range [0, 3)"),
    (lambda: OrientedGraph(2, frozenset({(0, 1), (1, 0)})),
     "symmetric arc pair between 0 and 1"),
    (lambda: OrientedGraph(3, frozenset({(0, 1), (1, 0), (2, 1), (1, 2)})),
     "symmetric arc pair between 0 and 1"),
    (lambda: OrientedGraph(3, frozenset({(0, 1), (1, 0), (2, 2)})), "loop at vertex 2"),
    (lambda: OrientedGraph(3, frozenset({(0, 1), (1, 0), (2, 9)})),
     "vertex 9 out of range [0, 3)"),
    (lambda: Orientation(P2, frozenset({(0, 1)})), "not every edge received a direction"),
    (lambda: Orientation(P2, frozenset({(0, 1), (1, 2), (0, 2)})),
     "arc (0, 2) is not an edge of the base graph"),
    (lambda: Orientation(P2, frozenset({(0, 1), (2, 1), (0, 5)})),
     "arc (0, 5) is not an edge of the base graph"),
    (lambda: Orientation(P2, frozenset({(0, 1), (1, 0), (1, 2)})), "edge (0, 1) oriented twice"),
    (lambda: Orientation(P2, frozenset({(0, 1), (1, 0)})), "edge (0, 1) oriented twice"),
    (lambda: Orientation(P2, frozenset({(0, 1), (1, 0), (2, 0)})), "edge (0, 1) oriented twice"),
    (lambda: Orientation(P2, frozenset({(1, 0), (2, 1), (1, 2)})), "edge (1, 2) oriented twice"),
    (lambda: Digraph(3, frozenset({(0, 1.5)})), "vertex 1.5 of pair (0, 1.5) is not an integer"),
    (lambda: Digraph(3, frozenset({(1.0, 2)})), "vertex 1.0 of pair (1.0, 2) is not an integer"),
    (lambda: Digraph(3, [(0, 1), (True, 2)]), "vertex True of pair (True, 2) is not an integer"),
    (lambda: Digraph(3, [(1.5, 9)]), "vertex 1.5 of pair (1.5, 9) is not an integer"),
    (lambda: Digraph(3, [(0, 1), ("1", 2)]), "vertex '1' of pair ('1', 2) is not an integer"),
    (lambda: Graph(3, [(0, True)]), "vertex True of pair (0, True) is not an integer"),
    (lambda: Graph(3, [(0, 1), (2.5, 1)]), "vertex 2.5 of pair (1, 2.5) is not an integer"),
    (lambda: OrientedGraph(3, [(0, 1), (1, False)]),
     "vertex False of pair (1, False) is not an integer"),
    (lambda: Graph(3, [(0, 'a')]), "vertex 'a' of pair (0, 'a') is not an integer"),
    (lambda: Orientation(P2, [(0, 1.0), (True, 2)]),
     "vertex 1.0 of pair (0, 1.0) is not an integer"),
    (lambda: Orientation(P2, [(0, 1), (2, True)]),
     "vertex True of pair (2, True) is not an integer"),
    (lambda: Orientation(P2, [(1, 0), ('2', 1)]), "vertex '2' of pair ('2', 1) is not an integer"),
    (lambda: Graph(-1), "order -1 is not a non-negative integer"),
    (lambda: Digraph(-2), "order -2 is not a non-negative integer"),
    (lambda: Graph(2.5, [(0, 1)]), "order 2.5 is not a non-negative integer"),
    (lambda: Graph(True), "order True is not a non-negative integer"),
    (lambda: OrientedGraph(-1, [(0, 0)]), "order -1 is not a non-negative integer"),
    (lambda: Graph("3", [(0, 'a')]), "order '3' is not a non-negative integer"),
    (lambda: Digraph(2.0, frozenset({(0, 1)})), "order 2.0 is not a non-negative integer"),
]


@pytest.mark.parametrize("build, message", BAD_VALUES)
def test_constructors_reject_with_exact_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_constructors_normalise_arcs_to_tuples():
    values = [(Graph(3, [[2, 0], (1, 2)]).edges, {(0, 2), (1, 2)}),
              (Digraph(2, [[0, 1], (1, 0)]).arcs, {(0, 1), (1, 0)}),
              (OrientedGraph(3, [[0, 1], [2, 1]]).arcs, {(0, 1), (2, 1)}),
              (Orientation(P2, [[1, 0], [1, 2]]).arcs, {(1, 0), (1, 2)})]
    for got, want in values:
        assert type(got) is frozenset and got == want
        assert all(type(a) is tuple for a in got)


def test_make_path():
    assert make_path(0).n == 1 and not make_path(0).edges
    assert make_path(1).n == 2 and len(make_path(1).edges) == 1
    g = make_path(3)
    assert g.n == 4 and len(g.edges) == 3
    assert sorted(g.degree(v) for v in range(4)).count(1) == 2
    with pytest.raises(ValueError):
        make_path(-1)
    with pytest.raises(ValueError, match="arc count must be >= 0"):
        directed_path(-1)


def test_make_cycle():
    t = make_cycle(3)
    assert t.n == 3 and len(t.edges) == 3
    assert girth(make_cycle(4)) == 4
    # independence number of the 5-cycle, by exhaustive subset check
    assert max_independent_set(make_cycle(5)) == 2
    assert all(make_cycle(5).degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        make_cycle(2)
    with pytest.raises(ValueError, match="a directed cycle needs at least 3 arcs"):
        directed_cycle(2)
    with pytest.raises(ValueError, match="need at least one vertex"):
        transitive_tournament(0)


def test_coupling():
    bowtie = coupling(3, 3)
    assert bowtie.n == 5 and len(bowtie.edges) == 6
    g44 = coupling(4, 4)
    assert g44.n == 7 and len(g44.edges) == 8
    # exactly one vertex of degree 4 (the identified one)
    for g in (bowtie, g44, coupling(5, 6)):
        degs = sorted(g.degree(v) for v in range(g.n))
        assert degs.count(4) == 1 and set(degs) == {2, 4}
    assert induced_cycle_lengths(coupling(5, 6)) == {5, 6}
    with pytest.raises(ValueError):
        coupling(2, 5)


def test_contains_induced_in_tournament():
    t = tt3()
    hit = contains_induced(arc(), t)
    assert hit is not None and t.has_arc(hit[0], hit[1])
    # every 3-subset of TT3 induces TT3 itself, so neither pattern below fits
    for sub in combinations(range(3), 3):
        assert iso_oracle(Digraph(3, t.arcs), t)
    assert contains_induced(b1(), t) is None
    assert contains_induced(p3(), t) is None


def test_contains_induced_requires_exact_pattern():
    # a directed path is a subgraph of TT3 but not an induced one; on C4's
    # orientation it appears induced
    four = OrientedGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    assert contains_induced(p3(), four) is not None


def test_orientations_of_k3():
    k3 = complete_graph(3)
    allo = list(orientations_of(k3))
    assert len(allo) == 8
    # independent count of directed triangles among them
    triangles = [o for o in allo
                 if all(len(o.oriented_graph().out_neighbours(v)) == 1 for v in range(3))]
    assert len(triangles) == 2
    assert len(list(orientations_of(k3, acyclic_only=True))) == 8 - 2


def test_orientations_of_tree_all_acyclic():
    tree = make_path(4)
    assert len(list(orientations_of(tree, acyclic_only=True))) == 2 ** 4


def test_orientations_deterministic_order():
    g = make_path(2)
    first = next(iter(orientations_of(g)))
    assert sorted(first.arcs) == [(0, 1), (1, 2)]
    assert [sorted(o.arcs) for o in orientations_of(g)] == \
        [sorted(o.arcs) for o in orientations_of(g)]


def test_order_zero_stays_valid():
    for d in (Graph(0), Digraph(0), OrientedGraph(0)):
        assert d.n == 0 and not d.arcs and is_acyclic(d)
        assert canonical_form(d).n == 0 and connected_components(d) == []
    assert [o.arcs for o in orientations_of(Graph(0))] == [frozenset()]


def test_orientation_validation():
    g = make_path(2)
    with pytest.raises(ValueError):
        Orientation(g, frozenset({(0, 1)}))  # second edge undirected
    with pytest.raises(ValueError):
        Orientation(g, frozenset({(0, 1), (1, 2), (0, 2)}))


def test_orientation_direction_lookup():
    o = Orientation(make_path(2), frozenset({(1, 0), (1, 2)}))
    assert o.direction(0, 1) == (1, 0)
    assert o.direction(2, 1) == (1, 2)
    with pytest.raises(KeyError):
        o.direction(0, 2)


def test_is_acyclic():
    assert is_acyclic(tt3())
    assert not is_acyclic(c3())
    assert not is_acyclic(Digraph(2, frozenset({(0, 1), (1, 0)})))


def _agrees_with_topological_order(d):
    order = topological_order_oracle(d)
    if order is not None:
        position = {v: i for i, v in enumerate(order)}
        assert sorted(order) == list(range(d.n))
        assert all(position[u] < position[v] for u, v in d.arcs)
    return is_acyclic(d) == (order is not None)


def test_is_acyclic_agrees_with_oracle_on_small_digraphs():
    """Every labelled digraph on at most 4 vertices, digons included."""
    assert all(_agrees_with_topological_order(d)
               for n in range(5) for d in all_labelled_digraphs(n))


def test_is_acyclic_agrees_with_oracle_on_random_digraphs(rng):
    """Random digraphs up to 10 vertices, and random DAGs with and without one back arc."""
    for _ in range(300):
        n = rng.randint(1, 10)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        d = Digraph(n, frozenset(a for a in pairs if rng.random() < rng.uniform(0.05, 0.4)))
        assert _agrees_with_topological_order(d)
        rank = rng.sample(range(n), n)
        dag = {(u, v) for u, v in pairs if rank[u] < rank[v] and rng.random() < 0.4}
        assert _agrees_with_topological_order(Digraph(n, frozenset(dag)))
        if dag:
            u, v = rng.choice(sorted(dag))
            assert _agrees_with_topological_order(Digraph(n, frozenset(dag | {(v, u)})))
            assert _agrees_with_topological_order(Digraph(n, frozenset(dag - {(u, v)} | {(v, u)})))


def test_is_acyclic_agrees_with_oracle_on_long_and_dense_digraphs():
    path, tt = directed_path(2000), transitive_tournament(60)
    for d in (path, tt):
        assert _agrees_with_topological_order(d)
        assert is_acyclic(d)
    closed = Digraph(path.n, path.arcs | {(2000, 0)})
    flipped = Digraph(tt.n, tt.arcs - {(0, 59)} | {(59, 0)})
    for d in (closed, flipped):
        assert _agrees_with_topological_order(d)
        assert not is_acyclic(d)


def test_girth():
    assert girth(make_cycle(5)) == 5
    assert girth(make_path(6)) == math.inf
    assert girth(coupling(3, 5)) == 3
    assert girth(complete_graph(4)) == 3


def test_girth_of_couplings_matches_induced_cycles():
    for r in range(3, 9):
        for s in range(3, 9):
            g = coupling(r, s)
            assert girth(g) == min(r, s)
    assert girth(coupling(4, 7)) == min(induced_cycle_lengths(coupling(4, 7)))


def test_enumerate_digraphs_counts():
    assert len(enumerate_digraphs(1)) == 1
    assert len(enumerate_digraphs(2)) == 3
    assert len(enumerate_digraphs(3)) == 16
    assert len(enumerate_digraphs(2, oriented_only=True)) == 2
    with pytest.raises(ValueError):
        enumerate_digraphs(6)


def test_enumerate_digraphs_against_exhaustive_oracle():
    # group all 2^6 labelled digraphs on 3 vertices by permutation-oracle
    # isomorphism and compare the class count
    classes = []
    for d in all_labelled_digraphs(3):
        if not any(iso_oracle(d, rep) for rep in classes):
            classes.append(d)
    assert len(classes) == len(enumerate_digraphs(3)) == 16


def test_enumerate_digraphs_pairwise_noniso_and_orbit_sizes():
    for n in (2, 3):
        reps = enumerate_digraphs(n)
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert not iso_oracle(a, b)
        # orbit-stabilizer bookkeeping: labelled digraphs partition into orbits
        total = 0
        for rep in reps:
            from itertools import permutations
            orbit = {tuple(sorted((p[u], p[v]) for u, v in rep.arcs))
                     for p in permutations(range(n))}
            total += len(orbit)
        assert total == 2 ** (n * (n - 1))


def test_enumerate_graphs_counts():
    assert [len(enumerate_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def _mask(slots, pairs):
    return sum(1 << slots.index(p) for p in pairs)


def test_universes_are_orbit_minima_in_mask_order():
    for n in range(1, 5):
        slots = [(u, v) for u in range(n) for v in range(n) if u != v]
        minima = orbit_minima_oracle(n, slots)
        assert [_mask(slots, d.arcs) for d in enumerate_digraphs(n)] == minima
        oriented = [m for m in minima
                    if not any(m >> slots.index((v, u)) & 1
                               for i, (u, v) in enumerate(slots) if m >> i & 1)]
        assert [_mask(slots, d.arcs)
                for d in enumerate_digraphs(n, oriented_only=True)] == oriented
    for n in range(1, 6):
        slots = list(combinations(range(n), 2))
        assert [_mask(slots, g.edges) for g in enumerate_graphs(n)] == \
            orbit_minima_oracle(n, slots)


def test_sampled_digraphs_on_five_vertices_reduce_to_universe_members():
    """The n <= 4 oracle above scans every labelled mask; on 5 vertices a
    seeded sample of labelled digraphs, half of them oriented, is
    relabelled all 120 ways, and its least mask must be a universe member
    (an oriented one when the digraph is oriented).  A sample of members
    must each be the least mask of its own orbit."""
    rng = random.Random(5)
    slots = [(u, v) for u in range(5) for v in range(5) if u != v]
    moves = relabelling_moves(5, slots)
    minima = {_mask(slots, d.arcs) for d in enumerate_digraphs(5)}
    oriented = {_mask(slots, d.arcs) for d in enumerate_digraphs(5, oriented_only=True)}
    for i in range(300):
        density = rng.random()
        if i % 2:
            pairs = [rng.choice(((u, v), (v, u))) for u, v in combinations(range(5), 2)
                     if rng.random() < density]
        else:
            pairs = [s for s in slots if rng.random() < density]
        least = least_relabelling_oracle(moves, _mask(slots, pairs))
        assert least in (oriented if i % 2 else minima)
    for m in rng.sample(sorted(minima), 200):
        assert least_relabelling_oracle(moves, m) == m


#: sha256 of the graphs on 7 vertices in order, pinned from the build that
#: tested every candidate against every permutation from scratch
GRAPHS_7_SHA256 = "fce189ac82f43cb1d408e8ea9bedd5cc1a8687eea30b53138d3ad11e9320c492"


def test_seven_vertex_graph_universe_is_pinned():
    graphs = enumerate_graphs(7, limit=7)
    assert len(graphs) == 1044
    rows = [repr(("Graph", g.n, g.sorted_edges())) for g in graphs]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == GRAPHS_7_SHA256


#: sha256 of every universe member in order (graphs on 1..6 vertices, then
#: digraphs on 1..5 vertices, then oriented graphs on 1..5 vertices), pinned
#: from the earlier enumeration that scanned every labelled mask
UNIVERSE_SHA256 = "89dff057ec33a3614c1ed009b1da732d68fc7c5ed05c6a13def234c8cc8eef89"


def test_universe_sequence_is_pinned():
    rows = [repr(("Graph", g.n, g.sorted_edges()))
            for n in range(1, 7) for g in enumerate_graphs(n)]
    rows += [repr((type(d).__name__, d.n, d.sorted_arcs()))
             for oriented in (False, True) for n in range(1, 6)
             for d in enumerate_digraphs(n, oriented_only=oriented)]
    assert len(rows) == 10688
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == UNIVERSE_SHA256


def test_universes_build_without_numpy():
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "import forbor\n"
            "assert len(forbor.enumerate_digraphs(4)) == 218\n"
            "assert len(forbor.enumerate_graphs(5)) == 34\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(forbor.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_canonical_form_is_class_invariant(rng):
    from itertools import permutations
    d = OrientedGraph(4, frozenset({(0, 1), (1, 2), (0, 3)}))
    base = canonical_form(d)
    for p in permutations(range(4)):
        relab = OrientedGraph(4, frozenset((p[u], p[v]) for u, v in d.arcs))
        assert canonical_form(relab).arcs == base.arcs
    assert is_isomorphic(d, base)
    assert not is_isomorphic(tt3(), c3())
    assert graphs_isomorphic(make_cycle(4), Graph(4, frozenset({(0, 2), (2, 1), (1, 3), (3, 0)})))
    # a seeded relabelling of every class on few vertices, and random digraphs
    cases = [d for n in range(1, 6) for d in enumerate_digraphs(n)]
    cases += [g for n in range(1, 7) for g in enumerate_graphs(n)]
    for _ in range(300):
        n, q = rng.randint(6, 12), rng.random()
        cases.append(Digraph(n, frozenset((u, v) for u in range(n) for v in range(n)
                                          if u != v and rng.random() < q)))
    cases += [_shared_out_pairs(rng, n, digons) for n in (6, 8, 10) for digons in (False, True)
              for _ in range(40)]
    for d in cases:
        base = canonical_form(d)
        assert canonical_form(_relabel(d, _shuffled(rng, d.n))) == base
        assert len(base.arcs) == len(d.arcs) and is_isomorphic(base, d)


def _shared_out_pairs(rng, n, digons):
    """2-in, 2-out digraph in which two co-parents point at each pair of
    vertices: equal out masks, in masks that differ, and with digons between
    co-parents equal closed out masks.  Twins by out masks alone are not
    twins here, so a twin rule that reads too little of the masks shows."""
    vs, parents = _shuffled(rng, n), _shuffled(rng, n)
    arcs = set()
    for i in range(0, n, 2):
        a, b = parents[i], parents[i + 1]
        arcs |= {(p, x) for p in (a, b) for x in vs[i:i + 2] if x != p}
        if digons:
            arcs |= {(a, b), (b, a)}
    return Digraph(n, frozenset(arcs))


def _relabel(d, p):
    return type(d)(d.n, frozenset((p[u], p[v]) for u, v in d.arcs))


def _shuffled(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def test_is_isomorphic_agrees_with_oracle_on_three_vertices():
    ds = list(all_labelled_digraphs(3))
    for d1 in ds:
        for d2 in ds:
            same = iso_oracle(d1, d2)
            assert is_isomorphic(d1, d2) == same
            assert (canonical_form(d1) == canonical_form(d2)) == same


def test_is_isomorphic_agrees_with_oracle_on_random_pairs(rng):
    for _ in range(120):
        n = rng.randint(1, 7)
        d = Digraph(n, frozenset((u, v) for u in range(n) for v in range(n)
                                 if u != v and rng.random() < 0.4))
        same = _relabel(d, _shuffled(rng, n))
        assert is_isomorphic(d, same) and iso_oracle(d, same)
        # move one arc of the copy to a free slot: equal counts, often another class
        free = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in same.arcs]
        if same.arcs and free:
            moved = Digraph(n, same.arcs - {rng.choice(sorted(same.arcs))} | {rng.choice(free)})
            assert is_isomorphic(d, moved) == iso_oracle(d, moved)


def test_graphs_isomorphic_agrees_with_oracle_on_four_vertices():
    slots = list(combinations(range(4), 2))
    gs = [Graph(4, frozenset(s for i, s in enumerate(slots) if m >> i & 1))
          for m in range(1 << len(slots))]
    for g1 in gs:
        for g2 in gs:
            assert graphs_isomorphic(g1, g2) == graph_iso_oracle(g1, g2)


@pytest.mark.parametrize("d", [
    *map(directed_cycle, range(10, 21)),
    disjoint_union(directed_cycle(5), directed_cycle(5)),
    disjoint_union(c3(), c3(), c3()),
    transitive_tournament(12),
    OrientedGraph(12),
], ids=[*(f"C{k}" for k in range(10, 21)), "2C5", "3C3", "TT12", "empty12"])
def test_forbidden_set_takes_symmetric_members(d, rng):
    members = ForbiddenSet((d,)).members
    assert len(members) == 1 and is_isomorphic(members[0], d)
    assert ForbiddenSet((_relabel(d, _shuffled(rng, d.n)),)).members == members


def test_isomorphism_decides_vertex_transitive_inputs(rng):
    c12 = directed_cycle(12)
    assert is_isomorphic(c12, _relabel(c12, _shuffled(rng, 12)))
    assert not is_isomorphic(c12, disjoint_union(directed_cycle(6), directed_cycle(6)))
    c10 = make_cycle(10)
    p = _shuffled(rng, 10)
    assert graphs_isomorphic(c10, Graph(10, frozenset((p[u], p[v]) for u, v in c10.edges)))
    assert not graphs_isomorphic(c10, graph_union(make_cycle(5), make_cycle(5)))


#: sha256 of the canonical representatives below; a change to it is a
#: change of representative and must be named
CANONICAL_SHA256 = "746a0cff13734141caab6afb1be6b8522c55adf5f69b17c61786f930fd368f51"


def test_canonical_representatives_are_pinned():
    h = hashlib.sha256()
    for n in range(1, 5):
        for d in all_labelled_digraphs(n):
            h.update(f"{sorted(canonical_form(d).arcs)}\n".encode())
    for d in enumerate_digraphs(5, oriented_only=True):
        h.update(f"{sorted(canonical_form(_relabel(d, [4, 3, 2, 1, 0])).arcs)}\n".encode())
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            g = Graph(n, frozenset((n - 1 - u, n - 1 - v) for u, v in g.edges))
            h.update(f"{sorted(graph_canonical_form(g).edges)}\n".encode())
    assert h.hexdigest() == CANONICAL_SHA256


def test_acyclicity_round_trips_through_orientation_stream():
    for d in enumerate_digraphs(4, oriented_only=True):
        g = underlying(d)
        in_acyclic_stream = any(
            o.oriented_graph().arcs == d.arcs
            for o in orientations_of(g, acyclic_only=True))
        assert in_acyclic_stream == is_acyclic(d)


def test_contains_induced_reflexive_and_composes():
    samples = [tt3(), c3(), p3(), b1(),
               OrientedGraph(4, frozenset({(0, 1), (2, 1), (2, 3)}))]
    for d in samples:
        hit = contains_induced(d, d)
        assert hit is not None
    small = arc()
    mid = p3()
    big = OrientedGraph(5, frozenset({(0, 1), (1, 2), (3, 4)}))
    f = contains_induced(small, mid)
    g = contains_induced(mid, big)
    assert f and g
    composed = {v: g[f[v]] for v in f}
    # the composed witness is itself an induced embedding
    assert ((composed[0], composed[1]) in big.arcs) == small.has_arc(0, 1)


def test_orientation_count_and_underlying():
    for g in (make_path(3), make_cycle(4), complete_graph(3), coupling(3, 3)):
        count = 0
        for o in orientations_of(g):
            count += 1
            assert underlying(o.oriented_graph()).edges == g.edges
        assert count == 2 ** len(g.edges)


def _symmetric_by_hand(g):
    """g as a digraph with both arcs of each edge, built from its edges."""
    return Digraph(g.n, frozenset(g.edges) | {(v, u) for u, v in g.edges})


def test_kernel_entry_points_take_graphs(rng):
    # a Graph gives what its symmetric digraph gives, over every graph on
    # at most 5 vertices and a relabelled copy of each
    gs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    gs += [Graph(g.n, frozenset((p[u], p[v]) for u, v in g.edges))
           for g in gs for p in [_shuffled(rng, g.n)]]
    ds = [_symmetric_by_hand(g) for g in gs]
    for g, d in zip(gs, ds):
        assert g.arcs == d.arcs
        assert connected_components(g) == connected_components(d)
        assert core_of(g) == core_of(d)
        assert canonical_form(g) == canonical_form(d)
        for g2, d2 in zip(gs, ds):
            assert hom_exists(g, g2) == hom_exists(d, d2)
            assert contains_induced(g, g2) == contains_induced(d, d2)
            assert is_isomorphic(g, g2) == is_isomorphic(d, d2) == graph_iso_oracle(g, g2)
    # and what the brute-force oracles give, on seeded random pairs
    for _ in range(300):
        g1, g2 = rng.choice(gs), rng.choice(gs)
        w = hom_exists(g1, g2)
        assert (w and w.mapping) == first_hom_oracle(g1, g2)
        hit, every = contains_induced(g1, g2), induced_embeddings_oracle(g1, g2)
        assert hit in every if every else hit is None

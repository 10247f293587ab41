"""Gates for graphs._embed, the one backtracking kernel: induced containment,
every node of the orientation search and hom_exists all run on it.

The golden values were produced by the backtrackers this kernel replaced:
search order, witnesses and work counters must stay exactly as they were.
hom_exists's first maps and work counts are gated in test_duality.py.
"""

import inspect
import json
import math
from itertools import chain, combinations, product

from conftest import allowed_oracle, b1, c3, induced_embeddings_oracle, p3, tt3

from forbor import (
    Digraph, ForbiddenSet, Graph, Orientation, OrientedGraph, SearchMode,
    admits_orientation, contains_induced, coupling, directed_cycle, directed_path,
    disjoint_union, enumerate_digraphs, enumerate_graphs, hom_exists, is_acyclic,
    known_duality_catalog, make_cycle, make_path, orientations_of, transitive_tournament,
    verify_orientation, word_to_path,
)
from forbor import duality, graphs, search
from forbor.cli import run
from forbor.duality import _hom_images
from forbor.graphs import _allowed
from forbor.io import digraph_to_text, graph_to_text


def wheel(k):
    return Graph(k + 1, frozenset(make_cycle(k).edges | {(i, k) for i in range(k)}))


def cube():
    return Graph(8, frozenset((u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b))


GRAPHS = {"cube": cube(), "W5": wheel(5), "C3.C5": coupling(3, 5)}
FSETS = {"TT3+P4": (transitive_tournament(3), directed_path(3)),
         "b1+2K2": (word_to_path("<>"),
                    disjoint_union(directed_path(1), directed_path(1)))}

CUBE = [[0, 1], [0, 2], [0, 4], [1, 3], [1, 5], [2, 3], [2, 6], [4, 5], [4, 6],
        [7, 3], [7, 5], [7, 6]]
COUPLED = [[0, 1], [0, 3], [0, 6], [1, 2], [2, 0], [4, 3], [4, 5], [5, 6]]
WHEEL = [[0, 1], [0, 5], [1, 2], [1, 5], [2, 3], [2, 5], [3, 4], [3, 5], [4, 0], [4, 5]]

#: (graph, forbidden set, containment, acyclic) -> (admits, work, witness arcs)
GOLDEN_ORIENT = {
    ("cube", "TT3+P4", "induced", False): (True, 15, CUBE),
    ("cube", "TT3+P4", "induced", True): (True, 15, CUBE),
    ("cube", "TT3+P4", "hom", False): (True, 15, CUBE),
    ("cube", "TT3+P4", "hom", True): (True, 15, CUBE),
    ("cube", "TT3+P4", "overlap", False): (True, 15, CUBE),
    ("cube", "TT3+P4", "overlap", True): (True, 15, CUBE),
    ("W5", "TT3+P4", "induced", False): (False, 78, None),
    ("W5", "TT3+P4", "induced", True): (False, 30, None),
    ("W5", "TT3+P4", "hom", False): (False, 30, None),
    ("W5", "TT3+P4", "hom", True): (False, 30, None),
    ("W5", "TT3+P4", "overlap", False): (False, 78, None),
    ("W5", "TT3+P4", "overlap", True): (False, 30, None),
    ("C3.C5", "TT3+P4", "induced", False): (True, 24, COUPLED),
    ("C3.C5", "TT3+P4", "induced", True): (False, 62, None),
    ("C3.C5", "TT3+P4", "hom", False): (False, 62, None),
    ("C3.C5", "TT3+P4", "hom", True): (False, 62, None),
    ("C3.C5", "TT3+P4", "overlap", False): (True, 24, COUPLED),
    ("C3.C5", "TT3+P4", "overlap", True): (False, 62, None),
    ("W5", "b1+2K2", "induced", False): (True, 11, WHEEL),
    ("W5", "b1+2K2", "induced", True): (False, 208, None),
    ("W5", "b1+2K2", "hom", False): (False, 2, None),
    ("W5", "b1+2K2", "hom", True): (False, 2, None),
    ("W5", "b1+2K2", "overlap", False): (False, 2, None),
    ("W5", "b1+2K2", "overlap", True): (False, 2, None),
}

DIGON = Digraph(2, frozenset({(0, 1), (1, 0)}))
HOST = Digraph(5, frozenset({(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 0),
                             (2, 4)}))

#: first embedding found, as (pattern, host, map in placement order)
GOLDEN_MAPS = [
    (directed_path(2), directed_cycle(5), [(1, 0), (0, 4), (2, 1)]),
    (word_to_path("<>"), word_to_path("<><>"), [(1, 1), (0, 0), (2, 2)]),
    (transitive_tournament(3), transitive_tournament(5), [(0, 0), (1, 1), (2, 2)]),
    (DIGON, HOST, [(0, 0), (1, 1)]),
    (directed_path(2), HOST, [(1, 2), (0, 1), (2, 4)]),
    (directed_cycle(3), HOST, None),
]


def test_orient_reports_match_golden(tmp_path):
    gfile, ffile = tmp_path / "g", tmp_path / "F"
    for (gname, fname, containment, acyclic), expected in GOLDEN_ORIENT.items():
        gfile.write_text(graph_to_text(GRAPHS[gname]))
        ffile.write_text("\n".join(digraph_to_text(h) for h in FSETS[fname]))
        argv = ["orient", "-g", str(gfile), "-F", str(ffile), "--mode", containment]
        status, out = run(argv + (["--acyclic"] if acyclic else []))
        assert status == 0
        r = json.loads(out)["result"]
        assert (r["admits"], r["work"], r["witness_arcs"]) == expected, \
            (gname, fname, containment, acyclic)


def test_first_embedding_matches_golden():
    for h, d, expected in GOLDEN_MAPS:
        found = contains_induced(h, d)
        assert (None if found is None else list(found.items())) == expected


def test_contains_induced_agrees_with_oracle():
    """All pattern classes on <= 3 vertices against all hosts on <= 4, digons included."""
    patterns = [h for n in range(1, 4) for h in enumerate_digraphs(n)]
    hosts = [d for n in range(1, 5) for d in enumerate_digraphs(n)]
    for h in patterns:
        order = sorted(range(h.n), key=lambda v: (-sum(h.degrees(v)), v))
        for d in hosts:
            found = contains_induced(h, d)
            every = induced_embeddings_oracle(h, d)
            if not every:
                assert found is None
                continue
            # the first embedding: earliest images in placement order
            first = min(every, key=lambda m: [m[x] for x in order])
            assert found == first and list(found) == order


STARS = [OrientedGraph(4, frozenset({(0, 1), (0, 2), (0, 3)})),
         OrientedGraph(5, frozenset({(1, 0), (2, 0), (3, 0), (4, 0)})),
         Digraph(4, frozenset({(0, 1), (2, 0), (0, 3), (3, 0)}))]


def test_contains_induced_first_map_agrees_with_oracle_on_random_pairs(rng):
    """Patterns on 4-5 vertices, stars among them, in hosts on 6-7 vertices with digons.

    A third of the patterns are stars, which make the degree filter prune,
    a third are random, and a third are relabelled induced subdigraphs of
    their host, so that embeddings are found as well as refuted.
    """
    pruned = found = digons = 0
    for trial in range(90):
        n = rng.randint(6, 7)
        host = Digraph(n, frozenset((u, v) for u in range(n) for v in range(n)
                                    if u != v and rng.random() < rng.uniform(0.2, 0.5)))
        k = rng.randint(4, 5)
        if trial % 3 == 0:
            h = rng.choice(STARS)
        elif trial % 3 == 1:
            h = Digraph(k, frozenset((u, v) for u in range(k) for v in range(k)
                                     if u != v and rng.random() < 0.3))
        else:
            vs = rng.sample(range(n), k)
            h = Digraph(k, frozenset((vs.index(u), vs.index(v)) for u, v in host.arcs
                                     if u in vs and v in vs))
        pruned += any(m != (1 << n) - 1 for m in _allowed(h, host))
        digons += any((v, u) in host.arcs for u, v in host.arcs)
        got = contains_induced(h, host)
        every = induced_embeddings_oracle(h, host)
        order = sorted(range(h.n), key=lambda v: (-sum(h.degrees(v)), v))
        if not every:
            assert got is None
            continue
        found += 1
        assert got == min(every, key=lambda m: [m[x] for x in order]) and list(got) == order
    assert pruned >= 20 and found >= 30 and digons >= 30


ORIENTED_4 = [h for n in range(1, 5) for h in enumerate_digraphs(n, oriented_only=True)]
MODES = [SearchMode(c, a) for c, a in product(("induced", "hom", "overlap"), (False, True))]


def shared_table_cases(rng):
    """Every orientation of every graph class on <= 5 vertices, then one
    seeded random orientation each of 60 random graphs on 6-10 vertices."""
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            yield from orientations_of(g)
    for _ in range(60):
        n = rng.randint(6, 10)
        g = Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < 0.4))
        yield Orientation(g, frozenset((u, v) if rng.random() < 0.5 else (v, u)
                                       for u, v in g.edges))


def test_orientation_tables_match_the_generic_route(rng):
    """An orientation's tables, shared with its base graph, equal those a
    Digraph on the same arcs builds from its arcs alone, in plain and in
    acyclic streams."""
    acyclic = (o for n in range(1, 6) for g in enumerate_graphs(n)
               for o in orientations_of(g, acyclic_only=True))
    seen = 0
    for o in chain(shared_table_cases(rng), acyclic):
        d = Digraph(o.n, o.arcs)
        assert o._adj == d._adj and o._host == d._host and o._at_least == d._at_least
        assert o._adj[2] is o.base._adj[2] and o._host[0] is o.base._host[0]
        seen += 1
    assert seen > 3000


def product_stream(g, acyclic_only):
    """orientations_of as it was: every direction tuple of itertools.product
    over the sorted edges, low->high first and the last edge fastest, each
    built by Orientation(g, arcs), whose tables come from its arcs."""
    for arcs in product(*(((u, v), (v, u)) for u, v in g.sorted_edges())):
        o = Orientation(g, arcs)
        if not acyclic_only or is_acyclic(o):
            yield o


def test_odometer_stream_equals_the_product_stream(rng):
    """The odometer gives the product stream's orientations, in its order
    and with its tables, for every graph class on <= 5 vertices and 40
    seeded random graphs on 6-9 vertices, with and without acyclic_only."""
    cases = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    for _ in range(40):
        n = rng.randint(6, 9)
        edges = rng.sample(list(combinations(range(n), 2)), rng.randint(0, 10))
        cases.append(Graph(n, frozenset(edges)))
    streamed = set()
    for g, acyclic_only in product(cases, (False, True)):
        got = list(orientations_of(g, acyclic_only))
        want = list(product_stream(g, acyclic_only))
        assert got == want
        for o, p in zip(got, want):
            assert o._adj == p._adj and o._host == p._host
        streamed.add(len(got))
    assert inspect.isgeneratorfunction(orientations_of)
    assert len(streamed) > 20 and max(streamed) == 1024


def test_orientation_containment_matches_the_generic_route(rng):
    """First embeddings of every oriented graph on <= 4 vertices, and
    verify_orientation in every mode, on an orientation and on the Digraph
    with its arcs."""
    fsets = [ForbiddenSet((directed_path(2),)), ForbiddenSet((transitive_tournament(3),)),
             ForbiddenSet((word_to_path("<>"), disjoint_union(directed_path(1),
                                                               directed_path(1)))),
             ForbiddenSet((directed_cycle(3), word_to_path(">><")))]
    verdicts = set()
    for o in shared_table_cases(rng):
        d = Digraph(o.n, o.arcs)
        for h in ORIENTED_4:
            assert contains_induced(h, o) == contains_induced(h, d)
        for F, mode in product(fsets, MODES):
            verdict = verify_orientation(o, F, mode)
            assert verdict == verify_orientation(d, F, mode)
            verdicts.add(verdict)
    assert verdicts == {False, True}


def test_allowed_matches_the_formula_it_replaced():
    """The degree filter from cached degree masks equals the per-call scan,
    for every digraph on <= 4 vertices against every universe class."""
    patterns = [h for n in range(1, 5) for h in enumerate_digraphs(n)]
    hosts = ([g for n in range(1, 7) for g in enumerate_graphs(n)]
             + [d for n in range(1, 5) for d in enumerate_digraphs(n)])
    for d in hosts:
        for h in patterns:
            assert _allowed(h, d) == allowed_oracle(h, d._adj[2])


def test_witness_shares_the_searched_graphs_relation_0():
    """The search's non-adjacency table is the graph's, and the witness's
    re-verification reads that same table."""
    F = ForbiddenSet((directed_path(2),))
    for g in (make_path(4), make_cycle(6), cube()):
        for containment in ("induced", "hom", "overlap"):
            verdict = admits_orientation(g, F, SearchMode(containment))
            assert verdict.admits and verdict.witness._host[0] is g._host[0]


def test_hom_witness_reads_images_through_rank():
    """The witness read through _rank equals the sort over _order it replaced,
    on every ordered pair of digraphs on <= 3 vertices and on the catalog
    pairs against every digraph on <= 4 vertices, both ways."""
    small = [d for n in range(1, 4) for d in enumerate_digraphs(n)]
    universe = [d for n in range(1, 5) for d in enumerate_digraphs(n)]
    pairs = list(product(small, small))
    for _, source, target, _ in known_duality_catalog():
        pairs += [(source, d) for d in universe] + [(d, target) for d in universe]
    found = 0
    for a, b in pairs:
        images = _hom_images(a, b, (1 << b.n) - 1, math.inf)
        old = None if images is None else tuple(w for _, w in sorted(zip(a._order, images)))
        w = hom_exists(a, b)
        assert (w and w.mapping) == old, (a, b)
        found += w is not None
    assert 0 < found < len(pairs)


PIN_FSETS = [(p3(), tt3(), c3()), (directed_path(3),), (b1(),),
             (b1(), disjoint_union(directed_path(1), directed_path(1)))]
SMALL_GRAPHS = [g for n in range(1, 6) for g in enumerate_graphs(n)]


def test_a_reused_forbidden_set_searches_as_a_fresh_one():
    """One ForbiddenSet searched on every graph on <= 5 vertices in turn
    gives each the verdict, witness and work of a set built for that call
    alone, so its per-pattern tables keep nothing of an earlier host."""
    admits = set()
    for members, mode in product(PIN_FSETS, MODES):
        F = ForbiddenSet(members)
        for g in SMALL_GRAPHS:
            reused, fresh = (admits_orientation(g, S, mode)
                             for S in (F, ForbiddenSet(members)))
            assert (reused.admits, reused.work) == (fresh.admits, fresh.work), (g, mode)
            assert (reused.witness and reused.witness.arcs) == \
                (fresh.witness and fresh.witness.arcs), (g, mode)
            admits.add(reused.admits)
    assert admits == {False, True}


def test_pattern_tables_are_built_once_per_pattern(monkeypatch):
    """Once every graph on <= 5 vertices has been searched, searching them
    all again builds no placement checks and no component digraph."""
    calls = []
    for name in ("_placement_checks", "induced_subdigraph"):
        def counted(*args, original=getattr(graphs, name), name=name, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        for module in (graphs, search, duality):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    fsets = [ForbiddenSet(members) for members in PIN_FSETS]
    for F, mode in product(fsets, MODES):
        for g in SMALL_GRAPHS:
            admits_orientation(g, F, mode)
    assert "_placement_checks" in calls and "induced_subdigraph" in calls
    calls.clear()
    for F, mode in product(fsets, MODES):
        for g in SMALL_GRAPHS:
            admits_orientation(g, F, mode)
    assert calls == []

import pytest

from conftest import arc, b1, c3, iso_oracle, p3, p4, tt3

from forbor import (
    Digraph, ForbiddenSet, Graph, OrientedGraph, SearchMode, WorkBudgetExceeded,
    admits_orientation, bridge_bound, complete_graph, contains_induced,
    cycle_spectrum, directed_cycle, directed_path, disjoint_union,
    enumerate_graphs, graph_union, hom_exists, homomorphic_image_closure,
    is_acyclic, make_cycle, make_path, multiples_property_check, oracle_chordal,
    oracle_k_colourable, orientations_of, overlap_contains,
    reduce_to_connected, verify_orientation, word_to_path,
)

IND = SearchMode("induced")
IND_AC = SearchMode("induced", acyclic=True)
HOM = SearchMode("hom")
OVL = SearchMode("overlap")


def bip_forbidden():
    return ForbiddenSet((tt3(), c3(), p3()))


def test_forbidden_set_normalizes():
    relabelled = OrientedGraph(3, frozenset({(2, 1), (1, 0), (2, 0)}))  # iso TT3
    F = ForbiddenSet((tt3(), relabelled, c3()))
    assert len(F.members) == 2
    assert F.max_order == 3 and bridge_bound(F) == 4
    assert F.all_connected
    assert not ForbiddenSet((disjoint_union(arc(), arc()),)).all_connected
    with pytest.raises(ValueError):
        ForbiddenSet((OrientedGraph(0),))
    plain = ForbiddenSet((Digraph(2, frozenset({(0, 1)})),))
    assert [type(h) for h in plain.members] == [OrientedGraph]
    with pytest.raises(ValueError) as caught:
        ForbiddenSet((Digraph(2, frozenset({(0, 1), (1, 0)})),))
    assert str(caught.value) == "symmetric arc pair between 0 and 1"
    with pytest.raises(ValueError):
        SearchMode("weird")



def test_long_path_is_oriented_without_recursion():
    # 2000 edges, far deeper than Python's recursion limit; the directions
    # must alternate, so every other edge needs its second try
    g = make_path(2000)
    F = ForbiddenSet((p3(),))
    v = admits_orientation(g, F, IND)
    assert v.admits and verify_orientation(v.witness, F, IND)
    assert v.work == 3000

def test_homomorphic_image_closure_of_directed_path3():
    cl = homomorphic_image_closure(ForbiddenSet((p3(),)))
    assert len(cl.members) == 3
    assert any(iso_oracle(h, tt3()) for h in cl.members)
    assert any(iso_oracle(h, c3()) for h in cl.members)
    assert any(iso_oracle(h, p3()) for h in cl.members)


def test_homomorphic_image_closure_of_single_arc():
    cl = homomorphic_image_closure(ForbiddenSet((arc(),)))
    assert len(cl.members) == 1 and iso_oracle(cl.members[0], arc())


def test_closure_matches_three_colouring():
    # a hom-avoiding orientation of the 4-vertex directed path characterizes
    # 3-colourability; cross-check against the brute-force colouring oracle
    F = ForbiddenSet((p4(),))
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert admits_orientation(g, F, HOM).admits == oracle_k_colourable(g, 3)


def test_overlap_contains():
    two_arcs = disjoint_union(arc(), arc())
    assert overlap_contains(two_arcs, arc())
    assert overlap_contains(disjoint_union(b1(), arc()), b1())
    assert not overlap_contains(disjoint_union(c3(), arc()), tt3())


def test_admits_orientation_chordal_examples():
    FB1 = ForbiddenSet((b1(),))
    assert not admits_orientation(make_cycle(4), FB1, IND_AC).admits
    v = admits_orientation(complete_graph(3), FB1, IND_AC).witness
    assert v is not None
    assert iso_oracle(v.oriented_graph(), tt3())


def test_admits_orientation_bipartite_examples():
    F = ForbiddenSet((p3(),))
    assert not admits_orientation(make_cycle(5), F, HOM).admits
    assert admits_orientation(make_cycle(6), F, HOM).admits


def test_witnesses_reverify():
    for g in (make_cycle(6), coupling := make_path(4), complete_graph(4)):
        for F in (bip_forbidden(), ForbiddenSet((b1(),)), ForbiddenSet()):
            for mode in (IND, IND_AC, OVL, HOM):
                verdict = admits_orientation(g, F, mode)
                if verdict.admits:
                    assert verify_orientation(verdict.witness, F, mode)
                    assert verdict.witness.base.edges == g.edges


def test_empty_forbidden_set_always_admits():
    for g in (make_cycle(5), complete_graph(4), Graph(3)):
        assert admits_orientation(g, ForbiddenSet(), IND_AC).admits


def test_arcless_member_blocks_immediately():
    lonely = OrientedGraph(1)
    verdict = admits_orientation(make_path(2), ForbiddenSet((lonely,)), IND)
    assert not verdict.admits and verdict.work == 0
    two_isolated = OrientedGraph(2)
    # needs an independent pair: the complete graph has none
    assert admits_orientation(complete_graph(3), ForbiddenSet((two_isolated,)), IND).admits
    assert not admits_orientation(make_path(2), ForbiddenSet((two_isolated,)), IND).admits


def test_budget_is_an_error_not_a_false():
    with pytest.raises(WorkBudgetExceeded):
        admits_orientation(complete_graph(6), ForbiddenSet((p4(),)), HOM, budget=5)


def test_admits_against_exhaustive_enumeration():
    # the pruned search agrees with filtering the full orientation stream
    F = bip_forbidden()
    FB1 = ForbiddenSet((b1(),))
    F2 = ForbiddenSet((disjoint_union(arc(), arc()),))
    for g in [make_cycle(4), make_cycle(5), make_cycle(6), make_path(3),
              complete_graph(4), graph_union(make_path(2), make_path(1))]:
        for F_, mode in ((F, IND), (F, IND_AC), (FB1, IND_AC), (F2, IND), (F2, OVL)):
            brute = any(
                verify_orientation(o, F_, mode) for o in orientations_of(g))
            assert admits_orientation(g, F_, mode).admits == brute, (g, F_, mode)


def test_cycle_spectrum_bipartite():
    assert cycle_spectrum(bip_forbidden(), 4, 12) == {4, 6, 8, 10, 12}


def test_cycle_spectrum_b1():
    FB1 = ForbiddenSet((b1(),))
    assert cycle_spectrum(FB1, 4, 10, acyclic=True) == set()
    assert cycle_spectrum(FB1, 4, 10) == set(range(4, 11))
    # directed cycles witness the plain spectrum
    for k in range(4, 8):
        o = directed_cycle(k)
        assert contains_induced(b1(), o) is None


def test_cycle_spectrum_rejects_disconnected_members():
    with pytest.raises(ValueError):
        cycle_spectrum(ForbiddenSet((disjoint_union(arc(), arc()),)), 4, 8)
    with pytest.raises(ValueError, match="cycles have at least 3 edges"):
        cycle_spectrum(bip_forbidden(), 2, 5)


def test_cycle_spectrum_single_vertex_member():
    assert cycle_spectrum(ForbiddenSet((OrientedGraph(1),)), 4, 8) == set()


def test_cycle_spectrum_language_equals_brute_force():
    F = bip_forbidden()
    for acyclic in (False, True):
        spec = cycle_spectrum(F, 4, 9, acyclic=acyclic)
        mode = SearchMode("induced", acyclic)
        for k in range(4, 10):
            assert (k in spec) == admits_orientation(make_cycle(k), F, mode).admits


def test_multiples_property():
    rep = multiples_property_check(bip_forbidden(), 4, 3)
    assert rep.ok and not rep.vacuous and rep.checked == (8, 12)
    assert multiples_property_check(ForbiddenSet(), 4, 3).ok
    rep2 = multiples_property_check(ForbiddenSet((b1(),)), 4, 3, acyclic=True)
    assert rep2.vacuous and rep2.ok
    with pytest.raises(ValueError):
        multiples_property_check(bip_forbidden(), 3, 2)


def test_multiples_boundary_at_largest_member_order():
    # a member on exactly k vertices cannot appear induced in the k-cycle,
    # so the k-cycle may admit while its multiples do not; one step above
    # the largest member order the closure law holds
    F = ForbiddenSet((p3(), word_to_path("<><")))
    assert F.max_order == 4
    mode = SearchMode("induced")
    assert any(verify_orientation(o, F, mode) for o in orientations_of(make_cycle(4)))
    assert not admits_orientation(make_cycle(8), F, mode).admits
    boundary = multiples_property_check(F, 4, 3)
    assert boundary.base_in_spectrum and not boundary.ok
    assert boundary.missing == (8, 12)
    # from bridge_bound(F) = 5 on, closure is restored (here: vacuously)
    assert multiples_property_check(F, 5, 3).ok


def test_reduce_to_connected():
    F = ForbiddenSet((c3(),))
    same, rep = reduce_to_connected(F, 4)
    assert same is F and rep.found is F

    F2 = ForbiddenSet((disjoint_union(c3(), c3()),))
    found, rep2 = reduce_to_connected(F2, 5)
    assert found is not None
    assert len(found.members) == 1 and iso_oracle(found.members[0], c3())

    F3 = ForbiddenSet((disjoint_union(arc(), arc()),))
    none_found, rep3 = reduce_to_connected(F3, 5)
    assert none_found is None and rep3.tried >= 1


def test_reduce_to_connected_searches_F_once_per_graph(monkeypatch):
    import forbor.search as search
    calls = []
    real = search.admits_orientation

    def counting(g, F, mode, *args):
        calls.append((F, g, mode.acyclic))
        return real(g, F, mode, *args)

    monkeypatch.setattr(search, "admits_orientation", counting)
    F = ForbiddenSet((disjoint_union(arc(), arc()),))
    found, rep = reduce_to_connected(F, 5)
    assert found is None and rep.tried == 2
    on_F = [c for c in calls if c[0] is F]
    per_candidate = {}          # by identity: both candidates are {arc}
    for c in calls:
        if c[0] is not F:
            per_candidate[id(c[0])] = per_candidate.get(id(c[0]), 0) + 1
    # each candidate checks a prefix of the same (graph, acyclic) sequence,
    # and F is searched once for each pair some candidate reached
    assert len(on_F) == len(set(on_F)) == max(per_candidate.values())


def test_overlap_free_implies_plain_free_for_connected():
    # for all-connected sets the two containments coincide on verdicts
    F = ForbiddenSet((b1(), c3()))
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert (admits_orientation(g, F, OVL).admits
                    == admits_orientation(g, F, IND).admits)


def test_hom_free_equals_induced_free_under_closure():
    # the hom search decides the closure predicate on F itself: admits and
    # witness equal the induced search on the image closure, on every graph
    # up to 5 vertices; and orientation-level, on every orientation of every
    # graph up to 4 vertices.  Hom mode prunes as soon as a member maps into
    # the decided arcs, before an image is induced, so its work is never
    # higher, and lower in sum on the directed paths
    K1 = OrientedGraph(1)
    for F0 in (ForbiddenSet((p3(),)), ForbiddenSet((p4(),)),
               ForbiddenSet((tt3(), p4())),
               ForbiddenSet((b1(), disjoint_union(arc(), arc()))),
               ForbiddenSet((OrientedGraph(2),)), ForbiddenSet((disjoint_union(arc(), K1),)),
               ForbiddenSet((c3(),))):
        closed = homomorphic_image_closure(F0)
        hom_work = ind_work = 0
        for ac in (False, True):
            hom, ind = SearchMode("hom", ac), SearchMode("induced", ac)
            for n in range(1, 5):
                for g in enumerate_graphs(n):
                    for o in orientations_of(g):
                        d = o.oriented_graph()
                        hom_hit = any(hom_exists(h, d) for h in F0.members)
                        ind_hit = any(contains_induced(h, d) for h in closed.members)
                        assert hom_hit == ind_hit
                        assert verify_orientation(o, F0, hom) == verify_orientation(o, closed, ind)
            for n in range(1, 6):
                for g in enumerate_graphs(n):
                    a = admits_orientation(g, F0, hom)
                    b = admits_orientation(g, closed, ind)
                    assert a.admits == b.admits and a.work <= b.work, (F0, ac, g)
                    assert (a.witness and sorted(a.witness.arcs)) == \
                        (b.witness and sorted(b.witness.arcs)), (F0, ac, g)
                    hom_work += a.work
                    ind_work += b.work
        if F0 in (ForbiddenSet((p3(),)), ForbiddenSet((p4(),))):
            assert hom_work < ind_work, F0


def test_four_colourable_through_directed_five_path():
    # the directed path on k+1 vertices forbids exactly the graphs that are
    # not k-colourable; its closure is never built.  The node counts pin
    # hom mode's pruning, summed over the graphs on at most 6 vertices: an
    # orientation with a directed cycle maps every directed path, so the
    # acyclic flag prunes nothing more
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    assert len(graphs) == 208
    for k, nodes in ((2, 2930), (3, 7825), (4, 6361)):
        F = ForbiddenSet((directed_path(k),))
        for ac in (False, True):
            work = 0
            for g in graphs:
                v = admits_orientation(g, F, SearchMode("hom", ac))
                assert v.admits == oracle_k_colourable(g, k)
                work += v.work
            assert work == nodes, (k, ac)


def test_rghv_and_chordal_on_small_graphs():
    FP3 = ForbiddenSet((p3(),))
    FB1 = ForbiddenSet((b1(),))
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert admits_orientation(g, FP3, HOM).admits == oracle_k_colourable(g, 2)
            assert admits_orientation(g, FB1, IND_AC).admits == oracle_chordal(g)


def test_pigeonhole_blowup_for_disconnected_member():
    # one member with two components: a graph may dodge it while the
    # disjoint union of enough copies cannot
    F = ForbiddenSet((disjoint_union(arc(), arc()),))
    g = make_path(2)
    assert admits_orientation(g, F, IND).admits
    assert not admits_orientation(g, F, OVL).admits
    doubled = graph_union(g, g)
    assert not admits_orientation(doubled, F, IND).admits


def test_colouring_and_chordal_oracles():
    assert not oracle_k_colourable(make_cycle(5), 2)
    assert oracle_k_colourable(make_cycle(5), 3)
    # long inputs do not recurse
    assert oracle_k_colourable(make_path(3000), 2)
    assert not oracle_k_colourable(make_cycle(3001), 2)
    assert not oracle_chordal(make_cycle(4))
    assert oracle_chordal(complete_graph(4))
    from forbor import coupling
    assert oracle_chordal(coupling(3, 3))
    assert not oracle_chordal(coupling(3, 4))


def test_verify_orientation_reads_the_orientation_itself():
    # on every orientation of every graph on at most 5 vertices, the check on
    # the Orientation equals the same check written out on its OrientedGraph
    sets = (bip_forbidden(), ForbiddenSet((b1(),)), ForbiddenSet((p4(),)),
            ForbiddenSet((b1(), disjoint_union(arc(), arc()))))
    hits = {"induced": lambda h, d: contains_induced(h, d) is not None,
            "hom": lambda h, d: hom_exists(h, d) is not None,
            "overlap": overlap_contains}
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for o in orientations_of(g):
                d = o.oriented_graph()
                acyclic = is_acyclic(d)
                for F in sets:
                    for containment, hit in hits.items():
                        free = not any(hit(h, d) for h in F.members)
                        for ac in (False, True):
                            assert verify_orientation(o, F, SearchMode(containment, ac)) \
                                == (free and (acyclic or not ac)), (o, F, containment, ac)


def test_orientation_stream_builds_no_oriented_graph(monkeypatch):
    F = bip_forbidden()
    built = []
    post_init = OrientedGraph.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(OrientedGraph, "__post_init__", counted)
    streamed = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for o in orientations_of(g, acyclic_only=True):
                verify_orientation(o, F, IND_AC)
                streamed += 1
    assert streamed and built == []


def test_reduce_to_connected_refuses_bounds_outside_the_universe():
    F = ForbiddenSet((b1(), disjoint_union(arc(), arc())))
    for n_verify in (0, -2):
        with pytest.raises(ValueError, match="need at least one vertex"):
            reduce_to_connected(F, n_verify)
    with pytest.raises(ValueError, match=r"enumeration bound exceeded: 9 > 6"):
        reduce_to_connected(F, 9)

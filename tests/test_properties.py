"""Randomized property suites with fixed seeds.

Word-level properties run at ten thousand cases apiece; the generators
walk the avoidance automaton directly so conditioned samples (factor
pairs, joinable splits) are drawn without rejection storms.
"""

import random
from itertools import product

from conftest import arc, b1, c3, p3, random_word

from forbor import (
    FactorAutomaton, FactorSet, ForbiddenSet, Graph, OrientedGraph,
    SearchMode, admits_orientation, contains_induced, disjoint_union,
    enumerate_graphs, enumerate_periods, forbidden_factor_set, is_A_free,
    is_factor, is_isomorphic, is_periodic, is_transitive, orientations_of,
    overlap_contains, path_to_word, period_structure, sync_bound,
    transitive_tournament, verify_orientation, word_to_path,
)

CASES = 10_000

SETS = (
    FactorSet(frozenset({">>", "<<"})),
    FactorSet(frozenset({">>>", "<<"})),
    FactorSet(frozenset({"><>"})),
    FactorSet(),
)


def free_word(rng, aut, length, start=""):
    """Random A-free word read from `start`, up to the requested length."""
    out = []
    s = start
    for _ in range(length):
        choices = [c for c in aut.alphabet if aut.step(s, c) is not None]
        if not choices:
            break
        c = rng.choice(choices)
        out.append(c)
        s = aut.step(s, c)
    return "".join(out)


def test_round_trip_random_words():
    rng = random.Random(101)
    for _ in range(CASES):
        w = random_word(rng, rng.randint(0, 14))
        back = path_to_word(word_to_path(w))
        assert w in back
        assert all(is_isomorphic(word_to_path(v), word_to_path(w)) for v in back)


def test_translation_monotone_random_factors():
    rng = random.Random(202)
    for _ in range(CASES):
        b = random_word(rng, rng.randint(1, 11))
        i = rng.randint(0, len(b) - 1)
        j = rng.randint(i + 1, len(b))
        a = b[i:j]
        assert is_factor(a, b)
        assert contains_induced(word_to_path(a), word_to_path(b)) is not None


def test_synchronization_property():
    # words overlapping in a long enough middle segment splice: with
    # b+a and a+d both avoiding, so does b+a+d
    for A in SETS:
        rng = random.Random(303 + sync_bound(A))
        aut = FactorAutomaton(A)
        m = sync_bound(A)
        for _ in range(CASES):
            ba = free_word(rng, aut, rng.randint(m, m + 10))
            if len(ba) < m:
                continue
            alen = rng.randint(m, len(ba))
            a = ba[len(ba) - alen:]
            d = free_word(rng, aut, rng.randint(0, 8), start=aut.run(a))
            assert is_A_free(ba, A) and is_A_free(a + d, A)
            assert is_A_free(ba + d, A)


def test_periodic_powers_random():
    for A in SETS:
        rng = random.Random(404)
        for _ in range(2500):
            w = random_word(rng, rng.randint(1, 8))
            K = -(-sync_bound(A) // len(w)) + 1
            assert is_periodic(w, A) == all(
                is_A_free(w * n, A) for n in range(1, 3 * K + 1))


def test_word_encoding_covers_path_members_only():
    rng = random.Random(505)
    for _ in range(400):
        words = {random_word(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))}
        members = tuple(word_to_path(w) for w in words)
        extras = (transitive_tournament(3), c3())
        A = forbidden_factor_set(members + extras)
        expect = set()
        for w in words:
            expect |= path_to_word(word_to_path(w))
        assert A.members == FactorSet(frozenset(expect)).members


def test_search_matches_orientation_stream_on_random_inputs():
    # the pruned search agrees with filtering the full orientation stream,
    # across every containment/acyclicity combination
    rng = random.Random(991)

    def rand_digraph(n):
        arcs = set()
        for u in range(n):
            for v in range(n):
                if u != v and (v, u) not in arcs and rng.random() < 0.5:
                    arcs.add((u, v))
        return OrientedGraph(n, frozenset(arcs))

    for _ in range(60):
        n = rng.randint(1, 5)
        g = Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < 0.5))
        F = ForbiddenSet(tuple(rand_digraph(rng.randint(1, 4))
                               for _ in range(rng.randint(1, 2))))
        for containment in ("induced", "overlap", "hom"):
            for acyclic in (False, True):
                mode = SearchMode(containment, acyclic)
                got = admits_orientation(g, F, mode).admits
                want = any(verify_orientation(o, F, mode)
                           for o in orientations_of(g))
                assert got == want, (sorted(g.edges),
                                     [sorted(h.arcs) for h in F.members], mode)


def test_period_structure_random_wide_windows():
    # exact structure for factor sets with members up to length 6: every
    # transitive one of 1,000 seeded draws, checked to 600
    rng = random.Random(4096)
    pool = ["".join(p) for L in range(1, 7) for p in product("><", repeat=L)]
    checked = 0
    for _ in range(1000):
        A = FactorSet(frozenset(rng.sample(pool, rng.randint(0, 6))))
        if not is_transitive(A):
            continue
        checked += 1
        for nc in (False, True):
            ps = period_structure(A, nonconstant_only=nc)
            enum = enumerate_periods(A, 600, nc)
            assert enum == {k for k in range(1, 601) if ps.contains(k)}, \
                (sorted(A.members), nc)
    assert checked >= 25


def test_concurrent_invocations_are_deterministic():
    # frozen values and pure functions: parallel callers see one answer
    from concurrent.futures import ThreadPoolExecutor

    from forbor import complete_graph, directed_path, enumerate_periods

    F = ForbiddenSet((directed_path(3),))
    g = complete_graph(5)
    A = FactorSet(frozenset({">>>", "<<"}))

    def search(_):
        v = admits_orientation(g, F, SearchMode("hom"))
        return (v.admits, tuple(sorted(v.witness.arcs)) if v.witness else None)

    def periods(_):
        return tuple(sorted(enumerate_periods(A, 50)))

    with ThreadPoolExecutor(8) as pool:
        assert len(set(pool.map(search, range(12)))) == 1
        assert len(set(pool.map(periods, range(12)))) == 1


def test_mode_ordering():
    # induced containment always implies overlap containment...
    two_arcs = disjoint_union(arc(), arc())
    assert contains_induced(two_arcs, word_to_path("><")) is None
    # ...so an overlap-free digraph is induced-free, but not conversely:
    assert overlap_contains(two_arcs, arc())
    F = ForbiddenSet((two_arcs,))
    rng = random.Random(606)
    pool = [g for n in range(2, 6) for g in enumerate_graphs(n)]
    for g in rng.sample(pool, 25):
        for o in orientations_of(g):
            ind = verify_orientation(o, F, SearchMode("induced"))
            ovl = verify_orientation(o, F, SearchMode("overlap"))
            assert not ovl or ind  # overlap-free implies induced-free
    # for all-connected sets the two verdicts coincide outright
    F2 = ForbiddenSet((b1(), p3()))
    for g in rng.sample(pool, 15):
        for o in orientations_of(g):
            assert (verify_orientation(o, F2, SearchMode("induced"))
                    == verify_orientation(o, F2, SearchMode("overlap")))

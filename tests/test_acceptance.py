"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
live).  Brute-force routes here are independent of the code paths they
certify: full orientation streams instead of the pruned search, explicit
power expansion instead of walk calculus, permutation matching instead of
canonical forms.
"""

import random
import time
from itertools import product

from conftest import arc, b1, c3, p3, tt3

from forbor import (
    FactorSet, ForbiddenSet, HoleClassSpec, SearchMode, admits_orientation,
    bridge_bound, cycle_spectrum, directed_path, disjoint_union,
    enumerate_digraphs, enumerate_graphs, enumerate_periods,
    forbidden_factor_set, graph_union, has_free_word, hom_exists, is_transitive,
    known_duality_catalog, make_cycle, make_path, oracle_chordal,
    oracle_k_colourable, orientations_of, period_structure, transitive_tournament,
    trichotomy_verdict, verify_generalized_duality, verify_orientation,
    word_to_path,
)


def report(n, budget_s, started, detail):
    elapsed = time.monotonic() - started
    print(f"\ncriterion {n}: PASS in {elapsed:.1f}s (budget {budget_s}s) - {detail}")
    assert elapsed < budget_s, f"criterion {n} exceeded its {budget_s}s budget"


def brute_cycle_admits(k, F, acyclic):
    mode = SearchMode("induced", acyclic)
    return any(verify_orientation(o, F, mode) for o in orientations_of(make_cycle(k)))


def brute_path_admits(k, F):
    mode = SearchMode("induced")
    return any(verify_orientation(o, F, mode) for o in orientations_of(make_path(k)))


def test_criterion_1_bipartite_pipeline():
    started = time.monotonic()
    F = ForbiddenSet((tt3(), c3(), p3()))
    A = forbidden_factor_set(F.members)
    assert A.members == {">>", "<<"}
    assert enumerate_periods(A, 20) == set(range(2, 21, 2))
    spectrum = cycle_spectrum(F, 4, 12)
    assert spectrum == {4, 6, 8, 10, 12}
    for k in range(4, 13):
        assert (k in spectrum) == brute_cycle_admits(k, F, acyclic=False)
    report(1, 10, started, "word set {>>,<<}, even periods and spectrum, "
                           "brute-force agreement on [4,12]")


def random_path_sets(count, seed=20240811):
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        words = {"".join(rng.choice("><") for _ in range(rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 3))}
        sets.append(ForbiddenSet(tuple(word_to_path(w) for w in words)))
    return sets


def test_criterion_2_cycle_and_path_bridge():
    started = time.monotonic()
    sets = random_path_sets(50)
    for F in sets:
        A = forbidden_factor_set(F.members)
        lo = max(4, bridge_bound(F))
        for acyclic in (False, True):
            spectrum = cycle_spectrum(F, lo, 12, acyclic=acyclic)
            for k in range(lo, 13):
                assert (k in spectrum) == brute_cycle_admits(k, F, acyclic), \
                    (sorted(h.arcs for h in F.members), k, acyclic)
        for k in range(lo, 13):
            assert has_free_word(A, k) == brute_path_admits(k, F)
    report(2, 300, started, "50 random path sets, cycle and path routes agree on "
                            "[max(4,m+1), 12]")


def all_small_factor_sets():
    words = ["".join(p) for L in (1, 2, 3) for p in product("><", repeat=L)]
    seen = set()
    out = []
    for r in range(len(words) + 1):
        from itertools import combinations
        for sub in combinations(words, r):
            A = FactorSet(frozenset(sub))
            if A.members not in seen:
                seen.add(A.members)
                out.append(A)
    return out


def test_criterion_3_period_structure_theorem():
    started = time.monotonic()
    exhaustive = all_small_factor_sets()
    rng = random.Random(424242)
    pool4 = ["".join(p) for L in (1, 2, 3, 4) for p in product("><", repeat=L)]
    randoms = [FactorSet(frozenset(rng.sample(pool4, rng.randint(0, 5))))
               for _ in range(100)]
    transitive_count = 0
    for A in exhaustive + randoms:
        if not is_transitive(A):
            continue
        transitive_count += 1
        for nc in (False, True):
            ps = period_structure(A, nonconstant_only=nc)
            enum = enumerate_periods(A, 300, nc)
            assert enum == {k for k in range(1, 301) if ps.contains(k)}, \
                (sorted(A.members), nc)
    report(3, 300, started,
           f"{len(exhaustive)} exhaustive + 100 random factor sets, "
           f"{transitive_count} transitive, structures exact to 300")


def test_criterion_4_multiples_closure():
    started = time.monotonic()
    violations = 0
    for F in random_path_sets(50):
        lo = max(4, bridge_bound(F))  # the sound closure threshold
        for acyclic in (False, True):
            spectrum = cycle_spectrum(F, lo, 12, acyclic=acyclic)
            big = cycle_spectrum(F, lo, 36, acyclic=acyclic)
            for k in spectrum:
                if 2 * k not in big or 3 * k not in big:
                    violations += 1
    assert violations == 0
    report(4, 300, started, "2k and 3k follow every spectrum member, "
                            "language route to 36, zero violations")


def test_criterion_5_colouring_and_chordal_equivalences():
    started = time.monotonic()
    FP3 = ForbiddenSet((p3(),))
    FP4 = ForbiddenSet((directed_path(3),))
    FB1 = ForbiddenSet((b1(),))
    hom = SearchMode("hom")
    ind_ac = SearchMode("induced", acyclic=True)
    checked = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            checked += 1
            assert admits_orientation(g, FP3, hom).admits == oracle_k_colourable(g, 2)
            assert admits_orientation(g, FP4, hom).admits == oracle_k_colourable(g, 3)
            assert admits_orientation(g, FB1, ind_ac).admits == oracle_chordal(g)
    assert checked == 1 + 2 + 4 + 11 + 34 + 156
    report(5, 600, started, f"{checked} graphs up to 6 vertices, "
                            "2- and 3-colouring and chordality all agree")


def test_criterion_6_duality_verification():
    started = time.monotonic()
    universe = [d for n in (1, 2, 3, 4) for d in enumerate_digraphs(n)]
    assert [len(enumerate_digraphs(n)) for n in (1, 2, 3, 4)] == [1, 3, 16, 218]
    for name, a, bt, bound in known_duality_catalog():
        assert verify_generalized_duality((a,), (bt,), bound).holds, name

    rep = verify_generalized_duality((c3(),), (transitive_tournament(2),), 4)
    assert not rep.holds
    D = rep.counterexample
    assert hom_exists(c3(), D) is None
    assert hom_exists(D, transitive_tournament(2)) is None

    # no single target on <= 4 vertices captures the triangle-free digraphs;
    # targets surviving the 4-vertex universe fall at 5
    survivors = 0
    for M in universe:
        r4 = verify_generalized_duality((tt3(),), (M,), 4)
        if r4.holds:
            survivors += 1
            r5 = verify_generalized_duality((tt3(),), (M,), 5)
            assert not r5.holds, M
    report(6, 900, started,
           f"catalog pairs hold at 4; triangle pair refuted; all 238 targets "
           f"fail ({survivors} needed the 5-vertex universe)")


def test_criterion_7_expressibility_verdicts():
    started = time.monotonic()

    def is_prime(k):
        return k >= 2 and all(k % d for d in range(2, int(k ** 0.5) + 1))

    primes = trichotomy_verdict(HoleClassSpec.custom(is_prime, tail="other"))
    assert primes.overall == ("NotExpressibleAny", "NotExpressibleAcyclic")
    assert "sncondition" in primes.plain_rules
    assert primes.checks["coupling_cofiniteness"].witnesses

    even = trichotomy_verdict(HoleClassSpec.custom(lambda k: k % 2 == 0, tail="other"))
    assert even.overall == ("NotExpressibleAny", "NotExpressibleAcyclic")
    assert "nec:multiples" in even.plain_rules
    assert even.checks["multiples_closure"].witnesses[0] == (5, 10)

    cofinite = trichotomy_verdict(HoleClassSpec.cofinite_complement([]))
    assert cofinite.overall == ("NotExpressibleAny",)
    assert "nofiniteC" in cofinite.plain_rules
    assert not cofinite.acyclic_not_expressible

    odd = trichotomy_verdict(HoleClassSpec.odd_tail(5))
    assert odd.overall == ("NecessaryConditionsPass",)
    report(7, 60, started, "primes and even-hole classes refuted with tags and "
                           "witnesses, cofinite plain-only, odd tail passes")


def test_criterion_8_overlap_blowup():
    started = time.monotonic()
    F = ForbiddenSet((disjoint_union(arc(), arc()),))
    g = make_path(2)
    ind, ovl = SearchMode("induced"), SearchMode("overlap")
    # enumeration-level facts, independent of the pruned search
    assert any(verify_orientation(o, F, ind) for o in orientations_of(g))
    assert not any(verify_orientation(o, F, ovl) for o in orientations_of(g))
    doubled = graph_union(g, g)
    assert doubled.n == 6 <= 8
    assert not any(verify_orientation(o, F, ind) for o in orientations_of(doubled))
    # and the search agrees
    assert admits_orientation(g, F, ind).admits
    assert not admits_orientation(g, F, ovl).admits
    assert not admits_orientation(doubled, F, ind).admits
    report(8, 60, started, "2 copies of the 3-vertex path exhaust the "
                           "pigeonholes for the two-arc pattern")


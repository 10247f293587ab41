import warnings
from itertools import combinations

import pytest

from forbor import (
    HoleClassSpec, check_coupling_cofiniteness, check_infinite_cycles,
    check_multiples_closure, cycles_in_class, trichotomy_verdict,
)


def is_prime(k):
    return k >= 2 and all(k % d for d in range(2, int(k ** 0.5) + 1))


def primes_spec(bound=200):
    return HoleClassSpec.custom(is_prime, tail="other", bound=bound)


def even_hole_spec(bound=200):
    return HoleClassSpec.custom(lambda k: k % 2 == 0, tail="other", bound=bound)


def test_cycles_in_class():
    assert cycles_in_class(primes_spec(), 10) == {3, 4, 6, 8, 9, 10}
    only5 = HoleClassSpec.finite([5])
    assert cycles_in_class(only5, 9) == {3, 4, 6, 7, 8, 9}
    odd = HoleClassSpec.odd_tail(5)
    assert cycles_in_class(odd, 12) == {3, 4} | set(range(6, 13, 2))
    with pytest.raises(ValueError):
        cycles_in_class(only5, 3)


def test_spec_validation_and_clamping():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = HoleClassSpec.finite([3, 5, 7])
        assert [k for k in range(1, 10) if spec.forbids(k)] == [5, 7]
        assert caught and "dropped" in str(caught[0].message)
    with pytest.raises(ValueError):
        HoleClassSpec.custom(is_prime, tail="sometimes")
    with pytest.raises(ValueError):
        HoleClassSpec.custom(is_prime, tail="other", bound=10)
    with pytest.raises(ValueError):
        HoleClassSpec.odd_tail(9, exceptions=[11])
    with pytest.raises(ValueError):
        primes_spec(bound=60).forbids(61)


def test_multiples_closure_check():
    even = check_multiples_closure(even_hole_spec())
    assert not even.passed and even.rule == "nec:multiples"
    assert even.witnesses[0] == (5, 10)
    no_odd = check_multiples_closure(HoleClassSpec.odd_tail(4))
    assert no_odd.passed
    assert check_multiples_closure(HoleClassSpec.cofinite_complement([4, 6])).passed
    # multiples of composites stay composite, so prime holes never violate
    assert check_multiples_closure(primes_spec()).passed


def test_multiples_closure_violations_die_out():
    # only 8 is a hole length, so 4 -> 8 is the one violation
    result = check_multiples_closure(HoleClassSpec.custom({8}.__contains__, tail="other"))
    assert result.passed and result.threshold == 5
    assert result.note.startswith("violations die out below the sample cap")


def test_odd_tail_threshold_clamped_to_four():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = HoleClassSpec.odd_tail(3)
    assert spec.lengths.start == 4
    assert [str(w.message) for w in caught] == ["odd-tail threshold clamped to 4"]


def test_infinite_cycles_check():
    chordal_like = HoleClassSpec.cofinite_complement([])
    r = check_infinite_cycles(chordal_like)
    assert not r.passed and r.rule == "nofiniteC"
    assert check_infinite_cycles(primes_spec()).passed
    assert check_infinite_cycles(HoleClassSpec.finite([6])).passed


def test_coupling_cofiniteness_check():
    no_odd = check_coupling_cofiniteness(HoleClassSpec.odd_tail(4))
    assert no_odd.passed and no_odd.gcd_r == 2 and no_odd.threshold >= 4
    pr = check_coupling_cofiniteness(primes_spec())
    assert not pr.passed and pr.rule == "sncondition" and pr.gcd_r == 1
    # the witnesses alone already force the obstruction
    import math
    from functools import reduce
    assert reduce(math.gcd, pr.witnesses) == 1
    routed = check_coupling_cofiniteness(HoleClassSpec.cofinite_complement([]))
    assert routed.passed and "not applicable" in routed.note


def test_trichotomy_primes():
    rep = trichotomy_verdict(primes_spec())
    assert rep.overall == ("NotExpressibleAny", "NotExpressibleAcyclic")
    assert rep.plain_not_expressible and rep.acyclic_not_expressible
    assert "sncondition" in rep.plain_rules
    assert "thm:main" in rep.plain_rules and "thm:main*" in rep.acyclic_rules


def test_trichotomy_even_hole_free():
    rep = trichotomy_verdict(even_hole_spec())
    assert rep.plain_not_expressible and rep.acyclic_not_expressible
    assert "nec:multiples" in rep.plain_rules
    mc = rep.checks["multiples_closure"]
    assert mc.witnesses[0] == (5, 10)


def test_trichotomy_multiple_holes():
    for k in (2, 3, 4):
        spec = HoleClassSpec.custom(lambda n, k=k: n % k == 0, tail="other")
        rep = trichotomy_verdict(spec)
        assert rep.plain_not_expressible and rep.acyclic_not_expressible


def test_trichotomy_cofinite():
    rep = trichotomy_verdict(HoleClassSpec.cofinite_complement([]))
    assert rep.overall == ("NotExpressibleAny",)
    assert rep.plain_not_expressible and not rep.acyclic_not_expressible
    assert "nofiniteC" in rep.plain_rules and rep.acyclic_rules == ()


def test_trichotomy_candidates():
    for spec in (HoleClassSpec.odd_tail(7, exceptions=[4]),
                 HoleClassSpec.finite([5, 9])):
        rep = trichotomy_verdict(spec)
        assert rep.overall == ("NecessaryConditionsPass",)
        assert not rep.plain_not_expressible and not rep.acyclic_not_expressible
        # candidates only: no verdict vocabulary ever claims expressibility
        assert "Expressible" not in " ".join(rep.overall).replace("NotExpressible", "")


def test_every_failure_is_reproducible_from_witnesses():
    for spec in (primes_spec(), even_hole_spec()):
        rep = trichotomy_verdict(spec)
        cyc = set(rep.cyc_sample)
        for check in rep.checks.values():
            if check.passed:
                continue
            if check.rule == "nec:multiples":
                for k, lk in check.witnesses:
                    assert k in cyc and lk not in cyc
            if check.rule == "sncondition":
                assert all(k in cyc for k in check.witnesses)


def test_consistency_between_overall_and_checks():
    specs = [primes_spec(), even_hole_spec(), HoleClassSpec.finite([4]),
             HoleClassSpec.odd_tail(6), HoleClassSpec.cofinite_complement([5])]
    for spec in specs:
        rep = trichotomy_verdict(spec)
        some_fail = any(not c.passed for c in rep.checks.values())
        assert some_fail == ("NecessaryConditionsPass" not in rep.overall)


def test_sample_matches_closed_form():
    fin = HoleClassSpec.finite([6, 11])
    cyc = cycles_in_class(fin, 200)
    assert cyc == {3} | {k for k in range(4, 201) if k not in (6, 11)}
    odd = HoleClassSpec.odd_tail(9, exceptions=[4, 6])
    cyc2 = cycles_in_class(odd, 200)
    expect = {3} | {k for k in range(4, 9) if k not in (4, 6)} \
        | {k for k in range(9, 201) if k % 2 == 0}
    assert cyc2 == expect


def test_declared_candidates_pass_at_small_sample_bounds():
    # a sample too short to outgrow early violations must not overrule the
    # declared tail
    for spec, k_max in ((HoleClassSpec.odd_tail(29, exceptions=[9]), 69),
                        (HoleClassSpec.finite([8]), 12)):
        for k in range(4, k_max + 1):
            rep = trichotomy_verdict(spec, k_max=k)
            assert rep.overall == ("NecessaryConditionsPass",)
            assert all(c.passed for c in rep.checks.values())


def test_tail_thresholds_count_every_departing_length():
    # 12 is absent although the odd tail keeps every even length present;
    # the odd exception 13 agrees with the tail, so it does not depart
    spec = HoleClassSpec.odd_tail(15, exceptions=[5, 7, 9, 11, 13, 12])
    assert check_coupling_cofiniteness(spec).threshold == 13
    assert check_multiples_closure(spec).threshold == 13
    # declared or custom, {13} and the odd lengths from 15 depart last at
    # 11, the last present odd length
    spec = HoleClassSpec.odd_tail(15, [13])
    for spec in (spec, HoleClassSpec.custom(spec.forbids, "odd_tail")):
        assert check_coupling_cofiniteness(spec).threshold == 12
        assert check_multiples_closure(spec).threshold == 12
    # a custom finite tail takes its forbidden lengths from the sample
    custom = HoleClassSpec.custom({10}.__contains__, tail="finite")
    assert check_coupling_cofiniteness(custom).threshold == 11
    # 21 is present and 63 absent, so no threshold below 28 holds, whatever k_max
    spec = HoleClassSpec.odd_tail(29, (9,))
    for k_max in range(4, 70):
        assert check_multiples_closure(spec, k_max).threshold == 28
        assert check_coupling_cofiniteness(spec, k_max).threshold == 28
    # a forbidden length beyond the default k_max still counts
    custom = HoleClassSpec.custom({150}.__contains__, tail="finite")
    assert check_multiples_closure(custom, 120).threshold == 151
    assert check_coupling_cofiniteness(custom, 120).threshold == 151


def scanned_threshold(spec):
    """The tail threshold as a scan of every length up to spec.bound finds it."""
    finite = spec.tail_kind() == "finite"
    departing = [k for k in range(4, spec.bound + 1)
                 if spec.forbids(k) == (finite or k % 2 == 0)]
    return max(departing, default=3) + 1


def odd_tail_formula(M, ex):
    return lambda k: (k % 2 == 1) if k >= M else (k in ex)


def declared_pool():
    """Odd-tail and finite specs, each with the per-variant formula for its
    forbidden lengths >= 4 that `forbids` dispatched on before the spec
    held a PeriodicSet."""
    pool = (4, 5, 6, 7, 9, 12, 20, 33)
    specs = [(HoleClassSpec.odd_tail(M, ex), odd_tail_formula(M, ex))
             for M in range(4, 61)
             for ex in [()] + [(k,) for k in pool] + list(combinations(pool, 2))
             if all(k < M for k in ex)]
    specs += [(HoleClassSpec.finite(ls), ls.__contains__) for size in range(4)
              for ls in combinations(range(4, 61), size)]
    return specs


def test_declared_thresholds_match_the_scan():
    # a declared spec and its custom twin, the same set sampled from its
    # formula, report the scanned threshold; the pool's lengths and
    # thresholds lie below 61, so the twin's sample ends there
    for spec, formula in declared_pool():
        want = scanned_threshold(spec)
        twin = HoleClassSpec.custom(formula, spec.tail_kind(), bound=61)
        for s in (spec, twin):
            assert check_multiples_closure(s).threshold == want, spec
            assert check_coupling_cofiniteness(s).threshold == want, spec


#: the predicates of the custom specs checked below
PREDICATES = (is_prime, lambda k: k % 2 == 0, {8}.__contains__, lambda k: k % 3 == 0)
#: beyond its bound, a custom spec with a periodic tail follows the tail
TAIL_RULES = {"finite": lambda k: False, "cofinite": lambda k: True,
              "odd_tail": lambda k: k % 2 == 1}


def test_forbids_matches_the_variant_formulas():
    specs = declared_pool() + [
        (HoleClassSpec.cofinite_complement(ls), lambda k, ls=ls: k not in ls)
        for ls in ((), (4, 6), (5,), (4, 7, 150))]
    specs += [(HoleClassSpec.odd_tail(M, ex), odd_tail_formula(M, ex))
              for M, ex in ((5, ()), (9, (4, 6)), (15, (5, 12)), (29, (9,)),
                            (399, (5, 200)), (1000, (7,)))]
    specs += [(HoleClassSpec.custom(p, tail),
               lambda k, p=p, tail=tail: p(k) if k <= 200 else TAIL_RULES[tail](k))
              for p in PREDICATES for tail in TAIL_RULES]
    for spec, formula in specs:
        n = max(spec.bound, 400)
        assert [k for k in range(1, n + 1) if spec.forbids(k)] \
            == [k for k in range(4, n + 1) if formula(k)], spec
    # an unstructured tail keeps its predicate, read only up to the bound
    for p in PREDICATES:
        spec = HoleClassSpec.custom(p, "other")
        assert [k for k in range(1, 201) if spec.forbids(k)] == [k for k in range(4, 201) if p(k)]
        with pytest.raises(ValueError, match="sampled only up to 200"):
            spec.forbids(201)


def test_coupling_refutation_without_present_lengths_rests_on_the_tail():
    # every sampled length is forbidden, so no gcd and no witness exists
    spec = HoleClassSpec.custom(range(4, 61).__contains__, "other", bound=60)
    check = trichotomy_verdict(spec).checks["coupling_cofiniteness"]
    assert (check.passed, check.rule, check.gcd_r, check.witnesses) \
        == (False, "sncondition", 0, ())
    assert check.note == ("no length from 4 up is present in the sample, so the "
                          "refutation rests on the declared coinfinite tail alone")


def test_declared_thresholds_read_only_the_sample(monkeypatch):
    # a huge declared threshold or member costs no scan up to the spec's bound
    calls = []
    forbids = HoleClassSpec.forbids

    def counted(self, k):
        calls.append(k)
        assert len(calls) <= 120 - 3, "lengths read beyond the k_max sample"
        return forbids(self, k)

    monkeypatch.setattr(HoleClassSpec, "forbids", counted)
    for spec, threshold in ((HoleClassSpec.odd_tail(10 ** 9), 10 ** 9),
                            (HoleClassSpec.finite([5, 10 ** 9]), 10 ** 9 + 1)):
        calls.clear()
        rep = trichotomy_verdict(spec)
        assert rep.overall == ("NecessaryConditionsPass",)
        assert rep.checks["multiples_closure"].threshold == threshold
        assert rep.checks["coupling_cofiniteness"].threshold == threshold


def dispatched_verdict(spec, checks):
    """(overall, plain_rules, acyclic_rules, notes) by the declared tail."""
    failed = tuple(c.rule for c in checks.values() if not c.passed)
    tail = spec.tail_kind()
    if tail in ("finite", "odd_tail"):
        return (("NecessaryConditionsPass",), (), (),
                ("necessary conditions hold; the class is a candidate, "
                 "sufficiency is open",))
    if tail == "cofinite":
        return (("NotExpressibleAny",), ("nofiniteC", "thm:main"), (),
                ("cofinite forbidden set: ruled out for plain orientations, "
                 "still a candidate for acyclic ones",))
    return (("NotExpressibleAny", "NotExpressibleAcyclic"), failed + ("thm:main",),
            failed + ("thm:main*",),
            ("declared tail is neither finite, cofinite nor eventually odd, "
             "so both variants are ruled out",))


def test_verdict_matches_the_tail_dispatch():
    specs = [HoleClassSpec.finite([]), HoleClassSpec.finite([5, 9]),
             HoleClassSpec.cofinite_complement([]), HoleClassSpec.cofinite_complement([4, 6]),
             HoleClassSpec.odd_tail(4), HoleClassSpec.odd_tail(7, [4]),
             HoleClassSpec.odd_tail(15, [5, 12])]
    specs += [HoleClassSpec.custom(p, tail) for p in PREDICATES
              for tail in ("finite", "cofinite", "odd_tail", "other")]
    for spec in specs:
        for k_max in (12, 30, 120):
            rep = trichotomy_verdict(spec, k_max)
            assert (rep.overall, rep.plain_rules, rep.acyclic_rules, rep.notes) \
                == dispatched_verdict(spec, rep.checks)
            assert rep.plain_not_expressible == (rep.plain_rules != ())
            assert rep.acyclic_not_expressible == (rep.acyclic_rules != ())

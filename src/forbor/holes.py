"""Necessary-condition analysis for classes defined by forbidden hole lengths.

A hole is an induced cycle of length at least four; a hole-class spec
describes the forbidden lengths C by a bounded membership sample plus a
declared tail (finite / cofinite / odd tail / unstructured).  The checks
here decide which necessary conditions for expressibility by forbidden
(acyclic) orientations the class violates, and the trichotomy verdict is
read off the failed checks alone.  Tail behaviour is always declared,
never inferred: every verdict is a rule application, not an extrapolation,
and passing classes are only ever reported as candidates.  A declared
variant's thresholds follow from its declaration; only a custom spec is
sampled for them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

RULE_MULTIPLES = "nec:multiples"
RULE_INFINITE_CYCLES = "nofiniteC"
RULE_COUPLING = "sncondition"
RULE_TRICHOTOMY_ACYCLIC = "thm:main*"
RULE_TRICHOTOMY_PLAIN = "thm:main"

#: declared tail kinds: behaviour of C beyond the sampled range
#: - finite: nothing beyond the sample
#: - cofinite: everything beyond the sample
#: - odd_tail: exactly the odd lengths beyond the threshold
#: - other: infinite and coinfinite, with no eventual arithmetic structure
#:   (in particular never eventually equal to the non-multiples of any r)
TAIL_KINDS = ("finite", "cofinite", "odd_tail", "other")

VERDICT_PASS = "NecessaryConditionsPass"
VERDICT_NOT_ANY = "NotExpressibleAny"
VERDICT_NOT_ACYCLIC = "NotExpressibleAcyclic"


def _clamped(lengths):
    lengths = tuple(sorted(set(lengths)))
    short = [k for k in lengths if k < 4]
    if short:
        warnings.warn(f"hole lengths below 4 dropped: {short}", stacklevel=3)
    return tuple(k for k in lengths if k >= 4)


@dataclass(frozen=True)
class HoleClassSpec:
    """A set C of forbidden hole lengths, with declared tail behaviour."""

    variant: str
    members: tuple = ()
    threshold: int = 0
    membership: object = None
    bound: int = 200
    tail: str = ""

    @classmethod
    def finite(cls, lengths):
        ls = _clamped(lengths)
        return cls("finite", members=ls, tail="finite",
                   bound=max(200, max(ls, default=0) + 1))

    @classmethod
    def cofinite_complement(cls, missing):
        """C contains every length >= 4 except the listed ones."""
        ls = _clamped(missing)
        return cls("cofinite_complement", members=ls, tail="cofinite",
                   bound=max(200, max(ls, default=0) + 1))

    @classmethod
    def odd_tail(cls, threshold, exceptions=()):
        if threshold < 4:
            warnings.warn("odd-tail threshold clamped to 4")
            threshold = 4
        ex = _clamped(exceptions)
        if any(k >= threshold for k in ex):
            raise ValueError("odd-tail exceptions must lie below the threshold")
        return cls("odd_tail", members=ex, threshold=threshold, tail="odd_tail",
                   bound=max(200, threshold + 1))

    @classmethod
    def custom(cls, membership, tail, bound=200):
        if tail not in TAIL_KINDS:
            raise ValueError(f"declared tail must be one of {TAIL_KINDS}")
        if bound < 50:
            raise ValueError("custom specs need a sample bound of at least 50")
        return cls("custom", membership=membership, bound=bound, tail=tail)

    def forbids(self, k: int) -> bool:
        """Is length k in C?  Valid for 4 <= k <= bound (all variants)."""
        if k < 4:
            return False
        if self.variant == "finite":
            return k in self.members
        if self.variant == "cofinite_complement":
            return k not in self.members
        if self.variant == "odd_tail":
            return (k % 2 == 1) if k >= self.threshold else (k in self.members)
        if k > self.bound:
            raise ValueError(f"custom spec sampled only up to {self.bound}")
        return bool(self.membership(k))

    def tail_kind(self) -> str:
        if not self.tail:
            raise ValueError("spec has no declared tail")
        return self.tail


def cycles_in_class(spec: HoleClassSpec, k_max: int):
    """Cycle lengths up to k_max whose cycle belongs to the class.

    The triangle has no holes, so 3 is always present; beyond that a
    length is present exactly when it is not forbidden.
    """
    if k_max < 4:
        raise ValueError("k_max must be at least 4")
    return {3} | {k for k in range(4, k_max + 1) if not spec.forbids(k)}


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    rule: str = ""
    witnesses: tuple = ()
    threshold: int = 0
    gcd_r: int = 0
    note: str = ""


def _tail_threshold(spec: HoleClassSpec) -> int:
    """One past the last length departing from a declared finite or odd tail.

    A length departs when it is a declared member, or when its presence
    differs from the tail's (finite: every length present; odd tail:
    exactly the even lengths present).  A declared variant departs only at
    its members, and an odd tail from M also at the largest odd length
    below M (present, where the tail forbids it) once that is at least 5,
    so the threshold is a closed form however large M or a member is.  A
    custom spec's predicate is known only by sampling, so its lengths are
    read up to spec.bound.
    """
    if spec.variant == "custom":
        finite = spec.tail_kind() == "finite"
        departing = [k for k in range(4, spec.bound + 1)
                     if spec.forbids(k) == (finite or k % 2 == 0)]
    else:
        last_odd = spec.threshold - 1 - spec.threshold % 2
        departing = [last_odd] if spec.variant == "odd_tail" and last_odd >= 5 else []
    return max(departing + list(spec.members), default=3) + 1


def check_multiples_closure(spec: HoleClassSpec, k_max: int = 120) -> CheckResult:
    """Some threshold must make the cycle lengths closed under multiples.

    A declared finite or odd tail passes: past the last sampled length
    departing from it, the present lengths (all, or all even) are closed
    under multiples.  Otherwise it fails when violating pairs (k present,
    lk absent) persist above every admissible threshold; the witnesses
    are valid for all of them, led by the smallest violating pair.
    """
    tail = spec.tail_kind()
    if tail == "cofinite":
        return CheckResult(True, note="not applicable: finitely many cycle lengths")
    if tail in ("finite", "odd_tail"):
        return CheckResult(True, threshold=_tail_threshold(spec),
                           note="beyond the threshold the declared tail keeps "
                                "every present length's multiples present")
    k_max = min(k_max, spec.bound)
    cyc = cycles_in_class(spec, k_max)
    m_cap = k_max // 3
    violations = sorted(
        (k, l * k) for k in cyc if k >= 4
        for l in range(2, k_max // k + 1) if l * k not in cyc)
    if not violations:
        return CheckResult(True, threshold=4,
                           note="closed under multiples throughout the sample")
    worst = max(k for k, _ in violations)
    if worst + 1 <= m_cap:
        return CheckResult(True, threshold=worst + 1,
                           note="violations die out below the sample cap "
                                "(threshold is sample-derived)")
    lead = violations[0]
    strong = tuple(v for v in violations if v[0] >= m_cap)[:4]
    return CheckResult(False, rule=RULE_MULTIPLES,
                       witnesses=(lead,) + tuple(v for v in strong if v != lead),
                       note="present lengths with absent multiples recur at "
                            "every admissible threshold")


def check_infinite_cycles(spec: HoleClassSpec) -> CheckResult:
    """Plain-orientation expressibility needs infinitely many cycle lengths.

    Hole classes contain every path, so a finite cycle-length set (a
    cofinite C) rules the plain variant out; any other declared tail
    leaves the set infinite.
    """
    if spec.tail_kind() == "cofinite":
        return CheckResult(False, rule=RULE_INFINITE_CYCLES,
                           note="every path belongs to the class but only "
                                "finitely many cycles do (declared cofinite tail)")
    return CheckResult(True, note="declared tail keeps the cycle-length set infinite")


def check_coupling_cofiniteness(spec: HoleClassSpec, k_max: int = 120) -> CheckResult:
    """Beyond some threshold the cycle lengths must fill out a gcd lattice.

    Hole classes are closed under gluing two member cycles at a vertex, so
    expressibility forces the present lengths to be cofinite in r Z+ for
    some r.  The declared tail decides whether any (threshold, r) can be
    certified; with an unstructured coinfinite tail no lattice is ever
    eventually filled, and the sampled gcd supplies concrete witnesses.
    """
    tail = spec.tail_kind()
    if tail == "cofinite":
        return CheckResult(True, note="not applicable: finitely many cycle "
                                      "lengths (see the infinite-cycles check)")
    if tail == "finite":
        return CheckResult(True, threshold=_tail_threshold(spec), gcd_r=1,
                           note="beyond the largest forbidden length every "
                                "cycle is present")
    if tail == "odd_tail":
        return CheckResult(True, threshold=_tail_threshold(spec), gcd_r=2,
                           note="even lengths fill 2Z+ beyond the threshold")
    # unstructured coinfinite tail: cofiniteness in rZ+ would force the
    # forbidden set to be eventually exactly the non-multiples of r,
    # which the declaration excludes
    cyc = cycles_in_class(spec, min(k_max, spec.bound))
    sample = sorted(k for k in cyc if k >= 4)
    r = reduce(math.gcd, sample, 0)
    witnesses = ()
    g = 0
    for k in sample:
        if math.gcd(g, k) != g:
            witnesses += (k,)
            g = math.gcd(g, k)
        if g == r:
            break
    return CheckResult(False, rule=RULE_COUPLING, gcd_r=r, witnesses=witnesses,
                       note=f"sampled lengths {list(witnesses)} force gcd {r}, "
                            "and the declared coinfinite tail leaves infinitely "
                            f"many multiples of {r} missing")


@dataclass(frozen=True)
class ExpressibilityReport:
    cyc_sample: tuple
    checks: dict
    plain_not_expressible: bool
    plain_rules: tuple
    acyclic_not_expressible: bool
    acyclic_rules: tuple
    overall: tuple
    notes: tuple = ()


def trichotomy_verdict(spec: HoleClassSpec, k_max: int = 120) -> ExpressibilityReport:
    """Classify a hole class against the expressibility trichotomy.

    The verdict is read off the checks: any failed check rules out plain
    orientations, and every failed check but the infinite-cycles one
    (nofiniteC, the rule acyclic orientations escape) rules out acyclic
    ones.  So a finite or eventually-odd forbidden set passes both variants
    (as a candidate only: the conditions are necessary, never sufficient,
    which is why the vocabulary has no "Expressible"), a cofinite one is
    ruled out for plain orientations but stays an acyclic candidate, and
    every other declared tail is ruled out for both variants, with the
    concrete failing condition attached.
    """
    k_max = min(k_max, spec.bound)
    cyc = tuple(sorted(cycles_in_class(spec, k_max)))
    checks = {
        "multiples_closure": check_multiples_closure(spec, k_max),
        "infinite_cycles": check_infinite_cycles(spec),
        "coupling_cofiniteness": check_coupling_cofiniteness(spec, k_max),
    }
    plain = tuple(c.rule for c in checks.values() if not c.passed)
    acyclic = tuple(rule for rule in plain if rule != RULE_INFINITE_CYCLES)
    if acyclic:
        overall = (VERDICT_NOT_ANY, VERDICT_NOT_ACYCLIC)
        note = ("declared tail is neither finite, cofinite nor eventually "
                "odd, so both variants are ruled out")
    elif plain:
        overall = (VERDICT_NOT_ANY,)
        note = ("cofinite forbidden set: ruled out for plain orientations, "
                "still a candidate for acyclic ones")
    else:
        overall = (VERDICT_PASS,)
        note = "necessary conditions hold; the class is a candidate, sufficiency is open"
    return ExpressibilityReport(
        cyc_sample=cyc, checks=checks,
        plain_not_expressible=bool(plain),
        plain_rules=plain + (RULE_TRICHOTOMY_PLAIN,) if plain else (),
        acyclic_not_expressible=bool(acyclic),
        acyclic_rules=acyclic + (RULE_TRICHOTOMY_ACYCLIC,) if acyclic else (),
        overall=overall, notes=(note,))

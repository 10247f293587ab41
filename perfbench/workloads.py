"""The three workloads: seeded inputs, the measured calls and their checks.

A workload is built once per process by `build(name, seed, directory)`.
Its `setup()` writes every input file, warms what a session user pays
for once and fixes `queries`, the batch of at least 100 distinct queries
that a run replays pass after pass.  The batch has a fixed composition;
only the random instances inside it and its order depend on the seed.
`probes()` writes the inputs of the known-defect probes and returns them;
they are issued once per run, after the timed passes, and their inputs
are not part of the set-up.

Each query is one closed-loop call into the program: a `forbor.cli.run`
argument vector for `search` and `lang`, a library call for `sweep`.  Its
`check` validates the outcome against an expected verdict derived in
`oracles.py` and re-verifies every witness; the expected verdict is
computed once, lazily, outside the timed call.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable

import forbor
from forbor import cli
from forbor.graphs import enumerate_digraphs, enumerate_graphs
from forbor.words import automaton

import oracles as O
from oracles import require

#: the session caches a fresh `forbor` process starts without
clear_invocation_caches = automaton.cache_clear

#: passes issue each query of a median group this many times, spread
#: out: a few-millisecond query then gets 15 to 35 samples a run, and
#: its best one rarely falls in a slow stretch of the host
MEDIAN_REPEAT = 4


@dataclass
class Query:
    """One measured call and the check of its outcome.

    `status` is the exit status a CLI query must return (None for library
    calls); a different status or an exception makes the query fail.
    `check` raises VerdictError on a wrong verdict or a bad witness.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    status: int | None = 0
    cli: bool = True
    size: tuple = ()         # orders queries of one kind when they are dealt
    repeat: int = 1          # times the query is issued in each pass


def _lazy(fn):
    """Compute an expected verdict on first use only."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


# ---------------------------------------------------------------------------
# input texts, written without the package's own writers


def graph_text(n, edges):
    return f"graph {n}\n" + "".join(f"e {u} {v}\n" for u, v in sorted(edges))


def digraph_text(n, arcs):
    return f"digraph {n}\n" + "".join(f"a {u} {v}\n" for u, v in sorted(arcs))


def blocks_text(members):
    return "\n".join(digraph_text(n, arcs) for n, arcs in members)


def flip(w):
    """The same oriented path read from its other end."""
    return "".join("<" if c == ">" else ">" for c in reversed(w))


def minimal(words):
    return frozenset(w for w in words if not any(v != w and v in w for v in words))


def random_word(rng, length):
    return "".join(rng.choice("><") for _ in range(length))


def path_set(rng):
    """Two oriented paths, the longer one of four arcs, as words."""
    return sorted({random_word(rng, 4), random_word(rng, rng.randint(1, 3))})


def random_digraph(rng, n, p):
    return n, {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}


def relabel(n, edges, rng):
    """The same graph under a seeded vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


# ---------------------------------------------------------------------------
# pattern families for orientation queries


P3 = (3, {(0, 1), (1, 2)})
TT3 = (3, {(0, 1), (0, 2), (1, 2)})
C3 = (3, {(0, 1), (1, 2), (2, 0)})
OUT2 = (3, {(1, 0), (1, 2)})
IN2 = (3, {(0, 1), (2, 1)})
P4 = (4, {(0, 1), (1, 2), (2, 3)})
TWO_P3 = (6, {(0, 1), (1, 2), (3, 4), (4, 5)})
TWO_ARCS = (4, {(0, 1), (2, 3)})

#: (family, containment) -> members; every family decides a classical property
FAMILIES = {
    ("bip", "induced"): [P3, TT3, C3],
    ("bip", "hom"): [P3],
    ("bip", "overlap"): [TWO_P3, TT3, C3],
    ("chordal", "induced"): [OUT2],
    ("col3", "hom"): [P4],
}

SMALL_PATTERNS = [P3, TT3, C3, OUT2, IN2, TWO_ARCS]


def family_verdict(family, n, edges):
    g = forbor.Graph(n, frozenset(edges))
    if family == "bip":
        return O.is_bipartite(n, edges)
    if family == "chordal":
        return forbor.oracle_chordal(g)
    return forbor.oracle_k_colourable(g, 3)


FAMILY_SCAN = {"bip": O.scan_sources_sinks, "chordal": O.scan_chordal,
               "col3": O.scan_no_3walk}


def check_orientation_witness(n, edges, arcs, scan):
    O.check_covers(n, edges, arcs)
    require(scan(n, arcs), "witness contains a forbidden pattern")


# ---------------------------------------------------------------------------
# the workloads


class Workload:
    name = ""

    def __init__(self, seed: int, directory: Path):
        self.seed = seed
        self.dir = Path(directory)
        self.queries = []        # the batch a run replays
        self.universe_build_s = 0.0
        self.universe_members = 0

    def rng(self, tag):
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        self.queries = self._batch()

    def probes(self):
        """The known-defect probes, their inputs written on this call."""
        return []

    def write(self, name, text):
        path = self.dir / name
        path.write_text(text)
        return str(path)

    def _batch(self):
        raise NotImplementedError


def cli_query(kind, argv, check, status=0):
    return Query(kind, lambda: cli.run(argv), check, status)


def report(outcome):
    return json.loads(outcome[1])["result"]


class Search(Workload):
    """Orientation and homomorphism searches through `forbor.cli.run`."""

    name = "search"

    # Sizes are fixed per slot so that every seed gives the same cost
    # profile; the seed relabels the vertices and draws the random graphs.
    #: rounds of the slots below in a batch
    ROUNDS = 3
    #: (edges, family, containment, acyclic flag), once per batch
    LONG_PATHS = [(150, "bip", "hom", False), (400, "chordal", "induced", True)]
    #: per round: the twelve 100-edge paths of a batch cost about the
    #: same and hold the 90th percentile
    PATHS = [(100, "bip", "induced", False), (100, "bip", "induced", True),
             (100, "bip", "induced", False), (100, "bip", "induced", True)]
    #: per round: the 12-cycles in the six bipartiteness modes cost 4 to
    #: 7 ms and, with the cheap queries below them, hold the median
    CYCLES = [(12, "bip", containment, acyclic)
              for containment in ("induced", "hom", "overlap") for acyclic in (False, True)] + [
        (5, "bip", "induced", False), (8, "bip", "hom", True),
        (24, "chordal", "induced", True), (28, "col3", "hom", False),
        (33, "col3", "hom", True), (40, "chordal", "induced", True)]
    #: random `hom` digraph pairs per round
    HOMS = 6
    COUPLINGS = [((3, 3), "bip", "induced", False), ((4, 6), "chordal", "induced", True),
                 ((5, 7), "col3", "hom", True), ((8, 8), "bip", "overlap", True),
                 ((9, 12), "bip", "hom", False)]
    #: G(n, m) with m = 1.2 n, drawn until 3-colourable: a refutation on a
    #: random graph can take seconds and would dominate a run, so the
    #: refuting 3-colouring query is the odd wheel W5 instead
    GNP_ORDERS = range(10, 17)
    #: the 1100-vertex path into TT1101 recurses past Python's limit
    PROBE_N = 1100

    def probes(self):
        # TT1101 has 605550 arcs; writing it takes about a second
        n = self.PROBE_N
        src = self.write("probe-path.dig", digraph_text(n, {(i, i + 1) for i in range(n - 1)}))
        tgt = self.write("probe-tt.dig", digraph_text(
            n + 1, {(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)}))

        def check(outcome):
            res = report(outcome)
            require(res["exists"], "a directed path maps into a larger tournament")
            O.check_hom_witness(res["mapping"], (n, {(i, i + 1) for i in range(n - 1)}),
                                (n + 1, {(i, j) for i in range(n + 1)
                                         for j in range(i + 1, n + 1)}))
        return [cli_query("hom.probe", ["hom", src, tgt], check)]

    def _orient(self, name, kind, n, edges, family, containment, acyclic, budget=None):
        gfile = self.write(f"{name}.graph", graph_text(n, edges))
        ffile = self.write(f"{name}.forb", blocks_text(FAMILIES[(family, containment)]))
        argv = ["orient", "-g", gfile, "-F", ffile, "--mode", containment]
        argv += ["--acyclic"] if acyclic else []
        if budget is not None:
            def check_budget(outcome):
                require(outcome[1].startswith("work budget exceeded"),
                        "budget exit without its message")
            return cli_query(kind, argv + ["--budget", str(budget)], check_budget, status=2)
        expected = _lazy(lambda: family_verdict(family, n, edges))

        def check(outcome):
            res = report(outcome)
            require(res["admits"] == expected(), f"{kind}: wrong verdict")
            if res["admits"]:
                check_orientation_witness(n, edges, res["witness_arcs"], FAMILY_SCAN[family])
        return cli_query(kind, argv, check)

    def _small(self, name, rng, containment, acyclic):
        n = 6
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges = sorted(pairs[:7])
        members = rng.sample(SMALL_PATTERNS, 2)
        gfile = self.write(f"{name}.graph", graph_text(n, edges))
        ffile = self.write(f"{name}.forb", blocks_text(members))
        argv = ["orient", "-g", gfile, "-F", ffile, "--mode", containment]
        argv += ["--acyclic"] if acyclic else []
        expected = _lazy(lambda: O.brute_admits(n, edges, members, containment, acyclic))

        def check(outcome):
            res = report(outcome)
            require(res["admits"] == expected(), "orient.small: wrong verdict")
            if res["admits"]:
                arcs = {tuple(a) for a in res["witness_arcs"]}
                O.check_covers(n, edges, arcs)
                require(O.avoids((n, arcs), members, containment, acyclic),
                        "orient.small: witness contains a forbidden pattern")
        return cli_query("orient.small", argv, check)

    def _hom(self, name, rng):
        d1 = random_digraph(rng, 6, 0.3)
        d2 = random_digraph(rng, 4, 0.45)
        f1 = self.write(f"{name}.a.dig", digraph_text(*d1))
        f2 = self.write(f"{name}.b.dig", digraph_text(*d2))
        expected = _lazy(lambda: O.hom_map(d1, d2) is not None)

        def check(outcome):
            res = report(outcome)
            require(res["exists"] == expected(), "hom: wrong verdict")
            if res["exists"]:
                O.check_hom_witness(res["mapping"], d1, d2)
        return cli_query("hom", ["hom", f1, f2], check)

    def _core(self, name, rng):
        d = random_digraph(rng, 6, 0.3)
        f = self.write(f"{name}.dig", digraph_text(*d))
        expected = _lazy(lambda: O.core_order(d))

        def check(outcome):
            core = report(outcome)["core"]
            c = (core["n"], {tuple(a) for a in core["arcs"]})
            require(c[0] == expected(), "core: wrong order")
            require(O.hom_map(d, c) is not None and O.hom_map(c, d) is not None,
                    "core: not hom-equivalent to its digraph")
        return cli_query("core", ["core", f], check)

    def _batch(self):
        rng = self.rng("long")
        qs = [self._path(f"long{j}", rng, *slot) for j, slot in enumerate(self.LONG_PATHS)]
        for r in range(self.ROUNDS):
            qs += self._round(r, self.rng(r))
        qs.append(self._orient("budget", "orient.budget", 41, [(i, i + 1) for i in range(40)],
                               "bip", "induced", False, budget=5))
        return qs

    def _path(self, name, rng, k, family, containment, acyclic):
        n, edges = relabel(k + 1, [(i, i + 1) for i in range(k)], rng)
        return self._orient(name, "orient.path", n, edges, family, containment, acyclic)

    def _round(self, r, rng):
        p = f"r{r:02d}-"
        qs = [self._path(f"{p}path{j}", rng, *slot) for j, slot in enumerate(self.PATHS)]
        for j, (k, family, containment, ac) in enumerate(self.CYCLES):
            n, edges = relabel(k, [(i, (i + 1) % k) for i in range(k)], rng)
            qs.append(self._orient(f"{p}cycle{j}", "orient.cycle", n, edges,
                                   family, containment, ac))
            if k == 12:
                qs[-1].repeat = MEDIAN_REPEAT
        for j, ((a, b), family, containment, ac) in enumerate(self.COUPLINGS):
            second = [0] + list(range(a, a + b - 1)) + [0]
            edges = [(i, (i + 1) % a) for i in range(a)] + list(zip(second, second[1:]))
            n, edges = relabel(a + b - 1, edges, rng)
            qs.append(self._orient(f"{p}coupling{j}", "orient.coupling", n, edges,
                                   family, containment, ac))
        for n in self.GNP_ORDERS:
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            while True:
                edges = sorted(rng.sample(pairs, round(1.2 * n)))
                if forbor.oracle_k_colourable(forbor.Graph(n, frozenset(edges)), 3):
                    break
            qs.append(self._orient(f"{p}gnp{n}", "orient.gnp", n, edges, "col3", "hom",
                                   n % 2 == 1))
        rim = [(i, i % 5 + 1) for i in range(1, 6)] + [(0, i) for i in range(1, 6)]
        n, edges = relabel(6, rim, rng)
        qs.append(self._orient(f"{p}wheel", "orient.wheel", n, edges, "col3", "hom", r % 2 == 1))
        qs += [self._small(f"{p}small{j}", rng, ("induced", "hom", "overlap")[j % 3], j >= 3)
               for j in range(6)]
        qs += [self._hom(f"{p}hom{j}", rng) for j in range(self.HOMS)]
        qs += [self._core(f"{p}core{j}", rng) for j in range(2)]
        return qs


# ---------------------------------------------------------------------------


def alternating(k):
    return ("><" * k)[:k]


def check_runs_family(L, ks, nonconstant):
    """Periods of {>^L, <^L} are exactly k >= 2, by explicit power expansion."""
    A = (">" * L, "<" * L)
    for k in range(1, max(ks, default=1) + 1):
        if k == 1:
            require(not any(O.power_free(w, A) for w in "><"), "1 is no period")
            require(1 not in ks, "lang: 1 reported as a period")
        else:
            w = alternating(k)
            require(O.power_free(w, A) and (len(set(w)) == 2 or not nonconstant),
                    "witness word is not periodic")
            require(k in ks, f"lang: period {k} missing")


class Lang(Workload):
    """Factor-language, spectrum, hole-class and translation queries via the CLI."""

    name = "lang"

    #: {>^L, <^L}: fixed queries, once per batch.  Four of the word
    #: layer's costliest inputs take 0.15 to 0.6 s each.  Two flat groups
    #: hold the percentiles, so that the seed's random sets, whose cost
    #: varies, barely move them: sixteen {>^7, <^7} period queries of 50 to
    #: 80 ms hold the 90th (random sets stay below 35 ms), and twenty
    #: {>^5, <^5} ones of 3 to 4.5 ms straddle the median.  The pass is
    #: kept short so that every query is sampled about eight times a run.
    RUNS = [(6, ["structure"]), (8, ["transitive"]), (9, ["periods", "--kmax", "12"]),
            (10, ["periods", "--kmax", "12"])] + [
        (L, ["periods"] + flag + ["--kmax", str(k)])
        for L, ks in ((7, range(34, 42)), (5, range(20, 30)))
        for k in ks for flag in ([], ["--nonconstant"])]
    #: rounds of random queries in a batch
    ROUNDS = 5
    RANDOM = [["structure"], ["structure", "--nonconstant"], ["periods"],
              ["periods", "--nonconstant"], ["transitive"], ["sync"], ["structure"],
              ["periods"], ["transitive"], ["structure", "--nonconstant"],
              ["periods", "--nonconstant"], ["transitive"], ["structure"], ["periods"]]
    HOLE_VARIANTS = ("finite", "cofinite_complement", "odd_tail", "custom")

    def setup(self):
        self.used = {minimal({">" * L, "<" * L}) for L, _ in self.RUNS}
        super().setup()

    def probes(self):
        # the sample-derived multiples check contradicts the odd-tail rule
        # when the sample cap falls inside the exceptions' multiples
        spec = self.write("probe.spec", "variant=odd_tail M=29 exceptions=9\n")
        # a word argument longer than a file name can be makes the CLI
        # raise OSError while it checks whether the word names a file
        return [cli_query("holes.probe", ["holes", "analyze", "-spec", spec, "--kmax", "69"],
                          self._holes_check(None)),
                self._translate_word(alternating(300), "translate.probe")]

    def _factor_set(self, rng, longest):
        """Three random words; the longest, which sets the automaton size, is fixed."""
        while True:
            words = minimal({random_word(rng, longest)} |
                            {random_word(rng, rng.randint(2, longest)) for _ in range(2)})
            if max(map(len, words)) == longest and words not in self.used:
                self.used.add(words)
                return words

    def _lang_check(self, query, words, runs_L=None):
        A = tuple(sorted(words))
        nonconstant = "--nonconstant" in query
        kmax = int(query[query.index("--kmax") + 1]) if "--kmax" in query else None
        expected_periods = {}

        def own_periods(bound):
            if bound not in expected_periods:
                expected_periods[bound] = O.periods(A, bound, nonconstant)
            return expected_periods[bound]
        trans = _lazy(lambda: runs_L is not None or O.transitive(A))
        kind = query[0]

        def check(outcome):
            res = report(outcome)
            if kind == "sync":
                require(res["sync_bound"] == max(len(a) for a in A), "sync: wrong bound")
            elif kind == "transitive":
                require(res["transitive"] == trans(), "transitive: wrong verdict")
            elif kind == "periods":
                ks = set(res["periods"])
                if runs_L:
                    check_runs_family(runs_L, ks, nonconstant)
                    require(max(ks) == kmax, "periods: range end missing")
                else:
                    require(ks == own_periods(kmax), "periods: wrong period set")
            else:
                self._check_structure(res, runs_L, own_periods, trans)
        return check

    @staticmethod
    def _check_structure(res, runs_L, own_periods, trans):
        if runs_L:
            require(res["transitive"] and res["gcd_r"] == 1 and res["exceptions"] == [1]
                    and res["threshold_t0"] == 2, "structure: wrong {>^L,<^L} structure")
            check_runs_family(runs_L, set(res["observed"]), res["nonconstant_variant"])
            require(max(res["observed"]) >= 300, "structure: observed sample too short")
            return
        require(res["transitive"] == trans(), "structure: wrong transitivity")
        ks = own_periods(res["verified_to"])
        sample = sorted(k for k in ks if k <= 300)
        if not res["transitive"]:
            require(res["observed"] == sample and res["gcd_r"] == reduce(math.gcd, sample, 0),
                    "structure: wrong observed periods")
            return
        r = reduce(math.gcd, ks, 0)
        require(res["gcd_r"] == r, "structure: wrong gcd")
        if r == 0:
            require(res["exceptions"] == [] and res["observed"] == [], "structure: empty set")
            return
        exceptions = [k for k in range(r, res["verified_to"] + 1, r) if k not in ks]
        require(res["exceptions"] == exceptions, "structure: wrong exceptions")
        require(res["threshold_t0"] == (exceptions[-1] + r if exceptions else r),
                "structure: wrong threshold")
        require(res["observed"] == sample, "structure: wrong observed periods")

    def _spectrum(self, name, rng, acyclic):
        words = path_set(rng)
        members = [(len(w) + 1, O.word_arcs(w)) for w in words]
        hi = 120
        f = self.write(f"{name}.forb", blocks_text(members))
        argv = ["spectrum", "-F", f, "--range", f"4..{hi}"] + (["--acyclic"] if acyclic else [])

        def expect():
            threshold = max(4, max(n for n, _ in members) + 1)
            A = tuple(sorted(set(words) | {flip(w) for w in words}))
            out = {k for k in range(4, min(hi, threshold - 1) + 1)
                   if O.brute_admits(k, [(i, (i + 1) % k) for i in range(k)],
                                     members, "induced", acyclic)}
            return out | {k for k in O.periods(A, hi, acyclic) if k >= threshold}
        expected = _lazy(expect)

        def check(outcome):
            require(set(report(outcome)["spectrum"]) == expected(), "spectrum: wrong lengths")
        return cli_query("spectrum", argv, check)

    @staticmethod
    def _holes_check(variant):
        verdicts = {"finite": ["NecessaryConditionsPass"],
                    "odd_tail": ["NecessaryConditionsPass"],
                    "cofinite_complement": ["NotExpressibleAny"],
                    "custom": ["NotExpressibleAny", "NotExpressibleAcyclic"]}
        rules = {"nec:multiples", "nofiniteC", "sncondition", "thm:main", "thm:main*"}

        def check(outcome):
            res = report(outcome)
            failed = [c for c in res["checks"].values() if not c["passed"]]
            require(all(c["rule"] in rules for c in failed), "holes: unknown rule tag")
            require(bool(failed) == (res["overall"] != ["NecessaryConditionsPass"]),
                    "holes: verdict disagrees with its checks")
            if variant is not None:
                require(res["overall"] == verdicts[variant], "holes: wrong verdict")
        return check

    def _holes(self, name, rng, variant):
        if variant == "finite":
            text = "members=" + ",".join(map(str, sorted(rng.sample(range(4, 31), 4))))
        elif variant == "cofinite_complement":
            text = "members=" + ",".join(map(str, sorted(rng.sample(range(4, 41), 3))))
        elif variant == "odd_tail":
            m = rng.randrange(5, 16, 2)
            text = f"M={m} exceptions={rng.randrange(4, m)}"
        else:
            text = "tail=coinfinite bound=200 members=" + ",".join(
                map(str, sorted(rng.sample(range(4, 201), 30))))
        f = self.write(f"{name}.spec", f"variant={variant} {text}\n")
        return cli_query("holes", ["holes", "analyze", "-spec", f], self._holes_check(variant))

    def _translate_word(self, w, kind="translate"):

        def check(outcome):
            path = report(outcome)["path"]
            require(path["n"] == len(w) + 1
                    and {tuple(a) for a in path["arcs"]} == O.word_arcs(w),
                    "translate: wrong path")
        return cli_query(kind, ["translate", w], check)

    def _translate_file(self, name, rng):
        w = random_word(rng, 60)
        perm = list(range(len(w) + 1))
        rng.shuffle(perm)
        f = self.write(f"{name}.dig", digraph_text(
            len(w) + 1, {(perm[u], perm[v]) for u, v in O.word_arcs(w)}))

        def check(outcome):
            require(report(outcome)["words"] == sorted({w, flip(w)}), "translate: wrong words")
        return cli_query("translate", ["translate", f], check)

    def _batch(self):
        qs = []
        for j, (L, query) in enumerate(self.RUNS):
            words = {">" * L, "<" * L}
            f = self.write(f"runs{j:02d}.txt", "\n".join(sorted(words)) + "\n")
            qs.append(cli_query(f"lang.runs.{query[0]}", ["lang", query[0], "-A", f] + query[1:],
                                self._lang_check(query, words, runs_L=L)))
            if L == 5:
                qs[-1].repeat = MEDIAN_REPEAT
        for r in range(self.ROUNDS):
            qs += self._round(r, self.rng(r))
        return qs

    def _round(self, r, rng):
        qs = []
        p = f"r{r:02d}-"
        for j, query in enumerate(self.RANDOM):
            words = self._factor_set(rng, 4 + j % 3)
            if query[0] == "periods":
                query = query + ["--kmax", "60"]
            f = self.write(f"{p}set{j}.txt", "\n".join(sorted(words)) + "\n")
            qs.append(cli_query(f"lang.{query[0]}", ["lang", query[0], "-A", f] + query[1:],
                                self._lang_check(query, words)))
        qs += [self._spectrum(f"{p}spec{j}", rng, j % 2 == 1) for j in range(3)]
        qs += [self._holes(f"{p}holes{j}", rng, self.HOLE_VARIANTS[(2 * r + j) % 4])
               for j in range(2)]
        qs += [self._translate_word(random_word(rng, k)) for k in (150, 250)]
        qs.append(self._translate_file(f"{p}path", rng))
        return qs


# ---------------------------------------------------------------------------


class Sweep(Workload):
    """Library calls over the exhaustive universes, as the brute-force checks make them.

    The population is every decision on every graph with at most 6
    vertices, the catalog pairs on every digraph with at most 5 (BATCH
    digraphs per query), the cores of every digraph with at most 4 (BATCH
    per query) and the orientation streams over fixed path sets.
    Each kind is sorted by a cost proxy (order, verdict, size) and dealt
    back and forth into CHUNKS chunks, so every chunk has the same mix;
    each chunk also verifies the catalog pairs over all digraphs with at
    most 4 vertices.  The first chunk is the batch, and the seed orders
    it.  The chunks differ in cost by up to half, as a few refutations
    take most of the time, so the seed does not pick the chunk.
    """

    name = "sweep"
    #: a chunk's pass takes about 2 s, so every query is sampled over ten
    #: times a run
    CHUNKS = 6
    #: digraphs per duality query: single ones take a quarter of a
    #: millisecond, so short that interrupts set the latency tail
    BATCH = 8
    PROPERTIES = [("col2", forbor.ForbiddenSet((forbor.directed_path(2),)), ("hom", False), "bip"),
                  ("col3", forbor.ForbiddenSet((forbor.directed_path(3),)), ("hom", False), "col3"),
                  ("chordal", forbor.ForbiddenSet((forbor.word_to_path("<>"),)),
                   ("induced", True), "chordal")]
    STREAM_CYCLES = range(6, 13)

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
        digraphs = [d for n in range(1, 6) for d in enumerate_digraphs(n)]
        self.universe_build_s = time.perf_counter() - started
        self.universe_members = len(graphs) + len(digraphs)
        self.catalog = [(s, t) for _, s, t, _ in forbor.known_duality_catalog()]
        # a stream without a witness runs through all 2^k orientations, so
        # the path sets are fixed: seeded ones made the cost of a batch
        # swing by a quarter from seed to seed
        rng = random.Random("sweep:streams")
        kinds = [[self._decide(prop, g) for g in graphs] for prop in self.PROPERTIES]
        kinds.append([self._duality(digraphs[i:i + self.BATCH])
                      for i in range(0, len(digraphs), self.BATCH)])
        kinds.append([self._stream(words, k, acyclic) for words in (path_set(rng) for _ in range(3))
                      for k in self.STREAM_CYCLES for acyclic in (False, True)])
        small = [d for d in digraphs if d.n <= 4]
        kinds.append([self._core(small[i:i + self.BATCH]) for i in range(0, len(small), self.BATCH)])
        chunks = [[self._verify(k) for k in range(len(self.catalog))]
                  for _ in range(self.CHUNKS)]
        for queries in kinds:
            # back and forth, so that no chunk always gets the dearest of a run
            for i, q in enumerate(sorted(queries, key=lambda q: q.size)):
                j = i % (2 * self.CHUNKS)
                chunks[min(j, 2 * self.CHUNKS - 1 - j)].append(q)
        self.queries = chunks[0]
        self.rng("order").shuffle(self.queries)

    def _decide(self, prop, g):
        name, F, (containment, acyclic), family = prop
        mode = forbor.SearchMode(containment, acyclic)
        edges = sorted(g.edges)
        expected = _lazy(lambda: family_verdict(family, g.n, edges))

        def check(verdict):
            require(verdict.admits == expected(), f"{name}: wrong verdict")
            if verdict.admits:
                check_orientation_witness(g.n, edges, verdict.witness.arcs, FAMILY_SCAN[family])
        # a refutation searches the whole space, so it sorts after every admit
        return Query(f"decide.{name}", lambda: forbor.admits_orientation(g, F, mode),
                     check, status=None, cli=False,
                     size=(g.n, not expected(), len(edges), edges))

    def _duality(self, batch):
        pairs = self.catalog

        def call():
            return [(forbor.hom_exists(s, D), forbor.hom_exists(D, t))
                    for D in batch for s, t in pairs]

        def check(results):
            homs = iter(results)
            for D in batch:
                d = (D.n, set(D.arcs))
                for s, t in pairs:
                    into, out_of = next(homs)
                    k = len(s.arcs)
                    walk = O.longest_walk(D.n, D.arcs, k) >= k
                    require((into is not None) == walk and (out_of is not None) != walk,
                            "duality: catalog pair violated")
                    if into is not None:
                        O.check_hom_witness(into.mapping, (s.n, set(s.arcs)), d)
                    if out_of is not None:
                        O.check_hom_witness(out_of.mapping, d, (t.n, set(t.arcs)))
        return Query("duality.members", call, check, status=None, cli=False,
                     size=(batch[0].n, len(batch[0].arcs), sorted(batch[0].arcs)))

    def _stream(self, words, k, acyclic):
        F = forbor.ForbiddenSet(tuple(forbor.word_to_path(w) for w in words))
        mode = forbor.SearchMode("induced", acyclic)
        A = tuple(sorted(set(words) | {flip(w) for w in words}))
        cycle = forbor.make_cycle(k)

        def call():
            for o in forbor.orientations_of(cycle):
                if forbor.verify_orientation(o, F, mode):
                    return o
            return None
        expected = _lazy(lambda: k in O.periods(A, k, acyclic))

        def check(o):
            require((o is not None) == expected(), "stream: wrong verdict")
            if o is None:
                return
            arcs = set(o.arcs)
            O.check_covers(k, sorted(cycle.edges), arcs)
            word = "".join(">" if (i, (i + 1) % k) in arcs else "<" for i in range(k))
            require(not any(a in word * 2 for a in A), "stream: witness contains a pattern")
            require(not acyclic or O.is_acyclic_arcs(k, arcs), "stream: witness has a cycle")
        return Query("stream", call, check, status=None, cli=False,
                     size=(k, not expected(), acyclic, sorted(words)))

    def _core(self, batch):

        def check(cores):
            for D, c in zip(batch, cores):
                d, core = (D.n, set(D.arcs)), (c.n, set(c.arcs))
                require(c.n == O.core_order(d), "core: wrong order")
                require(O.hom_map(d, core) is not None and O.hom_map(core, d) is not None,
                        "core: not hom-equivalent to its digraph")
        return Query("core", lambda: [forbor.core_of(D) for D in batch], check, status=None,
                     cli=False, size=(batch[0].n, len(batch[0].arcs), sorted(batch[0].arcs)))

    def _verify(self, k):
        s, t = self.catalog[k]

        def check(rep):
            require(rep.holds and rep.holds_up_to == 4, "verify: catalog pair refuted")
        return Query("duality.verify", lambda: forbor.verify_duality_pair(s, t, 4),
                     check, status=None, cli=False)


WORKLOADS = {w.name: w for w in (Search, Lang, Sweep)}


def build(name, seed, directory) -> Workload:
    return WORKLOADS[name](seed, directory)

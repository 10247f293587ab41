"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library code paths they check:
isomorphism is decided by raw permutation search, periodicity by explicit
power expansion, transitivity by one reachability search per automaton
state, induced cycles by subset enumeration, acyclicity by a search for
a topological order.
"""

from itertools import combinations, permutations, product

import pytest

from forbor import (
    Digraph, FactorAutomaton, Graph, directed_cycle, directed_path,
    induced_subgraph, is_A_free, transitive_tournament, word_to_path,
)


def tt3():
    return transitive_tournament(3)


def c3():
    return directed_cycle(3)


def p3():
    return directed_path(2)


def p4():
    return directed_path(3)


def b1():
    """Three vertices, two arcs out of the centre."""
    return word_to_path("<>")


def arc():
    return directed_path(1)


# ---------------------------------------------------------------------------
# independent oracles


def iso_oracle(d1, d2) -> bool:
    """Isomorphism by raw permutation search (no canonical forms)."""
    if d1.n != d2.n or len(d1.arcs) != len(d2.arcs):
        return False
    return any(
        {(p[u], p[v]) for u, v in d1.arcs} == d2.arcs
        for p in permutations(range(d1.n)))


def induced_embeddings_oracle(h, d):
    """Every induced embedding of h in d, by raw injective-map search."""
    out = []
    for image in permutations(range(d.n), h.n):
        mapped = {(image[u], image[v]) for u, v in h.arcs}
        inside = {(u, v) for u, v in d.arcs if u in image and v in image}
        if mapped == inside:
            out.append(dict(enumerate(image)))
    return out


def topological_order_oracle(d):
    """A vertex order putting every arc of d forward, or None.

    Depth-first search over the sets of vertices placed so far: a vertex
    may come next once all its in-neighbours are placed, and a placed set
    that led nowhere is not entered again.
    """
    preds = [set() for _ in range(d.n)]
    for u, v in d.arcs:
        preds[v].add(u)
    order, placed, dead = [], set(), set()
    stack = [0]                 # per depth, the next vertex to try there
    while stack:
        if len(order) == d.n:
            return order
        v = stack[-1]
        while v < d.n and (v in placed or not preds[v] <= placed
                           or frozenset(placed | {v}) in dead):
            v += 1
        if v == d.n:
            stack.pop()
            dead.add(frozenset(placed))
            if order:
                placed.remove(order.pop())
            continue
        stack[-1] = v + 1
        order.append(v)
        placed.add(v)
        stack.append(0)
    return None


def graph_iso_oracle(g1, g2) -> bool:
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    return any(
        {(min(p[u], p[v]), max(p[u], p[v])) for u, v in g1.edges} == g2.edges
        for p in permutations(range(g1.n)))


def all_labelled_digraphs(n):
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    for bits in product((0, 1), repeat=len(slots)):
        yield Digraph(n, frozenset(s for s, b in zip(slots, bits) if b))


def orbit_minima_oracle(n, slots):
    """Masks over slots (bit i stands for the vertex pair slots[i]) that no
    vertex permutation makes smaller, ascending, by raw permutation search
    over every labelled mask.  A pair missing from slots is looked up
    reversed, so undirected slots list each edge once."""
    index = {s: i for i, s in enumerate(slots)}
    moves = [[index.get((p[u], p[v]), index.get((p[v], p[u]))) for u, v in slots]
             for p in permutations(range(n))]
    return [m for m in range(1 << len(slots))
            if all(sum(1 << move[i] for i in range(len(slots)) if m >> i & 1) >= m
                   for move in moves)]


def first_hom_oracle(d1, d2):
    """First homomorphism d1 -> d2 as a tuple indexed by source vertex, or
    None, by raw enumeration of every vertex map.  Maps are tried in
    lexicographic order over d1's vertices sorted by decreasing in+out
    degree (ties by label), target values ascending: the order in which a
    backtracking search over that vertex order meets its first map."""
    degree = [sum(v in a for a in d1.arcs) for v in range(d1.n)]
    order = sorted(range(d1.n), key=lambda v: (-degree[v], v))
    for values in product(range(d2.n), repeat=d1.n):
        m = [None] * d1.n
        for v, w in zip(order, values):
            m[v] = w
        if all((m[u], m[v]) in d2.arcs for u, v in d1.arcs):
            return tuple(m)
    return None


def max_independent_set(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        for sub in combinations(range(g.n), r):
            if not any(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return r
    return best


def induced_cycle_lengths(g: Graph):
    """Lengths of all induced cycles, by subset enumeration."""
    out = set()
    for r in range(3, g.n + 1):
        for sub in combinations(range(g.n), r):
            h = induced_subgraph(g, sub)
            if len(h.edges) == r and all(h.degree(v) == 2 for v in range(r)):
                # connected 2-regular with r edges on r vertices = a cycle
                seen = {0}
                frontier = [0]
                while frontier:
                    v = frontier.pop()
                    for w in h.neighbours(v):
                        if w not in seen:
                            seen.add(w)
                            frontier.append(w)
                if len(seen) == r:
                    out.add(r)
    return out


def powers_all_free(w, A, n_max) -> bool:
    """Explicit power expansion: w**n is A-free for every n up to n_max."""
    return all(is_A_free(w * n, A) for n in range(1, n_max + 1))


def transitive_oracle(A) -> bool:
    """Transitivity with one reachability search per state: for every state
    s, every state p must be readable from some state reachable from s."""
    aut = FactorAutomaton(A)
    for s in aut.states:
        reach = aut.reachable_from(s)
        for p in aut.states:
            if not any(aut.run(p, start=t) is not None for t in reach):
                return False
    return True


def _free_words(A, k, prefix=""):
    """Every A-free k-word extending prefix, '>' before '<'."""
    if len(prefix) == k:
        yield prefix
        return
    for c in "><":
        if is_A_free(prefix + c, A):
            yield from _free_words(A, k, prefix + c)


def periods_oracle(A, k_max, nonconstant=False):
    """Period lengths up to k_max, by explicit power expansion of k-words.

    Only A-free k-words are expanded (any other word is its own failing
    first power).  Every factor of length <= m of the infinite power of a
    word lies within m + 1 consecutive copies, m the longest member.
    """
    n_max = max(map(len, A.members), default=1) + 1
    return {k for k in range(1, k_max + 1)
            if any(powers_all_free(w, A, n_max) for w in _free_words(A, k)
                   if not nonconstant or len(set(w)) == 2)}


def random_word(rng, length):
    return "".join(rng.choice("><") for _ in range(length))


@pytest.fixture
def rng():
    import random
    return random.Random(20240811)

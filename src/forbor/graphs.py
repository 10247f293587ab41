"""Immutable graphs, digraphs and orientations on dense integer vertices.

Vertices are always 0..n-1.  Everything here is a pure function over
frozen values, so results can be cached and shared between threads.
The module also provides the small-universe isomorphism machinery
(canonical forms, and isomorphism classes enumerated by orderly
generation, one orbit-minimum representative each) that the rest of the
package uses as its brute-force substrate.  It needs only the standard
library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product

#: hard cap for exhaustive isomorphism-class enumeration
ENUM_LIMIT = 5

#: permutation-based canonical forms always work up to this many vertices
CANON_LIMIT = 8

#: beyond CANON_LIMIT, proceed only if colour refinement leaves at most
#: this many class-respecting permutations to scan
CANON_PERM_BUDGET = 1_000_000


def _check_pairs(pairs, n):
    """Raise ValueError for the first pair with an end outside [0, n) or a loop."""
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n and u != v):
            for w in (u, v):
                if not 0 <= w < n:
                    raise ValueError(f"vertex {w} out of range [0, {n})")
            raise ValueError(f"loop at vertex {u}")


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _closure(adj, mask):
    """mask together with every vertex reachable from it along adj's masks."""
    frontier = mask
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= adj[v]
        frontier = reach & ~mask
        mask |= frontier
    return mask


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no loops, no parallel edges."""

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        edges = frozenset((u, v) if u <= v else (v, u) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        _check_pairs(edges, self.n)

    @cached_property
    def _nbr(self):
        """Per-vertex neighbour bitmasks, built once."""
        nbr = [0] * self.n
        for u, v in self.edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        return tuple(nbr)

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def neighbours(self, v):
        return set(_bits(self._nbr[v]))

    def degree(self, v):
        return self._nbr[v].bit_count()

    def sorted_edges(self):
        return sorted(self.edges)


@dataclass(frozen=True)
class Digraph:
    """Directed graph: no loops, no parallel arcs; symmetric pairs allowed."""

    n: int
    arcs: frozenset = frozenset()

    def __post_init__(self):
        arcs = frozenset(map(tuple, self.arcs))
        object.__setattr__(self, "arcs", arcs)
        _check_pairs(arcs, self.n)

    @cached_property
    def _adj(self):
        """Per-vertex (out, in, neighbour) bitmasks, built once."""
        out = [0] * self.n
        inn = [0] * self.n
        for u, v in self.arcs:
            out[u] |= 1 << v
            inn[v] |= 1 << u
        return tuple(out), tuple(inn), tuple(map(int.__or__, out, inn))

    @cached_property
    def _order(self):
        """Vertices by decreasing in+out degree: the kernels' placement order."""
        out, inn, _ = self._adj
        return tuple(sorted(range(self.n),
                            key=lambda v: (-out[v].bit_count() - inn[v].bit_count(), v)))

    @cached_property
    def _rel(self):
        """rel[x][y], the relation from x to y, as _embed numbers it: 0 no arc,
        1 x -> y only, 2 y -> x only, 3 a digon."""
        out, inn, _ = self._adj
        return tuple(tuple((out[x] >> y & 1) | (inn[x] >> y & 1) << 1 for y in range(self.n))
                     for x in range(self.n))

    def has_arc(self, u, v):
        return (u, v) in self.arcs

    def out_neighbours(self, v):
        return set(_bits(self._adj[0][v]))

    def in_neighbours(self, v):
        return set(_bits(self._adj[1][v]))

    def degrees(self, v):
        """(in-degree, out-degree) of v."""
        out, inn, _ = self._adj
        return (inn[v].bit_count(), out[v].bit_count())

    def sorted_arcs(self):
        return sorted(self.arcs)


@dataclass(frozen=True)
class OrientedGraph(Digraph):
    """Digraph with no symmetric arc pair (and no loops)."""

    def __post_init__(self):
        super().__post_init__()
        arcs = self.arcs
        for u, v in arcs:
            if (v, u) in arcs:
                raise ValueError(f"symmetric arc pair between {u} and {v}")


@dataclass(frozen=True)
class Orientation:
    """An assignment of a direction to every edge of a base graph."""

    base: Graph
    arcs: frozenset

    def __post_init__(self):
        arcs = frozenset(map(tuple, self.arcs))
        object.__setattr__(self, "arcs", arcs)
        edges = self.base.edges
        # the arcs orient every edge once iff they are as many and cover them
        if len(arcs) == len(edges) and {(u, v) if u <= v else (v, u) for u, v in arcs} == edges:
            return
        seen = set()
        for u, v in arcs:
            e = (min(u, v), max(u, v))
            if e not in edges:
                raise ValueError(f"arc {(u, v)} is not an edge of the base graph")
            if e in seen:
                raise ValueError(f"edge {e} oriented twice")
            seen.add(e)
        raise ValueError("not every edge received a direction")

    def direction(self, u, v):
        """The oriented arc carried by edge {u, v}."""
        if (u, v) in self.arcs:
            return (u, v)
        if (v, u) in self.arcs:
            return (v, u)
        raise KeyError(f"{{{u}, {v}}} is not an edge")

    def oriented_graph(self):
        return OrientedGraph(self.base.n, self.arcs)


def underlying(d: Digraph) -> Graph:
    """Underlying simple graph of a digraph (digons collapse to one edge)."""
    return Graph(d.n, frozenset((min(u, v), max(u, v)) for u, v in d.arcs))


# ---------------------------------------------------------------------------
# generators


def make_path(k: int) -> Graph:
    """Path with k edges (k+1 vertices); k = 0 gives a single vertex."""
    if k < 0:
        raise ValueError("edge count must be >= 0")
    return Graph(k + 1, frozenset((i, i + 1) for i in range(k)))


def make_cycle(k: int) -> Graph:
    """Cycle with k edges and k vertices, k >= 3."""
    if k < 3:
        raise ValueError("a cycle needs at least 3 edges")
    return Graph(k, frozenset((i, (i + 1) % k) for i in range(k)))


def coupling(r: int, s: int) -> Graph:
    """Two cycles, of r and s edges, glued at a single shared vertex.

    The shared vertex is 0; the result has r+s-1 vertices and r+s edges.
    """
    if r < 3 or s < 3:
        raise ValueError("both cycles need at least 3 edges")
    edges = {(i, i + 1) for i in range(r - 1)} | {(0, r - 1)}
    second = [0] + list(range(r, r + s - 1))
    edges |= {(min(a, b), max(a, b)) for a, b in zip(second, second[1:])}
    edges.add((0, r + s - 2))
    return Graph(r + s - 1, frozenset(edges))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset(combinations(range(n), 2)))


def directed_path(k: int) -> OrientedGraph:
    """Directed path with k arcs, all pointing 0 -> 1 -> ... -> k."""
    if k < 0:
        raise ValueError("arc count must be >= 0")
    return OrientedGraph(k + 1, frozenset((i, i + 1) for i in range(k)))


def directed_cycle(k: int) -> OrientedGraph:
    if k < 3:
        raise ValueError("a directed cycle needs at least 3 arcs")
    return OrientedGraph(k, frozenset((i, (i + 1) % k) for i in range(k)))


def transitive_tournament(n: int) -> OrientedGraph:
    """Acyclic tournament on n vertices: arc i -> j whenever i < j."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return OrientedGraph(n, frozenset(combinations(range(n), 2)))


def disjoint_union(*ds):
    """Disjoint union of digraphs (vertices of later parts are shifted)."""
    n = 0
    arcs = set()
    oriented = all(isinstance(d, OrientedGraph) for d in ds)
    for d in ds:
        arcs |= {(u + n, v + n) for u, v in d.arcs}
        n += d.n
    return OrientedGraph(n, frozenset(arcs)) if oriented else Digraph(n, frozenset(arcs))


def graph_union(*gs):
    """Disjoint union of undirected graphs."""
    n = 0
    edges = set()
    for g in gs:
        edges |= {(u + n, v + n) for u, v in g.edges}
        n += g.n
    return Graph(n, frozenset(edges))


def connected_components(d):
    """Weakly connected components, as sorted vertex lists (works for Graph too)."""
    nbr = d._adj[2] if isinstance(d, Digraph) else d._nbr
    seen = 0
    comps = []
    for start in range(d.n):
        if not seen >> start & 1:
            comp = _closure(nbr, 1 << start)
            seen |= comp
            comps.append(_bits(comp))
    return comps


def induced_subdigraph(d: Digraph, vertices):
    """Induced subdigraph on the given vertices, relabelled 0..k-1 in sorted order."""
    vs = sorted(vertices)
    index = {v: i for i, v in enumerate(vs)}
    arcs = frozenset((index[u], index[v]) for u, v in d.arcs
                     if u in index and v in index)
    cls = OrientedGraph if isinstance(d, OrientedGraph) else Digraph
    return cls(len(vs), arcs)


def induced_subgraph(g: Graph, vertices):
    vs = sorted(vertices)
    index = {v: i for i, v in enumerate(vs)}
    edges = frozenset((index[u], index[v]) for u, v in g.edges
                      if u in index and v in index)
    return Graph(len(vs), edges)


# ---------------------------------------------------------------------------
# containment, orientation enumeration, acyclicity, girth


def _allowed(h: Digraph, nbr):
    """Per vertex of h, the mask of host vertices of at least its underlying degree.

    nbr holds the host's neighbour masks.  A vertex of degree at most the
    host's least degree gets the full mask without a scan.
    """
    degree = list(map(int.bit_count, nbr))
    least = min(degree, default=0)
    full = (1 << len(nbr)) - 1
    return [full if k <= least else sum(1 << a for a, j in enumerate(degree) if j >= k)
            for k in map(int.bit_count, h._adj[2])]


def _non_adjacent(nbr):
    """Per vertex, the other vertices not adjacent to it."""
    full = (1 << len(nbr)) - 1
    return [full & ~m & ~(1 << b) for b, m in enumerate(nbr)]


def _embed(host, order, rel, allowed):
    """First induced embedding placing the vertices in order, or None.

    host[r][b] holds the host vertices standing to b in relation r, as
    rel numbers them; an edge whose direction is not yet decided stands
    in none.  order[i] goes to the smallest vertex in allowed[order[i]]
    that stands to every image already placed as the pattern asks, and
    a dead end backtracks.  Returns the map as a dict in placement order.
    """
    images, cands = [], []      # per placed vertex: its image, candidates left
    while len(images) < len(order):
        x = order[len(images)]
        m = allowed[x]
        for y, b in zip(order, images):
            m &= host[rel[x][y]][b]
        images.append(None)
        cands.append(m)
        while not cands[-1]:
            images.pop()
            cands.pop()
            if not cands:
                return None
        low = cands[-1] & -cands[-1]
        cands[-1] ^= low
        images[-1] = low.bit_length() - 1
    return dict(zip(order, images))


def contains_induced(h: Digraph, d: Digraph):
    """Injective vertex map embedding h as an *induced* subdigraph of d.

    Returns the first embedding found (vertices of h assigned in decreasing
    degree order, images tried in ascending order) or None.  The image's
    induced subdigraph of d is exactly isomorphic to h: arcs and non-arcs
    both have to match.
    """
    if h.n > d.n:
        return None
    out, inn, nbr = d._adj
    host = (_non_adjacent(nbr), [i & ~o for o, i in zip(out, inn)],
            [o & ~i for o, i in zip(out, inn)], [o & i for o, i in zip(out, inn)])
    return _embed(host, h._order, h._rel, _allowed(h, nbr))


def is_acyclic(d: Digraph) -> bool:
    """True iff d has no directed cycle (a digon counts as a 2-cycle).

    Peels source masks: each round removes every live vertex with no live
    in-neighbour, and only the out-neighbours of one round's sources can
    be sources in the next.  d is acyclic iff the peeling empties it.
    """
    out, inn, _ = d._adj
    live = todo = (1 << d.n) - 1
    while todo:
        peel = 0
        while todo:
            low = todo & -todo
            if not inn[low.bit_length() - 1] & live:
                peel |= low
            todo ^= low
        live ^= peel
        while peel:
            low = peel & -peel
            todo |= out[low.bit_length() - 1]
            peel ^= low
    return not live


def orientations_of(g: Graph, acyclic_only: bool = False):
    """All 2^|E| orientations of g, lazily, in lexicographic direction order.

    Edges are taken in sorted order; for each edge the direction low->high
    is tried before high->low, with the last edge varying fastest.  With
    acyclic_only the stream is filtered down to acyclic orientations.
    """
    for arcs in product(*(((u, v), (v, u)) for u, v in g.sorted_edges())):
        o = Orientation(g, arcs)
        if acyclic_only and not is_acyclic(o.oriented_graph()):
            continue
        yield o


def girth(g: Graph):
    """Length of a shortest cycle, or math.inf for forests."""
    best = math.inf
    adj = {v: g.neighbours(v) for v in range(g.n)}
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: None}
        queue = [root]
        while queue:
            nxt = []
            for v in queue:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        parent[w] = v
                        nxt.append(w)
                    elif parent[v] != w:
                        # non-tree edge closes a cycle through the BFS tree
                        best = min(best, dist[v] + dist[w] + 1)
            queue = nxt
    return best


# ---------------------------------------------------------------------------
# isomorphism and canonical forms


def _refined_colours(d: Digraph):
    """Stable vertex colouring refined from (in-degree, out-degree)."""
    colours = {v: d.degrees(v) for v in range(d.n)}
    while True:
        fresh = {}
        for v in range(d.n):
            outs = sorted(colours[w] for w in d.out_neighbours(v))
            ins = sorted(colours[w] for w in d.in_neighbours(v))
            fresh[v] = (colours[v], tuple(outs), tuple(ins))
        # compress to ranks so tuples stay small
        ranking = {c: i for i, c in enumerate(sorted(set(fresh.values())))}
        fresh = {v: ranking[fresh[v]] for v in fresh}
        if len(set(fresh.values())) == len(set(colours.values())):
            return fresh
        colours = fresh


def _class_respecting_permutations(colours, n):
    """Permutations mapping vertices onto positions sorted by colour class."""
    order = sorted(range(n), key=lambda v: (colours[v], v))
    blocks = []
    i = 0
    while i < n:
        j = i
        while j < n and colours[order[j]] == colours[order[i]]:
            j += 1
        blocks.append(order[i:j])
        i = j
    for parts in product(*(permutations(b) for b in blocks)):
        perm = [0] * n
        pos = 0
        for part in parts:
            for v in part:
                perm[v] = pos
                pos += 1
        yield perm


def canonical_form(d: Digraph) -> Digraph:
    """Canonical representative of d's isomorphism class.

    Minimizes the sorted arc tuple over all permutations compatible with a
    degree-refinement colouring.  Always fine up to CANON_LIMIT vertices;
    larger inputs are accepted only while the refinement keeps the
    permutation count within CANON_PERM_BUDGET.
    """
    colours = _refined_colours(d)
    if d.n > CANON_LIMIT:
        sizes = {}
        for c in colours.values():
            sizes[c] = sizes.get(c, 0) + 1
        perms = 1
        for s in sizes.values():
            perms *= math.factorial(s)
            if perms > CANON_PERM_BUDGET:
                raise ValueError(
                    f"canonical form would scan {perms}+ permutations; "
                    f"exhaustive search is capped at {CANON_PERM_BUDGET}")
    best = None
    for perm in _class_respecting_permutations(colours, d.n):
        arcs = tuple(sorted((perm[u], perm[v]) for u, v in d.arcs))
        if best is None or arcs < best:
            best = arcs
    cls = OrientedGraph if isinstance(d, OrientedGraph) else Digraph
    return cls(d.n, frozenset(best or ()))


def is_isomorphic(d1: Digraph, d2: Digraph) -> bool:
    if d1.n != d2.n or len(d1.arcs) != len(d2.arcs):
        return False
    return canonical_form(d1).arcs == canonical_form(d2).arcs


def graph_canonical_form(g: Graph) -> Graph:
    """Canonical representative for undirected graphs, via the digraph form."""
    d = Digraph(g.n, frozenset((u, v) for u, v in g.edges) |
                frozenset((v, u) for u, v in g.edges))
    c = canonical_form(d)
    return underlying(c)


def graphs_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    return graph_canonical_form(g1).edges == graph_canonical_form(g2).edges


# ---------------------------------------------------------------------------
# exhaustive universes


def _orbit_minima(n, slots):
    """Sorted masks over slots that no vertex permutation makes smaller.

    Bit i stands for the vertex pair slots[i]; a pair missing from slots
    is looked up reversed, so graphs list each edge once.  Orderly
    generation (Read, "Every one a winner", 1978) rests on one lemma: if m
    is the least mask of its orbit, so is m with its lowest zero bit set
    (Read's lemma, applied to the complement).  Every minimum but the full
    mask thus has exactly one parent, and a descent from the full mask
    that clears one set bit below the lowest zero bit, keeping only
    minima, meets each minimum once.
    """
    index = {p: i for i, p in enumerate(slots)}
    moves = [[1 << index.get((p[u], p[v]), index.get((p[v], p[u]))) for u, v in slots]
             for p in permutations(range(n))]
    full = (1 << len(slots)) - 1
    found = [full]
    stack = [full]
    while stack:
        parent = stack.pop()
        for z in range((~parent & parent + 1).bit_length() - 1):
            m = parent ^ 1 << z
            bits = _bits(m)
            if all(sum(map(move.__getitem__, bits)) >= m for move in moves):
                found.append(m)
                stack.append(m)
    return sorted(found)


@lru_cache(maxsize=None)
def _digraph_classes(n):
    arc_slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    return tuple(Digraph(n, frozenset(arc_slots[i] for i in _bits(m)))
                 for m in _orbit_minima(n, arc_slots))


@lru_cache(maxsize=None)
def enumerate_digraphs(n: int, oriented_only: bool = False, limit: int = ENUM_LIMIT):
    """One canonical representative per isomorphism class of digraphs on n vertices.

    The representative is the labelling whose arc bitmask is least in its
    orbit (_orbit_minima), and results come back sorted by that mask, so
    the order is stable.  With oriented_only, classes containing a
    symmetric arc pair are dropped from the same list.
    """
    if n > limit:
        raise ValueError(f"enumeration bound exceeded: {n} > {limit}")
    if n < 1:
        raise ValueError("need at least one vertex")
    if not oriented_only:
        return _digraph_classes(n)
    return tuple(OrientedGraph(n, d.arcs) for d in _digraph_classes(n)
                 if not any((v, u) in d.arcs for u, v in d.arcs))


@lru_cache(maxsize=None)
def enumerate_graphs(n: int, limit: int = 6):
    """One representative per isomorphism class of simple graphs on n vertices.

    As for enumerate_digraphs: the edge bitmask least in its orbit, sorted.
    """
    if n > limit:
        raise ValueError(f"enumeration bound exceeded: {n} > {limit}")
    if n < 1:
        raise ValueError("need at least one vertex")
    edge_slots = list(combinations(range(n), 2))
    return tuple(Graph(n, frozenset(edge_slots[i] for i in _bits(m)))
                 for m in _orbit_minima(n, edge_slots))

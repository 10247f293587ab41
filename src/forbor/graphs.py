"""Immutable graphs, digraphs and orientations on dense integer vertices.

Vertices are always 0..n-1.  Everything here is a pure function over
frozen values, so results can be cached and shared between threads.
The module also provides the isomorphism machinery that the rest of the
package uses as its brute-force substrate: canonical forms, found by a
refinement and individualisation search, and small universes of
isomorphism classes, one orbit-minimum representative each by orderly
generation.  _embed is the one backtracking kernel: containment,
isomorphism, the orientation search, homomorphisms and cores all run on
it.  Its tables (_Tables) read n and arcs, and a graph's arcs are both
directions of each edge, so every kernel entry point takes a Graph,
Digraph or Orientation as it is; an orientation shares its base graph's
adjacency, non-adjacency and degrees.  Each value builds these tables
once, as a host and as a pattern: a pattern's placement checks, its
per-position degrees, its pin plans for the orientation search, its
components and the rank that reads a hom's images back by vertex.  An
orientation stream (orientations_of) builds none of them from arcs: it
flips the changed edges' bits in running out- and in-masks and hands
each orientation its tables.  It needs only the standard library.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations

#: hard cap for exhaustive isomorphism-class enumeration
ENUM_LIMIT = 5

#: canonical_form refuses past this much search: each node costs the order
CANON_WORK_BUDGET = 100_000


class WorkBudgetExceeded(RuntimeError):
    """Raised when a search runs out of its node budget; never a silent False."""


def _check_pairs(pairs, n):
    """Raise ValueError if the order n is not a non-negative int (a bool is
    not one), else for the first pair with an end that is not an int, an
    end outside [0, n), or a loop."""
    if type(n) is not int or n < 0:
        raise ValueError(f"order {n!r} is not a non-negative integer")
    for u, v in pairs:
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n and u != v):
            for w in (u, v):
                if not isinstance(w, int) or isinstance(w, bool):
                    raise ValueError(f"vertex {w!r} of pair {(u, v)!r} is not an integer")
                if not 0 <= w < n:
                    raise ValueError(f"vertex {w} out of range [0, {n})")
            if u == v:
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


class _Tables:
    """The kernels' per-value tables, read from n and arcs and built once:
    a host's adjacency, relations and degree masks, and a pattern's
    placement order and rank, checks, pin plans and components.  None
    depends on the value searched against, so every search shares them."""

    @cached_property
    def _adj(self):
        """Per-vertex (out, in, neighbour) bitmasks."""
        out = [0] * self.n
        inn = [0] * self.n
        for u, v in self.arcs:
            out[u] |= 1 << v
            inn[v] |= 1 << u
        return tuple(out), tuple(inn), self._neighbours(out, inn)

    def _neighbours(self, out, inn):
        return tuple(map(int.__or__, out, inn))

    @cached_property
    def _host(self):
        """contains_induced's host: per vertex, the vertices in relations 0-3 to it."""
        out, inn, nbr = self._adj
        full = (1 << self.n) - 1
        return (tuple(full & ~m & ~(1 << b) for b, m in enumerate(nbr)),
                tuple(i & ~o for o, i in zip(out, inn)),
                tuple(o & ~i for o, i in zip(out, inn)), tuple(map(int.__and__, out, inn)))

    @cached_property
    def _at_least(self):
        """Per degree k to the greatest plus one, the vertices of degree at least k."""
        degree = list(map(int.bit_count, self._adj[2]))
        return tuple(sum(1 << v for v, j in enumerate(degree) if j >= k)
                     for k in range(max(degree, default=0) + 2))

    @cached_property
    def _order(self):
        """Vertices by decreasing in+out degree: the kernels' placement order."""
        out, inn, _ = self._adj
        return tuple(sorted(range(self.n),
                            key=lambda v: (-out[v].bit_count() - inn[v].bit_count(), v)))

    @cached_property
    def _rank(self):
        """Per vertex, its position in _order: reads _embed's images by vertex."""
        rank = [0] * self.n
        for i, v in enumerate(self._order):
            rank[v] = i
        return tuple(rank)

    @cached_property
    def _needs(self):
        """Per position of _order, its vertex's underlying degree: the
        least degree of a host vertex it may take in contains_induced."""
        nbr = self._adj[2]
        return tuple(nbr[v].bit_count() for v in self._order)

    @cached_property
    def _checks(self):
        """_embed's checks for placing self in _order as a pattern."""
        return _placement_checks(self, self._order)

    @cached_property
    def _hom_checks(self):
        """_embed's checks for placing self in _order as a hom source."""
        return _placement_checks(self, self._order, every=False)

    @cached_property
    def _pins(self):
        """The orientation search's pin plan for self as a pattern (_pin_plan)."""
        return _pin_plan(self)

    @cached_property
    def _hom_pins(self):
        """The orientation search's pin plan for self as a hom source."""
        return _pin_plan(self, every=False)

    @cached_property
    def _components(self):
        """The weakly connected components as induced subdigraphs, in
        connected_components' order."""
        return tuple(induced_subdigraph(self, c) for c in connected_components(self))

    @cached_property
    def _hom_host(self):
        """_embed's host for homs into self: in, out and digon masks as relations 1-3."""
        out, inn, _ = self._adj
        return None, inn, out, tuple(map(int.__and__, out, inn))


@dataclass(frozen=True)
class Graph(_Tables):
    """Simple undirected graph: no loops, no parallel edges."""

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        try:
            edges = frozenset((u, v) if u <= v else (v, u) for u, v in self.edges)
        except TypeError:  # ends that do not compare are not both integers
            _check_pairs(self.edges, self.n)
            raise
        object.__setattr__(self, "edges", edges)
        _check_pairs(edges, self.n)

    @cached_property
    def arcs(self):
        """Both directions of each edge: the digraph the kernels read."""
        return self.edges | {(v, u) for u, v in self.edges}

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def neighbours(self, v):
        return set(_bits(self._adj[2][v]))

    def degree(self, v):
        return self._adj[2][v].bit_count()

    def sorted_edges(self):
        return sorted(self.edges)


@dataclass(frozen=True)
class Digraph(_Tables):
    """Directed graph: no loops, no parallel arcs; symmetric pairs allowed."""

    n: int
    arcs: frozenset = frozenset()

    def __post_init__(self):
        arcs = frozenset(map(tuple, self.arcs))
        object.__setattr__(self, "arcs", arcs)
        _check_pairs(arcs, self.n)

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
class Orientation(_Tables):
    """An assignment of a direction to every edge of a base graph."""

    base: Graph
    arcs: frozenset

    def __post_init__(self):
        arcs = frozenset(map(tuple, self.arcs))
        object.__setattr__(self, "arcs", arcs)
        edges = self.base.edges
        # the arcs orient every edge once iff they are as many and cover them
        if len(arcs) == len(edges) and {(u, v) if u <= v else (v, u) for u, v in arcs
                                        if type(u) is int is type(v)} == edges:
            return
        seen = set()
        for u, v in arcs:
            if type(u) is not int or type(v) is not int:
                _check_pairs(((u, v),), self.base.n)
            e = (min(u, v), max(u, v))
            if e not in edges:
                raise ValueError(f"arc {(u, v)} is not an edge of the base graph")
            if e in seen:
                raise ValueError(f"edge {e} oriented twice")
            seen.add(e)
        raise ValueError("not every edge received a direction")

    @property
    def n(self):
        """The base graph's order: the kernels read the arcs on its vertices."""
        return self.base.n

    # an orientation keeps its base graph's adjacency, non-adjacency
    # (relation 0) and degrees; with no digons, in and out are relations 1, 2
    def _neighbours(self, out, inn):
        return self.base._adj[2]

    @cached_property
    def _host(self):
        return self.base._host[0], self._adj[1], self._adj[0], (0,) * self.n

    _at_least = property(lambda self: self.base._at_least)

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
    return Graph(d.n, d.arcs)


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
    edges |= set(zip(second, second[1:]))
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
    return underlying(disjoint_union(*gs))


def connected_components(d):
    """Weakly connected components of a graph, digraph or orientation, as sorted lists."""
    nbr = d._adj[2]
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
    return underlying(induced_subdigraph(g, vertices))


# ---------------------------------------------------------------------------
# containment, orientation enumeration, acyclicity, girth


def _allowed(h: Digraph, d: Digraph):
    """Per vertex of h, the mask of d's vertices of at least its underlying
    degree, read from d._at_least."""
    at = d._at_least
    return [at[k] if k < len(at) else 0 for k in map(int.bit_count, h._adj[2])]


def _placement_checks(d: Digraph, order, every=True):
    """_embed's checks for placing d's vertices in order: per position i, the
    pairs (j, r) of a later position j and the relation r from order[j] to
    order[i] (0 none, 1 an arc into order[i] only, 2 out of it only, 3 both).
    every takes all later positions, as containment needs; otherwise only
    adjacent ones, so a sparse hom source costs time linear in its arcs.
    """
    out, inn, nbr = d._adj
    pos = [0] * d.n
    for i, v in enumerate(order):
        pos[v] = i
    return tuple(tuple(_pair(pos[x], (inn[y] >> x & 1) | (out[y] >> x & 1) << 1)
                       for x in (order[i + 1:] if every else _bits(nbr[y])) if pos[x] > i)
                 for i, y in enumerate(order))


def _pin_plan(d: Digraph, every=True):
    """d's pins for the orientation search, one per arc x -> y of d, x and y
    in _order: (x, y, the _placement_checks for placing x, y and then the
    rest of _order, the rest).  It reads d alone; search._prepare adds a
    host's domains."""
    order, out = d._order, d._adj[0]
    plan = []
    for x in order:
        for y in order:
            if out[x] >> y & 1:
                rest = tuple(z for z in order if z != x and z != y)
                plan.append((x, y, _placement_checks(d, (x, y, *rest), every), rest))
    return tuple(plan)


@lru_cache(maxsize=None)
def _pair(j, r):
    """One shared (j, r) tuple per check, so check tables hold only references
    (at most four pairs per position of the largest digraph placed)."""
    return j, r


def _embed(host, checks, domains, budget=math.inf):
    """Images of the placement positions in the first map found, or None.

    domains[i], narrowed in place, masks the host vertices position i may
    take.  Values are tried ascending; placing position i at w narrows each
    later domain j, for (j, r) in checks[i], to host[r][w], the vertices
    standing to w in relation r as _placement_checks numbers it.  A value
    that empties a domain has no completion and is rejected (forward
    checking: Haralick and Elliott, AIJ 14, 1980), so the map is the first
    in placement order.  Each value tried is one unit of work; past budget,
    WorkBudgetExceeded.
    """
    if not domains:
        return []
    images, stack = [], []      # per placed position: image; (values left, old domains)
    m, work = domains[0], 0
    while True:
        if not m:                           # exhausted: take back the last placement
            if not images:
                return None
            images.pop()
            m, old = stack.pop()
            for (j, _), d in zip(checks[len(images)], old):
                domains[j] = d
            continue
        low = m & -m
        m ^= low
        work += 1
        if work > budget:
            raise WorkBudgetExceeded(f"search exceeded {budget} nodes")
        w = low.bit_length() - 1
        row = checks[len(images)]
        for j, r in row:
            if not domains[j] & host[r][w]:
                break
        else:
            images.append(w)
            if len(images) == len(domains):
                return images
            old = []
            for j, r in row:
                old.append(domains[j])
                domains[j] &= host[r][w]
            stack.append((m, old))
            m = domains[len(images)]


def contains_induced(h: Digraph, d: Digraph):
    """Injective vertex map embedding h as an *induced* subdigraph of d.

    Returns the first embedding found (vertices of h assigned in decreasing
    degree order, images tried in ascending order) or None.  The image's
    induced subdigraph of d is exactly isomorphic to h: arcs and non-arcs
    both have to match.  It reads d's relations (_host) and degree masks
    (_at_least), built once per value, and an orientation's once per base,
    against h's per-position degrees (_needs), built once per pattern.
    """
    images = _induced_images(h, d)
    return None if images is None else dict(zip(h._order, images))


def _induced_images(h, d):
    """_embed's images, in h._order, for contains_induced's first
    embedding of h in d, or None."""
    if h.n > d.n:
        return None
    at = d._at_least
    top = len(at)
    return _embed(d._host, h._checks, [at[k] if k < top else 0 for k in h._needs])


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

    The directions advance as an odometer (mixed-radix generation, Knuth,
    TAOCP 4A, 7.2.1.1, Algorithm M): a step turns the trailing high->low
    edges back to low->high and the edge before them to high->low, and
    flips each changed edge's bits in running out- and in-mask lists.
    Every orientation is still validated by Orientation(g, arcs); it is
    handed its _adj (the two masks and g's neighbour masks) and its _host
    (g's relation 0, in, out and one zero tuple shared by the stream), so
    it never rebuilds them from its arcs.
    """
    edges = g.sorted_edges()
    nbr, rel0 = g._adj[2], g._host[0]
    zero = (0,) * g.n
    arcs = list(edges)
    out = [0] * g.n
    inn = [0] * g.n
    for u, v in edges:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    while True:
        o = Orientation(g, arcs)
        o_out, o_inn = tuple(out), tuple(inn)
        vars(o).update(_adj=(o_out, o_inn, nbr), _host=(rel0, o_inn, o_out, zero))
        if not acyclic_only or is_acyclic(o):
            yield o
        for i in reversed(range(len(edges))):      # the odometer's carry
            u, v = edges[i]
            out[u] ^= 1 << v
            inn[u] ^= 1 << v
            out[v] ^= 1 << u
            inn[v] ^= 1 << u
            if arcs[i] is edges[i]:
                arcs[i] = (v, u)
                break
            arcs[i] = edges[i]                      # high->low wraps to low->high
        else:
            return


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


def _refined_colours(outs, ins, colours):
    """Stable colouring, as a list of ranks, refined from colours along outs and ins."""
    while True:
        at = colours.__getitem__
        fresh = [(c, tuple(sorted(map(at, o))), tuple(sorted(map(at, i))))
                 for c, o, i in zip(colours, outs, ins)]
        # compress to ranks so tuples stay small
        ranking = {c: i for i, c in enumerate(sorted(set(fresh)))}
        fresh = [ranking[c] for c in fresh]
        if len(ranking) == len(set(colours)):
            return fresh
        colours = fresh


def canonical_form(d: Digraph) -> Digraph:
    """Canonical representative of d's isomorphism class: the least sorted
    arc tuple over the leaves of a refinement and individualisation search
    (McKay and Piperno, "Practical graph isomorphism, II", 2014).  A node
    refines its colouring, at the root from (in-degree, out-degree).  A
    discrete one relabels each vertex by its colour; else a child sets apart
    each vertex of the first smallest non-singleton cell, but one only of
    twins (their swap is an automorphism).  Each node costs d.n; past
    CANON_WORK_BUDGET, ValueError.  A Graph gets its symmetric digraph's.
    """
    out, inn, _ = d._adj
    outs, ins = list(map(_bits, out)), list(map(_bits, inn))
    best, work = ((d.n,),), 0          # above every leaf's arc tuple
    stack = [([(i.bit_count(), o.bit_count()) for o, i in zip(out, inn)], None)]
    while stack:
        colours, v = stack.pop()
        work += d.n
        if work > CANON_WORK_BUDGET:
            raise ValueError(f"canonical form of a digraph on {d.n} vertices needs more "
                             f"than {CANON_WORK_BUDGET} vertex refinements")
        if v is not None:       # v alone takes the colour just past its cell's
            colours = [c + c + (w == v) for w, c in enumerate(colours)]
        colours = _refined_colours(outs, ins, colours)
        sizes = Counter(colours)
        if len(sizes) == d.n:
            best = min(best, tuple(sorted((colours[u], colours[w]) for u, w in d.arcs)))
            continue
        _, cell = min((k, c) for c, k in sizes.items() if k > 1)
        seen, branch = set(), []
        for w in range(d.n):
            if colours[w] == cell:
                keys = {(out[w], inn[w])}      # open twins; closed ones share a digon
                if out[w] & inn[w]:
                    keys.add((out[w] | 1 << w, inn[w] | 1 << w))
                if seen.isdisjoint(keys):
                    branch.append(w)
                seen |= keys
        stack.extend((colours, w) for w in reversed(branch))
    cls = OrientedGraph if isinstance(d, OrientedGraph) else Digraph
    return cls(d.n, frozenset(best))


def is_isomorphic(d1: Digraph, d2: Digraph) -> bool:
    """An induced embedding between digraphs of equal order is an isomorphism."""
    return (d1.n == d2.n and len(d1.arcs) == len(d2.arcs)
            and contains_induced(d1, d2) is not None)


def graph_canonical_form(g: Graph) -> Graph:
    """Canonical representative for undirected graphs, via the digraph form."""
    return underlying(canonical_form(g))


def graphs_isomorphic(g1: Graph, g2: Graph) -> bool:
    return is_isomorphic(g1, g2)


# ---------------------------------------------------------------------------
# exhaustive universes


def _orbit_minima(n, slots):
    """Sorted masks over slots that no vertex permutation makes smaller.

    Bit i stands for the vertex pair slots[i]; a pair missing from slots
    is looked up reversed, so graphs list each edge once.  Orderly
    generation (Read, "Every one a winner", 1978) rests on one lemma: if m
    is the least mask of its orbit, so is m with its lowest zero bit set
    (Read's lemma, applied to the complement).  Every minimum but the full
    mask thus has one parent, and a descent from the full mask that clears
    a set bit z below the lowest zero bit, keeping only minima, meets each
    minimum once.  As p(parent ^ bit z) = p(parent) ^ p(bit z), a child's
    images are its parent's xor cols[z].  A mask's n! images are packed in
    one integer, a field per permutation with a guard bit on top, and
    subtracting m from every guarded field leaves each guard set exactly
    when its image is at least m.  The stack holds (parent, images, z) for
    each pending child, so it keeps the images of the descent path only.
    """
    width = len(slots) + 1
    index = {p: i for i, p in enumerate(slots)}
    field = [f"{1 << i:0{width}b}" for i in range(width)]
    cols = [int("".join(field[index.get((p[u], p[v]), index.get((p[v], p[u])))]
                        for p in permutations(range(n))), 2) for u, v in slots]
    ones = int(field[0] * math.factorial(n), 2)
    guards = ones << width - 1
    full = (1 << len(slots)) - 1
    found = [full]
    stack = [(full, full * ones, z) for z in range(len(slots))]
    while stack:
        parent, images, z = stack.pop()
        m = parent ^ 1 << z
        child = images ^ cols[z]
        if ((child | guards) - m * ones) & guards == guards:
            found.append(m)
            stack.extend((m, child, low) for low in range(z))
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

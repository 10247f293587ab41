"""Deciding whether a graph admits an orientation avoiding forbidden patterns.

The decision procedure orients edges one at a time (most-constrained edge
first) and tests, after each assignment, only maps that send a pattern arc
onto the fresh arc, so the 2^|E| tree stays heavily pruned: the graphs
module's forward-checking kernel, the one that also decides containment
and homomorphisms, runs on the partial orientation with the arc's ends
pinned, and outside hom mode each pattern vertex may land only on graph
vertices of at least its degree (the filter contains_induced applies).
A component found stays flagged until the fresh arc is taken back, and a
member is hit once all its components are.  The search keeps its own
stack, clear of Python's recursion limit.  Three containment semantics
are supported: induced (forbid induced subdigraphs; a member is one
pattern), hom (forbid homomorphic images: the same kernel, run
non-injectively on each component of a member, see _prepare) and overlap
(forbid component-wise induced embeddings, images may overlap).  An
acyclic flag also rejects each directed cycle as it closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .duality import hom_exists
from .graphs import (
    Graph, OrientedGraph, Orientation, WorkBudgetExceeded, _allowed, _closure, _embed,
    _induced_images, canonical_form, connected_components, enumerate_graphs, is_acyclic,
    make_cycle,
)
from .words import enumerate_periods, forbidden_factor_set

DEFAULT_BUDGET = 10_000_000

CONTAINMENTS = ("induced", "hom", "overlap")


@dataclass(frozen=True)
class SearchMode:
    containment: str = "induced"
    acyclic: bool = False

    def __post_init__(self):
        if self.containment not in CONTAINMENTS:
            raise ValueError(f"containment must be one of {CONTAINMENTS}")


@dataclass(frozen=True)
class ForbiddenSet:
    """Finite set of forbidden oriented graphs, deduplicated up to isomorphism."""

    members: tuple = ()

    def __post_init__(self):
        canon = {}
        for h in self.members:
            if not isinstance(h, OrientedGraph):
                h = OrientedGraph(h.n, h.arcs)
            if h.n == 0:
                raise ValueError("forbidden members need at least one vertex")
            c = canonical_form(h)
            canon[(c.n, tuple(sorted(c.arcs)))] = c
        object.__setattr__(
            self, "members", tuple(canon[k] for k in sorted(canon)))

    @property
    def max_order(self) -> int:
        return max((h.n for h in self.members), default=0)

    @property
    def all_connected(self) -> bool:
        return all(len(connected_components(h)) == 1 for h in self.members)


def bridge_bound(F: ForbiddenSet) -> int:
    """max member order + 1: from this edge count on, cycle questions reduce to words.

    Distinct from the word-level sync bound (max forbidden-factor length);
    the two constants are never interchanged.
    """
    return F.max_order + 1


@dataclass(frozen=True)
class OrientationVerdict:
    admits: bool
    witness: Orientation | None
    work: int


# ---------------------------------------------------------------------------
# homomorphic image closure


def _set_partitions(items):
    """All partitions of items into nonempty blocks (standard recursion)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def homomorphic_image_closure(F: ForbiddenSet) -> ForbiddenSet:
    """All digon-free targets of vertex-surjective homomorphisms from F.

    A target is a quotient by a partition into independent blocks plus any
    arcs added on the remaining free pairs; quotients or completions that
    would carry a symmetric arc pair embed in no orientation and are
    dropped.  The result is finite and deduplicated up to isomorphism.
    """
    out = list(F.members)
    for h in F.members:
        for part in _set_partitions(range(h.n)):
            block = {}
            for i, b in enumerate(part):
                for v in b:
                    block[v] = i
            if any(block[u] == block[v] for u, v in h.arcs):
                continue  # an arc inside a block would need a loop
            q = len(part)
            qarcs = {(block[u], block[v]) for u, v in h.arcs}
            if any((v, u) in qarcs for u, v in qarcs):
                continue  # digon: so does every arc superset
            free = [(x, y) for x in range(q) for y in range(x + 1, q)
                    if (x, y) not in qarcs and (y, x) not in qarcs]
            for extra in product((None, 0, 1), repeat=len(free)):
                arcs = set(qarcs)
                for (x, y), e in zip(free, extra):
                    if e == 0:
                        arcs.add((x, y))
                    elif e == 1:
                        arcs.add((y, x))
                out.append(OrientedGraph(q, frozenset(arcs)))
    return ForbiddenSet(tuple(out))


def overlap_contains(h: OrientedGraph, d: OrientedGraph) -> bool:
    """True iff every connected component of h embeds induced in d.

    Components may land on overlapping vertex sets, so this is weaker than
    full induced containment for disconnected h and identical for
    connected h.
    """
    return all(_induced_images(c, d) is not None for c in h._components)


# ---------------------------------------------------------------------------
# the orientation search


def _prepare(h: OrientedGraph, g: Graph, hom: bool):
    """h's pins for _embeds_through on g: one per arc x -> y of h, which may
    land on a fresh arc u -> v.  A pin holds the domains of x and y, the
    _embed checks for placing x, y, then the rest of h._order, and the
    rest's domains.  Containment checks every later position (relation 0
    constrains too), and its domains are graphs._allowed's degree filter,
    read from g._at_least, which an orientation of g shares with g, as
    contains_induced reads it.  A hom may fold h anywhere, so hom mode
    checks adjacent positions only, as hom_exists does, with no degree filter.
    Everything but the domains is h's pin plan (h._pins, h._hom_pins), built
    once per pattern; only the domains are read from g, on every call.

    Hom mode may prune as soon as h maps into the decided arcs: such a map
    stays a map in every completion, and a map that is new once u -> v is
    decided sends some arc of h onto u -> v.  At a leaf nothing is
    undecided, so the leaf's test is hom_exists on the orientation.
    """
    allowed = [(1 << g.n) - 1] * h.n if hom else _allowed(h, g)
    return [(allowed[x], allowed[y], checks, [allowed[z] for z in rest])
            for x, y, checks, rest in (h._hom_pins if hom else h._pins)]


def _embeds_through(pins, host, u, v):
    """Does the pattern land, fully decided, with a pinned pair on u -> v?"""
    for ax, ay, checks, rest in pins:
        if ax >> u & 1 and ay >> v & 1:
            if _embed(host, checks, [1 << u, 1 << v, *rest]) is not None:
                return True
    return False


def verify_orientation(o: Orientation, F: ForbiddenSet, mode: SearchMode) -> bool:
    """Independent pass on o's arcs alone: does the orientation avoid everything?

    Induced and overlap containment ask the kernel for images only, with no
    embedding dict built (_induced_images)."""
    if mode.acyclic and not is_acyclic(o):
        return False
    if mode.containment == "hom":
        return not any(hom_exists(h, o) is not None for h in F.members)
    if mode.containment == "overlap":
        return not any(overlap_contains(h, o) for h in F.members)
    return not any(_induced_images(h, o) is not None for h in F.members)


def admits_orientation(g: Graph, F: ForbiddenSet, mode: SearchMode,
                       budget: int = DEFAULT_BUDGET) -> OrientationVerdict:
    """Search for an orientation of g avoiding F under the given semantics.

    Returns a verdict with a re-verified witness when one exists, or
    admits=False after exhausting the tree.  Raises WorkBudgetExceeded
    once more than `budget` direction assignments have been tried.
    """
    hom = mode.containment == "hom"
    # an induced member embeds whole; a hom or overlap member embeds once
    # each of its components does, the images free to overlap
    patterns = [(h,) if mode.containment == "induced" else h._components
                for h in F.members]
    prepared = [[_prepare(c, g, hom) for c in comps] for comps in patterns]

    edges = g.sorted_edges()
    arcdir = {}
    # decided arcs as per-vertex masks; the host, in the kernel's relation
    # order, shares the in and out lists, so it sees the partial orientation
    # (relation 0 is g's own, as the witness's; hom checks never read it)
    out = [0] * g.n
    inn = [0] * g.n
    host = (g._host[0], inn, out)
    work = 0

    # components with no arcs embed without any decided edge, on vertices
    # of any degree; their truth never changes, and a pattern made entirely
    # of them fails immediately
    flag_state = []
    for comps in patterns:
        flags = [not c.arcs and _embed(host, c._checks, [(1 << g.n) - 1] * c.n) is not None
                 for c in comps]
        if all(flags):
            return OrientationVerdict(False, None, work)
        flag_state.append(flags)

    def violated(u, v):
        # a component's flag, once set, holds until u -> v is taken back
        trail = []
        for flags, preps in zip(flag_state, prepared):
            for ci, p in enumerate(preps):
                if not flags[ci] and _embeds_through(p, host, u, v):
                    flags[ci] = True
                    trail.append((flags, ci))
            if all(flags):
                return True, trail
        return False, trail

    def choose_edge():
        # the undecided edge with the most decided edges at its ends
        best, best_score = None, -1
        for a, b in edges:
            if (a, b) not in arcdir:
                score = (out[a] | inn[a]).bit_count() + (out[b] | inn[b]).bit_count()
                if score > best_score:
                    best, best_score = (a, b), score
        return best

    def toggle(u, v):
        out[u] ^= 1 << v
        inn[v] ^= 1 << u

    # depth first over edge directions, one frame per edge: the edge (None
    # once all are decided), the directions tried and the flags the last set
    stack = [[choose_edge(), 0, ()]]
    while stack:
        frame = stack[-1]
        e, tried, trail = frame
        if e is None:
            witness = Orientation(g, frozenset(arcdir.values()))
            if not verify_orientation(witness, F, mode):
                raise AssertionError("witness failed independent re-verification")
            return OrientationVerdict(True, witness, work)
        if e in arcdir:
            for flags, ci in trail:
                flags[ci] = False
            toggle(*arcdir.pop(e))
        if tried == 2:
            stack.pop()
            continue
        arc = (e, (e[1], e[0]))[tried]
        frame[1:] = tried + 1, ()
        work += 1
        if work > budget:
            raise WorkBudgetExceeded(f"orientation search exceeded {budget} nodes")
        # u -> v closes a directed cycle iff v already reaches u
        if mode.acyclic and _closure(out, 1 << arc[1]) >> arc[0] & 1:
            continue
        arcdir[e] = arc
        toggle(*arc)
        bad, frame[2] = violated(*arc)
        if not bad:
            stack.append([choose_edge(), 0, ()])
    return OrientationVerdict(False, None, work)


# ---------------------------------------------------------------------------
# cycle spectra and the multiples property


def cycle_spectrum(F: ForbiddenSet, k_min: int, k_max: int,
                   acyclic: bool = False, budget: int = DEFAULT_BUDGET):
    """Cycle lengths in [k_min, k_max] admitting an F-avoiding orientation.

    Members must be connected.  Below max(4, max order + 1) each cycle is
    decided by brute-force search; from there on only path-shaped members
    can embed, so a single walk computation over the forbidden-factor
    words decides the whole range (nonconstant walks in acyclic mode,
    since the directed cycle is the constant word's image).  The budget
    bounds each brute-force search, as in admits_orientation.
    """
    if not F.all_connected:
        raise ValueError("cycle spectra need connected members only")
    if k_min < 3:
        raise ValueError("cycles have at least 3 edges")
    if any(h.n == 1 for h in F.members):
        return set()
    threshold = max(4, bridge_bound(F))
    out = set()
    mode = SearchMode("induced", acyclic)
    for k in range(k_min, min(k_max, threshold - 1) + 1):
        if admits_orientation(make_cycle(k), F, mode, budget).admits:
            out.add(k)
    if k_max >= threshold:
        A = forbidden_factor_set(F.members)
        periods = enumerate_periods(A, k_max, nonconstant_only=acyclic)
        out |= {k for k in periods if max(k_min, threshold) <= k <= k_max}
    return out


@dataclass(frozen=True)
class MultiplesReport:
    k: int
    base_in_spectrum: bool
    checked: tuple
    missing: tuple

    @property
    def ok(self) -> bool:
        return not self.base_in_spectrum or not self.missing

    @property
    def vacuous(self) -> bool:
        return not self.base_in_spectrum


def multiples_property_check(F: ForbiddenSet, k: int, multiplier_max: int,
                             acyclic: bool = False) -> MultiplesReport:
    """Check that k in the spectrum drags every multiple lk along with it.

    The closure law is guaranteed once k exceeds the largest member order:
    from there every member meeting the cycle is an induced path and the
    word calculus applies.  At k equal to the largest member order a
    member with exactly k vertices cannot sit inside the k-cycle at all
    (its k vertices would induce the cycle, not a path), so the k-cycle
    can get a free pass that its multiples lose; the report then records
    the honest violation rather than asserting.
    """
    if k < max(4, F.max_order):
        raise ValueError(f"k must be at least max(4, {F.max_order})")
    spectrum = cycle_spectrum(F, k, k * multiplier_max, acyclic)
    base = k in spectrum
    checked = tuple(l * k for l in range(2, multiplier_max + 1))
    missing = tuple(m for m in checked if m not in spectrum) if base else ()
    return MultiplesReport(k, base, checked, missing)


# ---------------------------------------------------------------------------
# reduction to connected members


@dataclass(frozen=True)
class ReduceReport:
    tried: int
    verified_to: int
    found: ForbiddenSet | None


def reduce_to_connected(F: ForbiddenSet, n_verify: int = 5):
    """Search for an all-connected set deciding the same graphs as F.

    Each disconnected member is replaced by one of its components; every
    substitution choice is verified against F (plain and acyclic induced
    search) on all graphs with up to n_verify vertices.  Returns the first
    verified candidate with a report, or (None, report): absence signals
    the decided class is likely not closed under disjoint unions.  An
    n_verify below 1 or past the enumeration cap raises ValueError.
    """
    enumerate_graphs(n_verify)
    if F.all_connected:
        return F, ReduceReport(0, n_verify, F)
    connected = [h for h in F.members if len(connected_components(h)) == 1]
    choice_lists = [h._components for h in F.members if len(connected_components(h)) > 1]
    universe = [g for n in range(1, n_verify + 1) for g in enumerate_graphs(n)]

    @lru_cache(maxsize=None)
    def f_admits(g, ac):        # F's verdict, searched on first use only
        return admits_orientation(g, F, SearchMode("induced", ac)).admits

    tried = 0
    for picks in product(*choice_lists):
        candidate = ForbiddenSet(tuple(connected) + picks)
        tried += 1
        if all(
            admits_orientation(g, candidate, SearchMode("induced", ac)).admits == f_admits(g, ac)
            for g in universe for ac in (False, True)
        ):
            return candidate, ReduceReport(tried, n_verify, candidate)
    return None, ReduceReport(tried, n_verify, None)


# ---------------------------------------------------------------------------
# classical test oracles


def oracle_k_colourable(g: Graph, k: int) -> bool:
    """Brute-force proper colouring with k colours, vertices in label order;
    the placed colours are the backtracking stack, so nothing recurses."""
    earlier = [[w for w in g.neighbours(v) if w < v] for v in range(g.n)]
    colours = []                # colours of vertices 0 .. len(colours) - 1
    c = 0                       # the next colour to try on vertex len(colours)
    while len(colours) < g.n:
        taken = {colours[w] for w in earlier[len(colours)]}
        while c in taken:
            c += 1
        if c < k:
            colours.append(c)
            c = 0
        elif not colours:
            return False
        else:
            c = colours.pop() + 1
    return True


def oracle_chordal(g: Graph) -> bool:
    """Simplicial elimination ordering exists."""
    alive = set(range(g.n))
    adj = {v: set(g.neighbours(v)) for v in range(g.n)}
    while alive:
        simplicial = None
        for v in sorted(alive):
            nb = adj[v] & alive
            if all(b in adj[a] for a in nb for b in nb if a < b):
                simplicial = v
                break
        if simplicial is None:
            return False
        alive.remove(simplicial)
    return True

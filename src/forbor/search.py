"""Deciding whether a graph admits an orientation avoiding forbidden patterns.

The decision procedure orients edges one at a time (most-constrained edge
first) and tests, after each assignment, only pattern embeddings that are
fully decided and pass through the fresh edge, so the 2^|E| tree stays
heavily pruned: the graphs module's embedding kernel runs on the partial
orientation with pattern vertices pinned to the fresh arc's ends, and
outside hom mode each pattern vertex may land only on graph vertices of at
least its degree (the filter contains_induced applies).  The search keeps
its own stack, clear of Python's recursion limit.  Three containment
semantics are supported: induced (forbid induced subdigraphs), hom
(forbid homomorphic images: the same kernel, run non-injectively on the
members themselves, see _prepare) and overlap (forbid component-wise
induced embeddings, images may overlap).  An acyclic flag also rejects
each directed cycle as it closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graphs import (
    Graph, OrientedGraph, Orientation, _allowed, _closure, _embed, _non_adjacent,
    canonical_form, connected_components, contains_induced, enumerate_graphs,
    induced_subdigraph, is_acyclic, make_cycle,
)
from .words import enumerate_periods, forbidden_factor_set

DEFAULT_BUDGET = 10_000_000

CONTAINMENTS = ("induced", "hom", "overlap")


class WorkBudgetExceeded(RuntimeError):
    """Raised when a search runs out of its node budget; never a silent False."""


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
    return all(contains_induced(c, d) is not None for c in _components_of(h))


# ---------------------------------------------------------------------------
# the orientation search


def _components_of(h: OrientedGraph):
    return tuple(induced_subdigraph(h, c) for c in connected_components(h))


def _prepare(h: OrientedGraph, g: Graph, hom: bool):
    """h ready for _embeds_through on g: (order, rel, allowed, pins).

    pins: the vertex pairs (x, y) of h that may land on a fresh arc u -> v,
    each with its placement order; induced, h's arcs x -> y; hom, every
    ordered pair without an arc y -> x.  allowed is graphs._allowed's
    degree filter on g, shared with contains_induced, since an orientation
    keeps g's degrees.  A hom may fold h anywhere, so hom mode has no
    degree filter, and its host's relation 0 holds every vertex
    not joined to b by an undecided edge, b included: the kernel runs
    non-injectively, and each image it finds spans no undecided edge.

    Lemma: an oriented graph contains an induced member of
    homomorphic_image_closure(F) iff some h in F maps into it, since the
    subdigraph induced on a hom's image is a closure member and each
    closure member is a hom image.  So hom mode decides the closure
    predicate on F itself, without building the closure.
    """
    order, rel = h._order, h._rel
    allowed = [(1 << g.n) - 1] * h.n if hom else _allowed(h, g._nbr)
    pins = [(x, y, [x, y] + [z for z in order if z != x and z != y])
            for x in order for y in order
            if rel[x][y] == 1 or hom and x != y and rel[x][y] == 0]
    return order, rel, allowed, pins


def _embeds_through(pattern, host, u, v):
    """Does the pattern land, fully decided, with a pinned pair on u -> v?"""
    _, rel, allowed, pins = pattern
    for x, y, placing in pins:
        if allowed[x] >> u & 1 and allowed[y] >> v & 1:
            pinned = list(allowed)
            pinned[x], pinned[y] = 1 << u, 1 << v
            if _embed(host, placing, rel, pinned) is not None:
                return True
    return False


def verify_orientation(o: Orientation, F: ForbiddenSet, mode: SearchMode) -> bool:
    """Independent pass: does the complete orientation avoid everything?"""
    d = o.oriented_graph()
    if mode.acyclic and not is_acyclic(d):
        return False
    if mode.containment == "hom":
        from .duality import hom_exists  # duality imports this module
        return not any(hom_exists(h, d) is not None for h in F.members)
    if mode.containment == "overlap":
        return not any(overlap_contains(h, d) for h in F.members)
    return not any(contains_induced(h, d) is not None for h in F.members)


def admits_orientation(g: Graph, F: ForbiddenSet, mode: SearchMode,
                       budget: int = DEFAULT_BUDGET) -> OrientationVerdict:
    """Search for an orientation of g avoiding F under the given semantics.

    Returns a verdict with a re-verified witness when one exists, or
    admits=False after exhausting the tree.  Raises WorkBudgetExceeded
    once more than `budget` direction assignments have been tried.
    """
    hom = mode.containment == "hom"
    overlap = mode.containment == "overlap"
    patterns = [_components_of(h) if overlap else (h,) for h in F.members]
    prepared = [[_prepare(c, g, hom) for c in comps] for comps in patterns]

    edges = g.sorted_edges()
    arcdir = {}
    # decided arcs as per-vertex masks; the host, in the kernel's relation
    # order, shares the in and out lists, so it sees the partial orientation.
    # free[b]: the vertices not joined to b by an undecided edge, b included
    out = [0] * g.n
    inn = [0] * g.n
    free = [~m & (1 << g.n) - 1 for m in g._nbr]
    host = (free if hom else _non_adjacent(g._nbr), inn, out)
    work = 0

    # components with no arcs embed without any decided edge; their truth
    # never changes, and a pattern made entirely of them fails immediately
    flag_state = []
    for comps, preps in zip(patterns, prepared):
        flags = [not c.arcs and _embed(host, *p[:3]) is not None
                 for c, p in zip(comps, preps)]
        if all(flags):
            return OrientationVerdict(False, None, work)
        flag_state.append(flags)

    def violated(u, v):
        if overlap:
            trail = []
            for pi, (comps, preps) in enumerate(zip(patterns, prepared)):
                for ci, (c, p) in enumerate(zip(comps, preps)):
                    if not flag_state[pi][ci] and _embeds_through(p, host, u, v):
                        flag_state[pi][ci] = True
                        trail.append((pi, ci))
                if all(flag_state[pi]):
                    return True, trail
            return False, trail
        return any(_embeds_through(preps[0], host, u, v) for preps in prepared), ()

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
        free[u] ^= 1 << v
        free[v] ^= 1 << u

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
            for pi, ci in trail:
                flag_state[pi][ci] = False
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
                   acyclic: bool = False):
    """Cycle lengths in [k_min, k_max] admitting an F-avoiding orientation.

    Members must be connected.  Below max(4, max order + 1) each cycle is
    decided by brute-force search; from there on only path-shaped members
    can embed, so a single walk computation over the forbidden-factor
    words decides the whole range (nonconstant walks in acyclic mode,
    since the directed cycle is the constant word's image).
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
        if admits_orientation(make_cycle(k), F, mode).admits:
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
    the decided class is likely not closed under disjoint unions.
    """
    if F.all_connected:
        return F, ReduceReport(0, n_verify, F)
    connected = [h for h in F.members if len(connected_components(h)) == 1]
    splittable = [h for h in F.members if len(connected_components(h)) > 1]
    choice_lists = [_components_of(h) for h in splittable]
    universe = [g for n in range(1, n_verify + 1) for g in enumerate_graphs(n)]
    tried = 0
    for picks in product(*choice_lists):
        candidate = ForbiddenSet(tuple(connected) + picks)
        tried += 1
        if all(
            admits_orientation(g, candidate, SearchMode("induced", ac)).admits
            == admits_orientation(g, F, SearchMode("induced", ac)).admits
            for g in universe for ac in (False, True)
        ):
            return candidate, ReduceReport(tried, n_verify, candidate)
    return None, ReduceReport(tried, n_verify, None)


# ---------------------------------------------------------------------------
# classical test oracles


def oracle_k_colourable(g: Graph, k: int) -> bool:
    """Brute-force proper colouring with k colours."""
    colours = [None] * g.n
    adj = [g.neighbours(v) for v in range(g.n)]

    def assign(v):
        if v == g.n:
            return True
        for c in range(k):
            if all(colours[w] != c for w in adj[v]):
                colours[v] = c
                if assign(v + 1):
                    return True
                colours[v] = None
        return False

    return assign(0)


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

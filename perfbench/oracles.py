"""Expected verdicts and witness checks, computed without the measured code.

Everything here works on plain tuples and sets, never on forbor's search,
word or duality routines, so an answer the benchmark accepts has been
derived twice by different routes.  Colouring and chordality use the
package's own brute-force oracles (`oracle_k_colourable`,
`oracle_chordal`), which share no code with the orientation search.
"""

from __future__ import annotations

from itertools import combinations, permutations, product


class VerdictError(AssertionError):
    """A query returned a wrong verdict or an invalid witness."""


def require(ok, what):
    if not ok:
        raise VerdictError(what)


# ---------------------------------------------------------------------------
# undirected graphs given as (n, edge list)


def is_bipartite(n, edges):
    """BFS 2-colouring."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [None] * n
    for root in range(n):
        if side[root] is not None:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if side[w] is None:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return False
    return True


# ---------------------------------------------------------------------------
# orientations given as arc lists


def check_covers(n, edges, arcs):
    """Every edge is oriented exactly once and nothing else is."""
    want = {(min(u, v), max(u, v)) for u, v in edges}
    got = [(min(u, v), max(u, v)) for u, v in arcs]
    require(all(0 <= x < n for a in arcs for x in a), "witness arc off the graph")
    require(len(got) == len(set(got)) and set(got) == want,
            "witness does not orient every edge exactly once")


def _out_in(n, arcs):
    out = [set() for _ in range(n)]
    inn = [set() for _ in range(n)]
    for u, v in arcs:
        out[u].add(v)
        inn[v].add(u)
    return out, inn


def longest_walk(n, arcs, cap):
    """Arcs in the longest directed walk, or cap if a walk of cap arcs exists."""
    out, _ = _out_in(n, arcs)
    frontier = set(range(n))
    for k in range(cap):
        frontier = {w for v in frontier for w in out[v]}
        if not frontier:
            return k
    return cap


def is_acyclic_arcs(n, arcs):
    return longest_walk(n, arcs, n) < n


def scan_sources_sinks(n, arcs):
    """No directed 2-path: the bipartite family's witnesses."""
    out, inn = _out_in(n, arcs)
    return all(not (out[v] and inn[v]) for v in range(n))


def scan_chordal(n, arcs):
    """Acyclic, and every out-neighbourhood is a clique of the base graph."""
    out, _ = _out_in(n, arcs)
    adjacent = {(u, v) for u, v in arcs} | {(v, u) for u, v in arcs}
    return is_acyclic_arcs(n, arcs) and all(
        (a, b) in adjacent for v in range(n) for a, b in combinations(out[v], 2))


def scan_no_3walk(n, arcs):
    """No directed walk with three arcs: the 3-colouring family's witnesses."""
    return longest_walk(n, arcs, 3) < 3


# ---------------------------------------------------------------------------
# small digraphs given as (n, arc set): direct pattern scans


def components(n, arcs):
    adj = [set() for _ in range(n)]
    for u, v in arcs:
        adj[u].add(v)
        adj[v].add(u)
    seen, comps = set(), []
    for s in range(n):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v] - seen:
                seen.add(w)
                stack.append(w)
        comps.append(sorted(comp))
    return comps


def restrict(arcs, vertices):
    index = {v: i for i, v in enumerate(sorted(vertices))}
    return len(index), {(index[u], index[v]) for u, v in arcs
                        if u in index and v in index}


def embeds_induced(h, d):
    """Injective map of pattern h onto an induced copy in d, by permutation scan."""
    hn, harcs = h
    dn, darcs = d
    for image in permutations(range(dn), hn):
        if all(((image[x], image[y]) in darcs) == ((x, y) in harcs)
               for x in range(hn) for y in range(hn) if x != y):
            return True
    return False


def hom_map(h, d):
    """First homomorphism h -> d in plain backtracking order, or None."""
    hn, harcs = h
    dn, darcs = d
    out = [[v for u, v in harcs if u == x] for x in range(hn)]
    inn = [[u for u, v in harcs if v == x] for x in range(hn)]
    image = [None] * hn
    stack = [0]
    while stack:
        x = len(stack) - 1
        if stack[-1] >= dn:
            stack.pop()
            image[x] = None
            if stack:
                stack[-1] += 1
            continue
        w = stack[-1]
        ok = all(image[y] is None or (w, image[y]) in darcs for y in out[x]) and \
            all(image[y] is None or (image[y], w) in darcs for y in inn[x])
        if not ok:
            stack[-1] += 1
            continue
        image[x] = w
        if x + 1 == hn:
            return tuple(image)
        stack.append(0)
    return None


def check_hom_witness(mapping, h, d):
    hn, harcs = h
    dn, darcs = d
    require(mapping is not None and len(mapping) == hn
            and all(0 <= w < dn for w in mapping), "hom witness has the wrong shape")
    for u, v in harcs:
        require((mapping[u], mapping[v]) in darcs, f"hom witness breaks arc {(u, v)}")


def core_order(d):
    """Fewest vertices in the image of an endomorphism of d."""
    n, arcs = d
    for size in range(1, n):
        for keep in combinations(range(n), size):
            if hom_map(d, restrict(arcs, keep)) is not None:
                return size
    return n


def avoids(d, members, containment, acyclic):
    """Does the complete orientation d avoid every member under the semantics?"""
    n, arcs = d
    if acyclic and not is_acyclic_arcs(n, arcs):
        return False
    for h in members:
        if containment == "hom":
            hit = hom_map(h, d) is not None
        elif containment == "overlap":
            hit = all(embeds_induced(restrict(h[1], c), d) for c in components(*h))
        else:
            hit = embeds_induced(h, d)
        if hit:
            return False
    return True


def brute_admits(n, edges, members, containment, acyclic):
    """Scan all 2^|E| orientations for one that avoids every member."""
    edges = sorted(edges)
    for bits in product((0, 1), repeat=len(edges)):
        arcs = {(u, v) if b == 0 else (v, u) for (u, v), b in zip(edges, bits)}
        if avoids((n, arcs), members, containment, acyclic):
            return True
    return False


# ---------------------------------------------------------------------------
# words


def word_arcs(w):
    return {(i, i + 1) if c == ">" else (i + 1, i) for i, c in enumerate(w)}


def free(w, A):
    return not any(a in w for a in A)


def power_free(w, A):
    """Explicit power expansion: enough copies to contain any factor window."""
    m = max(len(a) for a in A)
    return free(w * (m // len(w) + 2), A)


def _windows(A):
    m = max(len(a) for a in A)
    return m - 1


def periods(A, k_max, nonconstant=False):
    """Lengths k <= k_max with a (nonconstant) k-word whose powers avoid A.

    Short lengths by expanding powers of every word; from the window length
    on by closed walks over windows, tracked as (start, current, letters).
    """
    A = tuple(A)
    win = _windows(A)
    brute_to = min(k_max, max(win, 12))
    out = set()
    for k in range(1, brute_to + 1):
        for letters in product("><", repeat=k):
            w = "".join(letters)
            if nonconstant and len(set(w)) < 2:
                continue
            if power_free(w, A):
                out.add(k)
                break
    if k_max <= brute_to:
        return out
    states = ["".join(p) for p in product("><", repeat=win) if free("".join(p), A)]
    step = {}
    for s in states:
        for bit, c in enumerate("><"):
            if free(s + c, A):
                step.setdefault(s, []).append(((s + c)[1:] if win else "", 1 << bit))
    # frontier: (start, current, letters used) after k letters
    frontier = {(s, s, 0) for s in states}
    for k in range(1, k_max + 1):
        frontier = {(s0, t, used | b) for s0, s, used in frontier
                    for t, b in step.get(s, ())}
        if k > brute_to and any(
                s0 == s and (used == 3 or not nonconstant) for s0, s, used in frontier):
            out.add(k)
    return out


def transitive(A):
    """Every A-free a, b join as a+d+b: checked over all windows of a and b.

    Only the last window letters of a+d and the first window letters of b
    can meet in a factor, so a and b range over the A-free words of at
    most window letters.
    """
    A = tuple(A)
    win = _windows(A)
    words = [""] + ["".join(p) for k in range(1, win + 1)
                    for p in product("><", repeat=k)]
    words = [w for w in words if free(w, A)]
    everything = (1 << len(words)) - 1
    readable = {s: sum(1 << i for i, b in enumerate(words) if free(s + b, A))
                for s in words}
    for a in words:
        seen = {a}
        frontier = [a]
        while frontier:
            s = frontier.pop()
            for c in "><":
                if free(s + c, A):
                    t = (s + c)[-win:] if win else ""
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
        joined = 0
        for s in seen:
            joined |= readable[s]
        if joined != everything:
            return False
    return True

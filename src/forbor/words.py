"""Binary direction words, factor avoidance and period structure.

Words are plain strings over the two letters ``>`` (a forward step) and
``<`` (a backward step); a word of length k describes an orientation of
the path on k edges.  A finite set of forbidden factors A determines the
hereditary language of A-free words, realized here by a deterministic
suffix-window automaton.  On top of that sit the period computations:
which lengths k admit a k-word all of whose powers stay A-free, that set
as a `PeriodicSet` (which also holds a hole class's forbidden lengths),
and its gcd, threshold and exceptions when the language is transitive.

The automaton is one integer successor table, and every walk over it
reads that table by state position.  Transitivity is two reachability
sweeps from the first full state, and the period computations one
closed-walk recurrence: `period_structure` runs it to its first repeated
state for every language, a non-transitive one at most to `verify_to`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .graphs import OrientedGraph, connected_components

FWD = ">"
BWD = "<"
ALPHABET = FWD + BWD
#: letter -> its row in a successor table
_LETTER = {c: b for b, c in enumerate(ALPHABET)}

#: hard cap on automaton states: they grow as 2^(longest factor), and a
#: walk pass holds one bit row per full state
STATE_LIMIT = 1 << 16


def is_factor(a: str, b: str) -> bool:
    """True iff a occurs contiguously in b (the empty word is a factor of all)."""
    return a in b


def word_to_path(w: str) -> OrientedGraph:
    """Oriented path on |w|+1 vertices: arc i -> i+1 for '>', reversed for '<'."""
    arcs = set()
    for i, c in enumerate(w):
        if c == FWD:
            arcs.add((i, i + 1))
        elif c == BWD:
            arcs.add((i + 1, i))
        else:
            raise ValueError(f"letter {c!r} is not in the alphabet {ALPHABET!r}")
    return OrientedGraph(len(w) + 1, frozenset(arcs))


def path_to_word(p: OrientedGraph) -> frozenset:
    """The one or two words reading an oriented path from either end.

    Raises ValueError if p is not an orientation of a path.  A single
    vertex gives {""}; palindromic-up-to-reversal paths give one word,
    all others two.
    """
    deg = [sum(p.degrees(v)) for v in range(p.n)]
    if len(p.arcs) != p.n - 1 or len(connected_components(p)) != 1 \
            or any(d > 2 for d in deg):
        raise ValueError("not an orientation of a path")
    if p.n == 1:
        return frozenset({""})
    ends = [v for v, d in enumerate(deg) if d == 1]
    nbr = [p.out_neighbours(v) | p.in_neighbours(v) for v in range(p.n)]
    words = set()
    for start in ends:
        seq = [start]
        prev = None
        while len(seq) < p.n:
            nxt = next(w for w in nbr[seq[-1]] if w != prev)
            prev = seq[-1]
            seq.append(nxt)
        words.add("".join(FWD if (a, b) in p.arcs else BWD
                          for a, b in zip(seq, seq[1:])))
    return frozenset(words)


@dataclass(frozen=True)
class FactorSet:
    """Normalized set of nonempty forbidden factors.

    Members containing another member as a factor are dropped (forbidding
    the shorter word already excludes every word containing the longer).
    """

    members: frozenset = frozenset()

    def __post_init__(self):
        for w in self.members:
            if not w:
                raise ValueError("the empty word cannot be a forbidden factor")
            if any(c not in ALPHABET for c in w):
                raise ValueError(f"word {w!r} uses letters outside {ALPHABET!r}")
        minimal = frozenset(
            w for w in self.members
            if not any(v != w and v in w for v in self.members))
        object.__setattr__(self, "members", minimal)

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)


def forbidden_factor_set(F) -> FactorSet:
    """Word encodings (both traversals) of every path-shaped member of F.

    Members whose underlying graph is not a path contribute nothing.  A
    single-vertex member would encode as the empty word and is rejected.
    """
    words = set()
    for h in F:
        try:
            ws = path_to_word(h)
        except ValueError:
            continue
        if "" in ws:
            raise ValueError("a single-vertex member has an empty word encoding")
        words |= ws
    return FactorSet(frozenset(words))


def is_A_free(w: str, A: FactorSet) -> bool:
    return not any(a in w for a in A.members)


def sync_bound(A: FactorSet) -> int:
    """Max member length (1 for an empty set); joining bound of the language.

    Two A-free words overlapping in a middle segment of at least this
    length splice into an A-free word.
    """
    return max((len(a) for a in A.members), default=1)


class FactorAutomaton:
    """Deterministic acceptor of A-free words.

    The state after reading w is the longest suffix of w of length at most
    window = (max factor length) - 1, or w itself while shorter; a word is
    A-free iff its run never dies.  States are exactly the A-free words of
    length <= window (every one is reached by reading itself), listed in
    breadth-first order, so the full (window-length) states are the tail
    from position `first_full`.  `_succ[b][i]` is the position of state i's
    successor under `ALPHABET[b]`, -1 where the step dies; each row ends
    in a -1, so a dead position reads dead again.  Past `STATE_LIMIT`
    states, construction raises ValueError.
    """

    def __init__(self, factors: FactorSet):
        self.factors = factors
        self.alphabet = ALPHABET
        self.window = sync_bound(factors) - 1
        states = [""]
        index = {"": 0}
        succ = ([], [])
        for s in states:  # the growing list is the breadth-first queue
            for c, row in zip(ALPHABET, succ):
                w = s + c
                if any(w.endswith(a) for a in factors.members):
                    row.append(-1)
                    continue
                t = w[-self.window:] if self.window else ""
                i = index.get(t)
                if i is None:
                    if len(states) == STATE_LIMIT:
                        raise ValueError(
                            f"the factor automaton exceeds {STATE_LIMIT} states "
                            f"(longest forbidden factor: {self.window + 1} letters)")
                    i = index[t] = len(states)
                    states.append(t)
                row.append(i)
        self.states = tuple(states)
        self.first_full = next((i for i, s in enumerate(states)
                                if len(s) == self.window), len(states))
        self._index = index
        self._succ = tuple(row + [-1] for row in succ)
        self.root = ""

    def _read(self, i, word):
        """Position after reading word from position i, or -1 if the run dies."""
        for c in word:
            i = self._succ[_LETTER[c]][i] if c in _LETTER else -1
            if i < 0:
                return -1
        return i

    def step(self, state, letter):
        b = _LETTER.get(letter)
        i = -1 if b is None else self._succ[b][self._index.get(state, -1)]
        return self.states[i] if i >= 0 else None

    def run(self, word, start=""):
        """Final state after reading word from start, or None if the run dies."""
        if not word:
            return start
        i = self._read(self._index.get(start, -1), word)
        return self.states[i] if i >= 0 else None

    def accepts(self, word: str) -> bool:
        return self.run(word) is not None

    def full_states(self):
        """States of maximal window length (the tail of `states`)."""
        return self.states[self.first_full:]

    def reachable_from(self, state):
        i = self._index.get(state)
        if i is None:
            return {state}
        return {self.states[s] for s in _sweep(tuple(zip(*self._succ)), i)}


def _sweep(arcs, start):
    """Positions reachable from start, arcs[s] listing s's next positions
    (-1 is a dead step), in breadth-first order."""
    queue, seen = [start], {-1, start}
    for s in queue:  # the growing list is the breadth-first queue
        for t in arcs[s]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return queue


@lru_cache(maxsize=None)
def automaton(A: FactorSet) -> FactorAutomaton:
    """Shared read-only automaton for A (built once per factor set)."""
    return FactorAutomaton(A)


def has_free_word(A: FactorSet, k: int) -> bool:
    """True iff some k-letter word is A-free (k = 0: the empty word)."""
    if k < 0:
        raise ValueError("word length must be >= 0")
    f, b = automaton(A)._succ
    layer = {0}
    for _ in range(k):
        layer = {t for s in layer for t in (f[s], b[s])}
        layer.discard(-1)
        if not layer:
            return False
    return True


def is_transitive(A: FactorSet) -> bool:
    """Decide whether any two A-free words a, b admit a joint a+d+b.

    Whether a+d+b is A-free depends only on the suffix window of a, and b
    is readable from a state iff its first window-many letters are; both
    windows range over the automaton's states.  Let q0 be the first full
    state.  The language is transitive iff (1) q0 reaches every full
    state, (2) every state reaches q0, and (3) the window is 0 or q0 has a
    successor: one forward and one backward sweep from q0.

    Necessary: joining s with q0 gives (2), q0 with each full q gives (1),
    and q0 with itself (a nonempty d+q0 when the window is positive) gives
    (3).  Sufficient: full states step to full states, so (1), (2) and (3)
    make the walk graph strongly connected with an arc, and every full
    state p lies on a closed walk u.  Some power u^m is at least window
    letters long and ends in p, so the full state reached from p along
    u^m less its last window letters reads p.  A short state p reaches q0
    by (2) through a full extension p', and a full state reading p' reads
    p.  So any a and b join through q0: from a's state to q0 by (2), then
    by (1) to a full state reading b's window.
    """
    aut = automaton(A)
    f, b = aut._succ
    n = len(aut.states)
    q0 = aut.first_full
    if aut.window and f[q0] < 0 and b[q0] < 0:
        return False
    if len(_sweep(tuple(zip(f, b)), q0)) < n - q0:
        return False
    pred = [[] for _ in range(n + 1)]  # pred[-1] collects the dead steps
    for s in range(n):
        pred[f[s]].append(s)
        pred[b[s]].append(s)
    return len(_sweep(pred, q0)) == n


def is_periodic(w: str, A: FactorSet) -> bool:
    """True iff every power of w is A-free.

    Tests w**K for K = ceil(mhat/|w|) + 1 with mhat the max factor length:
    any forbidden factor of the infinite power fits inside that many
    consecutive copies, so the single test decides all powers at once.
    """
    if not w:
        raise ValueError("periodicity is defined for nonempty words only")
    outside = w.strip(ALPHABET)  # starts at w's first letter outside the alphabet
    if outside:
        raise ValueError(f"letter {outside[0]!r} is not in the alphabet {ALPHABET!r}")
    K = -(-sync_bound(A) // len(w)) + 1
    return is_A_free(w * K, A)


# ---------------------------------------------------------------------------
# closed-walk reachability over the full-window states
#
# The walk graph has an arc s -> t labelled c when reading c from the
# full state s survives.  A k-word with all powers A-free corresponds
# exactly to a closed k-walk (the word's windows), nonconstant words to
# closed walks using both letters.  Breadth-first order is by length, so
# the full states are the tail of the states from position lo, and their
# successors are full: the successor table's tail less lo is the walk
# graph, with no index dict.  A k-walk matrix is a list of row bitmasks;
# a step prepends one letter: row i of the (k+1)-walk matrix is the row
# of i's successor in the k-walk matrix, O(n) row lookups per step.  Row
# lists carry a trailing 0 so that index -1 (a dead step) reads no walk.


def _closed_walks(A: FactorSet, nonconstant: bool):
    """For k = 1, 2, ...: is there a closed k-walk (using both letters if
    nonconstant) over the full states, and the k-walk matrix that fixes
    every later step.  Endless.  Started at a '>' after a '<', a walk using
    both letters steps from a state s entered by '<' to f[s] and back in
    k - 1 steps, the last one '<' (a step into a full state reads its last
    letter).  So the k-walk matrix flags k + 1; no 1-walk is nonconstant."""
    aut = automaton(A)
    lo = aut.first_full
    n = len(aut.states) - lo
    f, b = ([t - lo if t >= 0 else -1 for t in row[lo:-1]] for row in aut._succ)
    entered = {t for t in b if t >= 0}  # the full states entered by '<'
    walks, closed = [1 << i for i in range(n)] + [0], False  # the 0-walk matrix
    while True:
        walks = [walks[x] | walks[y] for x, y in zip(f, b)] + [0]
        if not nonconstant:
            closed = any(row >> i & 1 for i, row in enumerate(walks))
        yield closed, walks
        if nonconstant:
            closed = any(walks[f[s]] >> s & 1 for s in entered)


def enumerate_periods(A: FactorSet, k_max: int, nonconstant_only: bool = False):
    """Lengths k <= k_max admitting a (nonconstant) k-word with all powers A-free.

    The closed-walk pass decides every length.  If u^inf is A-free, the
    window-length suffix of a long enough power of u is a full state that
    reads u back to itself; conversely, a closed walk spelling u from a
    full state s reads s.u^inf without dying, so u^inf is A-free.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    walks = zip(range(1, k_max + 1), _closed_walks(A, nonconstant_only))
    return {k for k, (closed, _) in walks if closed}


def periodic_word(A: FactorSet, k: int, nonconstant: bool = False):
    """A concrete k-word with all powers A-free, or None.

    Searches closed k-walks over the full-window states, tracking which
    letters a walk has used; deterministic (states scanned in order, '>'
    tried before '<').
    """
    if k < 1:
        raise ValueError("period length must be >= 1")
    aut = automaton(A)
    for s0 in aut.full_states():
        # layer maps (state, used-letter bits) -> (prev state, prev bits, letter)
        layers = [{(s0, 0): None}]
        for step in range(k):
            cur = {}
            for state, flags in sorted(layers[step]):
                for bit, c in enumerate(ALPHABET):
                    t = aut.step(state, c)
                    if t is None:
                        continue
                    key = (t, flags | (1 << bit))
                    if key not in cur:
                        cur[key] = (state, flags, c)
            layers.append(cur)
        for state, flags in sorted(layers[k]):
            if state != s0 or (nonconstant and flags != 3):
                continue
            letters = []
            key = (state, flags)
            for step in range(k, 0, -1):
                pstate, pflags, c = layers[step][key]
                letters.append(c)
                key = (pstate, pflags)
            w = "".join(reversed(letters))
            if not is_periodic(w, A):
                raise AssertionError("reconstructed walk is not periodic")
            return w
    return None


# ---------------------------------------------------------------------------
# period structure


@dataclass(frozen=True)
class PeriodicSet:
    """Ultimately periodic set: k is a member when (k >= start and
    k % modulus in residues) XOR k in flips, the finitely many departures."""

    start: int
    modulus: int
    residues: frozenset
    flips: frozenset

    def contains(self, k: int) -> bool:
        return (k >= self.start and k % self.modulus in self.residues) != (k in self.flips)


@dataclass(frozen=True)
class PeriodStructure:
    """Arithmetic description of the (nonconstant) period set.

    When transitive is set the period set is exactly the positive
    multiples of gcd_r minus the finite exceptions list, every exception
    lying below threshold_t0.  gcd_r == 0 encodes the empty period set.
    verified_to is at least the step at which `period_structure` saw the
    walk recurrence repeat, so it covers every exception.
    When transitive is not set only `observed` (the periods up to
    verified_to) and their gcd are reported.  `periods`, the exact set, is
    None only when a non-transitive walk reached verify_to unrepeated.
    """

    gcd_r: int
    threshold_t0: int
    exceptions: tuple
    transitive: bool
    nonconstant_variant: bool
    observed: tuple = ()
    verified_to: int = 0
    periods: PeriodicSet | None = None

    def __post_init__(self):
        if self.transitive:
            for e in self.exceptions:
                if self.gcd_r == 0 or e % self.gcd_r or e >= self.threshold_t0:
                    raise ValueError(
                        f"bad exception {e} for r={self.gcd_r}, t0={self.threshold_t0}")

    def contains(self, k: int) -> bool:
        """Membership of k in the period set; raises if the walk never repeated."""
        if self.periods is None:
            raise ValueError("the walk reached verify_to before it repeated")
        return self.periods.contains(k)


def period_structure(A: FactorSet, nonconstant_only: bool = False,
                     verify_to: int = 300) -> PeriodStructure:
    """Arithmetic structure of the (nonconstant) period set of the A-free words.

    One run of the closed-walk recurrence, for every language, to its first
    repeated state (Brent's method: the mark moves to the state at each
    power of two).  The k-walk matrix fixes every later one, so a repeat
    state(c) = state(c - p) makes the flags beyond c repeat with period p;
    they are extended to max(c + p, verify_to), and `periods` takes those
    from c - p + 1 to c as its rule mod p.  For a non-transitive language
    verify_to is the budget: the run stops there at the latest.  For a
    transitive one gcd_r is the gcd of the periods (those up to c + p bring
    in p), the exceptions are the non-periods among the multiples of gcd_r
    up to c, and verified_to is max(verify_to, c).

    A transitive language needs no budget.  By `is_transitive`'s criterion
    its walk graph is strongly connected with an arc: the first full state
    reaches every full state and every state reaches it.  Its closed-walk
    lengths then include every large multiple of their gcd (so no
    exception lies beyond c), and the powers of its n-state matrix are
    periodic after at most (n - 1)^2 + 1 steps (Wielandt for primitive
    matrices; Schwarz, 1970, in general).  Both variants read that one
    matrix sequence, so the one bound serves both; it held on 2,942
    transitive sets with factors of up to 8 letters.
    """
    if verify_to < 1:
        raise ValueError("verify_to must be >= 1")
    transitive = is_transitive(A)
    flags, mark, marked_at = [], None, 0
    for c, (closed, state) in enumerate(_closed_walks(A, nonconstant_only), 1):
        flags.append(closed)
        if state == mark or not transitive and c == verify_to:
            break
        if c & (c - 1) == 0:  # c is a power of two: move the mark
            mark, marked_at = state, c
    p = c - marked_at if state == mark else 0  # 0: stopped at the budget
    start = c - p + 1
    exact = PeriodicSet(start, p, frozenset(k % p for k in range(start, c + 1) if flags[k - 1]),
                        frozenset(k for k in range(1, start) if flags[k - 1])) if p else None
    while len(flags) < max(c + p, verify_to):
        flags.append(flags[-p])
    periods = [k for k, closed in enumerate(flags, 1) if closed]
    observed = tuple(k for k in periods if k <= verify_to)
    if not transitive:
        return PeriodStructure(math.gcd(*observed), 0, (), False, nonconstant_only,
                               observed, verify_to, exact)
    r = math.gcd(*periods)
    exceptions = tuple(k for k in range(r, c + 1, r) if not flags[k - 1]) if r else ()
    t0 = exceptions[-1] + r if exceptions else max(r, 1)
    return PeriodStructure(r, t0, exceptions, True, nonconstant_only, observed,
                           max(verify_to, c), exact)

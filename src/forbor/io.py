"""Text formats and JSON serialization for the command-line front end.

Graph files start with ``graph <n>`` followed by ``e <u> <v>`` lines;
digraph files use ``digraph <n>`` and ``a <u> <v>``.  Tokens are
whitespace-separated, ``#`` starts a comment, vertices are 0-based.
Forbidden-set files concatenate digraph blocks separated by blank lines;
factor-set files hold one word per line; hole-class spec files are
``key=value`` pairs.  Parse errors always carry a line number.
"""

from __future__ import annotations

from .graphs import Digraph, Graph, OrientedGraph
from .holes import HoleClassSpec
from .words import ALPHABET, FactorSet


class FormatError(ValueError):
    """Malformed input file; message includes the offending line number."""


def _clean_lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        yield i, line


def _parse_block(lines, head, item, noun, oriented=False):
    """(n, pairs) of one ``head <n>`` block of ``item <u> <v>`` lines."""
    n = None
    pairs = set()
    for i, line in lines:
        if not line:
            continue
        tok = line.split()
        if tok[0] == head:
            if n is not None:
                raise FormatError(f"line {i}: duplicate {head} header")
            if len(tok) != 2 or not tok[1].isdecimal():
                raise FormatError(f"line {i}: expected '{head} <n>'")
            n = int(tok[1])
        elif tok[0] == item:
            if n is None:
                raise FormatError(f"line {i}: {noun} before '{head} <n>' header")
            if len(tok) != 3:
                raise FormatError(f"line {i}: expected '{item} <u> <v>'")
            try:
                u, v = int(tok[1]), int(tok[2])
            except ValueError:
                raise FormatError(f"line {i}: vertices must be integers") from None
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"line {i}: {noun} needs two distinct vertices in [0, {n})")
            if oriented and (v, u) in pairs:
                raise FormatError(f"line {i}: symmetric arc pair between {u} and {v}")
            pairs.add((u, v))
        else:
            raise FormatError(f"line {i}: unknown directive {tok[0]!r}")
    if n is None:
        raise FormatError(f"line 1: missing '{head} <n>' header")
    return n, frozenset(pairs)


def parse_graph(text: str) -> Graph:
    return Graph(*_parse_block(_clean_lines(text), "graph", "e", "edge"))


def _parse_digraph_block(lines, oriented):
    n, arcs = _parse_block(lines, "digraph", "a", "arc", oriented)
    return OrientedGraph(n, arcs) if oriented else Digraph(n, arcs)


def parse_digraph(text: str, oriented: bool = False) -> Digraph:
    return _parse_digraph_block(_clean_lines(text), oriented)


def parse_digraph_blocks(text: str, oriented: bool = False):
    """Concatenated digraph blocks separated by blank lines."""
    blocks = []
    current = []
    for i, line in _clean_lines(text):
        if line:
            current.append((i, line))
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    if not blocks:
        raise FormatError("line 1: no digraph blocks found")
    return tuple(_parse_digraph_block(b, oriented) for b in blocks)


def parse_factor_set(text: str) -> FactorSet:
    words = set()
    for i, line in _clean_lines(text):
        if not line:
            continue
        if any(c not in ALPHABET for c in line):
            raise FormatError(
                f"line {i}: word {line!r} uses letters outside {ALPHABET!r}")
        words.add(line)
    return FactorSet(frozenset(words))


def parse_hole_spec(text: str) -> HoleClassSpec:
    """Key-value hole-class spec, e.g. ``variant=odd_tail M=5``.

    Keys: variant (finite | cofinite_complement | odd_tail | custom),
    members (comma-separated lengths), M (odd-tail threshold), exceptions,
    tail (finite | cofinite | odd_tail | coinfinite), bound.  odd_tail
    reads M and exceptions, custom reads tail, bound and members (the
    forbidden lengths within bound), the others read members.  Any other
    key, a key given twice or one the variant does not read is a FormatError.
    """
    fields = {}
    for i, line in _clean_lines(text):
        if not line:
            continue
        for tok in line.split():
            if "=" not in tok:
                raise FormatError(f"line {i}: expected key=value, got {tok!r}")
            key, value = tok.split("=", 1)
            if key not in ("variant", "members", "M", "exceptions", "tail", "bound"):
                raise FormatError(f"line {i}: unknown key {key!r}")
            if key in fields:
                raise FormatError(f"line {i}: duplicate key {key!r}")
            fields[key] = (i, value)

    def ints(key):
        if key not in fields:
            return ()
        i, value = fields[key]
        try:
            return tuple(int(x) for x in value.split(",") if x)
        except ValueError:
            raise FormatError(f"line {i}: {key} must be comma-separated integers") from None

    def integer(key):
        i, value = fields[key]
        try:
            return int(value)
        except ValueError:
            raise FormatError(f"line {i}: {key} must be an integer") from None

    if "variant" not in fields:
        raise FormatError("line 1: missing variant=")
    at, variant = fields["variant"]
    reads = {"finite": ("members",), "cofinite_complement": ("members",),
             "odd_tail": ("M", "exceptions"), "custom": ("tail", "members", "bound")}
    if variant not in reads:
        raise FormatError(f"line {at}: unknown variant {variant!r}")
    for key, (i, _) in fields.items():
        if key not in reads[variant] + ("variant",):
            raise FormatError(f"line {i}: key {key!r} does not apply to variant {variant!r}")
    if variant in ("finite", "cofinite_complement"):
        make, args = getattr(HoleClassSpec, variant), (ints("members"),)
    elif variant == "odd_tail":
        if "M" not in fields:
            raise FormatError(f"line {at}: odd_tail needs M=<threshold>")
        make, args = HoleClassSpec.odd_tail, (integer("M"), ints("exceptions"))
    else:
        if "tail" not in fields:
            raise FormatError(f"line {at}: custom needs tail=")
        tail = {"coinfinite": "other"}.get(fields["tail"][1], fields["tail"][1])
        members = frozenset(ints("members"))
        bound = integer("bound") if "bound" in fields else 200
        make, args = HoleClassSpec.custom, (members.__contains__, tail, bound)
    try:
        return make(*args)
    except ValueError as e:
        raise FormatError(f"line {at}: {e}") from None


# ---------------------------------------------------------------------------
# writers


def graph_to_text(g: Graph) -> str:
    lines = [f"graph {g.n}"]
    lines += [f"e {u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


def digraph_to_text(d: Digraph) -> str:
    lines = [f"digraph {d.n}"]
    lines += [f"a {u} {v}" for u, v in d.sorted_arcs()]
    return "\n".join(lines) + "\n"


def digraph_to_json(d: Digraph):
    return {"n": d.n, "arcs": [list(a) for a in d.sorted_arcs()]}

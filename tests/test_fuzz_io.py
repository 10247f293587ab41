"""Property-based fuzzing of the text parsers in `forbor.io`, on their own.

Whatever the text, each parser returns a value or raises a FormatError
whose message starts with ``line N:``, N a line of the text (line 1 for
an empty one).
"""

import re
import warnings

from hypothesis import given, settings, strategies as st

from forbor.io import (
    FormatError, parse_digraph, parse_digraph_blocks, parse_factor_set, parse_graph,
    parse_hole_spec,
)

FUZZ = settings(derandomize=True, deadline=None, max_examples=400, database=None)

PARSERS = {
    "graph": parse_graph,
    "digraph": parse_digraph,
    "oriented digraph": lambda text: parse_digraph(text, oriented=True),
    "digraph blocks": parse_digraph_blocks,
    "oriented digraph blocks": lambda text: parse_digraph_blocks(text, oriented=True),
    "factor set": parse_factor_set,
    "hole spec": parse_hole_spec,
}

#: words of every format, so that generated lines get past the first checks;
#: numbers stay small because a custom hole spec samples up to its bound and
#: a graph header sizes the graph
TOKENS = st.one_of(
    st.sampled_from((
        "graph", "digraph", "e", "a", "#", ">", "<", "><", ">><", "=",
        "variant=finite", "variant=cofinite_complement", "variant=odd_tail",
        "variant=custom", "variant=x", "members=", "exceptions=", "M=", "tail=",
        "bound=", "tail=finite", "tail=cofinite", "tail=odd_tail", "tail=coinfinite",
        "tail=other", "bound=60", "M=x", "members=4,a")),
    st.integers(-3, 12).map(str),
    st.lists(st.integers(-3, 70), max_size=4).map(lambda ks: ",".join(map(str, ks))),
    st.text(max_size=3),
)
LINES = st.lists(TOKENS, max_size=5).map(" ".join)
TEXTS = st.one_of(
    st.lists(LINES, max_size=8).map("\n".join),
    st.lists(st.one_of(LINES, st.text(max_size=8)), max_size=6).map("\r\n".join),
    st.text(),
)


def check(parse, text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            parse(text)
        except FormatError as e:
            m = re.match(r"line (\d+): ", str(e))
            assert m, str(e)
            assert 1 <= int(m.group(1)) <= max(1, len(text.splitlines())), (text, str(e))


@FUZZ
@given(st.sampled_from(sorted(PARSERS)), TEXTS)
def test_parsers_return_or_name_a_line(name, text):
    check(PARSERS[name], text)


@FUZZ
@given(st.sampled_from(("finite", "cofinite_complement", "odd_tail", "custom")),
       st.lists(st.sampled_from(("members", "M", "exceptions", "tail", "bound")),
                max_size=4, unique=True),
       st.data())
def test_hole_spec_keys_return_or_name_a_line(variant, keys, data):
    # one key per line, so that errors name lines past the first
    values = {"members": st.lists(st.integers(-3, 10 ** 9), max_size=4).map(
                  lambda ks: ",".join(map(str, ks))),
              "M": st.one_of(st.integers(-3, 70), st.integers(0, 10 ** 9)).map(str),
              "exceptions": st.lists(st.integers(-3, 70), max_size=4).map(
                  lambda ks: ",".join(map(str, ks))),
              "tail": st.sampled_from(("finite", "cofinite", "odd_tail", "coinfinite", "")),
              "bound": st.integers(-5, 300).map(str)}
    lines = [f"variant={variant}"] + [f"{key}={data.draw(values[key])}" for key in keys]
    data.draw(st.randoms()).shuffle(lines)
    check(parse_hole_spec, "\n".join(lines) + "\n")

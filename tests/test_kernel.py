"""Gates for the induced-embedding kernel shared by containment and search.

The golden values were produced by the backtrackers this kernel replaced:
search order, witnesses and work counters must stay exactly as they were.
"""

import json

from conftest import induced_embeddings_oracle

from forbor import (
    Digraph, Graph, contains_induced, coupling, directed_cycle, directed_path,
    disjoint_union, enumerate_digraphs, make_cycle, transitive_tournament,
    word_to_path,
)
from forbor.cli import run
from forbor.io import digraph_to_text, graph_to_text


def wheel(k):
    return Graph(k + 1, frozenset(make_cycle(k).edges | {(i, k) for i in range(k)}))


def cube():
    return Graph(8, frozenset((u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b))


GRAPHS = {"cube": cube(), "W5": wheel(5), "C3.C5": coupling(3, 5)}
FSETS = {"TT3+P4": (transitive_tournament(3), directed_path(3)),
         "b1+2K2": (word_to_path("<>"),
                    disjoint_union(directed_path(1), directed_path(1)))}

CUBE = [[0, 1], [0, 2], [0, 4], [1, 3], [1, 5], [2, 3], [2, 6], [4, 5], [4, 6],
        [7, 3], [7, 5], [7, 6]]
COUPLED = [[0, 1], [0, 3], [0, 6], [1, 2], [2, 0], [4, 3], [4, 5], [5, 6]]
WHEEL = [[0, 1], [0, 5], [1, 2], [1, 5], [2, 3], [2, 5], [3, 4], [3, 5], [4, 0], [4, 5]]

#: (graph, forbidden set, containment, acyclic) -> (admits, work, witness arcs)
GOLDEN_ORIENT = {
    ("cube", "TT3+P4", "induced", False): (True, 15, CUBE),
    ("cube", "TT3+P4", "induced", True): (True, 15, CUBE),
    ("cube", "TT3+P4", "hom", False): (True, 15, CUBE),
    ("cube", "TT3+P4", "hom", True): (True, 15, CUBE),
    ("cube", "TT3+P4", "overlap", False): (True, 15, CUBE),
    ("cube", "TT3+P4", "overlap", True): (True, 15, CUBE),
    ("W5", "TT3+P4", "induced", False): (False, 78, None),
    ("W5", "TT3+P4", "induced", True): (False, 30, None),
    ("W5", "TT3+P4", "hom", False): (False, 30, None),
    ("W5", "TT3+P4", "hom", True): (False, 30, None),
    ("W5", "TT3+P4", "overlap", False): (False, 78, None),
    ("W5", "TT3+P4", "overlap", True): (False, 30, None),
    ("C3.C5", "TT3+P4", "induced", False): (True, 24, COUPLED),
    ("C3.C5", "TT3+P4", "induced", True): (False, 62, None),
    ("C3.C5", "TT3+P4", "hom", False): (False, 62, None),
    ("C3.C5", "TT3+P4", "hom", True): (False, 62, None),
    ("C3.C5", "TT3+P4", "overlap", False): (True, 24, COUPLED),
    ("C3.C5", "TT3+P4", "overlap", True): (False, 62, None),
    ("W5", "b1+2K2", "induced", False): (True, 11, WHEEL),
    ("W5", "b1+2K2", "induced", True): (False, 208, None),
    ("W5", "b1+2K2", "hom", False): (False, 2, None),
    ("W5", "b1+2K2", "hom", True): (False, 2, None),
    ("W5", "b1+2K2", "overlap", False): (False, 2, None),
    ("W5", "b1+2K2", "overlap", True): (False, 2, None),
}

DIGON = Digraph(2, frozenset({(0, 1), (1, 0)}))
HOST = Digraph(5, frozenset({(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 0),
                             (2, 4)}))

#: first embedding found, as (pattern, host, map in placement order)
GOLDEN_MAPS = [
    (directed_path(2), directed_cycle(5), [(1, 0), (0, 4), (2, 1)]),
    (word_to_path("<>"), word_to_path("<><>"), [(1, 1), (0, 0), (2, 2)]),
    (transitive_tournament(3), transitive_tournament(5), [(0, 0), (1, 1), (2, 2)]),
    (DIGON, HOST, [(0, 0), (1, 1)]),
    (directed_path(2), HOST, [(1, 2), (0, 1), (2, 4)]),
    (directed_cycle(3), HOST, None),
]


def test_orient_reports_match_golden(tmp_path):
    gfile, ffile = tmp_path / "g", tmp_path / "F"
    for (gname, fname, containment, acyclic), expected in GOLDEN_ORIENT.items():
        gfile.write_text(graph_to_text(GRAPHS[gname]))
        ffile.write_text("\n".join(digraph_to_text(h) for h in FSETS[fname]))
        argv = ["orient", "-g", str(gfile), "-F", str(ffile), "--mode", containment]
        status, out = run(argv + (["--acyclic"] if acyclic else []))
        assert status == 0
        r = json.loads(out)["result"]
        assert (r["admits"], r["work"], r["witness_arcs"]) == expected, \
            (gname, fname, containment, acyclic)


def test_first_embedding_matches_golden():
    for h, d, expected in GOLDEN_MAPS:
        found = contains_induced(h, d)
        assert (None if found is None else list(found.items())) == expected


def test_contains_induced_agrees_with_oracle():
    """All pattern classes on <= 3 vertices against all hosts on <= 4, digons included."""
    patterns = [h for n in range(1, 4) for h in enumerate_digraphs(n)]
    hosts = [d for n in range(1, 5) for d in enumerate_digraphs(n)]
    for h in patterns:
        order = sorted(range(h.n), key=lambda v: (-sum(h.degrees(v)), v))
        for d in hosts:
            found = contains_induced(h, d)
            every = induced_embeddings_oracle(h, d)
            if not every:
                assert found is None
                continue
            # the first embedding: earliest images in placement order
            first = min(every, key=lambda m: [m[x] for x in order])
            assert found == first and list(found) == order

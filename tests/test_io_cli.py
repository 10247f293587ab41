import hashlib
import json

import pytest

from forbor import Digraph, OrientedGraph, verify_orientation, ForbiddenSet, SearchMode
from forbor.cli import run
from forbor.io import (
    FormatError, digraph_to_text, graph_to_text, parse_digraph,
    parse_digraph_blocks, parse_factor_set, parse_graph, parse_hole_spec,
)

C4_TEXT = """\
# a four-cycle
graph 4
e 0 1
e 1 2
e 2 3
e 3 0
"""

B1_TEXT = """\
digraph 3
a 1 0
a 1 2
"""

BIP_FORB = """\
digraph 3
a 0 1
a 1 2

digraph 3
a 0 1
a 1 2
a 0 2

digraph 3
a 0 1
a 1 2
a 2 0
"""


def test_parse_graph_round_trip():
    g = parse_graph(C4_TEXT)
    assert g.n == 4 and len(g.edges) == 4
    assert parse_graph(graph_to_text(g)).edges == g.edges


def test_parse_digraph_round_trip():
    d = parse_digraph(B1_TEXT, oriented=True)
    assert isinstance(d, OrientedGraph)
    assert parse_digraph(digraph_to_text(d)).arcs == d.arcs


def test_parse_digraph_blocks():
    blocks = parse_digraph_blocks(BIP_FORB, oriented=True)
    assert [len(b.arcs) for b in blocks] == [2, 3, 3]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 2"):
        parse_graph("graph 3\ne 0\n")
    with pytest.raises(FormatError, match="line 1"):
        parse_graph("e 0 1\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_digraph("digraph 2\na 0 1\nb 1 0\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_factor_set(">>\n>x\n")
    with pytest.raises(FormatError):
        parse_hole_spec("variant=banana\n")


@pytest.mark.parametrize("command, text, line", [
    (["holes", "analyze", "-spec"], "variant=odd_tail M=abc\n", 1),
    (["holes", "analyze", "-spec"], "variant=custom tail=finite\nbound=x\n", 2),
    (["orient", "--mode", "induced", "-F", "FORB", "-g"], "# superscript three\ngraph \u00b3\n", 2),
    (["core"], "digraph \u00b3\na 0 1\n", 1),
], ids=["odd_tail_M", "custom_bound", "graph_header", "digraph_header"])
def test_cli_parse_errors_carry_line_numbers(tmp_path, command, text, line):
    forb = tmp_path / "p3.forb"
    forb.write_text("digraph 3\na 0 1\na 1 2\n")
    f = tmp_path / "input.txt"
    f.write_text(text)
    argv = [str(forb) if a == "FORB" else a for a in command] + [str(f)]
    status, out = run(argv)
    assert status == 1 and out.startswith(f"error: line {line}: ")


def test_parse_errors_name_the_offending_line():
    with pytest.raises(FormatError, match="line 3: edge needs two distinct"):
        parse_graph("graph 3\ne 0 1\ne 1 1\n")
    with pytest.raises(FormatError, match="line 2: edge needs two distinct"):
        parse_graph("graph 3\ne 0 3\n")
    with pytest.raises(FormatError, match="line 6: symmetric arc pair"):
        parse_digraph_blocks("digraph 2\na 0 1\n\ndigraph 2\na 0 1\na 1 0\n", oriented=True)
    assert len(parse_digraph("digraph 2\na 0 1\na 1 0\n").arcs) == 2
    with pytest.raises(FormatError, match="line 2: odd-tail exceptions"):
        parse_hole_spec("# exceptions past M\nvariant=odd_tail M=7 exceptions=9\n")


@pytest.mark.parametrize("parse, text, message", [
    (parse_graph, "graph 3\ne 0 x\n", "line 2: vertices must be integers"),
    (parse_graph, "# no header\n", "line 1: missing 'graph <n>' header"),
    (parse_digraph_blocks, "# nothing\n\n", "line 1: no digraph blocks found"),
    (parse_hole_spec, "variant\n", "line 1: expected key=value, got 'variant'"),
    (parse_hole_spec, "variant=finite members=5,x\n",
     "line 1: members must be comma-separated integers"),
    (parse_hole_spec, "members=5\n", "line 1: missing variant="),
    (parse_hole_spec, "variant=odd_tail\n", "line 1: odd_tail needs M=<threshold>"),
    (parse_hole_spec, "variant=custom\n", "line 1: custom needs tail="),
    (parse_hole_spec, "variant=cofinite_complement memebers=5,7\n",
     "line 1: unknown key 'memebers'"),
    (parse_hole_spec, "variant=odd_tail M=9\nM=7\n", "line 2: duplicate key 'M'"),
    (parse_hole_spec, "variant=odd_tail M=9 members=5\n",
     "line 1: key 'members' does not apply to variant 'odd_tail'"),
    (parse_hole_spec, "variant=finite members=5 M=7\ntail=cofinite\n",
     "line 1: key 'M' does not apply to variant 'finite'"),
    (parse_hole_spec, "variant=finite members=5\ntail=cofinite\n",
     "line 2: key 'tail' does not apply to variant 'finite'"),
    (parse_hole_spec, "exceptions=5\nvariant=cofinite_complement\n",
     "line 1: key 'exceptions' does not apply to variant 'cofinite_complement'"),
    (parse_hole_spec, "variant=custom tail=finite M=5\n",
     "line 1: key 'M' does not apply to variant 'custom'"),
    (parse_hole_spec, "bound=9 variant=banana\n", "line 1: unknown variant 'banana'"),
])
def test_format_error_messages(parse, text, message):
    with pytest.raises(FormatError) as caught:
        parse(text)
    assert str(caught.value) == message


def test_parse_factor_set():
    A = parse_factor_set("# comment\n>>\n<<\n")
    assert A.members == {">>", "<<"}


def test_parse_hole_spec_variants():
    odd = parse_hole_spec("variant=odd_tail M=5\n")
    assert odd.tail_kind() == "odd_tail" and odd.lengths.start == 5
    fin = parse_hole_spec("variant=finite members=5,7\n")
    assert fin.tail_kind() == "finite" and fin.lengths.flips == {5, 7}
    cof = parse_hole_spec("variant=cofinite_complement members=6\n")
    assert not cof.forbids(6) and cof.forbids(7)
    cus = parse_hole_spec("variant=custom tail=coinfinite members=5,7,11 bound=60\n")
    assert cus.tail_kind() == "other" and cus.forbids(5) and not cus.forbids(6)


def run_cli(tmp_path, *argv):
    return run(list(argv))


def test_cli_spectrum(tmp_path):
    forb = tmp_path / "bip.forb"
    forb.write_text(BIP_FORB)
    status, out = run(["spectrum", "-F", str(forb), "--range", "4..12"])
    assert status == 0
    report = json.loads(out)
    assert report["result"]["spectrum"] == [4, 6, 8, 10, 12]
    assert report["subcommand"] == "spectrum"
    assert set(report) == {"tool_version", "subcommand", "inputs_digest", "result"}
    # byte-identical on identical inputs
    assert run(["spectrum", "-F", str(forb), "--range", "4..12"])[1] == out


def test_cli_orient_and_witness_reverifies(tmp_path):
    (tmp_path / "c4.graph").write_text(C4_TEXT)
    (tmp_path / "b1.forb").write_text(B1_TEXT)
    status, out = run(["orient", "-g", str(tmp_path / "c4.graph"),
                       "-F", str(tmp_path / "b1.forb"),
                       "--mode", "induced", "--acyclic"])
    assert status == 0
    assert json.loads(out)["result"]["admits"] is False

    status, out = run(["orient", "-g", str(tmp_path / "c4.graph"),
                       "-F", str(tmp_path / "b1.forb"), "--mode", "induced"])
    result = json.loads(out)["result"]
    assert result["admits"] is True
    g = parse_graph(C4_TEXT)
    F = ForbiddenSet(parse_digraph_blocks(B1_TEXT, oriented=True))
    from forbor import Orientation
    witness = Orientation(g, frozenset(tuple(a) for a in result["witness_arcs"]))
    assert verify_orientation(witness, F, SearchMode("induced"))


def test_cli_orient_hom_with_a_large_member(tmp_path):
    # four disjoint arcs and an isolated vertex: the member's image closure
    # is far too large to build, yet it maps onto any single arc
    (tmp_path / "p3.graph").write_text("graph 3\ne 0 1\ne 1 2\n")
    (tmp_path / "m.forb").write_text("digraph 9\n" + "".join(
        f"a {u} {u + 1}\n" for u in (0, 2, 4, 6)))
    status, out = run(["orient", "-g", str(tmp_path / "p3.graph"),
                       "-F", str(tmp_path / "m.forb"), "--mode", "hom"])
    assert status == 0
    result = json.loads(out)["result"]
    assert (result["admits"], result["work"]) == (False, 2)


def test_cli_orient_edgeless_graph_reports_an_empty_witness(tmp_path):
    (tmp_path / "e2.graph").write_text("graph 2\n")
    (tmp_path / "p3.forb").write_text("digraph 3\na 0 1\na 1 2\n")
    status, out = run(["orient", "-g", str(tmp_path / "e2.graph"),
                       "-F", str(tmp_path / "p3.forb")])
    assert status == 0
    result = json.loads(out)["result"]
    assert (result["admits"], result["witness_arcs"]) == (True, [])


def test_cli_core_of_the_empty_digraph(tmp_path):
    (tmp_path / "empty.dig").write_text("digraph 0\n")
    status, out = run(["core", str(tmp_path / "empty.dig")])
    assert status == 0
    assert json.loads(out)["result"]["core"] == {"n": 0, "arcs": []}


def test_cli_translate_both_ways(tmp_path):
    status, out = run(["translate", "><"])
    assert status == 0
    r = json.loads(out)["result"]
    assert r["path"]["arcs"] == [[0, 1], [2, 1]]
    p = tmp_path / "p.dig"
    p.write_text("digraph 3\na 0 1\na 1 2\n")
    status, out = run(["translate", str(p)])
    assert json.loads(out)["result"]["words"] == ["<<", ">>"]


def test_cli_translate_word_too_long_for_a_file_name():
    w = "><" * 150
    status, out = run(["translate", w])
    assert status == 0
    path = json.loads(out)["result"]["path"]
    assert path["n"] == 301
    assert path["arcs"] == sorted([i, i + 1] if c == ">" else [i + 1, i]
                                  for i, c in enumerate(w))


def test_cli_lang(tmp_path):
    f = tmp_path / "A.txt"
    f.write_text(">>\n<<\n")
    assert json.loads(run(["lang", "sync", "-A", str(f)])[1])["result"]["sync_bound"] == 2
    assert json.loads(run(["lang", "transitive", "-A", str(f)])[1])["result"]["transitive"] is True
    periods = json.loads(run(["lang", "periods", "-A", str(f),
                              "--kmax", "20", "--nonconstant"])[1])["result"]["periods"]
    assert periods == list(range(2, 21, 2))
    structure = json.loads(run(["lang", "structure", "-A", str(f)])[1])["result"]
    assert structure["gcd_r"] == 2 and structure["threshold_t0"] == 2


def test_cli_hom_core_duality(tmp_path):
    p3 = tmp_path / "p3.dig"
    p3.write_text("digraph 3\na 0 1\na 1 2\n")
    tt2 = tmp_path / "tt2.dig"
    tt2.write_text("digraph 2\na 0 1\n")
    c3 = tmp_path / "c3.dig"
    c3.write_text("digraph 3\na 0 1\na 1 2\na 2 0\n")

    assert json.loads(run(["hom", str(p3), str(tt2)])[1])["result"]["exists"] is False
    assert json.loads(run(["hom", str(p3), str(p3)])[1])["result"]["exists"] is True
    core = json.loads(run(["core", str(p3)])[1])["result"]["core"]
    assert core["n"] == 3

    rep = json.loads(run(["duality", "verify", "-A", str(p3), "-B", str(tt2)])[1])["result"]
    assert rep["holds"] is True and rep["holds_up_to"] == 4
    rep = json.loads(run(["duality", "verify", "-A", str(c3), "-B", str(tt2)])[1])["result"]
    assert rep["holds"] is False and rep["counterexample"]["n"] >= 2

    rep = json.loads(run(["duality", "verify-gen", "-F", str(p3), "-M", str(tt2),
                          "--n", "3"])[1])["result"]
    assert rep["holds"] is True


def test_cli_holes(tmp_path):
    spec = tmp_path / "odd.spec"
    spec.write_text("variant=odd_tail M=5\n")
    rep = json.loads(run(["holes", "analyze", "-spec", str(spec)])[1])["result"]
    assert rep["overall"] == ["NecessaryConditionsPass"]
    spec2 = tmp_path / "primes.spec"
    primes = [k for k in range(4, 201)
              if k >= 2 and all(k % d for d in range(2, int(k ** 0.5) + 1))]
    spec2.write_text("variant=custom tail=coinfinite members="
                     + ",".join(map(str, primes)) + " bound=200\n")
    rep = json.loads(run(["holes", "analyze", "-spec", str(spec2)])[1])["result"]
    assert rep["overall"] == ["NotExpressibleAny", "NotExpressibleAcyclic"]
    assert "sncondition" in rep["plain_rules"]


def test_cli_exit_codes(tmp_path):
    status, out = run(["orient", "-g", "missing.graph", "-F", "missing.forb",
                       "--mode", "induced"])
    assert status == 1 and "cannot read" in out

    big = tmp_path / "k6.graph"
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    big.write_text("graph 6\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    forb = tmp_path / "p4.forb"
    forb.write_text("digraph 4\na 0 1\na 1 2\na 2 3\n")
    status, out = run(["orient", "-g", str(big), "-F", str(forb),
                       "--mode", "hom", "--budget", "10"])
    assert status == 2 and "budget" in out

    bad = tmp_path / "bad.graph"
    bad.write_text("graph two\n")
    status, out = run(["orient", "-g", str(bad), "-F", str(forb), "--mode", "induced"])
    assert status == 1 and "line 1" in out


@pytest.mark.parametrize("error", [RuntimeError("lost"), AssertionError("witness failed")])
def test_cli_internal_error_is_one_line_with_status_3(monkeypatch, error):
    """An exception outside the documented failures exits 3 with one line."""
    def broken(word):
        raise error

    monkeypatch.setattr("forbor.cli.word_to_path", broken)
    status, out = run(["translate", "><"])
    assert (status, out) == (3, f"error: internal: {type(error).__name__}: {error}")


def test_cli_text_format(tmp_path):
    f = tmp_path / "A.txt"
    f.write_text(">>\n<<\n")
    status, out = run(["lang", "structure", "-A", str(f), "--format", "text"])
    assert status == 0 and out.startswith("gcd_r 2")


def test_cli_reports_identical_across_hash_seeds(tmp_path):
    # byte-identical reports must not depend on set iteration order
    import os
    import subprocess
    import sys

    import forbor

    forb = tmp_path / "bip.forb"
    forb.write_text(BIP_FORB)
    spec = tmp_path / "odd.spec"
    spec.write_text("variant=odd_tail M=5\n")
    c10 = tmp_path / "c10.dig"
    c10.write_text("digraph 10\n" + "".join(f"a {i} {(i + 1) % 10}\n" for i in range(10)))
    src = os.path.dirname(os.path.dirname(forbor.__file__))
    outputs = set()
    for seed in ("0", "1", "77"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        blob = b""
        for argv in (["spectrum", "-F", str(forb), "--range", "4..12"],
                     ["holes", "analyze", "-spec", str(spec)],
                     ["spectrum", "-F", str(c10), "--range", "3..12"]):
            blob += subprocess.run(
                [sys.executable, "-m", "forbor.cli", *argv],
                capture_output=True, env=env, check=True).stdout
        outputs.add(blob)
    assert len(outputs) == 1


def test_cli_closed_stdout_exits_without_traceback(tmp_path):
    # the pipe's read end is closed before the child starts, so the report's
    # first write fails, as under `| head -c 10` with a long report
    import os
    import subprocess
    import sys

    import forbor

    f = tmp_path / "A.txt"
    f.write_text(">>\n<<\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(forbor.__file__)))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "forbor.cli", "lang", "periods", "-A", str(f), "--kmax", "2000"],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# golden reports: one invocation per subcommand, in both formats, pinned by
# the sha256 of "<status>\n<output>" as the CLI produced them before its
# configuration was folded into the parsed arguments

GOLDEN_FILES = {
    "c4.graph": C4_TEXT,
    "b1.forb": B1_TEXT,
    "bip.forb": BIP_FORB,
    "p3.dig": "digraph 3\na 0 1\na 1 2\n",
    "zig.dig": "digraph 4\na 0 1\na 2 1\na 2 3\n",
    "tt2.dig": "digraph 2\na 0 1\n",
    "c3.dig": "digraph 3\na 0 1\na 1 2\na 2 0\n",
    "A.txt": ">>\n<<\n",
    "odd.spec": "variant=odd_tail M=5\n",
}

GOLDEN_REPORTS = [
    ("translate_word", ["translate", "><>"]),
    ("translate_file", ["translate", "@zig.dig"]),
    ("lang", ["lang", "periods", "-A", "@A.txt", "--kmax", "20", "--nonconstant"]),
    ("orient", ["orient", "-g", "@c4.graph", "-F", "@b1.forb", "--mode", "overlap"]),
    ("spectrum", ["spectrum", "-F", "@bip.forb", "--range", "4..12", "--acyclic"]),
    ("hom", ["hom", "@zig.dig", "@p3.dig"]),
    ("core", ["core", "@zig.dig"]),
    ("duality_verify", ["duality", "verify", "-A", "@c3.dig", "-B", "@tt2.dig", "--n", "3"]),
    ("duality_verify_gen", ["duality", "verify-gen", "-F", "@p3.dig", "-M", "@tt2.dig", "--n", "3"]),
    ("holes", ["holes", "analyze", "-spec", "@odd.spec", "--kmax", "30"]),
]

GOLDEN_SHA256 = {
    "translate_word-json": "0361c3f8bb0a18e01ff981bee23a70ca412f70ab2b5e198cfd306c4f68a573f5",
    "translate_word-text": "d162d527c52d500ceef1d756b9c7cf092b1c77a9788f2c188d67c1ad8d047688",
    "translate_file-json": "9f67be0df6466b062ce388b8fc29040cafaf7929707fb941ef1dc75e94894063",
    "translate_file-text": "75c759d8cfca3a1013340a91337b020ccb842e6972dc4b253e511dc4c1cf983e",
    "lang-json": "78312ba43a8dae9f731336d14edd82158509cdb4d7794541fd5db3c8a18ce7ee",
    "lang-text": "a04cafaf2a2cb71514afc017eb74e7fca0749778654c459db01a47ac54b48beb",
    "orient-json": "2ffb224f3a01a7ce4ab77d09eba31bf5c781951a742ed17ae0e23c9ef6f9b7d4",
    "orient-text": "ec0148c8fbd2271fca6a32a972cb83c4cc1c3d8493bf4191fda34968e6248ae9",
    "spectrum-json": "65f0752ef9f10599a2d24184031522e3b22c3c71ff06ea27679caf70fcde5a66",
    "spectrum-text": "318f3bb0994d51d750e5f768ad1e9eba5f908cba03c88975578a7c8b1bcdb6fc",
    "hom-json": "853b00513abd2bde8da71f1982f6e5b13db2cbdd4f847365e7233051dfc2a273",
    "hom-text": "398733723ab0171642d7ea01dd529f6f36fe1bd6b623114adc42820cd23df81b",
    "core-json": "dc729ffa0dd1e3f602c569626dc571da818cb62d02b7ad636e1e628face4a821",
    "core-text": "4d62abaa5d8d6e62a8ef60f3f09c06c8579113dca0edaebb80fee9bd0469513f",
    "duality_verify-json": "6b19f75237702cc115cf3589c09d91ab3387a95cbe0ba48bc07c98651995689b",
    "duality_verify-text": "e432ce58e83e1bee1632329a642518789b3e37e47d5e57358cee0121cdcc1532",
    "duality_verify_gen-json": "88905d29f3de26445fb936c72f92d91858e2656bf786040ce0abdd2852aaa193",
    "duality_verify_gen-text": "73843cb639d5e06e7ae09899471673b5451e5bac3bb3791f4cc8ab9b42728e50",
    "holes-json": "cccb64d06904d696fafcd7ecb022837c8760e42baa6b2fb5c2086aa190f3f6e8",
    "holes-text": "cf3a437e86b26e07de7514324435b12c224d5700e7ddb17a9db56b1f68ce8a70",
    "translate_long_word": "5ff1cf86361ecf3b330c0a32ceed13bdc21a907032749d5a6bc14b28c3f9e065",
}


def _golden_argv(tmp_path, argv):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name, argv", GOLDEN_REPORTS, ids=[c[0] for c in GOLDEN_REPORTS])
def test_cli_reports_are_pinned(tmp_path, name, argv, fmt):
    status, out = run(_golden_argv(tmp_path, argv) + ["--format", fmt])
    digest = hashlib.sha256(f"{status}\n{out}".encode()).hexdigest()
    assert digest == GOLDEN_SHA256[f"{name}-{fmt}"]


@pytest.mark.parametrize("argv, status, message", [
    (["orient", "-g", "@missing.graph", "-F", "@b1.forb"], 1,
     "error: cannot read @missing.graph: No such file or directory"),
    (["spectrum", "-F", "@b1.forb", "--range", "4-12"], 1,
     "error: range must look like 4..12, got '4-12'"),
    (["spectrum", "-F", "@b1.forb", "--range", "9..4"], 1, "error: empty range"),
    (["lang", "periods", "-A", "@A.txt", "--kmax", "-1"], 1, "error: empty range"),
    (["lang", "periods", "-A", "@A.txt", "--kmax", "0"], 1, "error: k_max must be >= 1"),
    (["holes", "analyze", "-spec", "@odd.spec", "--kmax", "-1"], 1, "error: empty range"),
    (["holes", "analyze", "-spec", "@odd.spec", "--kmax", "0"], 1,
     "error: k_max must be at least 4"),
    (["--budget", "0", "lang", "sync", "-A", "@A.txt"], 1,
     "error: the work budget must be positive"),
    (["duality", "verify-gen", "-F", "@p3.dig", "-M", "@tt2.dig", "--jobs", "2"], 1, ""),
    (["translate", "abc"], 1, "error: 'abc' is neither a readable file nor a word over '><'"),
    (["translate", "@c3.dig"], 1, "error: not an orientation of a path"),
    (["core", "@bip.forb"], 1, "error: line 5: duplicate digraph header"),
    (["hom", "@c3.dig", "@tt2.dig", "--budget", "1"], 2,
     "work budget exceeded: hom search exceeded 1 nodes"),
    (["spectrum", "-F", "@p3.dig", "--range", "3..9", "--budget", "1"], 2,
     "work budget exceeded: orientation search exceeded 1 nodes"),
    (["--version"], 0, ""),
    ([], 1, ""),
    (["duality"], 1, ""),
    (["duality", "verify", "-A", "@c3.dig", "-B", "@tt2.dig", "--n", "-2"], 1,
     "error: --n must be between 1 and 5, got -2"),
    (["duality", "verify", "-A", "@c3.dig", "-B", "@tt2.dig", "--n", "9"], 1,
     "error: --n must be between 1 and 5, got 9"),
], ids=["unreadable", "bad_range", "empty_range", "lang_kmax_negative", "lang_kmax_zero",
        "holes_kmax_negative", "holes_kmax_zero", "budget_zero", "jobs_unknown",
        "translate_non_word", "translate_non_path", "parse_error", "budget_exhausted",
        "spectrum_budget_exhausted", "version", "no_subcommand", "no_duality_subcommand",
        "duality_n_below_one", "duality_n_past_cap"])
def test_cli_errors_are_pinned(tmp_path, capsys, argv, status, message):
    argv = _golden_argv(tmp_path, argv)
    message = message.replace("@", str(tmp_path) + "/")
    assert run(argv) == (status, message)


def test_canonical_form_refusal_names_the_order(tmp_path):
    with pytest.raises(ValueError) as e:
        ForbiddenSet((Digraph(3000),))
    assert str(e.value) == ("canonical form of a digraph on 3000 vertices needs more "
                            "than 100000 vertex refinements")
    (tmp_path / "big.dig").write_text("digraph 100000\n")
    assert run(["spectrum", "-F", str(tmp_path / "big.dig"), "--range", "4..6"]) == (
        1, "error: canonical form of a digraph on 100000 vertices needs more "
           "than 100000 vertex refinements")


def test_cli_long_word_report_is_pinned():
    status, out = run(["translate", "><" * 150])
    digest = hashlib.sha256(f"{status}\n{out}".encode()).hexdigest()
    assert digest == GOLDEN_SHA256["translate_long_word"]


def test_cli_missing_subcommand_messages(capsys):
    assert run([]) == (1, "")
    assert capsys.readouterr().err.splitlines()[-1] == \
        "forbor: error: the following arguments are required: subcommand"
    assert run(["holes"]) == (1, "")
    assert capsys.readouterr().err.splitlines()[-1] == \
        "forbor holes: error: the following arguments are required: holes_cmd"


@pytest.mark.parametrize("spec, warning", [
    ("variant=finite members=3,5\n", "warning: hole lengths below 4 dropped: [3]"),
    ("variant=odd_tail M=-5\n", "warning: odd-tail threshold clamped to 4"),
], ids=["short_lengths", "odd_tail_clamp"])
def test_cli_warnings_print_as_one_line(tmp_path, spec, warning):
    import os
    import subprocess
    import sys

    import forbor

    f = tmp_path / "class.spec"
    f.write_text(spec)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(forbor.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "forbor.cli", "holes", "analyze", "-spec", str(f)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr == warning + "\n"
    assert json.loads(proc.stdout)["subcommand"] == "holes analyze"

"""Property-based fuzzing of the command-line front end.

Generated hole-spec lines, factor files and graph/digraph texts, well
formed or not, drive cli.run.  Whatever the input, run returns exit status
0, 1 or 2 and raises nothing, and on status 0 its output is the JSON
report with exactly the four documented keys.
"""

import json
import warnings

from hypothesis import given, settings, strategies as st

from forbor.cli import run

REPORT_KEYS = {"tool_version", "subcommand", "inputs_digest", "result"}

FUZZ = settings(derandomize=True, deadline=None, max_examples=120, database=None)


def check_run(argv, fmt="json"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        status, out = run(["--format", fmt] + argv)
    assert status in (0, 1, 2)
    if status == 0 and fmt == "json":
        assert set(json.loads(out)) == REPORT_KEYS


@st.composite
def csv_ints(draw, lo, hi):
    return ",".join(map(str, draw(st.lists(st.integers(lo, hi), max_size=6))))


@st.composite
def hole_spec_lines(draw):
    """A spec line with its variant's keys, now and then one key too many
    or a malformed token."""
    variant = draw(st.sampled_from(
        ("finite", "cofinite_complement", "odd_tail", "custom", "other")))
    wanted = {"finite": ("members",), "cofinite_complement": ("members",),
              "odd_tail": ("M", "exceptions"), "custom": ("tail", "members", "bound"),
              "other": ()}[variant]
    options = {
        "members": csv_ints(-3, 10 ** 9),
        "M": st.one_of(st.integers(-3, 70), st.integers(0, 10 ** 9)).map(str),
        "exceptions": csv_ints(-3, 40),
        "tail": st.sampled_from(("finite", "cofinite", "odd_tail", "coinfinite", "x")),
        # custom specs scan to their bound, so it stays small
        "bound": st.integers(-5, 400).map(str),
    }
    tokens = [f"variant={variant}"]
    for key, values in options.items():
        if key in wanted or draw(st.integers(0, 5)) == 0:
            tokens.append(f"{key}={draw(values)}")
    if draw(st.integers(0, 9)) == 0:
        tokens.append(draw(st.sampled_from(("junk", "M=x", "bound=", "members=4,a"))))
    draw(st.randoms()).shuffle(tokens)
    return " ".join(tokens) + "\n"


@st.composite
def block_texts(draw, head, item, max_n=7):
    """A graph or digraph block, now and then with a malformed line."""
    n = draw(st.integers(0, max_n))
    lines = [f"{head} {n}"]
    vertex = st.integers(0, max(n - 1, 0))
    for _ in range(draw(st.integers(0, 9))):
        u, v = draw(vertex), draw(vertex)
        if u != v:
            lines.append(f"{item} {u} {v}")
    if draw(st.integers(0, 7)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            ("x 1 2", f"{item} 1", f"{item} 0 {n}", f"{item} 1 1", f"{head} 2", "# c", ""))))
    return "\n".join(lines) + "\n"


def write(directory, name, text):
    path = directory / name
    path.write_text(text)
    return str(path)


def test_fuzz_holes_analyze(tmp_path_factory):
    d = tmp_path_factory.mktemp("holes")

    @FUZZ
    @given(hole_spec_lines(), st.one_of(st.none(), st.integers(-2, 500)),
           st.sampled_from(("json", "text")))
    def fuzz(text, k_max, fmt):
        argv = ["holes", "analyze", "-spec", write(d, "c.spec", text)]
        if k_max is not None:
            argv += ["--kmax", str(k_max)]
        check_run(argv, fmt)

    fuzz()


def test_fuzz_lang(tmp_path_factory):
    d = tmp_path_factory.mktemp("lang")
    junk = st.sampled_from(("# c", "ab", "> <"))

    @FUZZ
    @given(st.lists(st.text("<>", max_size=6), max_size=5), st.lists(junk, max_size=1),
           st.sampled_from(("periods", "structure", "transitive", "sync")),
           st.booleans(), st.integers(-1, 60))
    def fuzz(words, junk, query, nonconstant, k_max):
        f = write(d, "a.txt", "\n".join(words + junk) + "\n")
        check_run(["lang", query, "-A", f, "--kmax", str(k_max)]
                  + ["--nonconstant"] * nonconstant)

    fuzz()


def test_fuzz_graph_and_digraph_texts(tmp_path_factory):
    d = tmp_path_factory.mktemp("graphs")

    @FUZZ
    @given(block_texts("graph", "e"), block_texts("digraph", "a", 4),
           block_texts("digraph", "a", 4), st.data())
    def fuzz(g, d1, d2, data):
        gf, f1, f2 = (write(d, name, text)
                      for name, text in (("g.txt", g), ("d1.dig", d1), ("d2.dig", d2)))
        budget = str(data.draw(st.integers(-1, 3000)))
        mode = data.draw(st.sampled_from(("induced", "hom", "overlap")))
        check_run(["orient", "-g", gf, "-F", f1, "--mode", mode, "--budget", budget]
                  + ["--acyclic"] * data.draw(st.booleans()))
        check_run(["hom", f1, f2, "--budget", budget])
        check_run(["core", f1])
        check_run(["translate", f2])
        lo, hi = data.draw(st.integers(-1, 9)), data.draw(st.integers(-1, 12))
        check_run(["spectrum", "-F", f1, f"--range={lo}..{hi}", "--budget", budget])
        check_run(["duality", "verify", "-A", f1, "-B", f2,
                   "--n", str(data.draw(st.integers(0, 3)))])

    fuzz()

"""Command-line front end.

Every subcommand reads the text formats from the io module and emits a
stable JSON report {tool_version, subcommand, inputs_digest, result}
(or a plain-text rendering with --format text).  Exit status: 0 computed,
1 usage or format error, 2 work budget exceeded, 3 internal error (any
other exception, reported as one line with its type).  A reader that
closes the output early (`| head`) gets exit status 1 and no traceback.
The CLI is fully deterministic; all randomized property testing lives in
the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from functools import cache
from pathlib import Path

from . import __version__
from .duality import core_of, hom_exists, verify_generalized_duality
from .graphs import ENUM_LIMIT
from .holes import trichotomy_verdict
from .io import (
    digraph_to_json, digraph_to_text, parse_digraph, parse_digraph_blocks,
    parse_factor_set, parse_graph, parse_hole_spec,
)
from .search import (
    DEFAULT_BUDGET, ForbiddenSet, SearchMode, WorkBudgetExceeded,
    admits_orientation, cycle_spectrum,
)
from .words import (
    ALPHABET, enumerate_periods, is_transitive, path_to_word,
    period_structure, sync_bound, word_to_path,
)


class CliError(RuntimeError):
    """Usage-level failure: bad arguments, unreadable or malformed files."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}") from None


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else p)
        h.update(b"\x00")
    return h.hexdigest()


def _parse_range(text: str):
    try:
        a, b = text.split("..")
        return int(a), int(b)
    except ValueError:
        raise CliError(f"range must look like 4..12, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (result dict, text rendering lines)


def _run_translate(args, texts):
    if args.inputs:
        d = parse_digraph(texts[0], oriented=True)
        words = sorted(path_to_word(d))
        return {"words": words}, [f"word {w}" for w in words]
    p = word_to_path(args.word)
    return ({"word": args.word, "path": digraph_to_json(p)},
            digraph_to_text(p).splitlines())


def _run_lang(args, texts):
    A = parse_factor_set(texts[0])
    if args.query == "sync":
        m = sync_bound(A)
        return {"sync_bound": m}, [f"sync_bound {m}"]
    if args.query == "transitive":
        t = is_transitive(A)
        return {"transitive": t}, [f"transitive {t}"]
    if args.query == "periods":
        ks = sorted(enumerate_periods(A, args.k_max, args.nonconstant))
        return ({"kmax": args.k_max, "nonconstant": args.nonconstant, "periods": ks},
                ["periods " + " ".join(map(str, ks))])
    ps = period_structure(A, nonconstant_only=args.nonconstant)
    result = dict(vars(ps))
    lines = [f"gcd_r {ps.gcd_r}", f"threshold_t0 {ps.threshold_t0}",
             f"exceptions {list(ps.exceptions)}", f"transitive {ps.transitive}"]
    return result, lines


def _run_orient(args, texts):
    g = parse_graph(texts[0])
    F = ForbiddenSet(parse_digraph_blocks(texts[1], oriented=True))
    mode = SearchMode(args.containment, args.acyclic)
    verdict = admits_orientation(g, F, mode, budget=args.budget)
    witness = sorted(verdict.witness.arcs) if verdict.witness else None
    result = {
        "admits": verdict.admits,
        "witness_arcs": None if witness is None else [list(a) for a in witness],
        "work": verdict.work,
        "mode": {"containment": mode.containment, "acyclic": mode.acyclic},
    }
    lines = [f"admits {verdict.admits}", f"work {verdict.work}"]
    if witness:
        lines += [f"a {u} {v}" for u, v in witness]
    return result, lines


def _run_spectrum(args, texts):
    F = ForbiddenSet(parse_digraph_blocks(texts[0], oriented=True))
    spec = sorted(cycle_spectrum(F, args.k_min, args.k_max, acyclic=args.acyclic,
                                 budget=args.budget))
    return ({"range": [args.k_min, args.k_max], "acyclic": args.acyclic,
             "spectrum": spec},
            ["spectrum " + " ".join(map(str, spec))])


def _run_hom(args, texts):
    d1, d2 = parse_digraph(texts[0]), parse_digraph(texts[1])
    w = hom_exists(d1, d2, budget=args.budget)
    result = {"exists": w is not None,
              "mapping": list(w.mapping) if w else None}
    return result, [f"hom {result['exists']}"
                    + (f" mapping {list(w.mapping)}" if w else "")]


def _run_core(args, texts):
    c = core_of(parse_digraph(texts[0]))
    return {"core": digraph_to_json(c)}, digraph_to_text(c).splitlines()


def _witnesses_json(ws):
    return [list(w.mapping) if w else None for w in ws]


def _duality_result(report):
    result = {"holds": report.holds, "holds_up_to": report.holds_up_to}
    if not report.holds:
        result["counterexample"] = digraph_to_json(report.counterexample)
        result["lhs_witnesses"] = _witnesses_json(report.lhs_witnesses)
        result["rhs_witnesses"] = _witnesses_json(report.rhs_witnesses)
    lines = [f"holds {report.holds} up to {report.holds_up_to}"]
    if not report.holds:
        lines += digraph_to_text(report.counterexample).splitlines()
    return result, lines


def _run_duality_verify(args, texts):
    a, b = parse_digraph(texts[0]), parse_digraph(texts[1])
    return _duality_result(verify_generalized_duality((a,), (b,), args.n))


def _run_duality_verify_gen(args, texts):
    F = parse_digraph_blocks(texts[0])
    M = parse_digraph_blocks(texts[1])
    return _duality_result(verify_generalized_duality(F, M, args.n))


def _run_holes(args, texts):
    spec = parse_hole_spec(texts[0])
    rep = trichotomy_verdict(spec, k_max=args.k_max)
    result = {**vars(rep), "checks": {name: vars(c) for name, c in rep.checks.items()}}
    lines = [f"overall {' '.join(rep.overall)}"]
    for name, c in rep.checks.items():
        lines.append(f"{name} {'pass' if c.passed else 'FAIL ' + c.rule}")
    return result, lines


def _is_file(value):
    try:
        return Path(value).is_file()
    except OSError:     # e.g. a word too long to be a file name
        return False


@cache
def _parser():
    """The argument parser, built once.  Its namespace is the whole
    configuration: each leaf subcommand sets its handler, its report name
    (subcommand, which replaces the first word argparse stored there, since
    a subparser's values are copied over its parent's) and the names of its
    input-file arguments (inputs)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS, dest="out_format")
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help="search node budget (exit 2 when exceeded)")

    top = argparse.ArgumentParser(
        prog="forbor",
        description="forbidden-orientation classes, avoidance words and dualities")
    top.add_argument("--version", action="version", version=f"forbor {__version__}")
    top.add_argument("--format", choices=("text", "json"), default="json",
                     dest="out_format")
    top.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="search node budget (exit 2 when exceeded)")
    # inputs_digest fields, at the values reported by subcommands without them
    top.set_defaults(word="", query="", k_min=0, k_max=0, containment="induced",
                     acyclic=False, nonconstant=False, n=4)
    sub = top.add_subparsers(dest="subcommand", required=True)

    def leaf(subparsers, name, handler, inputs, **kwargs):
        p = subparsers.add_parser(name.split()[-1], parents=[common], **kwargs)
        p.set_defaults(handler=handler, subcommand=name, inputs=inputs)
        return p

    p = leaf(sub, "translate", _run_translate, (), help="word <-> oriented path")
    p.add_argument("value", metavar="word|pathfile")

    p = leaf(sub, "lang", _run_lang, ("A",), help="factor-avoidance language queries")
    p.add_argument("query", choices=("periods", "structure", "transitive", "sync"))
    p.add_argument("-A", required=True, metavar="factorfile")
    p.add_argument("--kmax", type=int, default=50, dest="k_max", metavar="KMAX")
    p.add_argument("--nonconstant", action="store_true")

    p = leaf(sub, "orient", _run_orient, ("g", "F"), help="search an avoiding orientation")
    p.add_argument("-g", required=True, metavar="graphfile")
    p.add_argument("-F", required=True, metavar="forbfile")
    p.add_argument("--mode", choices=("induced", "hom", "overlap"),
                   default="induced", dest="containment")
    p.add_argument("--acyclic", action="store_true")

    p = leaf(sub, "spectrum", _run_spectrum, ("F",),
             help="cycle lengths admitting an orientation")
    p.add_argument("-F", required=True, metavar="forbfile")
    p.add_argument("--range", required=True, metavar="a..b")
    p.add_argument("--acyclic", action="store_true")

    p = leaf(sub, "hom", _run_hom, ("d1", "d2"), help="digraph homomorphism")
    p.add_argument("d1", metavar="digraphfile")
    p.add_argument("d2", metavar="digraphfile")

    p = leaf(sub, "core", _run_core, ("d",), help="minimum hom-equivalent retract")
    p.add_argument("d", metavar="digraphfile")

    p = sub.add_parser("duality", help="bounded duality verification")
    dsub = p.add_subparsers(dest="duality_cmd", required=True)
    p = leaf(dsub, "duality verify", _run_duality_verify, ("A", "B"))
    p.add_argument("-A", required=True, metavar="digraphfile")
    p.add_argument("-B", required=True, metavar="digraphfile")
    p.add_argument("--n", type=int, default=4)
    p = leaf(dsub, "duality verify-gen", _run_duality_verify_gen, ("F", "M"))
    p.add_argument("-F", required=True, metavar="digraphsfile")
    p.add_argument("-M", required=True, metavar="digraphsfile")
    p.add_argument("--n", type=int, default=4)

    p = sub.add_parser("holes", help="hole-class expressibility analysis")
    hsub = p.add_subparsers(dest="holes_cmd", required=True)
    p = leaf(hsub, "holes analyze", _run_holes, ("spec",))
    p.add_argument("-spec", required=True, metavar="specfile")
    p.add_argument("--kmax", type=int, default=120, dest="k_max",
                   metavar="KMAX")

    return top


def run(argv) -> tuple[int, str]:
    """Execute argv; returns (exit status, rendered report)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return (1 if e.code else 0), ""
    try:
        if args.subcommand == "translate":
            if _is_file(args.value):
                args.inputs = ("value",)
            elif any(c not in ALPHABET for c in args.value):
                raise CliError(f"{args.value!r} is neither a readable file nor "
                               f"a word over {ALPHABET!r}")
            else:
                args.word = args.value
        if args.subcommand == "spectrum":
            args.k_min, args.k_max = _parse_range(args.range)
        if args.budget <= 0:
            raise CliError("the work budget must be positive")
        if args.k_min > args.k_max:
            raise CliError("empty range")
        if not 1 <= args.n <= ENUM_LIMIT:
            raise CliError(f"--n must be between 1 and {ENUM_LIMIT}, got {args.n}")
        texts = tuple(_read(getattr(args, name)) for name in args.inputs)
        result, lines = args.handler(args, texts)
    except (CliError, ValueError) as e:
        return 1, f"error: {e}"
    except WorkBudgetExceeded as e:
        return 2, f"work budget exceeded: {e}"
    except Exception as e:
        return 3, f"error: internal: {type(e).__name__}: {e}"
    if args.out_format == "text":
        return 0, "\n".join(lines)
    digest_parts = [args.subcommand, args.word, args.query,
                    str((args.k_min, args.k_max, args.containment, args.acyclic,
                         args.nonconstant, args.n))] + list(texts)
    report = {
        "tool_version": __version__,
        "subcommand": args.subcommand,
        "inputs_digest": _digest(digest_parts),
        "result": result,
    }
    return 0, json.dumps(report, indent=2, sort_keys=True)


def _show_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        status, output = run(sys.argv[1:] if argv is None else argv)
    stream = sys.stderr if status else sys.stdout
    try:
        if output:
            print(output, file=stream)
            stream.flush()
    except BrokenPipeError:
        # the reader is gone: point the stream at devnull, so that the
        # interpreter's flush at exit finds nothing to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())

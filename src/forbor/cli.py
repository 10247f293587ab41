"""Command-line front end.

Every subcommand reads the text formats from the io module and emits a
stable JSON report {tool_version, subcommand, inputs_digest, result}
(or a plain-text rendering with --format text).  Exit status: 0 computed,
1 usage or format error, 2 work budget exceeded.  The CLI is fully
deterministic; all randomized property testing lives in the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .duality import core_of, hom_exists, verify_generalized_duality
from .holes import trichotomy_verdict
from .io import (
    FormatError, digraph_to_json, digraph_to_text, parse_digraph,
    parse_digraph_blocks, parse_factor_set, parse_graph, parse_hole_spec,
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


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: subcommand, inputs and all knobs."""

    subcommand: str
    inputs: tuple = ()
    word: str = ""
    query: str = ""
    k_min: int = 0
    k_max: int = 0
    mode: SearchMode = SearchMode()
    nonconstant: bool = False
    n_max: int = 4
    budget: int = DEFAULT_BUDGET
    jobs: int = 1
    out_format: str = "json"

    def __post_init__(self):
        if self.budget <= 0:
            raise CliError("the work budget must be positive")
        if self.jobs < 1:
            raise CliError("jobs must be at least 1")
        if self.k_min > self.k_max:
            raise CliError("empty range")


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


def _run_translate(cfg, texts):
    if cfg.inputs:
        d = parse_digraph(texts[0], oriented=True)
        words = sorted(path_to_word(d))
        return {"words": words}, [f"word {w}" for w in words]
    p = word_to_path(cfg.word)
    return ({"word": cfg.word, "path": digraph_to_json(p)},
            digraph_to_text(p).splitlines())


def _run_lang(cfg, texts):
    A = parse_factor_set(texts[0])
    if cfg.query == "sync":
        m = sync_bound(A)
        return {"sync_bound": m}, [f"sync_bound {m}"]
    if cfg.query == "transitive":
        t = is_transitive(A)
        return {"transitive": t}, [f"transitive {t}"]
    if cfg.query == "periods":
        ks = sorted(enumerate_periods(A, cfg.k_max, cfg.nonconstant))
        return ({"kmax": cfg.k_max, "nonconstant": cfg.nonconstant, "periods": ks},
                ["periods " + " ".join(map(str, ks))])
    ps = period_structure(A, nonconstant_only=cfg.nonconstant)
    result = {
        "gcd_r": ps.gcd_r, "threshold_t0": ps.threshold_t0,
        "exceptions": list(ps.exceptions), "transitive": ps.transitive,
        "nonconstant_variant": ps.nonconstant_variant,
        "observed": list(ps.observed), "verified_to": ps.verified_to,
    }
    lines = [f"gcd_r {ps.gcd_r}", f"threshold_t0 {ps.threshold_t0}",
             f"exceptions {list(ps.exceptions)}", f"transitive {ps.transitive}"]
    return result, lines


def _run_orient(cfg, texts):
    g = parse_graph(texts[0])
    F = ForbiddenSet(parse_digraph_blocks(texts[1], oriented=True))
    verdict = admits_orientation(g, F, cfg.mode, budget=cfg.budget)
    witness = sorted(verdict.witness.arcs) if verdict.witness else None
    result = {
        "admits": verdict.admits,
        "witness_arcs": [list(a) for a in witness] if witness else None,
        "work": verdict.work,
        "mode": {"containment": cfg.mode.containment, "acyclic": cfg.mode.acyclic},
    }
    lines = [f"admits {verdict.admits}", f"work {verdict.work}"]
    if witness:
        lines += [f"a {u} {v}" for u, v in witness]
    return result, lines


def _run_spectrum(cfg, texts):
    F = ForbiddenSet(parse_digraph_blocks(texts[0], oriented=True))
    spec = sorted(cycle_spectrum(F, cfg.k_min, cfg.k_max, acyclic=cfg.mode.acyclic))
    return ({"range": [cfg.k_min, cfg.k_max], "acyclic": cfg.mode.acyclic,
             "spectrum": spec},
            ["spectrum " + " ".join(map(str, spec))])


def _run_hom(cfg, texts):
    d1, d2 = parse_digraph(texts[0]), parse_digraph(texts[1])
    w = hom_exists(d1, d2, budget=cfg.budget)
    result = {"exists": w is not None,
              "mapping": list(w.mapping) if w else None}
    return result, [f"hom {result['exists']}"
                    + (f" mapping {list(w.mapping)}" if w else "")]


def _run_core(cfg, texts):
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


def _run_duality_verify(cfg, texts):
    a, b = parse_digraph(texts[0]), parse_digraph(texts[1])
    return _duality_result(
        verify_generalized_duality((a,), (b,), cfg.n_max, jobs=cfg.jobs))


def _run_duality_verify_gen(cfg, texts):
    F = parse_digraph_blocks(texts[0])
    M = parse_digraph_blocks(texts[1])
    return _duality_result(
        verify_generalized_duality(F, M, cfg.n_max, jobs=cfg.jobs))


def _run_holes(cfg, texts):
    spec = parse_hole_spec(texts[0])
    rep = trichotomy_verdict(spec, k_max=cfg.k_max)
    checks = {
        name: {"passed": c.passed, "rule": c.rule,
               "witnesses": [list(w) if isinstance(w, tuple) else w
                             for w in c.witnesses],
               "threshold": c.threshold, "gcd_r": c.gcd_r, "note": c.note}
        for name, c in rep.checks.items()
    }
    result = {
        "cyc_sample": list(rep.cyc_sample),
        "checks": checks,
        "plain_not_expressible": rep.plain_not_expressible,
        "plain_rules": list(rep.plain_rules),
        "acyclic_not_expressible": rep.acyclic_not_expressible,
        "acyclic_rules": list(rep.acyclic_rules),
        "overall": list(rep.overall),
        "notes": list(rep.notes),
    }
    lines = [f"overall {' '.join(rep.overall)}"]
    for name, c in rep.checks.items():
        lines.append(f"{name} {'pass' if c.passed else 'FAIL ' + c.rule}")
    return result, lines


HANDLERS = {
    "translate": _run_translate,
    "lang": _run_lang,
    "orient": _run_orient,
    "spectrum": _run_spectrum,
    "hom": _run_hom,
    "core": _run_core,
    "duality verify": _run_duality_verify,
    "duality verify-gen": _run_duality_verify_gen,
    "holes analyze": _run_holes,
}


def _to_config(args) -> RunConfig:
    base = dict(budget=args.budget, jobs=args.jobs, out_format=args.out_format)
    sub = args.subcommand
    if sub == "translate":
        try:
            is_file = Path(args.value).is_file()
        except OSError:     # e.g. a word too long to be a file name
            is_file = False
        if is_file:
            return RunConfig("translate", inputs=(args.value,), **base)
        if any(c not in ALPHABET for c in args.value):
            raise CliError(f"{args.value!r} is neither a readable file nor "
                           f"a word over {ALPHABET!r}")
        return RunConfig("translate", word=args.value, **base)
    if sub == "lang":
        return RunConfig("lang", inputs=(args.A,), query=args.query,
                         k_max=args.kmax, nonconstant=args.nonconstant, **base)
    if sub == "orient":
        return RunConfig("orient", inputs=(args.g, args.F),
                         mode=SearchMode(args.mode, args.acyclic), **base)
    if sub == "spectrum":
        lo, hi = _parse_range(args.range)
        return RunConfig("spectrum", inputs=(args.F,), k_min=lo, k_max=hi,
                         mode=SearchMode("induced", args.acyclic), **base)
    if sub == "hom":
        return RunConfig("hom", inputs=(args.d1, args.d2), **base)
    if sub == "core":
        return RunConfig("core", inputs=(args.d,), **base)
    if sub == "duality":
        paths = (args.A, args.B) if args.duality_cmd == "verify" else (args.F, args.M)
        return RunConfig(f"duality {args.duality_cmd}", inputs=paths,
                         n_max=args.n, **base)
    return RunConfig("holes analyze", inputs=(args.spec,), k_max=args.kmax, **base)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS, dest="out_format")
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help="search node budget (exit 2 when exceeded)")
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="parallel workers for universe scans")

    top = argparse.ArgumentParser(
        prog="forbor",
        description="forbidden-orientation classes, avoidance words and dualities")
    top.add_argument("--version", action="version", version=f"forbor {__version__}")
    top.add_argument("--format", choices=("text", "json"), default="json",
                     dest="out_format")
    top.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="search node budget (exit 2 when exceeded)")
    top.add_argument("--jobs", type=int, default=1,
                     help="parallel workers for universe scans")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("translate", help="word <-> oriented path",
                       parents=[common])
    p.add_argument("value", metavar="word|pathfile")

    p = sub.add_parser("lang", help="factor-avoidance language queries",
                       parents=[common])
    p.add_argument("query", choices=("periods", "structure", "transitive", "sync"))
    p.add_argument("-A", required=True, metavar="factorfile")
    p.add_argument("--kmax", type=int, default=50)
    p.add_argument("--nonconstant", action="store_true")

    p = sub.add_parser("orient", help="search an avoiding orientation",
                       parents=[common])
    p.add_argument("-g", required=True, metavar="graphfile")
    p.add_argument("-F", required=True, metavar="forbfile")
    p.add_argument("--mode", choices=("induced", "hom", "overlap"),
                   default="induced")
    p.add_argument("--acyclic", action="store_true")

    p = sub.add_parser("spectrum", help="cycle lengths admitting an orientation",
                       parents=[common])
    p.add_argument("-F", required=True, metavar="forbfile")
    p.add_argument("--range", required=True, metavar="a..b")
    p.add_argument("--acyclic", action="store_true")

    p = sub.add_parser("hom", help="digraph homomorphism", parents=[common])
    p.add_argument("d1", metavar="digraphfile")
    p.add_argument("d2", metavar="digraphfile")

    p = sub.add_parser("core", help="minimum hom-equivalent retract",
                       parents=[common])
    p.add_argument("d", metavar="digraphfile")

    p = sub.add_parser("duality", help="bounded duality verification")
    dsub = p.add_subparsers(dest="duality_cmd", required=True)
    pv = dsub.add_parser("verify", parents=[common])
    pv.add_argument("-A", required=True, metavar="digraphfile")
    pv.add_argument("-B", required=True, metavar="digraphfile")
    pv.add_argument("--n", type=int, default=4)
    pg = dsub.add_parser("verify-gen", parents=[common])
    pg.add_argument("-F", required=True, metavar="digraphsfile")
    pg.add_argument("-M", required=True, metavar="digraphsfile")
    pg.add_argument("--n", type=int, default=4)

    p = sub.add_parser("holes", help="hole-class expressibility analysis")
    hsub = p.add_subparsers(dest="holes_cmd", required=True)
    ph = hsub.add_parser("analyze", parents=[common])
    ph.add_argument("-spec", required=True, metavar="specfile")
    ph.add_argument("--kmax", type=int, default=120)

    return top


def run(argv) -> tuple[int, str]:
    """Execute argv; returns (exit status, rendered report)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return (1 if e.code else 0), ""
    try:
        cfg = _to_config(args)
        texts = tuple(_read(p) for p in cfg.inputs)
        result, lines = HANDLERS[cfg.subcommand](cfg, texts)
    except (CliError, FormatError) as e:
        return 1, f"error: {e}"
    except ValueError as e:
        return 1, f"error: {e}"
    except WorkBudgetExceeded as e:
        return 2, f"work budget exceeded: {e}"
    if cfg.out_format == "text":
        return 0, "\n".join(lines)
    digest_parts = [cfg.subcommand, cfg.word, cfg.query,
                    str((cfg.k_min, cfg.k_max, cfg.mode.containment,
                         cfg.mode.acyclic, cfg.nonconstant, cfg.n_max))] + list(texts)
    report = {
        "tool_version": __version__,
        "subcommand": cfg.subcommand,
        "inputs_digest": _digest(digest_parts),
        "result": result,
    }
    return 0, json.dumps(report, indent=2, sort_keys=True)


def main(argv=None) -> int:
    status, output = run(sys.argv[1:] if argv is None else argv)
    stream = sys.stderr if status else sys.stdout
    if output:
        print(output, file=stream)
    return status


if __name__ == "__main__":
    sys.exit(main())

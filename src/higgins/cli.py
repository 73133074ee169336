"""Command-line front end.

    higgins validate CONFIG
    higgins nf CONFIG --word W [--base V | --coset-edge E] [--trace]
    higgins enum CONFIG --language higgins|coset|component --max-len N ...
    higgins certify CONFIG --what coset|automatic|hypotheses|sync-filter ...
    higgins experiment trefoil --radius R --lambda-max M
    higgins fsa min|concat|intersect|enum FILES ...

Exit codes: 0 pass, 1 property failure, 2 usage or input error.  A reader
that closes the output early (`| head`) ends the run quietly with exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fsa
from .backends import AbelianSubgroupAsGroup, AbelianSubgroup, BackendError
from .cascade import Pi1EdgeSubgroup
from .certify import (
    certify_automatic, certify_coset_system, combination_hypotheses_report,
    geodesic_coset_filter, concat_structure, HypothesisViolation,
)
from .config import ConfigError, load_config
from .cosets import VerifierError
from .experiments import run_trefoil_experiment
from .fsa import DfaFormatError, enumerate_language
from .gog import GogError
from .words import AlphabetError

PASS, FAIL, USAGE = 0, 1, 2


def _emit(text, out=None):
    print(text, file=out or sys.stdout)


def cmd_validate(args) -> int:
    config = load_config(args.config)
    problems = config.gog().validate()
    if problems:
        for p in problems:
            _emit(f"invalid: {p}")
        return FAIL
    _emit("valid")
    return PASS


def cmd_nf(args) -> int:
    config = load_config(args.config)
    system = config.system()
    word = system.word(args.word)
    if args.coset_edge:
        edge = system.gog.graph.edges.get(args.coset_edge)
        if edge is None:
            raise ConfigError(0, f"unknown edge {args.coset_edge!r}")
        base = ("coset", edge)
        nf = system.coset_normal_form(word, edge)
    else:
        v0 = args.base or system.tree.root
        if v0 not in system.gog.graph.vertices:
            raise ConfigError(0, f"unknown vertex {v0!r}")
        base = ("group", v0)
        nf = system.normal_form(word, v0)
    _emit(str(nf))
    if args.trace:
        for line in system.normal_form_trace(word, base).log_lines():
            _emit(line)
    return PASS


def cmd_enum(args) -> int:
    config = load_config(args.config)
    if args.language == "component":
        if not args.component or args.component not in config.subgroups:
            raise ConfigError(0, "component enumeration needs --component <subgroup>")
        lang = config.subgroups[args.component][0].coset_language
        words = enumerate_language(lang, args.max_len)
        system = None
    else:
        system = config.system()
        if args.language == "higgins":
            base = ("group", args.base or system.tree.root)
        else:
            ename = args.coset_edge or sorted(system.gog.graph.edges)[0]
            edge = system.gog.graph.edges.get(ename)
            if edge is None:
                raise ConfigError(0, f"unknown edge {ename!r}")
            base = ("coset", edge)
        try:
            lang = system.higgins_automaton(base)
        except GogError:
            backend_like = (system.gog.backend(base[1]) if base[0] == "group"
                            else Pi1EdgeSubgroup(system, base[1]))
            lang = (backend_like.canonical_language if base[0] == "group"
                    else backend_like.coset_language)
        words = enumerate_language(lang, args.max_len)
    for w in words:
        _emit(str(w))
    if args.check_unique:
        if system is None:
            raise ConfigError(0, "--check-unique applies to higgins/coset languages")
        keys = {}
        for w in words:
            k = (system.normal_form(w).letters if args.language == "higgins"
                 else system.coset_normal_form(w, base[1]).letters)
            if k in keys:
                _emit(f"duplicate: {w} and {keys[k]}")
                return FAIL
            keys[k] = w
        _emit(f"unique {len(keys)} words")
    return PASS


def cmd_certify(args) -> int:
    config = load_config(args.config)
    if args.what == "hypotheses":
        report = combination_hypotheses_report(
            config.gog(), args.radius, sync=args.sync)
        _emit(str(report))
        return PASS if report.passed else FAIL
    if args.what == "coset":
        system = config.coset_system(args.system)
        cert = certify_coset_system(system, args.radius)
        _emit(str(cert))
        return PASS if cert.bounded else FAIL
    if args.what == "sync-filter":
        system = config.coset_system(args.system)
        try:
            filtered = geodesic_coset_filter(system, args.radius)
        except HypothesisViolation as exc:
            _emit(f"hypothesis-violation {exc}")
            return FAIL
        cert = certify_coset_system(filtered, args.radius, mode="sync")
        _emit(str(cert))
        return PASS if cert.bounded else FAIL
    if args.what == "automatic":
        system = config.coset_system(args.system)
        ctx = system.context
        if not isinstance(ctx, AbelianSubgroup):
            raise ConfigError(0, "automatic certification needs an abelian subgroup")
        sub = AbelianSubgroupAsGroup(ctx)
        built = concat_structure(sub.shortlex_language, system)
        if isinstance(built, tuple):
            lang, oracle = built
        else:
            lang, oracle = built, ctx.parent
        cert = certify_automatic(lang, oracle, args.radius)
        _emit(str(cert))
        return PASS if cert.bounded else FAIL
    raise ConfigError(0, f"unknown certification target {args.what!r}")


def cmd_experiment(args) -> int:
    if args.name != "trefoil":
        raise ConfigError(0, f"unknown experiment {args.name!r}")
    report = run_trefoil_experiment(args.radius, args.lambda_max)
    _emit(str(report))
    return PASS


def cmd_fsa(args) -> int:
    def read(path):
        with open(path) as fh:
            return fsa.dfa_from_text(fh.read())

    if args.op == "min":
        out = fsa.minimize(read(args.files[0]))
    elif args.op == "concat":
        out = fsa.minimize(fsa.concat(read(args.files[0]), read(args.files[1])))
    elif args.op == "intersect":
        out = fsa.minimize(fsa.intersect(read(args.files[0]), read(args.files[1])))
    elif args.op == "enum":
        for w in enumerate_language(read(args.files[0]), args.max_len):
            _emit(str(w))
        return PASS
    else:
        raise ConfigError(0, f"unknown fsa operation {args.op!r}")
    text = fsa.dfa_to_text(out)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        _emit(text.rstrip("\n"))
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="higgins",
        description="Coset normal forms and desk-scale certification for "
                    "fundamental groups of graphs of groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph-of-groups config")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("nf", help="normal form of a word")
    p.add_argument("config")
    p.add_argument("--word", required=True)
    p.add_argument("--base")
    p.add_argument("--coset-edge")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("enum", help="enumerate a language in shortlex order")
    p.add_argument("config")
    p.add_argument("--language", choices=("higgins", "coset", "component"),
                   default="higgins")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--base")
    p.add_argument("--coset-edge")
    p.add_argument("--component")
    p.add_argument("--check-unique", action="store_true")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("certify", help="run a fellow-traveller or hypothesis sweep")
    p.add_argument("config")
    p.add_argument("--what", choices=("coset", "automatic", "hypotheses", "sync-filter"),
                   required=True)
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--system", help="name of a declared coset system")
    p.add_argument("--sync", action="store_true",
                   help="include the synchronous hypothesis rows")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("experiment", help="run a built-in experiment")
    p.add_argument("name", choices=("trefoil",))
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--lambda-max", type=int, default=3)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("fsa", help="operate on automaton files")
    p.add_argument("op", choices=("min", "concat", "intersect", "enum"))
    p.add_argument("files", nargs="+")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fsa)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at shutdown
        return code
    except (ConfigError, DfaFormatError, AlphabetError, GogError,
            BackendError, VerifierError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except BrokenPipeError:
        # send what is still buffered to devnull so the shutdown flush is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())

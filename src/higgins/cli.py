"""Command-line front end.

    higgins validate CONFIG
    higgins nf CONFIG --word W [--base V | --coset-edge E] [--trace]
    higgins enum CONFIG --language higgins|coset|component --max-len N
                 [--base V | --coset-edge E | --component H] [--check-unique]
    higgins certify CONFIG --what coset|automatic|hypotheses|sync-filter
                    --radius R [--system NAME] [--sync]
    higgins experiment trefoil --radius R --lambda-max M
    higgins fsa min|concat|intersect|enum FILES ... [--out FILE] [--max-len N]

Exit codes: 0 pass, 1 property failure, 2 usage or input error.  A reader
that closes the output early (`| head`) ends the run quietly with exit 2.

Each command and its arguments are declared once in COMMANDS, as the pairs
that `add_argument` takes.  A plain call (exact option names, each once, with
valid values, and the positionals in one run) is parsed off those pairs by
_plain_parse, and argparse is never imported.  Any other call goes
through argparse, imported only then, with the parser of every command:
help, usage errors and abbreviated or `=` forms read as before.  A flag the
chosen mode would ignore (`nf --base` with `--coset-edge`, `enum --base`
outside `--language higgins`, `certify --sync` outside `--what hypotheses`,
`fsa --max-len` outside `fsa enum`, ...) is a usage error.
"""

from __future__ import annotations

import os
import sys
import types

from . import fsa
from .backends import AbelianSubgroup, BackendError
from .certify import (
    certify_automatic, certify_coset_system, combination_hypotheses_report,
    geodesic_coset_filter, concat_structure, HypothesisViolation,
)
from .config import ConfigError, load_config, read_text
from .cosets import VerifierError
from .experiments import run_trefoil_experiment
from .fsa import DfaFormatError, enumerate_language
from .gog import GogError
from .words import AlphabetError

PASS, FAIL, USAGE = 0, 1, 2


def _emit(text):
    print(text)


def cmd_validate(args) -> int:
    config = load_config(args.config)
    problems = config.gog().validate() if config.has_graph else []
    if problems:
        for p in problems:
            _emit(f"invalid: {p}")
        return FAIL
    for name in sorted(config.cosetsystems):
        config.coset_system(name)
    _emit("valid")
    return PASS


def _base_vertex(system, name):
    v0 = name or system.tree.root
    if v0 not in system.gog.graph.vertices:
        raise ConfigError(0, f"unknown vertex {v0!r}")
    return v0


def cmd_nf(args) -> int:
    config = load_config(args.config)
    if args.base is not None and args.coset_edge is not None:
        raise ConfigError(0, "nf: give --base or --coset-edge, not both")
    system = config.system()
    word = system.word(args.word)
    if args.coset_edge:
        edge = system.gog.graph.edges.get(args.coset_edge)
        if edge is None:
            raise ConfigError(0, f"unknown edge {args.coset_edge!r}")
        base = ("coset", edge)
        nf = system.coset_normal_form(word, edge)
    else:
        v0 = _base_vertex(system, args.base)
        base = ("group", v0)
        nf = system.normal_form(word, v0)
    _emit(str(nf))
    if args.trace:
        for line in system.normal_form_trace(word, base).log_lines():
            _emit(line)
    return PASS


def cmd_enum(args) -> int:
    config = load_config(args.config)
    if args.check_unique and args.language == "component":
        raise ConfigError(0, "--check-unique applies to higgins/coset languages")
    for flag, language in (("base", "higgins"), ("coset_edge", "coset"),
                           ("component", "component")):
        if getattr(args, flag) is not None and args.language != language:
            raise ConfigError(
                0, f"--{flag.replace('_', '-')} applies to the {language} language")
    if args.language == "component":
        if not args.component:
            raise ConfigError(0, "component enumeration needs --component <subgroup>")
        if args.component not in config.subgroups:
            raise ConfigError(0, f"unknown subgroup {args.component!r}")
        lang = config.subgroups[args.component][0].coset_language
        words = enumerate_language(lang, args.max_len)
    else:
        system = config.system()
        if args.language == "higgins":
            base = ("group", _base_vertex(system, args.base))
        else:
            if not args.coset_edge and not system.gog.graph.edges:
                raise ConfigError(0, "enum --language coset: the graph has no edges")
            ename = args.coset_edge or sorted(system.gog.graph.edges)[0]
            edge = system.gog.graph.edges.get(ename)
            if edge is None:
                raise ConfigError(0, f"unknown edge {ename!r}")
            base = ("coset", edge)
        words = enumerate_language(system.higgins_automaton(base), args.max_len)
    for w in words:
        _emit(str(w))
    if args.check_unique:
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
    if args.sync and args.what != "hypotheses":
        raise ConfigError(0, "--sync applies to --what hypotheses")
    if args.system is not None and args.what == "hypotheses":
        raise ConfigError(0, "--system does not apply to --what hypotheses")
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
        lang, oracle = concat_structure(ctx.presentation.coset_language, system)
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


FSA_ARITY = {"min": 1, "concat": 2, "intersect": 2, "enum": 1}


def cmd_fsa(args) -> int:
    arity = FSA_ARITY[args.op]  # argparse admits only these operations
    if len(args.files) != arity:
        raise ConfigError(0, f"fsa {args.op} takes {arity} automaton file(s)")
    if args.out is not None and args.op == "enum":
        raise ConfigError(0, "--out does not apply to fsa enum")
    if args.max_len is not None and args.op != "enum":
        raise ConfigError(0, "--max-len applies to fsa enum")
    dfas = [fsa.dfa_from_text(read_text(path)) for path in args.files]
    if args.op == "enum":
        for w in enumerate_language(dfas[0], 4 if args.max_len is None else args.max_len):
            _emit(str(w))
        return PASS
    if args.op == "min":
        out = fsa.minimize(dfas[0])
    else:
        out = fsa.minimize((fsa.concat if args.op == "concat" else fsa.intersect)(*dfas))
    text = fsa.dfa_to_text(out)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        _emit(text.rstrip("\n"))
    return PASS


def _size(text: str) -> int:
    """argparse type of a radius or length: an int >= 0.  A negative size
    would make a sweep over nothing and so a pass that checks nothing.  Only
    a refusal imports argparse, for the error type its message needs."""
    try:
        n = int(text)
    except ValueError:
        import argparse
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        import argparse
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _arg(*names, **kwargs):
    """One argument of a command: what `add_argument` takes."""
    return names, kwargs


CONFIG = _arg("config")

# name, help, handler and the command's arguments
COMMANDS = (
    ("validate", "check a config's graph and coset systems", cmd_validate, (CONFIG,)),
    ("nf", "normal form of a word", cmd_nf, (
        CONFIG,
        _arg("--word", required=True),
        _arg("--base"),
        _arg("--coset-edge"),
        _arg("--trace", action="store_true"))),
    ("enum", "enumerate a language in shortlex order", cmd_enum, (
        CONFIG,
        _arg("--language", choices=("higgins", "coset", "component"), default="higgins"),
        _arg("--max-len", type=_size, default=4),
        _arg("--base"),
        _arg("--coset-edge"),
        _arg("--component"),
        _arg("--check-unique", action="store_true"))),
    ("certify", "run a fellow-traveller or hypothesis sweep", cmd_certify, (
        CONFIG,
        _arg("--what", choices=("coset", "automatic", "hypotheses", "sync-filter"),
             required=True),
        _arg("--radius", type=_size, default=4),
        _arg("--system", help="name of a declared coset system"),
        _arg("--sync", action="store_true",
             help="include the synchronous hypothesis rows"))),
    ("experiment", "run a built-in experiment", cmd_experiment, (
        _arg("name", choices=("trefoil",)),
        _arg("--radius", type=_size, default=4),
        _arg("--lambda-max", type=_size, default=3))),
    ("fsa", "operate on automaton files", cmd_fsa, (
        _arg("op", choices=tuple(FSA_ARITY)),
        _arg("files", nargs="+"),
        _arg("--max-len", type=_size),  # fsa enum reads None as 4
        _arg("--out"))),
)
COMMAND_NAMES = tuple(name for name, *_ in COMMANDS)


def build_parser():
    """The argparse parser of every command."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="higgins",
        description="Coset normal forms and desk-scale certification for "
                    "fundamental groups of graphs of groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for names, kwargs in arguments:
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=func)
    return parser


def _plain_parse(command, rest):
    """A namespace with the attributes of the one argparse returns for
    `higgins COMMAND *rest`, read off the command's declared arguments without
    argparse, or None when in doubt: a token that starts with `-` and is not a
    declared option (`-h`, `--`, `--rad`, `--radius=3`), an option value that
    starts with `-`, an option given twice, a value its choices or type
    refuse, a missing required option, or positionals that are not one run of
    the declared count.  argparse parses those command lines, and prints their
    help or usage error."""
    _name, _help, func, arguments = next(c for c in COMMANDS if c[0] == command)
    options = {names[0]: kwargs for names, kwargs in arguments if names[0][0] == "-"}
    given = {}      # option string -> its value, True for a flag
    run = []        # the positional tokens
    closed = False  # an option has followed the positional run
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            if closed:
                return None
            run.append(token)
            continue
        closed = bool(run)
        kwargs = options.get(token)
        if kwargs is None or token in given:
            return None
        if kwargs.get("action") == "store_true":
            given[token] = True
            continue
        value = next(tokens, "-")  # a missing value counts as one that starts with -
        if value.startswith("-"):
            return None
        given[token] = value
    positionals = [kwargs for names, kwargs in arguments if names[0][0] != "-"]
    spare = len(run) - len(positionals)
    if spare < 0 or spare > 0 and positionals[-1].get("nargs") != "+":
        return None
    run = iter(run)
    args = {"command": command}
    for names, kwargs in arguments:
        name = names[0]
        if name[0] != "-":
            dest, value = name, list(run) if kwargs.get("nargs") == "+" else next(run)
        else:
            dest = name[2:].replace("-", "_")
            if name not in given:
                if kwargs.get("required"):
                    return None
                flag = kwargs.get("action") == "store_true"
                args[dest] = kwargs.get("default", False if flag else None)
                continue
            value = given[name]
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except Exception:  # a refused value is argparse's to report
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        args[dest] = value
    args["func"] = func
    return types.SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_parse(argv[0], argv[1:]) if argv and argv[0] in COMMAND_NAMES else None
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at shutdown
        return code
    except (ConfigError, DfaFormatError, AlphabetError, GogError,
            BackendError, VerifierError, FileNotFoundError, NotADirectoryError,
            IsADirectoryError, PermissionError) as exc:
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

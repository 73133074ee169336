import argparse
import collections
import importlib.util
import os
import random
import re
import shlex
import subprocess
import sys

import pytest

from builders import REGRESSION_GRAPHS
from higgins.cascade import Pi1System
from higgins import cli
from higgins.cli import COMMAND_NAMES, build_parser, main
from higgins.config import ConfigError, derive_reverse_iso, load_config, parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
SNAPSHOTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "snapshots")


def cfg(name):
    return os.path.join(CONFIGS, name)


def snapshot(name):
    with open(os.path.join(SNAPSHOTS, name)) as fh:
        return fh.read()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# --- parsing ------------------------------------------------------------------

def test_all_shipped_configs_load_and_validate():
    for name in ("trefoil_amalgam.gog", "free_product_zz.gog", "hnn_z2.gog"):
        config = load_config(cfg(name))
        assert config.gog().validate() == []
    load_config(cfg("abelian_pairs.gog"))
    load_config(cfg("finite_s3.gog"))


def test_parse_error_has_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("[group G] kind=abelian rank=2\nbogus line\n")
    assert "line 2" in str(exc.value)


def test_unknown_reference_errors():
    with pytest.raises(ConfigError):
        parse_config("[subgroup H in G]\ngenerators=x1\n")
    with pytest.raises(ConfigError):
        parse_config(
            "[group G] kind=abelian rank=1\n[graph]\nvertices=v:NOPE\n")


def test_derive_reverse_iso_roundtrip():
    config = load_config(cfg("trefoil_amalgam.gog"))
    gog = config.gog()
    e = gog.graph.edges["e"]
    images = gog.edge_iso["e"]
    derived = derive_reverse_iso(gog.ctx(e), gog.ctx(e.reverse), images)
    assert [str(w) for w in derived] == ["y1"]


def test_reverse_iso_override_used():
    text = """
[group A] kind=abelian rank=1 names=a
[group B] kind=abelian rank=1 names=b
[subgroup He in A]
generators=a a
[subgroup Her in B]
generators=b b b
[graph]
vertices=va:A,vb:B
edge e: vb -> va subgroup=He reverse_subgroup=Her iso=y1->y1 reverse_iso=y1->y1 y1
"""
    config = parse_config(text)
    problems = config.gog().validate()
    assert any("identity" in p for p in problems)


def test_tree_override():
    text = """
[group G] kind=abelian rank=2
[subgroup Hf in G]
generators=x1
[subgroup Hfr in G]
generators=x1
[graph]
vertices=v:G
edge f: v -> v subgroup=Hf reverse_subgroup=Hfr iso=y1->y1
tree=
"""
    config = parse_config(text)
    system = config.system()
    assert system.tree.edge_names == frozenset()


# --- commands -----------------------------------------------------------------

def test_cmd_validate(capsys):
    code, out = run_cli(capsys, "validate", cfg("trefoil_amalgam.gog"))
    assert code == 0 and out.strip() == "valid"


def test_cmd_validate_broken_iso(capsys, tmp_path):
    text = open(cfg("trefoil_amalgam.gog")).read().replace(
        "iso=y1->y1", "iso=y1->y1 reverse_iso=y1->y1 y1")
    bad = tmp_path / "bad.gog"
    bad.write_text(text)
    code, out = run_cli(capsys, "validate", str(bad))
    assert code == 1 and "edge e" in out



@pytest.mark.parametrize("name", ["abelian_pairs.gog", "finite_s3.gog"])
def test_cmd_validate_without_a_graph(capsys, name):
    # a config of coset systems alone is valid when each of them resolves
    code, out = run_cli(capsys, "validate", cfg(name))
    assert code == 0 and out == "valid\n"


def test_cmd_validate_resolves_coset_systems(capsys, tmp_path):
    path = tmp_path / "bad.gog"
    path.write_text(COSET_CONFIG + "[cosetsystem C] subgroup=K\n")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: line 4: cosetsystem C: unknown subgroup 'K'\n"


def test_coset_system_may_precede_what_it_names(capsys, tmp_path):
    # names are checked once the whole file is read, whatever the section order
    path = tmp_path / "late.gog"
    path.write_text("[cosetsystem C] subgroup=H\n[cosetsystem D] edge=f\n" + COSET_CONFIG
                    + "[graph]\nvertices=v:G\nedge f: v -> v subgroup=H reverse_subgroup=H "
                    "iso=y1->y1\n")
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 0 and out == "valid\n"


def test_cmd_validate_missing_file(capsys):
    code = main(["validate", "/nonexistent/nowhere.gog"])
    assert code == 2


def test_directory_argument_is_a_usage_error(capsys):
    for argv in (["validate", CONFIGS], ["fsa", "min", CONFIGS]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "Is a directory" in err


def test_unreadable_config_is_a_usage_error(capsys, monkeypatch):
    # raised by hand: a superuser reads a chmod 000 file all the same
    import higgins.config

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)
    monkeypatch.setattr(higgins.config, "open", refuse, raising=False)
    code = main(["validate", cfg("trefoil_amalgam.gog")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and "Permission denied" in err


def test_cmd_nf_examples(capsys):
    code, out = run_cli(capsys, "nf", cfg("trefoil_amalgam.gog"), "--word", "a a b")
    nf1 = out.strip()
    code, out = run_cli(capsys, "nf", cfg("trefoil_amalgam.gog"), "--word", "b b b b")
    assert code == 0 and out.strip() == nf1
    code, out = run_cli(capsys, "nf", cfg("free_product_zz.gog"),
                        "--word", "a b a^-1 a b")
    assert out.strip() == "a b b"
    code, out = run_cli(capsys, "nf", cfg("trefoil_amalgam.gog"), "--word", "ε")
    assert out.strip() == "ε"


def test_cmd_nf_trace(capsys):
    code, out = run_cli(capsys, "nf", cfg("trefoil_amalgam.gog"),
                        "--word", "b b b b", "--coset-edge", "e~", "--trace")
    assert out.strip() == "b"  # word stays at the base vertex: no connectors
    code, out = run_cli(capsys, "nf", cfg("trefoil_amalgam.gog"),
                        "--word", "b a a", "--coset-edge", "e~", "--trace")
    lines = out.strip().splitlines()
    assert lines[0] == "b"  # b a^2 = b^4 and b^3 lies in the edge subgroup
    assert lines[1] == "i=1 h=y1 h'=y1 u'=ε"


NF_CONFIGS = ("free_product_zz.gog", "hnn_z2.gog", "trefoil_amalgam.gog")


def nf_seeded_runs():
    """The `nf` runs pinned by snapshots/nf_seeded.txt: 40 seeded words per
    shipped graph config, each as a group normal form, a coset normal form
    and a trace (group and coset bases in turn)."""
    rng = random.Random(8)
    for name in NF_CONFIGS:
        system = load_config(cfg(name)).system()
        names = system.alphabet.names
        vertices = sorted(system.gog.graph.vertices)
        edges = sorted(system.gog.graph.edges)
        for i in range(40):
            text = " ".join(rng.choice(names) for _ in range(rng.randrange(17))) or "ε"
            group = ("--base", vertices[i % len(vertices)])
            coset = ("--coset-edge", edges[i % len(edges)])
            yield name, ("--word", text) + group
            yield name, ("--word", text) + coset
            yield name, ("--word", text) + (coset if i % 2 else group) + ("--trace",)


def nf_seeded_transcript(capsys):
    lines = []
    for name, args in nf_seeded_runs():
        code, out = run_cli(capsys, "nf", cfg(name), *args)
        lines.append(f"$ higgins nf {name} {' '.join(args)}  # exit {code}\n")
        lines.append(out)
    return "".join(lines)


def test_cmd_nf_seeded_snapshot(capsys):
    assert nf_seeded_transcript(capsys) == snapshot("nf_seeded.txt")


def readme_examples():
    """(argv, expected first output line or None) for each `higgins ...` line
    of the README's "Worked examples" block; a trailing `# ...` comment gives
    the first line of output."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("Worked examples", 1)[1].split("\n## ", 1)[0]
    for line in block.splitlines():
        line = line.strip()
        if not line.startswith("higgins "):
            continue
        command, _hash, comment = line.partition("#")
        yield shlex.split(command)[1:], comment.strip() or None


def test_readme_worked_examples(capsys, monkeypatch):
    # the README's configs/... paths are relative to the repository root
    monkeypatch.chdir(ROOT)
    examples = list(readme_examples())
    assert len(examples) == 9
    lines = []
    for argv, first in examples:
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        if first is not None:
            assert out.splitlines()[0] == first, argv
        lines.append(f"$ higgins {shlex.join(argv)}  # exit {code}\n")
        lines.append(out)
    assert "".join(lines) == snapshot("readme_examples.txt")


def test_cmd_enum_higgins_unique(capsys):
    code, out = run_cli(capsys, "enum", cfg("hnn_z2.gog"), "--language", "higgins",
                        "--max-len", "2", "--check-unique")
    assert code == 0
    assert "unique" in out
    assert out.splitlines()[0] == "ε"


def _regression_config(tmp_path, name):
    path = tmp_path / name
    path.write_text(REGRESSION_GRAPHS[name])
    return str(path)


def test_cmd_nf_dependent_edge_generators(capsys, tmp_path):
    # the edge group <a^2, a^3> is all of <a>, so b a = a a; the old solver
    # rejected a as a non-member and the run exited 2
    code, out = run_cli(capsys, "nf", _regression_config(tmp_path, "dependent_amalgam.gog"),
                        "--word", "b a")
    assert code == 0
    assert out == "a a\n"


def test_cmd_enum_lists_stable_letters(capsys, tmp_path):
    # the language listed is that of Pi1, stable letters included, not the
    # vertex group's
    code, out = run_cli(capsys, "enum", _regression_config(tmp_path, "hnn_f2.gog"),
                        "--max-len", "2", "--check-unique")
    lines = out.splitlines()
    assert code == 0
    assert lines[-1] == f"unique {len(lines) - 1} words"
    assert any("s_f" in line for line in lines[:-1])


def test_cmd_enum_component(capsys):
    code, out = run_cli(capsys, "enum", cfg("abelian_pairs.gog"), "--language",
                        "component", "--component", "Diag", "--max-len", "2")
    assert code == 0
    assert out.strip().splitlines() == ["ε", "x1", "x1^-1", "x1 x1", "x1^-1 x1^-1"]


@pytest.mark.parametrize("extra, message", [
    ([], "component enumeration needs --component <subgroup>"),
    (["--component", "Nope"], "unknown subgroup 'Nope'"),
], ids=["missing", "unknown"])
def test_cmd_enum_component_needs_a_known_subgroup(capsys, extra, message):
    code = main(["enum", cfg("abelian_pairs.gog"), "--language", "component"] + extra)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cmd_enum_max_len_zero(capsys):
    code, out = run_cli(capsys, "enum", cfg("free_product_zz.gog"),
                        "--language", "higgins", "--max-len", "0")
    assert out.strip() == "ε"


# (config, certify flags, exit code, snapshot); the sync-factorization rows
# name the first failing g of the ball, so the --sync runs pin the ball's order
CERTIFY_SNAPSHOTS = (
    ("abelian_pairs.gog", "--what coset --system axis --radius 6", 0, "certify_axis_r6.txt"),
    ("trefoil_amalgam.gog", "--what hypotheses --radius 3", 0, "hypotheses_trefoil_r3.txt"),
    ("abelian_pairs.gog", "--what sync-filter --system axis-padded --radius 5", 0,
     "sync_filter_axis_r5.txt"),
    ("hnn_z2.gog", "--what coset --system edge-cosets --radius 4", 0, "certify_hnn_r4.txt"),
    ("abelian_pairs.gog", "--what coset --system axis-padded --radius 9", 0,
     "certify_axis_padded_r9.txt"),
    ("abelian_pairs.gog", "--what automatic --system axis --radius 8", 0,
     "automatic_axis_r8.txt"),
    ("abelian_pairs.gog", "--what coset --system mixed --radius 6", 0, "certify_mixed_r6.txt"),
    ("trefoil_amalgam.gog", "--what hypotheses --radius 3 --sync", 1,
     "hypotheses_trefoil_r3_sync.txt"),
    ("hnn_z2.gog", "--what hypotheses --radius 3 --sync", 0, "hypotheses_hnn_r3_sync.txt"),
    ("hnn_z2.gog", "--what sync-filter --system edge-cosets --radius 3", 0,
     "sync_filter_hnn_r3.txt"),
    ("finite_s3.gog", "--what sync-filter --system s3-cosets --radius 4", 0,
     "sync_filter_s3_r4.txt"),
)
EXPERIMENT_SNAPSHOT = ["experiment", "trefoil", "--radius", "3", "--lambda-max", "2"]


def test_cmd_certify_snapshots(capsys):
    for name, flags, expected_code, expected in CERTIFY_SNAPSHOTS:
        code, out = run_cli(capsys, "certify", cfg(name), *flags.split())
        assert code == expected_code and out == snapshot(expected), flags


def test_sync_filter_keys_each_word_once(capsys, monkeypatch):
    """The geodesic filter keys each word once into a memo that its
    certificate's sweep reads too: 10,266 scans on hnn_z2 at radius 5, where
    keying in the filter, the coverage set and the sweep again took 12,208."""
    scans = [0]
    scan_word = Pi1System.scan_word

    def counted(self, w, base):
        scans[0] += 1
        return scan_word(self, w, base)
    monkeypatch.setattr(Pi1System, "scan_word", counted)
    code, out = run_cli(capsys, "certify", cfg("hnn_z2.gog"), "--what", "sync-filter",
                        "--system", "edge-cosets", "--radius", "5")
    assert code == 0 and out == (
        "certificate mode=sync radius=5 pairs=2423 K=1 status=bounded\nmeta kappa=1\n")
    assert scans[0] == 10266


def test_cmd_certify_automatic(capsys):
    code, out = run_cli(capsys, "certify", cfg("abelian_pairs.gog"),
                        "--what", "automatic", "--system", "axis", "--radius", "4")
    assert code == 0 and "status=bounded" in out


@pytest.mark.parametrize("generators", ["t;x1", "t;x1 x1"])
def test_cmd_certify_automatic_order_two_generator(tmp_path, generators):
    # an order-2 generator takes one slot in the subgroup's generator alphabet
    # but two in the alphabet of its shortlex language; a later generator used
    # to be read at the wrong index (KeyError, IndexError)
    path = tmp_path / "tx.gog"
    path.write_text("[group M] kind=abelian rank=1 torsion=2\n"
                    f"[subgroup TX in M]\ngenerators={generators}\n"
                    "[cosetsystem tx] subgroup=TX mode=sync\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "higgins.cli", "certify", str(path), "--what", "automatic",
         "--system", "tx", "--radius", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith("certificate mode=sync radius=2 ")


def test_cmd_experiment_snapshot(capsys):
    code, out = run_cli(capsys, *EXPERIMENT_SNAPSHOT)
    assert code == 0 and out == snapshot("experiment_trefoil_r3.txt")


def test_cmd_fsa_roundtrip(capsys, tmp_path):
    from higgins.fsa import dfa_to_text, minimize, word_set_dfa
    from higgins.words import Alphabet
    AB = Alphabet(["a", "b"])
    f1 = tmp_path / "one.dfa"
    f1.write_text(dfa_to_text(minimize(word_set_dfa([AB.word("a")], AB, "one"))))
    out_path = tmp_path / "min.dfa"
    code, _ = run_cli(capsys, "fsa", "min", str(f1), "--out", str(out_path))
    assert code == 0
    code, _ = run_cli(capsys, "fsa", "min", str(out_path), "--out", str(out_path))
    again = out_path.read_text()
    code, _ = run_cli(capsys, "fsa", "min", str(out_path), "--out", str(out_path))
    assert out_path.read_text() == again  # byte-identical fixed point
    code, out = run_cli(capsys, "fsa", "enum", str(f1), "--max-len", "3")
    assert out.strip() == "a"
    # enum used to ignore --out: it printed the words and exited 0
    code = main(["fsa", "enum", str(f1), "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and out_path.read_text() == again
    assert captured.err == "error: --out does not apply to fsa enum\n"


@pytest.mark.parametrize("op, files", [("min", 1), ("concat", 2), ("intersect", 2)])
def test_fsa_max_len_applies_to_enum_only(capsys, tmp_path, op, files):
    from higgins.fsa import dfa_to_text, word_set_dfa
    from higgins.words import Alphabet
    AB = Alphabet(["a", "b"])
    path = tmp_path / "one.dfa"
    path.write_text(dfa_to_text(word_set_dfa([AB.word("a b b a b")], AB, "one")))
    # the flag used to be ignored: the automaton was printed and the run exited 0
    code = main(["fsa", op] + [str(path)] * files + ["--max-len", "7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --max-len applies to fsa enum\n"
    # fsa enum without the flag lists words up to length 4
    assert run_cli(capsys, "fsa", "enum", str(path)) == (0, "")
    assert run_cli(capsys, "fsa", "enum", str(path), "--max-len", "5") == (0, "a b b a b\n")


def test_cmd_fsa_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.dfa"
    bad.write_text("dfa x\nalphabet a a^-1\nstates 1 begin 0\n")
    code = main(["fsa", "min", str(bad)])
    assert code == 2


def test_cmd_fsa_second_move_on_a_letter_is_a_format_error(capsys, tmp_path):
    # a later trans line for the same state and letter used to replace the
    # first silently, so enum printed nothing and exited 0
    path = tmp_path / "twice.dfa"
    path.write_text("dfa x\nalphabet a a^-1\nstates 2 start 0\naccept 1\n"
                    "trans 0 a 1\ntrans 0 a 0\n")
    code = main(["fsa", "enum", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: line 6: second move from state 0 on a: 'trans 0 a 0'\n"


def test_cmd_fsa_bad_alphabet_line_is_a_format_error(capsys, tmp_path):
    # the alphabet line used to reach Alphabet unchecked, so the error named
    # no line of the file
    path = tmp_path / "twice.dfa"
    path.write_text("dfa x\nalphabet a a\nstates 1 start 0\naccept 0\n")
    code = main(["fsa", "enum", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: line 2: alphabet line: duplicate generator name: 'a'\n"


def test_cmd_enum_check_unique_on_a_component_lists_nothing(capsys):
    # the flag is refused before any word is enumerated
    code = main(["enum", cfg("abelian_pairs.gog"), "--language", "component",
                 "--component", "Axis", "--max-len", "2", "--check-unique"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --check-unique applies to higgins/coset languages\n"


@pytest.mark.parametrize("op, count, arity", [
    ("concat", 1, 2), ("intersect", 1, 2), ("min", 2, 1), ("enum", 2, 1)])
def test_cmd_fsa_wrong_file_count_is_a_usage_error(capsys, tmp_path, op, count, arity):
    from higgins.fsa import dfa_to_text, word_set_dfa
    from higgins.words import Alphabet
    AB = Alphabet(["a", "b"])
    path = tmp_path / "one.dfa"
    path.write_text(dfa_to_text(word_set_dfa([AB.word("a")], AB, "one")))
    code = main(["fsa", op] + [str(path)] * count)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: fsa {op} takes {arity} automaton file(s)\n"


@pytest.mark.parametrize("argv, message", [
    (["nf", "trefoil_amalgam.gog", "--word", "a b", "--base", "u", "--coset-edge", "e"],
     "nf: give --base or --coset-edge, not both"),
    (["enum", "trefoil_amalgam.gog", "--language", "higgins", "--coset-edge", "nope"],
     "--coset-edge applies to the coset language"),
    (["enum", "trefoil_amalgam.gog", "--language", "higgins", "--component", "H"],
     "--component applies to the component language"),
    (["enum", "trefoil_amalgam.gog", "--language", "coset", "--base", "nope"],
     "--base applies to the higgins language"),
    (["enum", "abelian_pairs.gog", "--language", "component", "--component", "Axis",
      "--base", "v"], "--base applies to the higgins language"),
    (["certify", "abelian_pairs.gog", "--what", "coset", "--system", "axis-padded",
      "--sync"], "--sync applies to --what hypotheses"),
    (["certify", "trefoil_amalgam.gog", "--what", "hypotheses", "--system", "nope"],
     "--system does not apply to --what hypotheses"),
], ids=" ".join)
def test_flag_the_command_would_ignore_is_a_usage_error(capsys, argv, message):
    # each of these flags used to be ignored: the run printed its output and exited 0
    code = main([cfg(a) if a.endswith(".gog") else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cmd_enum_unknown_base_is_a_usage_error(capsys):
    code = main(["enum", cfg("hnn_z2.gog"), "--base", "nope", "--max-len", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == "error: unknown vertex 'nope'\n"
    assert captured.out == ""


COSET_CONFIG = "[group G] kind=abelian rank=2\n[subgroup H in G]\ngenerators=x1\n"
# a loop edge over a rank-2 subgroup, up to its iso= entry (line 6)
ISO_CONFIG = ("[group G] kind=abelian rank=2\n[subgroup K in G]\ngenerators=x1;x2\n[graph]\n"
              "vertices=v:G\nedge f: v -> v subgroup=K reverse_subgroup=K ")


@pytest.mark.parametrize("group, table, argv, message", [
    ("[group G] kind=abelian rank=two", None, ["validate"],
     "line 1: group G: rank: expected an integer, got 'two'"),
    ("[group G] kind=abelian rank=1 torsion=2,x", None, ["validate"],
     "line 1: group G: torsion: expected an integer, got 'x'"),
    ("[group G] kind=free rank=1.5", None, ["validate"],
     "line 1: group G: rank: expected an integer, got '1.5'"),
    ("[group G] kind=finite table=z2.csv generators=r1", "0,1\n1,0\n", ["validate"],
     "line 1: group G: generator 'r1' is not name:index"),
    ("[group G] kind=finite table=z2.csv", "0,1\n1,one\n", ["validate"],
     "line 1: group G: table z2.csv cell: expected an integer, got 'one'"),
    ("[group G] kind=abelian rank=1", None, ["enum", "--language", "coset", "--max-len", "1"],
     "enum --language coset: the graph has no edges"),
    ("[group G] kind=finite table=z2.csv generators=t:2", "0,1\n1,0\n", ["validate"],
     "line 1: group G: generator t: 2 is not an element index 0..1"),
    ("[group G] kind=finite table=z2.csv generators=t:-1", "0,1\n1,0\n", ["validate"],
     "line 1: group G: generator t: -1 is not an element index 0..1"),
    ("[group G] kind=finite table=z2.csv", "0,1\n1,9\n", ["validate"],
     "line 1: group G: table cell 9 is not an element index 0..1"),
    ("[group G] kind=free rank=-2", None, ["validate"],
     "line 1: group G: rank must be >= 0, got -2"),
    ("[group G] kind=abelian rank=-1 torsion=2,3 names=p", None, ["validate"],
     "line 1: group G: rank must be >= 0, got -1"),
    ("[group G] kind=abelian rank=-1", None, ["validate"],
     "line 1: group G: rank must be >= 0, got -1"),
    ("[group G] kind=free rank=2 names=a", None, ["validate"],
     "line 1: group G: need one name per generator"),
    ("[group G] kind=free rank=1 names=a,b", None, ["validate"],
     "line 1: group G: need one name per generator"),
    # these errors used to name the section's header line, or no line at all
    ("# c\n[group G] kind=abelian\nrank=x", None, ["validate"],
     "line 3: group G: rank: expected an integer, got 'x'"),
    ("[group G]\nkind=finite\ntable=z2.csv", "0,1\n1,one\n", ["validate"],
     "line 3: group G: table z2.csv cell: expected an integer, got 'one'"),
    ("[group G] kind=finite table=z2.csv\ngenerators=r1", "0,1\n1,0\n", ["validate"],
     "line 2: group G: generator 'r1' is not name:index"),
    ("[group G] kind=abelian rank=1\ntorsion=1", None, ["validate"],
     "line 2: group G: torsion moduli must be >= 2"),
    ("[group G] kind=free\nrank=-1", None, ["validate"],
     "line 2: group G: rank must be >= 0, got -1"),
    ("[group G] kind=abelian rank=2\nnames=a", None, ["validate"],
     "line 2: group G: need one name per factor"),
    ("[group G] kind=free rank=2 names=a,a", None, ["validate"],
     "line 1: group G: duplicate generator name: 'a'"),
    ("[group G] kind=finite\ntable=z2.csv", "1,0\n0,1\n", ["validate"],
     "line 2: group G: row/col 0 must be the identity"),
    ("[group G] kind=finite table=z2.csv\ngenerators=g:5", "0,1\n1,0\n", ["validate"],
     "line 2: group G: generator g: 5 is not an element index 0..1"),
    (COSET_CONFIG + "[cosetsystem C] subgroup=H language=bogus", None,
     ["certify", "--what", "coset", "--system", "C", "--radius", "1"],
     "line 4: language must be canonical or padded, got 'bogus'"),
    (COSET_CONFIG + "[cosetsystem C] subgroup=H\nlanguage=", None, ["validate"],
     "line 5: language must be canonical or padded, got ''"),
    ("[group G] kind=abelian rank=1\n[experiment] radius=5 lambda_max=4", None, ["validate"],
     "line 2: unknown section 'experiment'"),
    ("[group G] kind=abelian rank=2 bogus=1", None, ["validate"],
     "line 1: group G (kind=abelian): unknown entry 'bogus'"),
    ("[group G] kind=free rank=1 torsion=2", None, ["validate"],
     "line 1: group G (kind=free): unknown entry 'torsion'"),
    ("[group G]\nkind=finite\ntable=z2.csv\nrank=1", "0,1\n1,0\n", ["validate"],
     "line 4: group G (kind=finite): unknown entry 'rank'"),
    (COSET_CONFIG + "[subgroup K in G]\ngenerator=x2", None, ["validate"],
     "line 5: subgroup K: unknown entry 'generator'"),
    (COSET_CONFIG + "[cosetsystem C] subgroup=H mode=async languag=padded", None,
     ["certify", "--what", "coset", "--system", "C", "--radius", "1"],
     "line 4: cosetsystem C: unknown entry 'languag'"),
    ("[group G] kind=free rank=2\n[subgroup H in G]\ngenerators=a b b^-1", None, ["validate"],
     "line 3: subgroup H: generators: subgroup generator must be nonempty and freely reduced"),
    ("[group G] kind=free rank=2\n[subgroup H in G]\ngenerators=a z", None, ["validate"],
     "line 3: subgroup H: generators: unknown letter 'z'"),
    # a repeated section or entry used to replace, or be shadowed by, the first
    ("[group G] kind=abelian rank=1\n[group G] kind=abelian rank=2", None, ["validate"],
     "line 2: second [group G] section"),
    (COSET_CONFIG + "[subgroup H in G]\ngenerators=x2", None, ["validate"],
     "line 4: second [subgroup H in G] section"),
    (COSET_CONFIG + "[cosetsystem C] subgroup=H\n[cosetsystem C] subgroup=H mode=sync", None,
     ["validate"], "line 5: second [cosetsystem C] section"),
    ("[group G] kind=abelian rank=1\n[graph]\nvertices=v:G", None, ["validate"],
     "line 4: second [graph] section"),
    ("[group G] kind=abelian rank=1 rank=2", None, ["validate"],
     "line 1: group G: second rank= entry"),
    ("[group G] kind=free rank=2\n[subgroup H in G]\ngenerators=a\ngenerators=b", None,
     ["validate"], "line 4: subgroup H: second generators= entry"),
    (COSET_CONFIG + "[cosetsystem C] subgroup=H mode=sync mode=async", None, ["validate"],
     "line 4: cosetsystem C: second mode= entry"),
    ("[group G] kind=free rank=1\n[subgroup T in G]\n[graph]\nvertices=u:G,v:G\n"
     "edge e: u -> v subgroup=T reverse_subgroup=T\ntree=e\ntree=", None, ["validate"],
     "line 7: graph: second tree= entry"),
    # coset system entries used to be checked only when the system was built
    (COSET_CONFIG + "[cosetsystem C] subgroup=H\nedge=e", None, ["validate"],
     "line 5: cosetsystem C: give subgroup= or edge=, not both"),
    (COSET_CONFIG + "[cosetsystem C] subgroup=H mode=bogus", None,
     ["certify", "--what", "coset", "--system", "C", "--radius", "1"],
     "line 4: mode must be sync or async, got 'bogus'"),
    (COSET_CONFIG + "[cosetsystem C] mode=sync\n[cosetsystem D] subgroup=H", None,
     ["certify", "--what", "coset", "--system", "D", "--radius", "1"],
     "line 4: cosetsystem C: missing subgroup= or edge="),
    (COSET_CONFIG + "[cosetsystem C] subgroup=Nope\n[cosetsystem D] subgroup=H", None,
     ["certify", "--what", "coset", "--system", "D", "--radius", "1"],
     "line 4: cosetsystem C: unknown subgroup 'Nope'"),
    (COSET_CONFIG + "[cosetsystem C] mode=sync\nedge=e", None, ["validate"],
     "line 5: cosetsystem C: unknown edge 'e'"),
    ("[group G] kind=free rank=2\n[subgroup H in G]\ngenerators=a;b", None, ["validate"],
     "line 3: subgroup H: generators: free-group subgroups support a single cyclic generator"),
    (COSET_CONFIG + "[graph]\nvertices=v:G\nedge f: v -> v subgroup=H reverse_subgroup=H "
     "iso=y1->y1 y1", None, ["validate"],
     "line 6: edge f: iso is not onto the reverse subgroup, or has several images in a free "
     "group; declare reverse_iso explicitly"),
    # a repeated generator, an empty name and a generator mapped twice used to
    # be read silently, or reported as some other fault
    ("[group G] kind=finite table=z2.csv generators=a:1,a:1", "0,1\n1,0\n", ["validate"],
     "line 1: group G: generator 'a' given twice"),
    ("[group G] kind=finite table=z2.csv\ngenerators=a:1,a:0", "0,1\n1,0\n", ["validate"],
     "line 2: group G: generator 'a' given twice"),
    ("[group G] kind=abelian rank=2 names=a,,b", None, ["validate"],
     "line 1: group G: empty name in names=a,,b"),
    ("[group G] kind=free rank=2\nnames=a,b,", None, ["validate"],
     "line 2: group G: empty name in names=a,b,"),
    (ISO_CONFIG + "iso=y1->y2; y2->y1; y1->y1; y2->y2", None, ["validate"],
     "line 6: edge f: iso maps generator 'y1' twice"),
    (ISO_CONFIG + "iso=y1->y1; y2->y2 reverse_iso=y2->y2; y1->y1; y2->y1", None, ["validate"],
     "line 6: edge f: reverse_iso maps generator 'y2' twice"),
    # a repeated edge attribute used to replace the first; a repeated vertex or
    # edge, an unknown vertex and an unknown image letter used to name no line
    (COSET_CONFIG + "[subgroup K in G]\ngenerators=x2\n[graph]\nvertices=v:G\n"
     "edge f: v -> v subgroup=H reverse_subgroup=H iso=y1->y1 subgroup=K", None, ["validate"],
     "line 8: edge f: second subgroup= entry"),
    (COSET_CONFIG + "[graph]\nvertices=v:G\n"
     "edge f: v -> v subgroup=H reverse_subgroup=H iso=y1->y1 iso=y1->y1^-1", None,
     ["validate"], "line 6: edge f: second iso= entry"),
    (COSET_CONFIG + "[graph]\nvertices=v:G,v:G", None, ["validate"],
     "line 5: duplicate vertex 'v'"),
    (COSET_CONFIG + "[graph]\nvertices=v:G\nedge f: v -> w subgroup=H reverse_subgroup=H "
     "iso=y1->y1", None, ["validate"], "line 6: unknown vertex 'w'"),
    (COSET_CONFIG + "[graph]\nvertices=v:G\nedge f: v -> v subgroup=H reverse_subgroup=H "
     "iso=y1->y1\nedge f: v -> v subgroup=H reverse_subgroup=H iso=y1->y1", None,
     ["validate"], "line 7: duplicate edge 'f'"),
    (ISO_CONFIG + "iso=y1->y3; y2->y2", None, ["validate"],
     "line 6: edge f: iso: unknown letter 'y3'"),
    (ISO_CONFIG + "iso=y1->y1; y2->y2 reverse_iso=y1->q; y2->y2", None, ["validate"],
     "line 6: edge f: reverse_iso: unknown letter 'q'"),
], ids=["rank", "torsion", "free-rank", "generator-colon", "table-cell", "coset-no-edges",
        "generator-past-table", "generator-negative", "table-cell-past-table",
        "free-rank-negative", "abelian-rank-negative-names", "abelian-rank-negative",
        "free-too-few-names", "free-too-many-names", "rank-entry-line",
        "table-cell-entry-line", "generator-colon-entry-line", "torsion-one",
        "free-rank-entry-line", "abelian-too-few-names", "free-duplicate-names",
        "finite-row-zero", "generator-entry-line", "coset-language-bogus",
        "coset-language-empty", "experiment-section", "group-unknown-entry",
        "free-torsion", "finite-rank", "subgroup-unknown-entry", "coset-unknown-entry",
        "subgroup-unreduced-generator", "subgroup-unknown-letter", "group-second-section",
        "subgroup-second-section", "coset-second-section", "graph-second-section",
        "group-second-entry", "subgroup-second-entry", "coset-second-entry",
        "graph-second-tree", "coset-subgroup-and-edge", "coset-mode-bogus",
        "coset-neither-subgroup-nor-edge", "coset-unknown-subgroup", "coset-unknown-edge",
        "free-two-generators", "reverse-iso-underivable", "generator-twice-same-index",
        "generator-twice", "abelian-empty-name", "free-empty-name", "iso-generator-twice",
        "reverse-iso-generator-twice", "edge-second-subgroup", "edge-second-iso",
        "graph-duplicate-vertex", "edge-unknown-vertex", "graph-second-edge",
        "iso-unknown-letter", "reverse-iso-unknown-letter"])
def test_malformed_config_is_a_usage_error(capsys, tmp_path, group, table, argv, message):
    path = tmp_path / "bad.gog"
    path.write_text(f"{group}\n[graph]\nvertices=v:G\n")
    if table is not None:
        (tmp_path / "z2.csv").write_text(table)
    code = main([argv[0], str(path)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


TWO_EDGES = """[group A] kind=abelian rank=1 names=a
[group B] kind=abelian rank=1 names=b
[subgroup He in A]
generators=a a
[subgroup Her in B]
generators=b b b
[graph]
vertices=va:A,vb:B
edge e: vb -> va subgroup=He reverse_subgroup=Her iso=y1->y1
edge f: vb -> va subgroup=He reverse_subgroup=Her iso=y1->y1
"""


def with_hnn_tree(tree):
    with open(cfg("hnn_z2.gog")) as fh:
        text = fh.read()
    edge = next(line for line in text.splitlines() if line.startswith("edge f:"))
    return text.replace(edge, f"{edge}\n{tree}")


# each declared tree here used to be accepted by validate; nf took the cycle and
# the loop too (computing in another group), and refused the rest without a line
@pytest.mark.parametrize("text, message", [
    (TWO_EDGES + "tree=e,f", "line 11: tree has a cycle through f"),
    (with_hnn_tree("tree=f"), "line 14: tree has a cycle through f"),
    (TWO_EDGES + "tree=e,zz", "line 11: tree edge 'zz' not declared"),
    (REGRESSION_GRAPHS["path_tree_hnn.gog"] + "tree=g", "line 22: tree does not span the graph"),
], ids=["cycle", "loop", "undeclared-edge", "not-spanning"])
@pytest.mark.parametrize("argv", [["validate"], ["nf", "--word", ""]], ids=lambda a: a[0])
def test_bad_tree_is_refused_at_its_line(capsys, tmp_path, text, message, argv):
    path = tmp_path / "tree.gog"
    path.write_text(text + "\n")
    code = main([argv[0], str(path)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_declared_tree_sets_the_stable_letters():
    # a tree of either edge leaves the other edge's stable letter
    for tree, letter in (("e", "s_f"), ("f~", "s_e")):
        system = parse_config(TWO_EDGES + f"tree={tree}\n").system()
        assert system.alphabet.generators == ("a", "b", letter)


@pytest.mark.parametrize("reader", ["config", "table", "fsa"])
def test_text_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, reader):
    # such bytes used to end in a UnicodeDecodeError traceback with exit 1
    binary = tmp_path / "bin.txt"
    binary.write_bytes(b"\xff\xfe")
    if reader == "table":
        config = tmp_path / "table.gog"
        config.write_text(f"[group S] kind=finite table={binary.name}\n")
        argv = ["validate", str(config)]
    else:
        argv = ["validate", str(binary)] if reader == "config" else ["fsa", "enum", str(binary)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {binary}: not UTF-8 text\n"


def test_canonical_coset_language_is_the_default(capsys, tmp_path):
    outs = []
    for extra in ("", " language=canonical"):
        path = tmp_path / "c.gog"
        path.write_text(f"{COSET_CONFIG}[cosetsystem C] subgroup=H{extra}\n")
        code, out = run_cli(capsys, "certify", str(path), "--what", "coset", "--radius", "3")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["certify", "hnn_z2.gog", "--what", "coset", "--system", "edge-cosets", "--radius"],
    ["certify", "trefoil_amalgam.gog", "--what", "hypotheses", "--radius"],
    ["enum", "hnn_z2.gog", "--max-len"],
    ["fsa", "enum", "hnn_z2.gog", "--max-len"],
    ["experiment", "trefoil", "--radius"],
    ["experiment", "trefoil", "--lambda-max"],
], ids=" ".join)
def test_negative_size_is_a_usage_error(capsys, argv):
    # a negative radius or length sweeps nothing, so it may not pass
    argv = [cfg(a) if a.endswith(".gog") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {argv[-1]}: must be >= 0, got -1" in captured.err
    dest = argv[-1].lstrip("-").replace("-", "_")
    assert getattr(build_parser().parse_args(argv + ["0"]), dest) == 0


SIZE_USAGE = ("usage: higgins certify [-h] --what {coset,automatic,hypotheses,sync-filter}\n"
              "                       [--radius RADIUS] [--system SYSTEM] [--sync]\n"
              "                       config\n"
              "higgins certify: error: argument --radius: ")


@pytest.mark.parametrize("flags, code, err", [
    (["--radius", "-1"], 2, SIZE_USAGE + "must be >= 0, got -1\n"),
    (["--radius", "x"], 2, SIZE_USAGE + "invalid int value: 'x'\n"),
    (["--rad", "1"], 0, ""),
], ids=["negative", "not-an-int", "abbreviated"])
def test_refused_and_abbreviated_sizes_read_as_argparse_prints_them(monkeypatch, capsys,
                                                                   flags, code, err):
    # _size imports argparse only to refuse a value; argparse prints the refusal
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["certify", cfg("hnn_z2.gog"), "--what", "coset", "--system", "edge-cosets"]
    try:
        got = main(argv + flags)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.err) == (code, err)
    if code == 0:
        assert captured.out == run_cli(capsys, *argv, "--radius", "1")[1]


# --- the parser -------------------------------------------------------------------
# main leaves help and usage errors to argparse; what it prints then must be
# what the parser of every command prints

def parse_outcome(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [name, "--help"] for name in COMMAND_NAMES] + [
    [], ["-h"], ["bogus"], ["validate", "trefoil_amalgam.gog", "extra"],
    ["validate"],
    ["nf", "trefoil_amalgam.gog"],
    ["enum", "trefoil_amalgam.gog", "--language", "bogus"],
    ["certify", "hnn_z2.gog", "--what", "bogus"],
    ["experiment", "bogus"],
    ["fsa", "bogus", "x.dfa"],
], ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, argv):
    argv = [cfg(a) if a.endswith(".gog") else a for a in argv]
    lazy = parse_outcome(capsys, main, argv)
    full = parse_outcome(capsys, build_parser().parse_args, argv)
    assert lazy == full and lazy[0] in (0, 2) and (lazy[1] or lazy[2])


def test_usage_errors_name_the_command_argument(capsys):
    usage = "usage: higgins [-h] {validate,nf,enum,certify,experiment,fsa} ...\nhiggins: error: "
    assert parse_outcome(capsys, main, []) == (
        2, "", usage + "the following arguments are required: command\n")
    assert parse_outcome(capsys, main, ["bogus"])[2].startswith(
        usage + "argument command: invalid choice: 'bogus'")


def test_only_a_command_line_left_to_argparse_builds_a_parser(monkeypatch, capsys):
    # a plain command line builds no parser; one left to argparse (here an
    # abbreviated option) builds one parser, with every command
    parsers = []

    def capture():
        parsers.append(build_parser())
        return parsers[-1]
    monkeypatch.setattr(cli, "build_parser", capture)
    argv = ["certify", cfg("hnn_z2.gog"), "--what", "coset", "--system", "edge-cosets"]
    code = main(argv + ["--radius", "1"])
    assert code == 0 and capsys.readouterr().out.startswith("certificate ")
    assert parsers == []
    code = main(argv + ["--rad", "1"])
    assert code == 0 and capsys.readouterr().out.startswith("certificate ")
    (sub,) = [a for a in parsers[0]._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(parsers) == 1 and tuple(sub.choices) == COMMAND_NAMES


def perfbench_cli_argv():
    """The argv of the benchmark's CLI workloads (perfbench/run.py)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up
    try:
        spec.loader.exec_module(run)
    finally:
        del sys.modules[spec.name]
    return [list(w.argv) for w in run.WORKLOADS.values() if w.kind == "cli"]


def pinned_argv():
    """Every argv of the CLI snapshot tests, the README examples and the
    benchmark's CLI workloads."""
    for name, flags, _code, _snapshot in CERTIFY_SNAPSHOTS:
        yield ["certify", cfg(name)] + flags.split()
    yield EXPERIMENT_SNAPSHOT
    for name, args in nf_seeded_runs():
        yield ["nf", cfg(name), *args]
    for argv, _first in readme_examples():
        yield argv
    yield from perfbench_cli_argv()


PLAIN_FAULTS = ("abbreviation", "equals", "repeat", "dashdash", "help", "dash-value",
                "bad-choice", "bad-size", "missing", "extra", "split")


def plain_parse_case(rng, fault):
    """A command line built from the declared arguments, options in random
    order, with the fault given (one of PLAIN_FAULTS), or None when the fault
    does not apply to the command and options drawn."""
    def value(kwargs):
        if "choices" in kwargs:
            return rng.choice(kwargs["choices"])
        if kwargs.get("type") is cli._size:
            return str(rng.randrange(12))
        return rng.choice(["x.gog", "a b", "e~", "", "v", "x1 x1^-1", "ε"])

    command, _help, _func, arguments = rng.choice(cli.COMMANDS)
    declared = {names[0]: kwargs for names, kwargs in arguments}
    positionals = [flag for flag in declared if flag[0] != "-"]
    run, groups = [], []  # positional tokens; each option string with its value
    for flag, kwargs in declared.items():
        if flag[0] != "-":
            run += [value(kwargs) for _ in range(
                rng.randint(1, 3) if kwargs.get("nargs") == "+" else 1)]
        elif kwargs.get("required") or rng.random() < 0.5:
            groups.append([flag] if "action" in kwargs else [flag, value(kwargs)])
    valued = [group for group in groups if len(group) == 2]
    chosen = [flag for flag, kwargs in declared.items() if "choices" in kwargs]
    sizes = [flag for flag, kwargs in declared.items() if kwargs.get("type") is cli._size]
    if fault and not {
            "abbreviation": groups, "equals": valued, "repeat": groups,
            "dashdash": True, "help": True, "dash-value": valued,
            "bad-choice": chosen, "bad-size": sizes,
            "missing": any(kwargs.get("required") for kwargs in declared.values()),
            "extra": all(kwargs.get("nargs") != "+" for kwargs in declared.values()),
            "split": len(run) > 1 and groups}[fault]:
        return None
    parts = [run]
    if fault == "abbreviation":
        group = rng.choice(groups)
        group[0] = group[0][:rng.randrange(3, len(group[0]))]
    elif fault == "equals":
        group = rng.choice(valued)
        group[:] = ["=".join(group)]
    elif fault == "repeat":
        groups.append(list(rng.choice(groups)))
    elif fault == "dash-value":
        rng.choice(valued)[1] = rng.choice(["-1", "-x", "--trace", "-"])
    elif fault in ("bad-choice", "bad-size"):
        flag = rng.choice(chosen if fault == "bad-choice" else sizes)
        bad = "bogus" if fault == "bad-choice" else rng.choice(["x", "2.5", "", "three"])
        if flag in positionals:
            run[positionals.index(flag)] = bad
        else:
            groups = [group for group in groups if group[0] != flag] + [[flag, bad]]
    elif fault == "missing":
        groups = [group for group in groups if not declared[group[0]].get("required")]
    elif fault == "extra":
        run.append("y.gog")
    elif fault == "split":
        cut = rng.randint(1, len(run) - 1)
        parts = [run[:cut], groups.pop(rng.randrange(len(groups))), run[cut:]]
    rng.shuffle(groups)
    at = rng.randint(0, len(groups))
    argv = [command] + [token for block in groups[:at] + parts + groups[at:]
                        for token in block]
    if fault in ("dashdash", "help"):
        argv.insert(rng.randint(1, len(argv)),
                    "--" if fault == "dashdash" else rng.choice(["-h", "--help"]))
    return argv


def plain_parse_cases(count=2000, seed=32):
    """(argv, fault): fault is None for a command line the plain parser must
    read, else the one of PLAIN_FAULTS it must leave to argparse."""
    rng = random.Random(seed)
    for _ in range(count):
        fault = rng.choice((None,) * 8 + PLAIN_FAULTS)
        argv = None
        while argv is None:
            argv = plain_parse_case(rng, fault)
        yield argv, fault


def test_plain_parse_returns_what_argparse_returns():
    parser = build_parser()

    def argparse_vars(argv):
        return vars(parser.parse_args(argv))

    pinned = list(pinned_argv())
    # the certify and experiment snapshots, 360 seeded nf runs, 9 README
    # examples and 3 benchmark workloads
    assert len(pinned) == len(CERTIFY_SNAPSHOTS) + 1 + 360 + 9 + 3
    for argv in pinned:
        plain = cli._plain_parse(argv[0], argv[1:])
        assert plain is not None and vars(plain) == argparse_vars(argv), argv
    faults = collections.Counter()
    for argv, fault in plain_parse_cases():
        plain = cli._plain_parse(argv[0], argv[1:])
        assert (plain is None) == (fault is not None), (argv, fault)
        if plain is not None:
            assert vars(plain) == argparse_vars(argv), argv
        faults[fault] += 1
    assert set(faults) == {None, *PLAIN_FAULTS} and min(faults.values()) > 50, faults


def test_plain_command_line_builds_no_parser_and_imports_no_locale():
    # argparse's gettext imports locale when a parser is built; a plain
    # command line needs neither
    probe = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def count(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = count\n"
        "from higgins import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, 'locale' in sys.modules, len(built), file=sys.stderr)\n")
    argv = ["certify", cfg("hnn_z2.gog"), "--what", "coset", "--system", "edge-cosets",
            "--radius", "1"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", probe] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.stdout.startswith("certificate ")
    assert proc.stderr == "0 False 0\n"


def test_plain_command_line_imports_no_argparse_gettext_or_typing():
    # the benchmark's CLI workloads and a plain nf and enum call, one after
    # another in a fresh interpreter without site (which imports typing)
    argvs = perfbench_cli_argv() + [
        ["nf", "configs/trefoil_amalgam.gog", "--word", "a b a"],
        ["enum", "configs/free_product_zz.gog", "--max-len", "2"]]
    probe = (
        "import sys\n"
        "from higgins import cli\n"
        f"for argv in {argvs!r}:\n"
        "    code = cli.main(argv)\n"
        "    loaded = sorted({'argparse', 'gettext', 'typing'} & set(sys.modules))\n"
        "    print(code, *loaded, file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.stderr == "0\n" * len(argvs)
    assert proc.stdout.count("certificate ") == 2


def test_readme_synopsis_lists_every_declared_option():
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("## Command line", 1)[1].split("Exit codes", 1)[0]
    synopsis = {line.split()[1]: line for line in map(str.strip, block.splitlines())
                if line.startswith("higgins ")}
    assert list(synopsis) == list(COMMAND_NAMES)
    for command, _help, _func, arguments in cli.COMMANDS:
        for names, _kwargs in arguments:
            for option in (n for n in names if n[0] == "-"):
                pattern = rf"(?<![\w-]){re.escape(option)}(?![\w-])"
                assert re.search(pattern, synopsis[command]), (command, option)


def test_cmd_certify_radius_zero_trivial_pass(capsys):
    code, out = run_cli(capsys, "certify", cfg("abelian_pairs.gog"),
                        "--what", "coset", "--system", "axis", "--radius", "0")
    assert code == 0 and "status=bounded" in out


def test_cli_determinism(capsys):
    _, out1 = run_cli(capsys, "certify", cfg("abelian_pairs.gog"),
                      "--what", "coset", "--system", "diag", "--radius", "5")
    _, out2 = run_cli(capsys, "certify", cfg("abelian_pairs.gog"),
                      "--what", "coset", "--system", "diag", "--radius", "5")
    assert out1 == out2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "higgins.cli", "validate", cfg("free_product_zz.gog")],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "valid"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_pipe_exits_quietly(unbuffered):
    # `higgins certify ... | head -1`, with the reader gone before any write
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "higgins.cli", "certify", cfg("hnn_z2.gog"),
             "--what", "coset", "--system", "edge-cosets", "--radius", "3"],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(w)
    assert "Traceback" not in proc.stderr and "Error" not in proc.stderr, proc.stderr
    assert proc.returncode == 2


# --- edge maps that are not homomorphisms ---------------------------------------
#
# validate() used to check only that iso images lie in the reverse subgroup and
# that the two isos undo each other, so both configs below printed "valid"; in
# the second, `nf --base vf --word "a b b^-1 t t^-1 a^-1"` printed a a a a for
# a word equal to the identity.

NOT_HOMOMORPHISMS = {
    # Z * Z/2 glued along <a> and <t>: <a> is infinite, <t> has order 2
    "z-z2": ("""
[group A] kind=free rank=1 names=a
[group B] kind=abelian rank=0 torsion=2 names=t
[subgroup Ha in A]
generators=a
[subgroup Ht in B]
generators=t
[graph]
vertices=va:A,vb:B
edge e: vb -> va subgroup=Ha reverse_subgroup=Ht iso=y1->y1
""", "va", "a t t^-1 a^-1"),
    # F2 and Z/4 glued along <a a> and <t t>: a a has infinite order
    "f2-z4": ("""
[group F] kind=free rank=2 names=a,b
[group C] kind=finite table=z4.csv generators=t:1
[subgroup Ha in F]
generators=a a
[subgroup Ht in C]
generators=t t
[graph]
vertices=vf:F,vc:C
edge e: vc -> vf subgroup=Ha reverse_subgroup=Ht iso=y1->y1
""", "vf", "a b b^-1 t t^-1 a^-1"),
}


@pytest.mark.parametrize("name", sorted(NOT_HOMOMORPHISMS))
def test_edge_map_that_is_not_a_homomorphism_is_invalid(capsys, tmp_path, name):
    text, base, word = NOT_HOMOMORPHISMS[name]
    path = tmp_path / "glued.gog"
    path.write_text(text)
    (tmp_path / "z4.csv").write_text("0,1,2,3\n1,2,3,0\n2,3,0,1\n3,0,1,2\n")
    problem = ("edge e~: iso is not a homomorphism: the relator y1 y1 "
               "does not map to the identity")
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 1 and out == f"invalid: {problem}\n"
    code = main(["nf", str(path), "--base", base, "--word", word])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: invalid graph of groups: {problem}\n"


def test_finite_edge_maps_are_checked_on_the_cayley_graph():
    # S3 over all of S3, with r and s swapped: each map undoes the other and
    # stays in the subgroup, but r has order 3 and s order 2
    swapped = """
[group S] kind=finite table=s3.csv generators=r:1,s:3
[subgroup H in S]
generators=r; s
[subgroup Hr in S]
generators=r; s
[graph]
vertices=v:S
edge f: v -> v subgroup=H reverse_subgroup=Hr iso=y1->y2; y2->y1 reverse_iso=y1->y2; y2->y1
"""
    gog = parse_config(swapped, base_dir=CONFIGS).gog()
    assert len(gog.ctx(gog.graph.edges["f"]).relators()) == 6 * 2
    problems = gog.validate()
    assert [p.split(":")[0] for p in problems] == ["edge f", "edge f~"]
    assert all("not a homomorphism" in p for p in problems)
    same = swapped.replace("iso=y1->y2; y2->y1 reverse_iso=y1->y2; y2->y1", "iso=y1->y1; y2->y2")
    assert parse_config(same, base_dir=CONFIGS).gog().validate() == []


def test_abelian_relators_hold_the_relations_among_the_generators():
    config = parse_config(REGRESSION_GRAPHS["dependent_amalgam.gog"])
    gog = config.gog()
    assert gog.validate() == []
    ctx = gog.ctx(gog.graph.edges["e"])  # <a a, a a a> in Z: one relation
    relators = ctx.relators()
    assert len(relators) == 2  # the relation and one commutator
    identity = ctx.parent.key(ctx.parent.alphabet.empty())
    assert all(ctx.parent.key(ctx.expand(r)) == identity for r in relators)
    # mapping a a to b b b and a a a to b b breaks the relation (a a)^3 = (a a a)^2
    crossed = REGRESSION_GRAPHS["dependent_amalgam.gog"].replace(
        "iso=y1->y1; y2->y2", "iso=y1->y2; y2->y1")
    problems = parse_config(crossed).gog().validate()
    assert problems and all("not a homomorphism" in p for p in problems)

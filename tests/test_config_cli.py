import os
import random
import subprocess
import sys

import pytest

from builders import REGRESSION_GRAPHS
from higgins.cli import build_parser, main
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


def test_cmd_enum_lists_stable_letters_without_an_automaton(capsys, tmp_path):
    # the edge coset language of <a b> in F2 has no automaton; the language is
    # still that of Pi1, stable letters included, not the vertex group's
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


def test_cmd_enum_max_len_zero(capsys):
    code, out = run_cli(capsys, "enum", cfg("free_product_zz.gog"),
                        "--language", "higgins", "--max-len", "0")
    assert out.strip() == "ε"


def test_cmd_certify_snapshots(capsys):
    code, out = run_cli(capsys, "certify", cfg("abelian_pairs.gog"),
                        "--what", "coset", "--system", "axis", "--radius", "6")
    assert code == 0 and out == snapshot("certify_axis_r6.txt")
    code, out = run_cli(capsys, "certify", cfg("trefoil_amalgam.gog"),
                        "--what", "hypotheses", "--radius", "3")
    assert code == 0 and out == snapshot("hypotheses_trefoil_r3.txt")
    code, out = run_cli(capsys, "certify", cfg("abelian_pairs.gog"),
                        "--what", "sync-filter", "--system", "axis-padded",
                        "--radius", "5")
    assert code == 0 and out == snapshot("sync_filter_axis_r5.txt")
    code, out = run_cli(capsys, "certify", cfg("hnn_z2.gog"),
                        "--what", "coset", "--system", "edge-cosets", "--radius", "4")
    assert code == 0 and out == snapshot("certify_hnn_r4.txt")
    code, out = run_cli(capsys, "certify", cfg("abelian_pairs.gog"),
                        "--what", "coset", "--system", "axis-padded", "--radius", "9")
    assert code == 0 and out == snapshot("certify_axis_padded_r9.txt")
    code, out = run_cli(capsys, "certify", cfg("abelian_pairs.gog"),
                        "--what", "automatic", "--system", "axis", "--radius", "8")
    assert code == 0 and out == snapshot("automatic_axis_r8.txt")
    code, out = run_cli(capsys, "certify", cfg("abelian_pairs.gog"),
                        "--what", "coset", "--system", "mixed", "--radius", "6")
    assert code == 0 and out == snapshot("certify_mixed_r6.txt")
    # the sync-factorization rows name the first failing g of the ball, so
    # this pins the ball's order
    code, out = run_cli(capsys, "certify", cfg("trefoil_amalgam.gog"),
                        "--what", "hypotheses", "--radius", "3", "--sync")
    assert code == 1 and out == snapshot("hypotheses_trefoil_r3_sync.txt")
    code, out = run_cli(capsys, "certify", cfg("hnn_z2.gog"),
                        "--what", "hypotheses", "--radius", "3", "--sync")
    assert code == 0 and out == snapshot("hypotheses_hnn_r3_sync.txt")
    code, out = run_cli(capsys, "certify", cfg("hnn_z2.gog"), "--what", "sync-filter",
                        "--system", "edge-cosets", "--radius", "3")
    assert code == 0 and out == snapshot("sync_filter_hnn_r3.txt")
    code, out = run_cli(capsys, "certify", cfg("finite_s3.gog"), "--what", "sync-filter",
                        "--system", "s3-cosets", "--radius", "4")
    assert code == 0 and out == snapshot("sync_filter_s3_r4.txt")


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
    code, out = run_cli(capsys, "experiment", "trefoil",
                        "--radius", "3", "--lambda-max", "2")
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


def test_cmd_fsa_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.dfa"
    bad.write_text("dfa x\nalphabet a a^-1\nstates 1 begin 0\n")
    code = main(["fsa", "min", str(bad)])
    assert code == 2


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


def test_cmd_enum_unknown_base_is_a_usage_error(capsys):
    code = main(["enum", cfg("hnn_z2.gog"), "--base", "nope", "--max-len", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == "error: unknown vertex 'nope'\n"
    assert captured.out == ""


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
     "generator t: 2 is not an element index 0..1"),
    ("[group G] kind=finite table=z2.csv generators=t:-1", "0,1\n1,0\n", ["validate"],
     "generator t: -1 is not an element index 0..1"),
    ("[group G] kind=finite table=z2.csv", "0,1\n1,9\n", ["validate"],
     "table cell 9 is not an element index 0..1"),
], ids=["rank", "torsion", "free-rank", "generator-colon", "table-cell", "coset-no-edges",
        "generator-past-table", "generator-negative", "table-cell-past-table"])
def test_malformed_config_is_a_usage_error(capsys, tmp_path, group, table, argv, message):
    path = tmp_path / "bad.gog"
    path.write_text(f"{group}\n[graph]\nvertices=v:G\n")
    if table is not None:
        (tmp_path / "z2.csv").write_text(table)
    code = main([argv[0], str(path)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


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

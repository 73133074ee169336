import os
import subprocess
import sys

import pytest

from higgins.cli import main
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


def test_cmd_enum_higgins_unique(capsys):
    code, out = run_cli(capsys, "enum", cfg("hnn_z2.gog"), "--language", "higgins",
                        "--max-len", "2", "--check-unique")
    assert code == 0
    assert "unique" in out
    assert out.splitlines()[0] == "ε"


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


def test_cmd_certify_automatic(capsys):
    code, out = run_cli(capsys, "certify", cfg("abelian_pairs.gog"),
                        "--what", "automatic", "--system", "axis", "--radius", "4")
    assert code == 0 and "status=bounded" in out


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

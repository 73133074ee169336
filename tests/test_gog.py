import random

import pytest

from builders import (
    SHIPPED_GRAPHS, hnn_z2_system, shipped_config, trefoil_gog, trefoil_system, zz_system,
)
from oracles import generator_image
from higgins.backends import AbelianBackend, AbelianSubgroup
from higgins.cascade import Pi1EdgeSubgroup
from higgins.gog import (
    DirectedGraph, GogError, GraphOfGroups, StableAlphabets, maximal_tree,
)
from higgins.words import Word, all_words


def test_graph_involution():
    g = DirectedGraph()
    g.add_vertex("u")
    g.add_vertex("v")
    e = g.add_edge_pair("e", "u", "v")
    assert e.reverse.src == "v" and e.reverse.dst == "u"
    assert e.reverse.reverse is e
    with pytest.raises(GogError):
        g.add_edge_pair("e", "u", "v")


def test_maximal_tree_two_vertices():
    g = DirectedGraph()
    g.add_vertex("u")
    g.add_vertex("v")
    g.add_edge_pair("e", "u", "v")
    t = maximal_tree(g)
    assert t.edge_names == {"e", "e~"}


def test_maximal_tree_loop_is_empty():
    g = DirectedGraph()
    g.add_vertex("v")
    g.add_edge_pair("f", "v", "v")
    t = maximal_tree(g)
    assert t.edge_names == frozenset()


def test_maximal_tree_triangle():
    g = DirectedGraph()
    for v in ("u", "v", "w"):
        g.add_vertex(v)
    g.add_edge_pair("p", "u", "v")
    g.add_edge_pair("q", "v", "w")
    g.add_edge_pair("r", "w", "u")
    t = maximal_tree(g)
    # breadth-first from u: p reaches v, r~ reaches w
    assert t.edge_names == {"p", "p~", "r", "r~"}
    path = t.path("v", "w")
    assert [e.name for e in path] == ["p~", "r~"]


def test_maximal_tree_disconnected():
    g = DirectedGraph()
    g.add_vertex("u")
    g.add_vertex("v")
    with pytest.raises(GogError):
        maximal_tree(g)


def test_validate_trefoil_ok():
    assert trefoil_gog().validate() == []


def test_validate_bad_iso():
    gog = trefoil_gog()
    ctx_e = gog.edge_contexts["e"]
    # misdeclare the reverse iso so the composite is not the identity
    gog.edge_iso["e~"] = [ctx_e.gen_alphabet.word("y1 y1")]
    problems = gog.validate()
    assert any("identity" in p for p in problems)


@pytest.mark.parametrize("name, images", [
    ("e", []), ("e~", []), ("e", None), ("e~", None)])
def test_validate_reports_short_or_missing_iso(name, images):
    gog = trefoil_gog()
    if images is None:
        del gog.edge_iso[name]
    else:
        gog.edge_iso[name] = images
    problems = gog.validate()
    assert f"edge {name}: iso must map every subgroup generator" in problems


def test_apply_iso_follows_reassigned_iso():
    gog = trefoil_gog()
    e = gog.graph.edges["e"]
    y = gog.ctx(e).gen_alphabet.word("y1 y1^-1 y1")
    assert str(gog.apply_iso(e, y)) == "y1 y1^-1 y1"
    gog.edge_iso["e"] = [gog.ctx(e.reverse).gen_alphabet.word("y1 y1")]
    assert str(gog.apply_iso(e, y)) == "y1 y1 y1^-1 y1^-1 y1 y1"


def test_expand_keeps_order_two_generator_key():
    # <t t> in Z/4: y1 has order 2, so it is self-inverse; its image "t t"
    # is not letterwise self-inverse and is used as given
    Z4 = AbelianBackend(0, [4])
    H = AbelianSubgroup(Z4, [Z4.alphabet.word("t t")])
    y1 = H.gen_alphabet.word("y1")
    assert H.gen_alphabet.names == ("y1",)
    assert str(H.expand(y1)) == "t t"
    assert Z4.key(H.expand(y1)) == Z4.key(Z4.alphabet.word("t^-1 t^-1"))
    assert Z4.key(H.expand(y1 * y1)) == Z4.key(Z4.alphabet.empty())
    for w in (Z4.alphabet.word("t t"), Z4.alphabet.word("t^-1 t^-1 t^-1 t^-1 t t")):
        assert Z4.key(H.expand(H.h_express(w))) == Z4.key(w)


@pytest.mark.parametrize("name", sorted(SHIPPED_GRAPHS))
def test_generator_maps_match_letterwise_oracle(name):
    config = shipped_config(name)
    system = config.system()
    gog = system.gog
    contexts = [ctx for ctx, _group in config.subgroups.values()]
    checked = 0
    for ctx in contexts + list(gog.edge_contexts.values()):
        for w in all_words(ctx.gen_alphabet, 3):
            assert ctx.expand(w) == generator_image(
                ctx.gen_alphabet, ctx.gen_words, ctx.parent.alphabet, w)
            checked += 1
    for e in gog.graph.edges.values():
        src, dst = gog.ctx(e).gen_alphabet, gog.ctx(e.reverse).gen_alphabet
        pi1_ctx = Pi1EdgeSubgroup(system, e)
        for w in all_words(src, 3):
            assert gog.apply_iso(e, w) == generator_image(src, gog.edge_iso[e.name], dst, w)
            assert pi1_ctx.expand(w) == generator_image(
                src, pi1_ctx.gen_words, system.alphabet, w)
            checked += 1
    assert checked > 0


def test_validate_disconnected():
    A = AbelianBackend(1, names=["a"])
    B = AbelianBackend(1, names=["b"])
    g = DirectedGraph()
    g.add_vertex("u")
    g.add_vertex("v")
    gog = GraphOfGroups(g, {"u": A, "v": B}, {}, {})
    assert any("connected" in p for p in gog.validate())


def test_alphabet_naming_unique_and_collision():
    sys = trefoil_system()
    assert sys.alphabet.names == ("a", "a^-1", "b", "b^-1")
    # same generator name at two vertices forces namespacing
    A = AbelianBackend(1, names=["a"])
    B = AbelianBackend(1, names=["a"])
    g = DirectedGraph()
    g.add_vertex("u")
    g.add_vertex("v")
    g.add_edge_pair("e", "u", "v")
    from higgins.backends import TrivialSubgroup
    gog = GraphOfGroups(
        g, {"u": A, "v": B},
        {"e": TrivialSubgroup(B), "e~": TrivialSubgroup(A)},
        {"e": [], "e~": []},
    )
    alphas = StableAlphabets(gog, maximal_tree(g))
    assert "u.a" in alphas.deflated.names and "v.a" in alphas.deflated.names


def test_hnn_alphabet_has_stable_letter():
    sys = hnn_z2_system()
    assert "s_f" in sys.alphabet.names
    assert "s_f^-1" in sys.alphabet.names


def test_deflate_drops_tree_letters():
    sys = trefoil_system()
    alphas = sys.alphabets
    what = alphas.inflate(sys.word("a b"), "va")
    names = [alphas.inflated.names[x] for x in what.letters]
    assert names == ["a", "s_e^-1", "b"]
    assert alphas.deflate(what) == sys.word("a b")


def test_inflate_examples():
    sys = zz_system()
    what = sys.alphabets.inflate(sys.word("a b"), "va")
    names = [sys.alphabets.inflated.names[x] for x in what.letters]
    assert names == ["a", "s_e^-1", "b"]
    assert sys.alphabets.inflate(sys.word(""), "va") == sys.alphabets.inflated.empty()


def test_inflate_hnn_inverse_letter():
    sys = hnn_z2_system()
    w = sys.word("s_f x1 s_f^-1")
    what = sys.alphabets.inflate(w, "v")
    assert sys.alphabets.deflate(what) == w


def test_inflate_deflate_roundtrip_random():
    rng = random.Random(5)
    for sysname, sys in (("trefoil", trefoil_system()), ("hnn", hnn_z2_system())):
        base = sys.tree.root
        m = len(sys.alphabet)
        for _ in range(200):
            letters = tuple(rng.randrange(m) for _ in range(rng.randrange(8)))
            w = Word(sys.alphabet, letters)
            assert sys.alphabets.deflate(sys.alphabets.inflate(w, base)) == w, sysname


def test_inflated_parse_structure():
    sys = trefoil_system()
    what = sys.alphabets.inflate(sys.word("a b b a"), "va")
    iw = sys.parse_alternating(what, "va")
    assert iw.base_vertex == "va"
    assert str(iw.u0) == "a"
    assert [e.name for e, _ in iw.path] == ["e~", "e"]
    assert [str(u) for _, u in iw.path] == ["b b", "a"]

import random

import pytest

from builders import (
    LAW_CONFIGS, SHIPPED_GRAPHS, hnn_z2_system, shipped_config, shipped_system, trefoil_gog,
    trefoil_system, zz_system,
)
from oracles import FixedPointTree, all_words, bfs_tree, deflate_inflated, generator_image
from higgins.backends import AbelianBackend, AbelianSubgroup
from higgins.cascade import Pi1EdgeSubgroup
from higgins.gog import (
    DirectedGraph, GogError, GraphOfGroups, InflatedWord, SpanningTree, StableAlphabets,
)
from higgins.words import Word


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
    t = SpanningTree(g)
    assert t.edge_names == {"e", "e~"}


def test_maximal_tree_loop_is_empty():
    g = DirectedGraph()
    g.add_vertex("v")
    g.add_edge_pair("f", "v", "v")
    t = SpanningTree(g)
    assert t.edge_names == frozenset()


def test_maximal_tree_triangle():
    g = DirectedGraph()
    for v in ("u", "v", "w"):
        g.add_vertex(v)
    g.add_edge_pair("p", "u", "v")
    g.add_edge_pair("q", "v", "w")
    g.add_edge_pair("r", "w", "u")
    t = SpanningTree(g)
    # breadth-first from u: p reaches v, r~ reaches w
    assert t.edge_names == {"p", "p~", "r", "r~"}
    path = t.path("v", "w")
    assert [e.name for e in path] == ["p~", "r~"]


def test_maximal_tree_disconnected():
    g = DirectedGraph()
    g.add_vertex("u")
    g.add_vertex("v")
    with pytest.raises(GogError):
        SpanningTree(g)


# --- the tree against the fixed-point reference ----------------------------------

def seeded_graph(seed):
    """A connected multigraph on 2-5 vertices: a random tree, then up to four
    more edges, loops among them.  Vertex and edge names are drawn at random,
    so name order is not the order of adding.  Also returns the tree's pairs,
    each named by a random one of its two directions."""
    rng = random.Random(seed)
    vertices = rng.sample("pqrstuvw", rng.randint(2, 5))
    names = iter(rng.sample([f"e{i}" for i in range(10)], 10))
    g = DirectedGraph()
    tree = []
    for i, v in enumerate(vertices):
        g.add_vertex(v)
        if i:
            u = rng.choice(vertices[:i])
            e = g.add_edge_pair(next(names), *rng.sample((u, v), 2))
            tree.append(rng.choice((e, e.reverse)).name)
    for _ in range(rng.randint(0, 4)):
        g.add_edge_pair(next(names), rng.choice(vertices), rng.choice(vertices))
    return g, tree


SEEDED_GRAPHS = range(50)


def tree_graph(name):
    if name in LAW_CONFIGS:
        return shipped_config(name).gog().graph
    return seeded_graph(int(name.split()[1]))[0]


def assert_same_tree(tree, ref, graph):
    assert tree.root == ref.root
    assert tree.parent == ref.parent and tree.depth == ref.depth
    assert tree.edge_names == ref.edge_names
    for u in graph.vertices:
        for v in graph.vertices:
            assert tree.path(u, v) == tuple(ref.path(u, v)), (u, v)
            assert tree.path(u, v) is tree.path(u, v)  # kept, not computed again


@pytest.mark.parametrize("name", LAW_CONFIGS + [f"seed {seed}" for seed in SEEDED_GRAPHS])
def test_tree_matches_the_fixed_point_reference(name):
    graph = tree_graph(name)
    ref = bfs_tree(graph)
    assert_same_tree(SpanningTree(graph), ref, graph)
    assert_same_tree(SpanningTree(graph, ref.edge_names), ref, graph)
    declared = [nm for nm, _ in graph.pairs if nm in ref.edge_names]
    assert_same_tree(SpanningTree(graph, declared), ref, graph)


@pytest.mark.parametrize("seed", SEEDED_GRAPHS)
def test_declared_tree_matches_the_fixed_point_reference(seed):
    graph, names = seeded_graph(seed)
    both = [nm for name in names for nm in (name, graph.edges[name].reverse.name)]
    ref = FixedPointTree(graph, both, min(graph.vertices))
    assert_same_tree(SpanningTree(graph, names), ref, graph)
    # one pair more closes a cycle, and the search names the pair it left
    # over (a loop is always left over); one pair less misses a vertex
    for extra, _ in graph.pairs:
        if extra in ref.edge_names:
            continue
        e = graph.edges[extra]
        with pytest.raises(GogError, match="^tree has a cycle through ") as exc:
            SpanningTree(graph, names + [extra])
        leftover = str(exc.value).rsplit(" ", 1)[1]
        assert leftover == extra if e.src == e.dst else leftover in ref.edge_names | {extra}
    with pytest.raises(GogError, match="^tree does not span the graph$"):
        SpanningTree(graph, names[1:])
    with pytest.raises(GogError, match="^tree edge 'zz' not declared$"):
        SpanningTree(graph, names + ["zz"])


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
    alphas = StableAlphabets(gog, SpanningTree(g))
    assert "u.a" in alphas.alphabet.names and "v.a" in alphas.alphabet.names


def test_hnn_alphabet_has_stable_letter():
    sys = hnn_z2_system()
    assert "s_f" in sys.alphabet.names
    assert "s_f^-1" in sys.alphabet.names


def test_deflate_drops_tree_letters():
    sys = trefoil_system()
    iw = sys.alphabets.inflate(sys.word("a b"), "va")
    assert str(iw.u0) == "a"
    assert [(e.name, str(u)) for e, u in iw.path] == [("e~", "b")]  # the tree edge va -> vb
    assert deflate_inflated(sys, iw) == sys.word("a b")


def test_inflate_examples():
    sys = zz_system()
    iw = sys.alphabets.inflate(sys.word("a b"), "va")
    assert str(iw.u0) == "a"
    assert [(e.name, str(u)) for e, u in iw.path] == [("e~", "b")]
    empty = sys.alphabets.inflate(sys.word(""), "va")
    assert empty == InflatedWord("va", sys.gog.backend("va").alphabet.empty(), [])


def test_inflate_hnn_inverse_letter():
    sys = hnn_z2_system()
    w = sys.word("s_f x1 s_f^-1")
    iw = sys.alphabets.inflate(w, "v")
    assert [(e.name, str(u)) for e, u in iw.path] == [("f", "x1"), ("f~", "ε")]
    assert deflate_inflated(sys, iw) == w


def test_inflate_deflate_roundtrip_random():
    """From every base vertex, inflate gives a continuous path word that
    spells w again; path_tree_hnn's tree paths run over two edges."""
    rng = random.Random(5)
    for config in LAW_CONFIGS:
        sys = shipped_system(config)
        m = len(sys.alphabet)
        for base in sys.gog.graph.vertices:
            for _ in range(100):
                letters = tuple(rng.randrange(m) for _ in range(rng.randrange(8)))
                w = Word(sys.alphabet, letters)
                iw = sys.alphabets.inflate(w, base)
                cur = base
                for e, _u in iw.path:
                    assert e.src == cur, (config, w)
                    cur = e.dst
                assert deflate_inflated(sys, iw) == w, (config, w)


def test_inflated_parse_structure():
    sys = trefoil_system()
    iw = sys.alphabets.inflate(sys.word("a b b a"), "va")
    assert iw.base_vertex == "va"
    assert str(iw.u0) == "a"
    assert [e.name for e, _ in iw.path] == ["e~", "e"]
    assert [str(u) for _, u in iw.path] == ["b b", "a"]

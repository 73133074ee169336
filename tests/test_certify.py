
import os
import random
import subprocess
import sys

import pytest

from builders import LAW_CONFIGS, shipped_system, trefoil_gog, zz_gog
from higgins.backends import (
    AbelianBackend, AbelianSubgroup, FreeBackend,
    TrivialSubgroup,
)
import higgins.certify
from higgins.certify import (
    BALL_MARGIN, CayleyBall, HypothesisViolation, _aligns_within, _prefix_indices, _sweep,
    _walk_back,
    async_fellow_distance, certify_automatic, certify_coset_system,
    combination_hypotheses_report, concat_structure, detour_padded_language,
    geodesic_coset_filter, sync_fellow_distance,
)
from higgins.config import load_config
from higgins.cosets import CosetSystem
from higgins.fsa import Dfa, LazyLanguage, enumerate_language, word_set_dfa
from higgins.gog import DirectedGraph, GraphOfGroups
from higgins.words import Word, invert
from oracles import (
    aligns_by_grid, all_words, async_by_grid, brute_ball, canonical_by_subsets, concat_by_subsets,
    coset_language_by_subsets, enumerator_by_filter, higgins_by_subsets, keyed_sweep,
    prefix, sweep_without_reuse,
)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
Z2 = AbelianBackend(2)
AXIS = AbelianSubgroup(Z2, [Z2.alphabet.word("x1")])


def config_path(name):
    return os.path.join(ROOT, "configs", name)


def w2(text):
    return Z2.alphabet.word(text)


def test_ball_sizes():
    assert len(CayleyBall(Z2, 2)) == 13
    assert len(CayleyBall(FreeBackend(2), 2)) == 17
    assert len(CayleyBall(Z2, 0)) == 1


def test_ball_distance_exact():
    ball = CayleyBall(Z2, 4)
    i = ball.index(w2("x1 x2"))
    j = ball.index(w2("x2 x1"))
    assert ball.distance(i, j) == 0  # same element
    k = ball.index(w2("x1"))
    assert ball.distance(i, k) == 1
    assert ball.distance(ball.index(w2("")), i) == 2


def test_sync_distance_examples():
    ball = CayleyBall(Z2, 6)
    e = w2("")
    assert sync_fellow_distance(w2("x1 x2"), e, w2("x1 x2"), ball) == 0
    assert sync_fellow_distance(w2("x1 x2"), e, w2("x2 x1"), ball) == 2
    assert sync_fellow_distance(w2("x1 x1 x1 x1"), e, e, ball) == 4


def test_async_distance_examples():
    ball = CayleyBall(Z2, 6)
    e = w2("")
    assert async_fellow_distance(w2("x1 x2"), e, w2("x1 x2"), ball) == 0
    assert async_fellow_distance(w2("x1 x2"), e, w2("x2 x1"), ball) == 1


def brute_async(w1, h, w2w, ball):
    """Minimum over all monotone staircases of the maximum distance."""
    a = _prefix_indices(ball, ball.alphabet.empty(), w1)
    b = _prefix_indices(ball, h, w2w)
    if a is None or b is None:
        return None
    n1, n2 = len(w1), len(w2w)
    best = [None]

    def rec(i, j, acc):
        d = ball.distance(a[i], b[j])
        if d is None:
            return
        acc = max(acc, d)
        if best[0] is not None and acc >= best[0]:
            return
        if i == n1 and j == n2:
            best[0] = acc
            return
        if i < n1:
            rec(i + 1, j, acc)
        if j < n2:
            rec(i, j + 1, acc)
        if i < n1 and j < n2:
            rec(i + 1, j + 1, acc)

    rec(0, 0, 0)
    return best[0]


def test_async_dp_matches_brute_force():
    rng = random.Random(17)
    ball = CayleyBall(Z2, 9)
    m = len(Z2.alphabet)
    for _ in range(60):
        w1 = Word(Z2.alphabet, tuple(rng.randrange(m) for _ in range(rng.randrange(7))))
        wb = Word(Z2.alphabet, tuple(rng.randrange(m) for _ in range(rng.randrange(7))))
        h = Word(Z2.alphabet, tuple(rng.randrange(m) for _ in range(rng.randrange(2))))
        got = async_fellow_distance(w1, h, wb, ball)
        want = brute_async(w1, h, wb, ball)
        assert got == want
        s = sync_fellow_distance(w1, h, wb, ball)
        if got is not None and s is not None:
            assert got <= s


def test_certify_axis_sync():
    cert = certify_coset_system(CosetSystem(AXIS, mode="sync"), radius=6)
    assert cert.bounded and cert.K_observed <= 2
    assert "status=bounded" in str(cert)


def test_certify_whole_group():
    # v = w = empty, h a generator is a legitimate pair with d(v, hw) = 1,
    # and the fellow constant must dominate |h|, so K is 1 rather than 0
    G = AbelianBackend(2)
    H = AbelianSubgroup(G, [G.alphabet.word("x1"), G.alphabet.word("x2")])
    cert = certify_coset_system(CosetSystem(H, mode="sync"), radius=4)
    assert cert.bounded and cert.K_observed == 1


def test_detour_language_contains_base_and_padded():
    lang = detour_padded_language(AXIS.coset_language, Z2.alphabet)
    assert lang.accepts(w2("x2 x2"))
    assert lang.accepts(w2("x2 x1 x1^-1 x2"))
    assert lang.accepts(w2("x2 x1 x1^-1 x2 x1 x1^-1"))
    assert not lang.accepts(w2("x1 x1^-1"))
    assert not lang.accepts(w2("x2 x1"))
    got = {v.letters for v in enumerate_language(lang, 4)}
    assert w2("x2 x1 x1^-1 x2").letters in got
    assert w2("x2 x1 x1^-1").letters in got
    assert all(lang.accepts(Word(Z2.alphabet, t)) for t in got)


def test_detour_language_is_async_only():
    lang = detour_padded_language(AXIS.coset_language, Z2.alphabet)
    sys = CosetSystem(AXIS, lang)
    a6 = certify_coset_system(sys, radius=6, mode="async")
    assert a6.bounded and a6.K_observed <= 2
    s3 = certify_coset_system(sys, radius=3, mode="sync")
    s6 = certify_coset_system(sys, radius=6, mode="sync")
    assert s6.K_observed > s3.K_observed  # sync constant grows with the radius


def test_geodesic_filter_recovers_axis():
    lang = detour_padded_language(AXIS.coset_language, Z2.alphabet)
    sys = CosetSystem(AXIS, lang)
    filtered = geodesic_coset_filter(sys, radius=6)
    got = [w.letters for w in enumerate_language(filtered.language, 6)]
    # brute-force coset geodesics: words whose length equals the coset minimum
    want = [w.letters for w in enumerate_language(lang, 6)
            if len(w) == len(AXIS.coset_rep(w))]
    assert got == want
    assert got == [w.letters for w in enumerate_language(AXIS.coset_language, 6)
                   if lang.accepts(w)]
    cert = certify_coset_system(filtered, radius=6, mode="sync")
    assert cert.bounded


def test_geodesic_filter_detects_missing_coset():
    alpha = Z2.alphabet
    fwd = alpha.index("x2")

    def member(w):
        return all(x == fwd for x in w.letters) and len(w) % 2 == 0

    half = LazyLanguage(alpha, member, enumerator=enumerator_by_filter(alpha, member),
                        name="even-only")
    with pytest.raises(HypothesisViolation):
        geodesic_coset_filter(CosetSystem(AXIS, half), radius=3)


def test_certify_automatic_free_shortlex():
    F = FreeBackend(2)
    cert = certify_automatic(F.canonical_language, F, radius=5)
    assert cert.bounded and cert.K_observed <= 2


def test_certify_automatic_singleton():
    F = FreeBackend(1)
    lang = word_set_dfa([F.alphabet.empty()], F.alphabet)
    cert = certify_automatic(lang, F, radius=4)
    assert cert.bounded and cert.K_observed == 0


def test_concat_structure_trivial_subgroup():
    T = TrivialSubgroup(Z2)
    L_H = word_set_dfa([T.gen_alphabet.empty()], T.gen_alphabet)
    lang, oracle = concat_structure(L_H, CosetSystem(T))
    assert oracle is Z2
    got = [w.letters for w in enumerate_language(lang, 4)]
    want = [w.letters for w in enumerate_language(Z2.canonical_language, 4)]
    assert got == want


def test_concat_structure_whole_group():
    G = AbelianBackend(2)
    H = AbelianSubgroup(G, [G.alphabet.word("x1"), G.alphabet.word("x2")])
    L_H = H.parent.canonical_language  # subgroup letters are x1, x2 themselves
    # relabel: the subgroup generator alphabet is y1, y2; use its own shortlex
    sub = AbelianBackend(2, names=["y1", "y2"])
    lang, oracle = concat_structure(sub.canonical_language, CosetSystem(H))
    assert oracle is G
    got = [w.letters for w in enumerate_language(lang, 3)]
    want = [w.letters for w in enumerate_language(G.canonical_language, 3)]
    assert got == want


def test_concat_structure_axis():
    sub = AbelianBackend(1, names=["y1"])
    lang, oracle = concat_structure(sub.canonical_language, CosetSystem(AXIS))
    assert oracle is Z2
    got = {w.letters for w in enumerate_language(lang, 3)}
    want = {w.letters for w in all_words(Z2.alphabet, 3)
            if _collected_x1_x2(w)}
    assert got == want
    cert = certify_automatic(lang, Z2, radius=5)
    assert cert.bounded


def _collected_x1_x2(w):
    vec = Z2.vec(w)
    return w.letters == Z2.serialize(vec).letters


def test_concat_structure_extended_alphabet():
    G = AbelianBackend(2)
    H = AbelianSubgroup(G, [G.alphabet.word("x1 x2")])
    sub = AbelianBackend(1, names=["y1"])
    lang, oracle = concat_structure(sub.canonical_language, CosetSystem(H))
    assert "y1" in lang.alphabet.names
    words = enumerate_language(lang, 2)
    keys = {oracle.key(w) for w in words}
    # every element of the radius-2 ball over the original alphabet is covered
    # by some concatenation word (possibly longer); spot-check coverage
    assert oracle.key(lang.alphabet.word("y1")) == G.key(G.alphabet.word("x1 x2"))
    cert = certify_automatic(lang, oracle, radius=4)
    assert cert.bounded


def test_concat_structure_order_two_generator_spelled_as_given():
    # <t t> in Z x Z/4: y1 has order 2 and is self-inverse over the subgroup
    # generators, so the concatenation words spell it y1, never y1^-1
    G = AbelianBackend(1, [4])
    H = AbelianSubgroup(G, [G.alphabet.word("t t")])
    lang, oracle = concat_structure(H.presentation.coset_language, CosetSystem(H))
    y1, y1_inv = lang.alphabet.word("y1"), lang.alphabet.word("y1^-1")
    words = enumerate_language(lang, 2)
    assert y1 in words and all(y1_inv.letters[0] not in u.letters for u in words)
    assert lang.membership(y1) and not lang.membership(y1_inv)
    assert oracle.key(y1) == oracle.key(y1_inv) == G.key(G.alphabet.word("t t"))


def test_concat_structure_order_two_generator_before_another():
    # <t, x1> in Z x Z/2: t takes one slot in the subgroup's generator
    # alphabet but two in the alphabet of its shortlex language, so x1 sits at
    # different indices in the two; the explicit and the lazy concatenation
    # must both read L_H's letters through L_H's own alphabet
    G = AbelianBackend(1, [2])
    H = AbelianSubgroup(G, [G.alphabet.word("t"), G.alphabet.word("x1")])
    L_H = H.presentation.coset_language
    assert len(L_H.alphabet) != len(H.gen_alphabet)
    explicit, _ = concat_structure(L_H, CosetSystem(H))
    base = H.coset_language
    lazy, _ = concat_structure(L_H, CosetSystem(H, LazyLanguage(
        G.alphabet, base.accepts, enumerator=lambda n: enumerate_language(base, n))))
    got = enumerate_language(explicit, 4)
    assert enumerate_language(lazy, 4) == got
    # every element of the radius-4 ball is spelled exactly once
    assert sorted(G.key(w) for w in got) == sorted({G.key(w) for w in all_words(G.alphabet, 4)})
    for w in all_words(G.alphabet, 4):
        assert lazy.membership(w) == explicit.accepts(w) == (w in got)


def test_hypotheses_report_trefoil():
    report = combination_hypotheses_report(trefoil_gog(), radius=4)
    assert report.passed, str(report)
    names = [n for n, _ok, _d in report.rows]
    assert any(n.startswith("saca") for n in names)
    assert any(n.startswith("stability") for n in names)
    assert any(n.startswith("crossover") for n in names)


def test_hypotheses_report_trivial_edge_groups():
    report = combination_hypotheses_report(zz_gog(), radius=4)
    assert report.passed, str(report)


def test_hypotheses_report_unstable_iso():
    A = AbelianBackend(1, names=["a"])
    B = AbelianBackend(1, names=["b"])
    graph = DirectedGraph()
    graph.add_vertex("va")
    graph.add_vertex("vb")
    graph.add_edge_pair("e", "vb", "va")
    ctx_e = AbelianSubgroup(A, [A.alphabet.word("a a"), A.alphabet.word("a a a")])
    ctx_er = AbelianSubgroup(B, [B.alphabet.word("b")])
    gog = GraphOfGroups(
        graph, {"va": A, "vb": B},
        {"e": ctx_e, "e~": ctx_er},
        {
            "e": [ctx_er.gen_alphabet.word("y1 y1"), ctx_er.gen_alphabet.word("y1 y1 y1")],
            "e~": [ctx_e.gen_alphabet.word("y2 y1^-1")],
        },
    )
    assert gog.validate() == []
    report = combination_hypotheses_report(gog, radius=3)
    rows = {n: ok for n, ok, _d in report.rows}
    assert rows["stability(e)"] is False
    assert not report.passed


def test_certificate_identical_across_hash_seeds():
    # the README promises byte-identical output on every run; set and dict
    # order over tuple keys varies with the hash seed, so run two seeds
    src = os.path.join(ROOT, "src")
    argv = [sys.executable, "-m", "higgins.cli", "certify", config_path("hnn_z2.gog"),
            "--what", "coset", "--system", "edge-cosets", "--radius", "3"]
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith("certificate mode=async radius=3 ")


def _random_words(rng, alphabet, n, max_len):
    m = len(alphabet)
    return [Word(alphabet, tuple(rng.randrange(m) for _ in range(rng.randrange(max_len + 1))))
            for _ in range(n)]


def _assert_levels(ball):
    assert 0 <= ball.radius <= ball.max_radius
    assert ball.dist == sorted(ball.dist)
    assert set(ball.dist) == set(range(ball.radius + 1))


def _backend(name):
    if name == "z2":
        return AbelianBackend(2)
    if name == "f2":
        return FreeBackend(2)
    from higgins.cascade import Pi1Backend
    return Pi1Backend(load_config(config_path("hnn_z2.gog")).system())


@pytest.mark.parametrize("name", ["z2", "f2", "hnn"])
def test_lazy_ball_equals_complete_ball(name):
    oracle, cap = _backend(name), {"z2": 6, "f2": 5, "hnn": 4}[name]
    full = CayleyBall(oracle, cap)
    n = len(full)
    assert full.radius == cap and len(full.words) == n
    # breadth-first search keeps, for each element, its shortlex-least
    # geodesic, and lists the elements in shortlex order of those words
    first: dict = {}
    for w in all_words(oracle.alphabet, cap):
        first.setdefault(oracle.key(w), w)
    assert full.words == list(first.values())
    assert full.dist == [len(w) for w in full.words]
    lazy = CayleyBall(oracle, cap)
    assert lazy.radius == 0 and len(lazy.words) == 1
    rng = random.Random(29)
    seen = []
    for w in _random_words(rng, oracle.alphabet, 60, cap + 2):
        i = lazy.index(w)
        _assert_levels(lazy)
        assert i == full.index(w)
        if i is None:
            assert lazy.radius == cap
            continue
        assert lazy.words[i] == full.words[i]
        assert lazy.dist[i] == full.dist[i]
        assert oracle.key(lazy.words[i]) == oracle.key(w)
        seen.append(i)
        j = rng.choice(seen)
        assert lazy.distance(i, j) == full.distance(i, j)
        _assert_levels(lazy)
    assert lazy.words == full.words[:len(lazy.words)]
    assert len(lazy) == n and lazy.words == full.words and lazy.dist == full.dist


def _oracle_backend(name):
    if name == "z2xz2":
        return AbelianBackend(1, [2], names=["x", "t"])
    if name == "z2xz4":
        return AbelianBackend(2, [4], names=["x1", "x2", "t"])
    if name == "f2":
        return FreeBackend(2)
    if name == "s3":
        return load_config(config_path("finite_s3.gog")).groups["S"]
    from higgins.cascade import Pi1Backend
    return Pi1Backend(load_config(config_path("hnn_z2.gog")).system())


@pytest.mark.parametrize("name", ["z2xz2", "z2xz4", "f2", "s3", "hnn"])
def test_ball_equals_the_brute_force_ball(name):
    # the ball is each element's shortlex-least geodesic, in shortlex order,
    # at every radius and however far the ball has already grown
    oracle = _oracle_backend(name)
    cap = 3 if name == "hnn" else 4
    brute = [brute_ball(oracle, r) for r in range(cap + 1)]
    for r in range(cap + 1):
        assert CayleyBall(oracle, r).elements() == brute[r]
    grown = CayleyBall(oracle, cap)
    for r in range(cap + 1):
        assert grown.within(r) == brute[r]
        assert grown.radius == r
    for r in range(cap + 3):
        assert grown.within(r) == brute[min(r, cap)]
    assert grown.radius == cap


def test_escape_beyond_the_cap_is_reported():
    system = load_config(config_path("abelian_pairs.gog")).coset_system("axis-padded")
    parent = system.context.parent
    R = 3  # a cap of R leaves some distances of this sweep outside the ball
    lazy = CayleyBall(parent, R)
    cert = certify_coset_system(system, R, ball=lazy)
    assert not cert.bounded
    assert cert.lines()[0].endswith("status=exceeds-ball")
    assert any(line.startswith("witness ") for line in cert.lines())
    assert lazy.radius == lazy.max_radius == R
    full = CayleyBall(parent, R)
    len(full)
    assert cert.lines() == certify_coset_system(system, R, ball=full).lines()


def test_hnn_certificate_grows_a_small_ball():
    system = load_config(config_path("hnn_z2.gog")).coset_system("edge-cosets")
    ball = CayleyBall(system.context.parent, 1 + BALL_MARGIN)
    cert = certify_coset_system(system, 1, ball=ball)
    assert cert.bounded
    # a step off the outermost sphere is keyed, not met by growing a sphere
    # for its row: filling rows eagerly reached radius 3 and 99 elements
    assert ball.radius <= 2 and len(ball.words) <= 29


class CountingOracle:
    def __init__(self, oracle):
        self.oracle = oracle
        self.alphabet = oracle.alphabet
        self.key_calls = 0

    def key(self, w):
        self.key_calls += 1
        return self.oracle.key(w)


def test_escaped_pair_is_keyed_once():
    oracle = CountingOracle(FreeBackend(2))
    ball = CayleyBall(oracle, 1)
    i, j = ball.index(oracle.alphabet.word("a")), ball.index(oracle.alphabet.word("a^-1"))
    before = oracle.key_calls
    assert [ball.distance(i, j) for _ in range(5)] == [None] * 5  # d = 2 escapes radius 1
    assert oracle.key_calls - before == 1


def test_coset_sweep_keys_no_h_inside_the_ball(monkeypatch):
    # on a complete ball every h is found by walking the edge table back from
    # v x, so the sweep keys only each measured pair of ball elements once and
    # each subgroup generator (kappa) once; keying every candidate h cost 59
    # more calls, and measuring both pairs of each mirror couple 6 more
    system = load_config(config_path("abelian_pairs.gog")).coset_system("axis-padded")
    ctx, parent, R = system.context, system.context.parent, 3
    ball = CayleyBall(parent, R + BALL_MARGIN)
    len(ball)
    calls = []
    key = parent.key
    monkeypatch.setattr(parent, "key", lambda w: calls.append(w) or key(w))
    cert = certify_coset_system(system, R, ball=ball)
    assert cert.lines()[0] == "certificate mode=async radius=3 pairs=59 K=2 status=bounded"
    assert len(calls) == len(ball._pair_cache) + len(ctx.gen_words) == 25


def test_sweep_measures_each_mirror_couple_once(monkeypatch):
    # a pair (v, x, w) and its mirror (w, x^-1, v) share one measurement, so
    # at most half the pairs, plus the self-mirrored (v, empty, v), are measured
    system = load_config(config_path("abelian_pairs.gog")).coset_system("axis-padded")
    ctx, R = system.context, 9
    calls = []
    measure = higgins.certify.async_fellow_distance
    monkeypatch.setattr(higgins.certify, "async_fellow_distance",
                        lambda *args: calls.append(args) or measure(*args))
    pairs, K, violations = _sweep(system.language, ctx.parent, R, "async",
                                  CayleyBall(ctx.parent, R + BALL_MARGIN), ctx.coset_key)
    words = len(enumerate_language(system.language, R))
    assert (pairs, K, violations) == (5391, 2, [])
    assert len(calls) <= -(-pairs // 2) + words


def test_sweep_fills_about_once_per_measured_pair(monkeypatch):
    # each measuring call runs the fill at the running K; only a pair above K
    # runs it again, at the least distance the last fill turned away
    system = load_config(config_path("abelian_pairs.gog")).coset_system("axis-padded")
    ctx, R = system.context, 9
    calls, fills = [], []
    measure, fill = higgins.certify.async_fellow_distance, higgins.certify._aligns_within
    monkeypatch.setattr(higgins.certify, "async_fellow_distance",
                        lambda *args: calls.append(args) or measure(*args))
    monkeypatch.setattr(higgins.certify, "_aligns_within",
                        lambda *args: fills.append(args) or fill(*args))
    pairs, K, violations = _sweep(system.language, ctx.parent, R, "async",
                                  CayleyBall(ctx.parent, R + BALL_MARGIN), ctx.coset_key)
    assert (pairs, K, violations) == (5391, 2, [])
    assert len(calls) <= len(fills) <= len(calls) + 2

def test_higgins_lazy_language_agrees_with_its_dfa():
    from builders import trefoil_system
    from higgins.cascade import Pi1EdgeSubgroup
    system = trefoil_system()
    e0 = system.gog.graph.edges["e"]
    lang = Pi1EdgeSubgroup(system, e0).coset_language
    for w in all_words(system.alphabet, 4):
        assert lang.accepts(w) == (system.coset_normal_form(w, e0) == w)


def test_hypotheses_report_sync_rows():
    report = combination_hypotheses_report(zz_gog(), radius=3, sync=True)
    names = [n for n, _ok, _d in report.rows]
    assert any(n.startswith("sync-language") for n in names)
    assert report.passed, str(report)


# --- the edge table and the threshold-pruned sweep ---------------------------

@pytest.mark.parametrize("name", ["z2", "f2", "hnn"])
def test_prefix_walk_follows_the_edge_table(name):
    oracle = _backend(name)
    cap = {"z2": 4, "f2": 4, "hnn": 3}[name]
    ball, ref = CayleyBall(oracle, cap), CayleyBall(oracle, cap)
    rng = random.Random(43)
    grew = capped = 0
    for _ in range(60):
        start = _random_words(rng, oracle.alphabet, 1, 2)[0]
        w = _random_words(rng, oracle.alphabet, 1, 2 * cap)[0]
        want = [ref.index(start * prefix(w, t)) for t in range(len(w) + 1)]
        ball.index(start)
        before = ball.radius
        got = _prefix_indices(ball, start, w)
        grew += ball.radius > before  # the walk itself left the grown ball
        assert got == (None if None in want else want)
        capped += got is None
        _assert_levels(ball)
    assert grew and capped
    # a row for exactly the elements inside the outermost sphere
    assert len(ball.edges) == sum(d < ball.radius for d in ball.dist)
    for i, row in enumerate(ball.edges):
        assert len(row) == len(oracle.alphabet)
        for x, j in enumerate(row):
            step = Word(oracle.alphabet, ball.words[i].letters + (x,))
            assert oracle.key(step) == oracle.key(ball.words[j])


@pytest.mark.parametrize("name", ["z2", "f2", "hnn"])
def test_walk_back_finds_h_on_the_edge_table(name):
    oracle = _backend(name)
    cap = {"z2": 4, "f2": 4, "hnn": 3}[name]
    ball, ref = CayleyBall(oracle, cap), CayleyBall(oracle, cap)
    rng = random.Random(47)
    grew = capped = 0
    for _ in range(60):
        g = _random_words(rng, oracle.alphabet, 1, 2)[0]
        w = _random_words(rng, oracle.alphabet, 1, 2 * cap)[0]
        h = g * invert(w)
        want = [ref.index(h * prefix(w, t)) for t in range(len(w) + 1)]
        gi = ball.index(g)
        before = ball.radius
        got = _walk_back(ball, gi, w.letters)
        grew += ball.radius > before  # the walk itself left the grown ball
        assert got == (None if None in want else want)
        capped += got is None
        _assert_levels(ball)
    assert grew and capped


def _seeded_pairs(rng, alphabet, n, max_len):
    m = len(alphabet)

    def word(k):
        return Word(alphabet, tuple(rng.randrange(m) for _ in range(k)))
    pairs = []
    for _ in range(n):
        w1 = word(rng.randrange(max_len + 1))
        kind = rng.randrange(3)
        if kind == 0:
            w2 = w1  # equal paths stay at distance 0 only along the diagonal
        elif kind == 1:
            w2 = w1 * word(1)
        else:
            w2 = word(rng.randrange(max_len + 1))
        pairs.append((w1, word(rng.randrange(2)), w2))
    return pairs


@pytest.mark.parametrize("name", ["z2", "f2", "hnn"])
def test_threshold_pruning_keeps_the_exact_maximum(name):
    oracle = _backend(name)
    ball = CayleyBall(oracle, {"z2": 8, "f2": 7, "hnn": 4}[name])
    pairs = _seeded_pairs(random.Random(41), oracle.alphabet, 60, 4)
    exact = [async_by_grid(w1, h, w2, ball) for w1, h, w2 in pairs]
    finite = [d for d in exact if d is not None]
    assert finite and 0 in finite and max(finite) > 1
    for (w1, h, w2), d in zip(pairs, exact):
        a = _prefix_indices(ball, ball.alphabet.empty(), w1)
        b = _prefix_indices(ball, h, w2)
        for t in range(4):
            got = async_fellow_distance(w1, h, w2, ball, threshold=t)
            if d is None:
                assert got is None
                assert a is None or b is None or _aligns_within(ball, a, b, t) is not True
                continue
            assert (got <= t) == (d <= t) and got == max(d, t)
            # the fill alone: the rising threshold would hide a wrong answer
            fill = _aligns_within(ball, a, b, t)
            assert (fill is True) == (d <= t)
            assert fill == aligns_by_grid(ball, a, b, t)
    # a sweep that passes its running K ends on the exact maximum
    K = escapes = 0
    for w1, h, w2 in pairs:
        got = async_fellow_distance(w1, h, w2, ball, threshold=K)
        if got is None:
            escapes += 1
        else:
            K = max(K, got)
    assert K == max(finite) and escapes == exact.count(None)


@pytest.mark.parametrize("name", ["z2", "f2", "hnn"])
def test_mirror_pairs_have_equal_constants(name):
    # d(v, h, w) == d(w, h^-1, v): the mirror's grid is the transpose, since
    # |u^-1| == |u|; the caps are small, so some cells escape the ball.  A
    # path that leaves the ball makes only its own pair escape, so the law
    # is checked where all four paths lie in the ball
    oracle = _backend(name)
    ball = CayleyBall(oracle, {"z2": 4, "f2": 3, "hnn": 3}[name])
    empty = ball.alphabet.empty()
    checked = escapes = 0
    for v, h, w in _seeded_pairs(random.Random(61), oracle.alphabet, 80, 4):
        hinv = invert(h)
        paths = (_prefix_indices(ball, empty, v), _prefix_indices(ball, h, w),
                 _prefix_indices(ball, empty, w), _prefix_indices(ball, hinv, v))
        if None in paths:
            continue
        checked += 1
        d = sync_fellow_distance(v, h, w, ball)
        assert sync_fellow_distance(w, hinv, v, ball) == d
        for t in (None, 0, 1, 2, 3):
            d = async_fellow_distance(v, h, w, ball, t)
            assert async_fellow_distance(w, hinv, v, ball, t) == d, (v, h, w, t)
        escapes += d is None
    assert checked > 40 and 0 < escapes < checked


@pytest.mark.parametrize("name", ["z2", "f2", "hnn"])
def test_fill_equals_the_grid_reachability(name):
    # the caps are small, so many cells escape the ball and count as failed
    oracle = _backend(name)
    ball = CayleyBall(oracle, {"z2": 4, "f2": 3, "hnn": 3}[name])
    rng = random.Random(53)
    outcomes, escapes = set(), 0
    for w1, h, w2 in _seeded_pairs(rng, oracle.alphabet, 80, 5):
        a = _prefix_indices(ball, ball.alphabet.empty(), w1)
        b = _prefix_indices(ball, h, w2)
        if a is None or b is None:
            continue
        escapes += any(ball.distance(i, j) is None for i in a for j in b)
        for t in range(4):
            got = _aligns_within(ball, a, b, t)
            want = aligns_by_grid(ball, a, b, t)
            assert (got is True) == (want is True) and got == want, (w1, h, w2, t)
            outcomes.add(got is True)
    assert outcomes == {False, True} and escapes


class _CountingCache(dict):
    """A pair cache that counts the reads of each key."""

    def __init__(self):
        super().__init__()
        self.reads: dict = {}

    def get(self, key, default=None):
        self.reads[key] = self.reads.get(key, 0) + 1
        return super().get(key, default)


class _GridBall:
    """The pair-cache interface of a CayleyBall over a table of distances,
    None for an escape; the paths a = 0..n1 and b = 100..100+n2 give every
    cell of the grid its own key."""

    def __init__(self, table):
        self.table = table
        self._pair_cache = _CountingCache()

    def distance(self, i, j):
        key = (i, j) if i < j else (j, i)
        d = self.table[key[0]][key[1] - 100]
        dict.__setitem__(self._pair_cache, key, d)
        return d


def test_fill_reads_each_cell_at_most_once():
    # a lockstep that fails at cell t resumes the fill with cell t seen, so
    # no cell is read twice, and the answer is the grid's reachability
    rng = random.Random(59)
    resumed = 0
    for _ in range(300):
        n1, n2 = rng.randrange(6), rng.randrange(6)
        table = [[rng.choice((0, 1, 1, 2, 2, 3, None)) for _ in range(n2 + 1)]
                 for _ in range(n1 + 1)]
        a, b = list(range(n1 + 1)), list(range(100, 100 + n2 + 1))
        for t in range(4):
            ball = _GridBall(table)
            got = _aligns_within(ball, a, b, t)
            assert max(ball._pair_cache.reads.values()) == 1
            resumed += len(ball._pair_cache.reads) > max(n1, n2) + 1
            want = aligns_by_grid(_GridBall(table), a, b, t)
            assert (got is True) == (want is True) and got == want
    assert resumed


def _exact_async(w1, h, w2, ball, threshold=None):
    return async_by_grid(w1, h, w2, ball)


def _abelian_axis_cert(system, radius, cap):
    sys = load_config(config_path("abelian_pairs.gog")).coset_system(system)
    ball = CayleyBall(sys.context.parent, cap)
    return certify_coset_system(sys, radius, mode="async", ball=ball), ball


def _free_automatic_cert(radius, cap):
    F = FreeBackend(2)
    ball = CayleyBall(F, cap)
    return certify_automatic(F.canonical_language, F, radius, mode="async", ball=ball), ball


@pytest.mark.parametrize("run", [
    lambda: _abelian_axis_cert("axis-padded", 6, 6 + BALL_MARGIN),
    lambda: _abelian_axis_cert("axis-padded", 3, 3),  # escapes beyond the cap
    lambda: _abelian_axis_cert("axis", 6, 6 + BALL_MARGIN),
    lambda: _free_automatic_cert(4, 4 + BALL_MARGIN),
], ids=["axis-padded", "axis-padded-capped", "axis", "f2-automatic"])
def test_pruned_certificate_equals_the_exact_sweep(monkeypatch, run):
    pruned, pruned_ball = run()
    monkeypatch.setattr(higgins.certify, "async_fellow_distance", _exact_async)
    exact, exact_ball = run()
    assert pruned.K_observed == exact.K_observed
    assert pruned.pairs_tested == exact.pairs_tested
    assert pruned.violations == exact.violations
    assert pruned.lines() == exact.lines()
    # the pruned sweep skipped cells that the exact one measured
    assert len(pruned_ball._pair_cache) < len(exact_ball._pair_cache)


SHIPPED_COSET_SYSTEMS = [
    ("abelian_pairs.gog", "axis", 6), ("abelian_pairs.gog", "diag", 5),
    ("abelian_pairs.gog", "mixed", 4), ("abelian_pairs.gog", "axis-padded", 6),
    ("finite_s3.gog", "s3-cosets", 4), ("free_product_zz.gog", "edge-cosets", 4),
    ("hnn_z2.gog", "edge-cosets", 3), ("trefoil_amalgam.gog", "edge-cosets", 3),
]


@pytest.mark.parametrize("config, name, radius", SHIPPED_COSET_SYSTEMS,
                         ids=[f"{c.split('.')[0]}-{n}" for c, n, _r in SHIPPED_COSET_SYSTEMS])
def test_sweep_equals_the_keyed_sweep(config, name, radius):
    system = load_config(config_path(config)).coset_system(name)
    ctx = system.context
    for mode in ("sync", "async"):
        got = _sweep(system.language, ctx.parent, radius, mode,
                     CayleyBall(ctx.parent, radius + BALL_MARGIN), ctx.coset_key)
        want = keyed_sweep(system.language, ctx.parent, radius, mode,
                           CayleyBall(ctx.parent, radius + BALL_MARGIN), ctx.coset_key)
        assert got == want
        assert got[0] > 0


REFERENCE_SWEEPS = (
    [(c, n, r, r + BALL_MARGIN, f"{c.split('.')[0]}-{n}") for c, n, r in SHIPPED_COSET_SYSTEMS]
    # a cap below the radius: walks leave the ball, so some pairs escape
    # while their mirrors stay inside
    + [(c, n, r, r - 1, f"{c.split('.')[0]}-{n}-capped") for c, n, r in SHIPPED_COSET_SYSTEMS]
    # v's own path leaves the ball
    + [("abelian_pairs.gog", "axis-padded", 3, 1, "axis-padded-cap-1")])


@pytest.mark.parametrize("config, name, radius, cap", [t[:4] for t in REFERENCE_SWEEPS],
                         ids=[t[4] for t in REFERENCE_SWEEPS])
def test_sweep_equals_the_reference_sweep(config, name, radius, cap):
    # reusing a mirror pair's value leaves every count, K and witness as when
    # each pair is measured
    system = load_config(config_path(config)).coset_system(name)
    ctx = system.context
    for mode in ("sync", "async"):
        got = _sweep(system.language, ctx.parent, radius, mode, CayleyBall(ctx.parent, cap),
                     ctx.coset_key)
        want = sweep_without_reuse(system.language, ctx.parent, radius, mode,
                                   CayleyBall(ctx.parent, cap), ctx.coset_key)
        assert got == want
        assert got[0] > 0


def test_certify_automatic_equals_the_reference_sweep():
    F, R = FreeBackend(2), 4
    for mode in ("sync", "async"):
        cert = certify_automatic(F.canonical_language, F, R, mode=mode)
        want = sweep_without_reuse(F.canonical_language, F, R, mode,
                                   CayleyBall(F, R + BALL_MARGIN))
        assert (cert.pairs_tested, cert.K_observed, cert.violations) == want


def test_sweep_walks_back_once_per_ball_index_and_word(monkeypatch):
    # the padded language spells each g = v x many ways, so many (v, x) share
    # g's ball index; each (index, w) is walked back once per sweep
    system = load_config(config_path("abelian_pairs.gog")).coset_system("axis-padded")
    ctx, R = system.context, 3
    walks = []
    walk_back = higgins.certify._walk_back
    monkeypatch.setattr(higgins.certify, "_walk_back",
                        lambda ball, g, letters: walks.append((g, letters))
                        or walk_back(ball, g, letters))
    got = _sweep(system.language, ctx.parent, R, "async",
                 CayleyBall(ctx.parent, R + BALL_MARGIN), ctx.coset_key)
    assert len(walks) == len(set(walks)) and got[0] > len(walks)
    # the sweep with no memo, which keys every h, finds the same pairs and K
    monkeypatch.undo()
    assert got == keyed_sweep(system.language, ctx.parent, R, "async",
                              CayleyBall(ctx.parent, R + BALL_MARGIN), ctx.coset_key)


@pytest.mark.parametrize("name", ["z2", "f2"])
def test_trivial_subgroup_sweep_equals_the_keyed_sweep(name):
    oracle, R = _backend(name), 4
    for mode in ("sync", "async"):
        got = _sweep(oracle.canonical_language, oracle, R, mode,
                     CayleyBall(oracle, R + BALL_MARGIN))
        want = keyed_sweep(oracle.canonical_language, oracle, R, mode,
                           CayleyBall(oracle, R + BALL_MARGIN))
        assert got == want and got[0] > 0


@pytest.mark.parametrize("cap, beyond", [(3, 0), (1, 0), (0, 26)],
                         ids=["axis-padded-capped", "cap-1", "cap-0"])
def test_sweep_equals_the_keyed_sweep_beyond_the_cap(cap, beyond):
    # walks leave the capped ball; on the identity alone (cap 0) h lies beyond
    # it too, often several h for one (v, w), told apart by their keys
    system = load_config(config_path("abelian_pairs.gog")).coset_system("axis-padded")
    ctx, R = system.context, 3
    for mode in ("sync", "async"):
        got = _sweep(system.language, ctx.parent, R, mode, CayleyBall(ctx.parent, cap),
                     ctx.coset_key)
        want = keyed_sweep(system.language, ctx.parent, R, mode,
                           CayleyBall(ctx.parent, cap), ctx.coset_key)
        assert got == want
        ref = CayleyBall(ctx.parent, cap)
        assert got[2] and sum(ref.index(h) is None for _v, h, _w in got[2]) == beyond


# --- the paper's conclusion: the Higgins language at the root ----------------

# (async K at r4, pairs at r4, sync K at r3, pairs at r3, sync K at r4) per
# law config; pairs at r4 are the same in both modes
HIGGINS_CERTIFICATES = {
    "abelian_pairs.gog": (1, 3744, 2, 856, 2),
    "finite_s3.gog": (1, 412, 2, 188, 2),
    "free_product_zz.gog": (1, 481, 1, 157, 1),
    "hnn_z2.gog": (1, 1225, 2, 375, 2),
    "trefoil_amalgam.gog": (2, 175, 2, 93, 3),
    "dependent_amalgam.gog": (1, 25, 1, 19, 1),
    "hnn_f2.gog": (2, 2287, 2, 495, 4),
    "hnn_f2_stem.gog": (2, 2279, 2, 495, 3),
    "path_tree_hnn.gog": (3, 3573, 3, 759, 4),
    "artin_i2_5.gog": (3, 247, 3, 113, 4),
    "coxeter_d_inf.gog": (1, 25, 1, 19, 1),
    "coxeter_psl2z.gog": (1, 76, 1, 48, 1),
    "klein_bottle.gog": (1, 169, 2, 97, 2),
    # the synchronous constant grows with the radius (BS(1, 2) is not automatic)
    "bs_1_2.gog": (3, 217, 2, 105, 4),
}


@pytest.mark.parametrize("config", LAW_CONFIGS)
def test_higgins_language_certificates(config):
    # the structure the combination theorems build: the Higgins language at
    # the root certifies bounded in both modes, with these K and pair counts
    from higgins.cascade import Pi1Backend
    system = shipped_system(config)
    root = system.tree.root
    K_async, pairs4, K_sync3, pairs3, K_sync4 = HIGGINS_CERTIFICATES[config]
    got = []
    for mode, R in (("async", 4), ("sync", 3), ("sync", 4)):
        cert = certify_automatic(system.higgins_automaton(("group", root)),
                                 Pi1Backend(system, root), R, mode)
        got.append((cert.K_observed, cert.pairs_tested, cert.bounded))
    assert got == [(K_async, pairs4, True), (K_sync3, pairs3, True), (K_sync4, pairs4, True)]


@pytest.mark.parametrize("config", LAW_CONFIGS)
def test_law_config_automata_equal_the_subset_construction(config, monkeypatch):
    # every component language with a rebuilt counterpart, the Higgins
    # automaton, built at every base, and the concatenation structure of every
    # abelian edge context, state for state
    system = shipped_system(config)
    gog = system.gog
    for v in sorted(gog.graph.vertices):
        backend = gog.backend(v)
        assert backend.canonical_language == canonical_by_subsets(backend)
    edges = [gog.graph.edges[name] for name in sorted(gog.graph.edges)]
    for e in edges:
        want = coset_language_by_subsets(gog.ctx(e))
        assert want is None or gog.ctx(e).coset_language == want
    for base in [("group", v) for v in sorted(gog.graph.vertices)] + [("coset", e) for e in edges]:
        assert system.higgins_automaton(base) == higgins_by_subsets(system, base), base
    # the structure is an automaton where every subgroup generator is a letter
    abelian = [gog.ctx(e) for e in edges if isinstance(gog.ctx(e), AbelianSubgroup)
               and all(len(gw) == 1 for gw in gog.ctx(e).gen_words)]
    got = [concat_structure(ctx.presentation.coset_language, CosetSystem(ctx))[0]
           for ctx in abelian]
    assert all(isinstance(lang, Dfa) for lang in got)
    monkeypatch.setattr(higgins.certify, "dfa_concat", concat_by_subsets)
    for ctx, lang in zip(abelian, got):
        assert lang == concat_structure(ctx.presentation.coset_language, CosetSystem(ctx))[0]

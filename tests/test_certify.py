
import os
import random
import subprocess
import sys

import pytest

from builders import trefoil_gog, zz_gog
from higgins.backends import (
    abelian_backend, abelian_subgroup, free_backend, trivial_subgroup,
)
from higgins.certify import (
    BALL_MARGIN, CayleyBall, HypothesisViolation, async_fellow_distance, cayley_ball,
    certify_automatic, certify_coset_system, combination_hypotheses_report,
    detour_padded_language,
    concat_structure, geodesic_coset_filter, sync_fellow_distance,
)
from higgins.config import load_config
from higgins.cosets import CosetSystem
from higgins.fsa import LazyLanguage, enumerate_language, word_set_dfa
from higgins.gog import DirectedGraph, GraphOfGroups
from higgins.words import Word, all_words


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
Z2 = abelian_backend(2)
AXIS = abelian_subgroup(Z2, [Z2.alphabet.word("x1")])


def config_path(name):
    return os.path.join(ROOT, "configs", name)


def w2(text):
    return Z2.alphabet.word(text)


def test_ball_sizes():
    assert len(cayley_ball(Z2, 2)) == 13
    assert len(cayley_ball(free_backend(2), 2)) == 17
    assert len(cayley_ball(Z2, 0)) == 1


def test_ball_distance_exact():
    ball = cayley_ball(Z2, 4)
    i = ball.index(w2("x1 x2"))
    j = ball.index(w2("x2 x1"))
    assert ball.distance(i, j) == 0  # same element
    k = ball.index(w2("x1"))
    assert ball.distance(i, k) == 1
    assert ball.distance(ball.index(w2("")), i) == 2


def test_sync_distance_examples():
    ball = cayley_ball(Z2, 6)
    e = w2("")
    assert sync_fellow_distance(w2("x1 x2"), e, w2("x1 x2"), ball) == 0
    assert sync_fellow_distance(w2("x1 x2"), e, w2("x2 x1"), ball) == 2
    assert sync_fellow_distance(w2("x1 x1 x1 x1"), e, e, ball) == 4


def test_async_distance_examples():
    ball = cayley_ball(Z2, 6)
    e = w2("")
    assert async_fellow_distance(w2("x1 x2"), e, w2("x1 x2"), ball) == 0
    assert async_fellow_distance(w2("x1 x2"), e, w2("x2 x1"), ball) == 1


def brute_async(w1, h, w2w, ball):
    """Minimum over all monotone staircases of the maximum distance."""
    from higgins.certify import _prefix_indices
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
    ball = cayley_ball(Z2, 9)
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
    G = abelian_backend(2)
    H = abelian_subgroup(G, [G.alphabet.word("x1"), G.alphabet.word("x2")])
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
            if len(w) == AXIS.min_coset_length(w)]
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

    half = LazyLanguage(alpha, member, name="even-only")
    with pytest.raises(HypothesisViolation):
        geodesic_coset_filter(CosetSystem(AXIS, half), radius=3)


def test_certify_automatic_free_shortlex():
    F = free_backend(2)
    cert = certify_automatic(F.canonical_language, F, radius=5)
    assert cert.bounded and cert.K_observed <= 2


def test_certify_automatic_singleton():
    F = free_backend(1)
    lang = word_set_dfa([F.alphabet.empty()], F.alphabet)
    cert = certify_automatic(lang, F, radius=4)
    assert cert.bounded and cert.K_observed == 0


def test_concat_structure_trivial_subgroup():
    T = trivial_subgroup(Z2)
    L_H = word_set_dfa([T.gen_alphabet.empty()], T.gen_alphabet)
    lang = concat_structure(L_H, CosetSystem(T))
    got = [w.letters for w in enumerate_language(lang, 4)]
    want = [w.letters for w in enumerate_language(Z2.canonical_language, 4)]
    assert got == want


def test_concat_structure_whole_group():
    G = abelian_backend(2)
    H = abelian_subgroup(G, [G.alphabet.word("x1"), G.alphabet.word("x2")])
    L_H = H.parent.canonical_language  # subgroup letters are x1, x2 themselves
    # relabel: the subgroup generator alphabet is y1, y2; use its own shortlex
    sub = abelian_backend(2, names=["y1", "y2"])
    lang = concat_structure(sub.canonical_language, CosetSystem(H))
    got = [w.letters for w in enumerate_language(lang, 3)]
    want = [w.letters for w in enumerate_language(G.canonical_language, 3)]
    assert got == want


def test_concat_structure_axis():
    sub = abelian_backend(1, names=["y1"])
    lang = concat_structure(sub.canonical_language, CosetSystem(AXIS))
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
    G = abelian_backend(2)
    H = abelian_subgroup(G, [G.alphabet.word("x1 x2")])
    sub = abelian_backend(1, names=["y1"])
    lang, oracle = concat_structure(sub.canonical_language, CosetSystem(H))
    assert "y1" in lang.alphabet.names
    words = enumerate_language(lang, 2)
    keys = {oracle.key(w) for w in words}
    # every element of the radius-2 ball over the original alphabet is covered
    # by some concatenation word (possibly longer); spot-check coverage
    assert oracle.key(lang.alphabet.word("y1")) == G.key(G.alphabet.word("x1 x2"))
    cert = certify_automatic(lang, oracle, radius=4)
    assert cert.bounded


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
    A = abelian_backend(1, names=["a"])
    B = abelian_backend(1, names=["b"])
    graph = DirectedGraph()
    graph.add_vertex("va")
    graph.add_vertex("vb")
    graph.add_edge_pair("e", "vb", "va")
    ctx_e = abelian_subgroup(A, [A.alphabet.word("a a"), A.alphabet.word("a a a")])
    ctx_er = abelian_subgroup(B, [B.alphabet.word("b")])
    gog = GraphOfGroups(
        graph, {"va": A, "vb": B},
        {"e": ctx_e, "e~": ctx_er},
        {
            "e": [ctx_er.gen_alphabet.word("y1 y1"), ctx_er.gen_alphabet.word("y1 y1 y1")],
            "e~": [ctx_e.gen_alphabet.word("y2 y1^-1")],
        },
    )
    assert gog.validate() == []
    report = combination_hypotheses_report(gog, radius=3, mu_max=3)
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


@pytest.mark.parametrize("name", ["z2", "f2", "hnn"])
def test_lazy_ball_equals_complete_ball(name):
    if name == "z2":
        oracle, cap = abelian_backend(2), 6
    elif name == "f2":
        oracle, cap = free_backend(2), 5
    else:
        from higgins.cascade import Pi1Backend
        oracle, cap = Pi1Backend(load_config(config_path("hnn_z2.gog")).system()), 4
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
    assert ball.radius <= 3 and len(ball.words) < 100


class CountingOracle:
    def __init__(self, oracle):
        self.oracle = oracle
        self.alphabet = oracle.alphabet
        self.key_calls = 0

    def key(self, w):
        self.key_calls += 1
        return self.oracle.key(w)


def test_escaped_pair_is_keyed_once():
    oracle = CountingOracle(free_backend(2))
    ball = CayleyBall(oracle, 1)
    i, j = ball.index(oracle.alphabet.word("a")), ball.index(oracle.alphabet.word("a^-1"))
    before = oracle.key_calls
    assert [ball.distance(i, j) for _ in range(5)] == [None] * 5  # d = 2 escapes radius 1
    assert oracle.key_calls - before == 1


def test_higgins_lazy_language_agrees_with_its_dfa():
    from builders import trefoil_system
    from higgins.cascade import Pi1EdgeSubgroup
    from higgins.words import all_words
    system = trefoil_system()
    e0 = system.gog.graph.edges["e"]
    lang = Pi1EdgeSubgroup(system, e0).coset_language
    assert lang.dfa is not None
    for w in all_words(system.alphabet, 4):
        assert lang.membership(w) == lang.dfa.accepts(w)


def test_hypotheses_report_sync_rows():
    report = combination_hypotheses_report(zz_gog(), radius=3, sync=True)
    names = [n for n, _ok, _d in report.rows]
    assert any(n.startswith("sync-language") for n in names)
    assert report.passed, str(report)

"""The trefoil backend's key against the braid action, and the trefoil coset
context: its coset label and split against the orbit scan, its junction
product against a full push, its pruned coset-graph search against an
unpruned element search, how far that search grows, and its per-(u, g) split
against subgroup coordinates and breadth-first subgroup lengths."""

import random

import pytest

import higgins.cosets as cosets
from oracles import (
    SearchedWordMetric, _zz_mul, all_words, trefoil_coords, trefoil_orbit_label, trefoil_xy_key,
)
from higgins.cascade import Pi1System
from higgins.cosets import (
    CosetSystem, VerifierError, WordMetric, check_limited_crossover,
    check_maximal_crossover,
)
from higgins.experiments import (
    X_BAR, X_BAR_INV, TrefoilCentralizerContext, TrefoilXYBackend, _mul, _syl_len,
    orbit_label, orbit_split, run_trefoil_experiment,
)
from higgins.fsa import enumerate_language
from higgins.words import Alphabet, Word, invert, shortlex_key


def reduced_forms(max_syllables):
    """Every reduced Z/2 * Z/3 syllable form with at most max_syllables syllables."""
    forms, frontier = [()], [()]
    for _ in range(max_syllables):
        frontier = [f + (syl,) for f in frontier
                    for syl in (("a", 1), ("b", 1), ("b", 2))
                    if not f or f[-1][0] != syl[0]]
        forms += frontier
    return forms


def xbar_power(k):
    return X_BAR * k if k >= 0 else X_BAR_INV * -k


def test_key_agrees_with_the_braid_action():
    # v is random, or u with the relator x y x y^-1 x^-1 y^-1 inserted (the
    # same element), or u with d^±1 inserted (same form in Z/2 * Z/3, another
    # element): keys agree exactly when the braid action agrees
    G = TrefoilXYBackend()
    alpha = G.alphabet
    relator, d = alpha.word("x y x y^-1 x^-1 y^-1"), alpha.word("x y x x y x")
    rng = random.Random(20)

    def random_word():
        return Word(alpha, tuple(rng.randrange(len(alpha)) for _ in range(rng.randint(0, 8))))
    equal = 0
    for _ in range(1500):
        u = random_word()
        kind = rng.randrange(3)
        if kind == 0:
            v = random_word()
        else:
            r = relator if kind == 1 else d
            r = r if rng.randrange(2) else invert(r)
            i = rng.randint(0, len(u))
            v = Word(alpha, u.letters[:i] + r.letters + u.letters[i:])
        same = trefoil_xy_key(u) == trefoil_xy_key(v)
        assert (G.key(u) == G.key(v)) == same, (str(u), str(v))
        equal += same
    assert 400 < equal < 700


def test_experiment_builds_no_amalgam_system(monkeypatch):
    def no_system(*args):
        raise AssertionError("a Pi1System was built")
    monkeypatch.setattr(Pi1System, "__init__", no_system)
    ctx = TrefoilCentralizerContext()
    run_trefoil_experiment(3, 2, context=ctx)
    assert ctx.parent.key(ctx.gen_words[1]) == ((), 6)


def test_label_matches_orbit_scan_on_every_short_form():
    forms = reduced_forms(14)
    assert len(forms) == 890
    for s in forms:
        assert orbit_label(s) == trefoil_orbit_label(s), s


def test_split_gives_the_form_back():
    for s in reduced_forms(14):
        label, k = orbit_split(s)
        assert label == trefoil_orbit_label(s), s
        assert _mul(xbar_power(k), label)[0] == s, (s, k)


def test_junction_product_equals_the_full_push():
    forms = reduced_forms(9)
    rng = random.Random(17)
    pairs = [(rng.choice(forms), rng.choice(forms)) for _ in range(3000)]
    pairs += [(s, t) for s in forms[:40] for t in forms[:40]]
    for s, t in pairs:
        st, delta = _mul(s, t)
        assert st == _zz_mul(s, t), (s, t)
        assert delta == _syl_len(st) - _syl_len(s) - _syl_len(t), (s, t)


def test_label_matches_orbit_scan_on_random_words():
    ctx = TrefoilCentralizerContext()
    alpha = ctx.parent.alphabet
    rng = random.Random(11)
    for _ in range(2000):
        w = Word(alpha, tuple(rng.randrange(len(alpha)) for _ in range(rng.randint(0, 30))))
        s = ctx.parent.syllables(w)
        assert orbit_label(s) == trefoil_orbit_label(s), str(w)


def test_search_matches_unpruned_element_search():
    # group every word of length <= 6 by its coset; the search must pick the
    # shortlex-least word of each group
    ctx = TrefoilCentralizerContext()
    labelled = [(w, trefoil_orbit_label(ctx.parent.syllables(w)))
                for w in all_words(ctx.parent.alphabet, 6)]
    least = {}
    for w, label in labelled:  # shortlex order: a group's first word is its least
        least.setdefault(label, w)
    assert ctx.representatives(6) == sorted(least.values(), key=shortlex_key)
    for w, label in labelled:
        assert ctx.coset_rep(w) == least[label], str(w)


def test_search_entries_carry_their_words():
    # each stored representative is x̄^k label; the frontier carries each
    # word's form, syllable length and exponent sum.  The cap binds here: at
    # depth 6, cap 12 keeps 55 labels and cap 14 keeps 86
    ctx = TrefoilCentralizerContext(syllable_cap=12)
    ctx.ensure_depth(6)
    assert len(ctx._reps) == 55
    for label, (rep, k, e) in ctx._reps.items():
        assert _mul(xbar_power(k), label)[0] == ctx.parent.syllables(rep), str(rep)
        assert e == ctx.parent.exponent_sum(rep), str(rep)
    assert ctx._frontier
    for s, n, e, word in ctx._frontier:
        assert (s, n, e) == (ctx.parent.syllables(word), _syl_len(s), ctx.parent.exponent_sum(word))


def test_experiment_grows_a_small_search():
    # the r=3, lambda=2 sweep needs depth 5 and 64 labels; growing to len(w)
    # for every u g product reached depth 11 and 400 labels
    ctx = TrefoilCentralizerContext(syllable_cap=3 * (3 + 2) + 4)
    run_trefoil_experiment(3, 2, context=ctx)
    assert ctx._depth <= 6 and len(ctx._reps) < 100


def test_syllable_cap_too_small_is_a_verifier_error():
    ctx = TrefoilCentralizerContext(syllable_cap=1)
    with pytest.raises(VerifierError, match="raise syllable_cap"):
        ctx.coset_rep(ctx.parent.alphabet.word("y"))


def seeded_words(ctx, count, max_len, seed):
    alpha = ctx.parent.alphabet
    rng = random.Random(seed)
    return [Word(alpha, tuple(rng.randrange(len(alpha)) for _ in range(rng.randint(0, max_len))))
            for _ in range(count)]


def test_coordinates_give_the_breadth_first_length():
    ctx = TrefoilCentralizerContext()
    bfs = SearchedWordMetric(ctx.parent, ctx.gen_words, key=trefoil_xy_key)
    for w in seeded_words(ctx, 600, 8, 5):
        h = w * invert(ctx.coset_rep(w))
        m, n = trefoil_coords(h)
        assert abs(m) + abs(n) == bfs.length(h, 40), str(h)


def test_coordinates_exist_exactly_on_the_subgroup():
    ctx = TrefoilCentralizerContext()
    words = seeded_words(ctx, 600, 10, 6)
    words += [w * invert(ctx.coset_rep(w)) for w in words[:100]]
    members = 0
    for w in words:
        assert (trefoil_coords(w) is not None) == ctx.membership(w), str(w)
        members += ctx.membership(w)
    assert 100 <= members < len(words)


def test_coordinates_round_trip_on_the_basis():
    ctx = TrefoilCentralizerContext()
    alpha = ctx.parent.alphabet
    x, d = ctx.gen_words
    for m in range(-5, 6):
        xm = Word(alpha, (x if m > 0 else invert(x)).letters * abs(m))
        for n in range(-5, 6):
            dn = Word(alpha, (d if n > 0 else invert(d)).letters * abs(n))
            assert trefoil_coords(xm * dn) == (m, n)
            assert trefoil_coords(dn * xm) == (m, n)


def test_coordinate_balls_equal_the_step_search():
    ctx = TrefoilCentralizerContext()
    xd = Alphabet(["x", "d"])
    got = WordMetric(ctx.parent, ctx.gen_words, xd)
    want = SearchedWordMetric(ctx.parent, ctx.gen_words, xd, key=trefoil_xy_key)
    for lam in range(5):
        assert got.elements_within(lam) == want.elements_within(lam)
    words = seeded_words(ctx, 200, 8, 9)
    words += [w * invert(ctx.coset_rep(w)) for w in words[:100]]
    for i, w in enumerate(words):
        assert got.length(w, i % 12) == want.length(w, i % 12), str(w)


@pytest.mark.parametrize("check", [check_limited_crossover, check_maximal_crossover])
def test_crossover_from_coordinates_equals_the_search(check):
    ctx = TrefoilCentralizerContext()
    sys = CosetSystem(ctx)
    searched = [check(sys, Y=ctx.gen_words, lam=lam, radius=3) for lam in (1, 2)]
    for lam, want in zip((1, 2), searched):
        got = check(sys, lam=lam, radius=3)
        assert got.lines() == want.lines() and got.swept == want.swept


@pytest.mark.parametrize("check", [check_limited_crossover, check_maximal_crossover])
def test_split_with_a_given_z_equals_the_search(check):
    ctx = TrefoilCentralizerContext()
    sys = CosetSystem(ctx)
    Z = [ctx.parent.alphabet.word("x x"), ctx.gen_words[1]]
    for lam in (1, 2):
        want = check(sys, Y=ctx.gen_words, Z=Z, lam=lam, radius=2)
        got = check(sys, Z=Z, lam=lam, radius=2)
        assert got.lines() == want.lines() and got.swept == want.swept


def swept_pairs(ctx, radius, lam):
    """Every (u, g) of a crossover sweep at (radius, lam), Y and Z at {x, d}."""
    gs = WordMetric(ctx.parent, ctx.gen_words).elements_within(lam)
    return [(u, g) for u in enumerate_language(ctx.coset_language, radius) for g, _d, _y in gs]


def test_split_equals_the_search_from_scratch():
    # g up to length 4 covers the limited sweeps at r <= 4, lambda <= 3 and
    # the maximal ones at r <= 4
    ctx, scratch = TrefoilCentralizerContext(), TrefoilCentralizerContext()
    bfs = SearchedWordMetric(scratch.parent, scratch.gen_words, key=trefoil_xy_key)
    pairs = swept_pairs(ctx, 4, 4)
    assert len(pairs) == 32 * 41
    split = ctx.coset_splitter()
    for u, g in pairs:
        product = u * g
        v = scratch.coset_rep(product)
        h = product * invert(v)
        got = split(u, g)
        assert got == (v, trefoil_coords(h)), (str(u), str(g))
        m, n = got[1]
        assert abs(m) + abs(n) == bfs.length(h, 40), str(h)


def test_split_grows_the_search_on_a_label_miss():
    ctx = TrefoilCentralizerContext()
    alpha = ctx.parent.alphabet
    u, g = alpha.word("y x y^-1 x y"), alpha.word("x x")
    assert ctx.coset_splitter()(u, g)[0] == TrefoilCentralizerContext().coset_rep(u * g)
    small = TrefoilCentralizerContext(syllable_cap=1)
    with pytest.raises(VerifierError, match="raise syllable_cap"):
        small.coset_splitter()(alpha.word("y"), alpha.empty())


def test_split_checks_the_exponent_sum():
    ctx = TrefoilCentralizerContext()
    alpha = ctx.parent.alphabet
    u, g = alpha.word("y"), alpha.word("x")
    split = ctx.coset_splitter()
    v, _coords = split(u, g)
    label = orbit_label(ctx.parent.syllables(v))
    rep, k, e = ctx._reps[label]
    ctx._reps[label] = (rep, k, e + 1)
    with pytest.raises(VerifierError, match="mod 6"):
        split(u, g)


def test_split_keeps_the_length_cap(monkeypatch):
    monkeypatch.setattr(cosets, "LENGTH_CAP_PER_STEP", 0)
    monkeypatch.setattr(cosets, "LENGTH_CAP_MARGIN", 0)
    sys = CosetSystem(TrefoilCentralizerContext())
    with pytest.raises(VerifierError, match=r"u g v\^-1 = .* within length 0"):
        check_limited_crossover(sys, lam=1, radius=2)

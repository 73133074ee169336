"""The trefoil coset context: its O(n) coset label against the orbit scan,
its pruned coset-graph search against an unpruned element search, how far
that search grows, and its subgroup coordinates against breadth-first
subgroup lengths."""

import random

import pytest

from oracles import trefoil_orbit_label
from higgins.cosets import (
    CosetSystem, VerifierError, WordMetric, check_limited_crossover,
    check_maximal_crossover,
)
from higgins.experiments import (
    TrefoilCentralizerContext, orbit_label, run_trefoil_experiment,
)
from higgins.words import Word, all_words, invert, shortlex_key


def reduced_forms(max_syllables):
    """Every reduced Z/2 * Z/3 syllable form with at most max_syllables syllables."""
    forms, frontier = [()], [()]
    for _ in range(max_syllables):
        frontier = [f + (syl,) for f in frontier
                    for syl in (("a", 1), ("b", 1), ("b", 2))
                    if not f or f[-1][0] != syl[0]]
        forms += frontier
    return forms


def test_label_matches_orbit_scan_on_every_short_form():
    forms = reduced_forms(14)
    assert len(forms) == 890
    for s in forms:
        assert orbit_label(s) == trefoil_orbit_label(s), s


def test_label_matches_orbit_scan_on_random_words():
    ctx = TrefoilCentralizerContext()
    alpha = ctx.parent.alphabet
    rng = random.Random(11)
    for _ in range(2000):
        w = Word(alpha, tuple(rng.randrange(len(alpha)) for _ in range(rng.randint(0, 30))))
        s = ctx.syllables(w)
        assert orbit_label(s) == trefoil_orbit_label(s), str(w)


def test_search_matches_unpruned_element_search():
    # group every word of length <= 6 by its coset; the search must pick the
    # shortlex-least word of each group
    ctx = TrefoilCentralizerContext()
    labelled = [(w, trefoil_orbit_label(ctx.syllables(w)))
                for w in all_words(ctx.parent.alphabet, 6)]
    least = {}
    for w, label in labelled:  # shortlex order: a group's first word is its least
        least.setdefault(label, w)
    assert ctx.representatives(6) == sorted(least.values(), key=shortlex_key)
    for w, label in labelled:
        assert ctx.coset_rep(w) == least[label], str(w)


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
    bfs = WordMetric(ctx.parent, ctx.gen_words)
    for w in seeded_words(ctx, 600, 8, 5):
        h = w * invert(ctx.coset_rep(w))
        m, n = ctx.y_coords(h)
        assert abs(m) + abs(n) == bfs.length(h, 40), str(h)


def test_coordinates_exist_exactly_on_the_subgroup():
    ctx = TrefoilCentralizerContext()
    words = seeded_words(ctx, 600, 10, 6)
    words += [w * invert(ctx.coset_rep(w)) for w in words[:100]]
    members = 0
    for w in words:
        assert (ctx.y_coords(w) is not None) == ctx.membership(w), str(w)
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
            assert ctx.y_coords(xm * dn) == (m, n)
            assert ctx.y_coords(dn * xm) == (m, n)


def test_coordinate_keys_leave_the_search_unchanged():
    ctx = TrefoilCentralizerContext()
    by_key = WordMetric(ctx.parent, ctx.gen_words)
    by_coords = WordMetric(ctx.parent, ctx.gen_words, coords=ctx.y_coords)
    for lam in range(4):
        assert by_coords.elements_within(lam) == by_key.elements_within(lam)


@pytest.mark.parametrize("check", [check_limited_crossover, check_maximal_crossover])
def test_crossover_from_coordinates_equals_the_search(monkeypatch, check):
    ctx = TrefoilCentralizerContext()
    sys = CosetSystem(ctx)
    searched = [check(sys, Y=ctx.gen_words, lam=lam, radius=3) for lam in (1, 2)]

    def no_key(w):
        raise AssertionError("the crossover sweep keyed a word")
    monkeypatch.setattr(ctx.parent, "key", no_key)
    for lam, want in zip((1, 2), searched):
        got = check(sys, lam=lam, radius=3)
        assert got.lines() == want.lines() and got.swept == want.swept

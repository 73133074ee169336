"""The trefoil coset context: its O(n) coset label against the orbit scan,
its pruned coset-graph search against an unpruned element search, and how far
that search grows."""

import random

import pytest

from oracles import trefoil_orbit_label
from higgins.cosets import VerifierError
from higgins.experiments import (
    TrefoilCentralizerContext, orbit_label, run_trefoil_experiment,
)
from higgins.words import Word, all_words, shortlex_key


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


import random

import pytest

from higgins.fsa import (
    Dfa, DfaFormatError, LazyLanguage, complement, concat, dfa_from_text,
    dfa_to_text, enumerate_language, intersect, minimize, union, word_set_dfa,
)
from higgins.words import Alphabet, Word
from oracles import (
    all_words, complement_by_subsets, concat_by_subsets, enumerator_by_filter, intersect_by_subsets,
    union_by_subsets, word_set_by_subsets,
)

AB = Alphabet(["a", "b"])
AS = Alphabet(["a", "s"], self_inverse=["s"])


def words(*texts):
    return [AB.word(t) for t in texts]


def enum_set(lang, n):
    return {w.letters for w in enumerate_language(lang, n)}


def brute_set(dfa, n):
    return {w.letters for w in all_words(dfa.alphabet, n) if dfa.accepts(w)}


def random_dfa(rng, alphabet=AB, max_states=5):
    n = rng.randint(1, max_states)
    transitions = {}
    for s in range(n):
        for a in range(len(alphabet)):
            if rng.random() < 0.8:
                transitions[(s, a)] = rng.randrange(n)
    accepting = {s for s in range(n) if rng.random() < 0.4}
    return Dfa(alphabet, n, 0, accepting, transitions, "rand")


def test_concat_example():
    a = word_set_dfa(words("a"), AB)
    b = word_set_dfa(words("b", "b b"), AB)
    c = concat(a, b)
    assert enum_set(c, 4) == {w.letters for w in words("a b", "a b b")}


def test_complement_involution():
    rng = random.Random(7)
    for _ in range(10):
        d = random_dfa(rng)
        assert enum_set(complement(complement(d)), 8) == enum_set(d, 8)


def test_intersect_with_universal():
    rng = random.Random(8)
    for _ in range(10):
        d = random_dfa(rng)
        universal = Dfa(AB, 1, 0, {0}, {(0, a): 0 for a in range(len(AB))}, "universal")
        assert enum_set(intersect(d, universal), 8) == enum_set(d, 8)


def test_boolean_ops_agree_with_enumeration():
    rng = random.Random(9)
    for _ in range(50):
        d1, d2 = random_dfa(rng), random_dfa(rng)
        s1, s2 = enum_set(d1, 6), enum_set(d2, 6)
        assert enum_set(intersect(d1, d2), 6) == s1 & s2
        assert enum_set(union(d1, d2), 6) == s1 | s2
        full = {w.letters for w in all_words(AB, 6)}
        assert enum_set(complement(d1), 6) == full - s1


def test_constructions_equal_the_subset_construction():
    # state for state, not only as languages: seeded pairs over a free and a
    # partly self-inverse alphabet, each automaton with a random start state
    rng = random.Random(25)
    for i in range(300):
        alphabet = (AB, AS)[i % 2]
        d1, d2 = random_dfa(rng, alphabet), random_dfa(rng, alphabet)
        d1.start, d2.start = rng.randrange(d1.n_states), rng.randrange(d2.n_states)
        assert concat(d1, d2) == concat_by_subsets(d1, d2)
        assert union(d1, d2) == union_by_subsets(d1, d2)
        assert intersect(d1, d2) == intersect_by_subsets(d1, d2)
        assert complement(d1) == complement_by_subsets(d1)
        m = len(alphabet)
        ws = [Word(alphabet, tuple(rng.randrange(m) for _ in range(rng.randrange(5))))
              for _ in range(rng.randrange(6))]
        assert word_set_dfa(ws, alphabet) == word_set_by_subsets(ws, alphabet)


def test_minimize_idempotent_and_language_preserving():
    rng = random.Random(10)
    for _ in range(50):
        d = random_dfa(rng)
        m1 = minimize(d)
        m2 = minimize(m1)
        assert m1.n_states == m2.n_states
        assert m1.transitions == m2.transitions and m1.accepting == m2.accepting
        assert enum_set(m1, 7) == enum_set(d, 7)


def test_enumerate_examples():
    star = Dfa(Alphabet(["x"]), 1, 0, {0}, {(0, 0): 0}, "xstar")
    got = enumerate_language(star, 2)
    assert [str(w) for w in got] == ["ε", "x", "x x"]
    assert enumerate_language(Dfa(AB, 1, 0, frozenset(), {}, "empty"), 5) == []


def test_enumerate_matches_acceptance():
    rng = random.Random(11)
    for _ in range(20):
        d = random_dfa(rng)
        assert enum_set(d, 6) == brute_set(d, 6)
        got = enumerate_language(d, 6)
        keys = [(len(w), w.letters) for w in got]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert [w.letters for w in got] == sorted(brute_set(d, 6), key=lambda t: (len(t), t))


def test_enumerate_accepting_states_beyond_max_len():
    # a chain to the one accepting state, with a loop on the way: live
    # prefixes exist at every level, yet none is accepted within max_len
    chain = Dfa(AB, 4, 0, {3}, {(0, 0): 1, (1, 0): 2, (1, 2): 1, (2, 0): 3}, "chain")
    assert enumerate_language(chain, 2) == []
    assert [str(w) for w in enumerate_language(chain, 3)] == ["a a a"]
    assert [str(w) for w in enumerate_language(chain, 5)] == [
        "a a a", "a b a a", "a b b a a"]


def test_lazy_language_enumeration():
    def even(w):
        return len(w) % 2 == 0
    lang = LazyLanguage(AB, enumerator_by_filter(AB, even))
    got = enumerate_language(lang, 3)
    assert all(len(w) % 2 == 0 for w in got)
    assert len(got) == 1 + 16


# --- text format ------------------------------------------------------------

def test_dfa_text_roundtrip():
    d = minimize(word_set_dfa(words("a", "a b", "b b"), AB))
    text = dfa_to_text(d)
    back = dfa_from_text(text)
    assert back == d
    assert dfa_to_text(minimize(back)) == text


@pytest.mark.parametrize("text, lineno, message", [
    ("dfa x\nalphabet a a^-1\nstates 2 start 0\naccept 1\naccept 0\ntrans 0 a 1\n",
     5, "second accept line"),
    ("dfa x\ndfa y\nalphabet a a^-1\nstates 1 start 0\naccept 0\n", 2, "second dfa line"),
    ("dfa x\nalphabet a a^-1\nalphabet b b^-1\nstates 1 start 0\naccept 0\n",
     3, "second alphabet line"),
    ("dfa x\nalphabet a a^-1\nstates 2 start 0\nstates 1 start 0\naccept 0\n",
     4, "second states line"),
    ("dfa x\nalphabet a a^-1\ntrans 0 a 1\nstates 1 start 0\naccept 0\n",
     3, "state out of range in trans 0 a 1"),
    ("dfa x\nalphabet a a^-1\nstates 1 start 0\naccept 0\ntrans 0 zz 0\n",
     5, "unknown letter 'zz'"),
    ("dfa x\nalphabet a a^-1\nstates 1 start 0\naccept 3\n", 4, "accept line: state out of range"),
    ("dfa x\nalphabet a a\nstates 1 start 0\naccept 0\n", 2, "duplicate generator name: 'a'"),
    ("dfa x\nstates 1 start 0\nalphabet a^-1\naccept 0\n", 3, "bad generator name: 'a\\^-1'"),
])
def test_dfa_text_errors_name_their_line(text, lineno, message):
    # a repeated header used to replace the first one silently, and range
    # and letter errors used to name no line of the file
    with pytest.raises(DfaFormatError, match=message) as err:
        dfa_from_text(text)
    assert err.value.lineno == lineno


def test_dfa_text_errors():
    with pytest.raises(DfaFormatError):
        dfa_from_text("dfa x\nalphabet a a^-1\nstates 1 begin 0\naccept 0\n")
    with pytest.raises(DfaFormatError):
        dfa_from_text("dfa x\n")
    with pytest.raises(DfaFormatError):
        dfa_from_text("dfa x\nalphabet a a^-1\nstates 1 start 0\naccept 3\n")

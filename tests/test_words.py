import pytest
from hypothesis import given, strategies as st

from higgins.words import (
    Alphabet, AlphabetError, Word, WordMap, free_reduce, invert, shortlex_cmp,
)
from oracles import all_words, prefix

XY = Alphabet(["x", "y"])
ST = Alphabet(["s", "t"], self_inverse=["t"])


def w(text):
    return XY.word(text)


def random_words(alphabet=XY, max_len=10):
    return st.lists(
        st.integers(min_value=0, max_value=len(alphabet) - 1), max_size=max_len
    ).map(lambda ls: Word(alphabet, tuple(ls)))


def test_alphabet_layout():
    assert XY.names == ("x", "x^-1", "y", "y^-1")
    assert XY.inv == (1, 0, 3, 2)
    assert ST.names == ("s", "s^-1", "t")
    assert ST.inv == (1, 0, 2)


def test_alphabet_rejects_bad_names():
    with pytest.raises(AlphabetError):
        Alphabet(["a a"])
    with pytest.raises(AlphabetError):
        Alphabet(["a", "a"])
    with pytest.raises(AlphabetError):
        Alphabet(["a"], self_inverse=["b"])


def test_word_parse_and_str():
    assert str(w("x y^-1")) == "x y^-1"
    assert str(w("")) == "ε"
    assert XY.word("ε") == XY.empty()
    with pytest.raises(AlphabetError):
        XY.word("z")
    # the error names the first unknown token
    with pytest.raises(AlphabetError, match="unknown letter 'z'"):
        XY.word("x z w y")


def test_invert_examples():
    assert invert(w("x y")) == w("y^-1 x^-1")
    assert invert(w("")) == w("")
    assert invert(w("x x")) == w("x^-1 x^-1")


def test_invert_self_inverse_letter():
    word = ST.word("s t")
    assert invert(word) == ST.word("t s^-1")


def test_free_reduce_examples():
    assert free_reduce(w("x x^-1 y")) == w("y")
    assert free_reduce(w("")) == w("")
    assert free_reduce(w("x y y^-1 x^-1")) == w("")


def test_free_reduce_self_inverse():
    assert free_reduce(ST.word("t t")) == ST.word("")
    assert free_reduce(ST.word("s t t s^-1")) == ST.word("")


def test_shortlex_examples():
    assert shortlex_cmp(w("x"), w("y")) == -1
    assert shortlex_cmp(w("x y"), w("x")) == 1
    assert shortlex_cmp(w("x y"), w("x x")) == 1
    assert shortlex_cmp(w("x y"), w("x y")) == 0


def test_prefix_examples():
    z = Alphabet(["x", "y", "z"])
    assert prefix(z.word("x y z"), 2) == z.word("x y")
    assert prefix(w("x y"), 5) == w("x y")
    assert prefix(w(""), 0) == w("")


@given(random_words())
def test_invert_involution(word):
    assert invert(invert(word)) == word


@given(random_words())
def test_free_reduce_idempotent_and_shortening(word):
    red = free_reduce(word)
    assert free_reduce(red) == red
    assert len(red) <= len(word)


@given(random_words())
def test_reduce_cancels_inverse(word):
    assert free_reduce(word * invert(word)) == w("")


@given(random_words(max_len=6), random_words(max_len=6), random_words(max_len=6))
def test_shortlex_total_order(a, b, c):
    # antisymmetry and transitivity on the comparison result
    assert shortlex_cmp(a, b) == -shortlex_cmp(b, a)
    if shortlex_cmp(a, b) <= 0 and shortlex_cmp(b, c) <= 0:
        assert shortlex_cmp(a, c) <= 0
    assert shortlex_cmp(w(""), a) <= 0


@given(random_words(), st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_prefix_laws(word, s, t):
    assert prefix(word, len(word)) == word
    assert prefix(prefix(word, s), t) == prefix(word, min(s, t))


def test_cross_alphabet_operations_rejected():
    with pytest.raises(AlphabetError):
        shortlex_cmp(w("x"), ST.word("s"))
    with pytest.raises(AlphabetError):
        w("x") * ST.word("s")


def test_all_words_shortlex_order():
    words = list(all_words(XY, 2))
    assert words[:5] == [w(""), w("x"), w("x^-1"), w("y"), w("y^-1")]
    assert len(words) == 1 + 4 + 16
    keys = [(len(u), u.letters) for u in words]
    assert keys == sorted(keys)


# s -> x y, t -> y^-1 y^-1 x: t is self-inverse in ST, its image is not
ST_TO_XY = WordMap(ST, [w("x y"), w("y^-1 y^-1 x")], XY)


@given(random_words(ST, 6), random_words(ST, 6))
def test_word_map_is_a_monoid_homomorphism(u, v):
    assert ST_TO_XY(u * v) == ST_TO_XY(u) * ST_TO_XY(v)
    assert ST_TO_XY(ST.empty()) == XY.empty()


def test_word_map_images():
    assert ST_TO_XY(ST.word("s")) == w("x y")
    # a non-self-inverse letter's inverse maps to the inverted image
    assert ST_TO_XY(ST.word("s^-1")) == invert(w("x y")) == w("y^-1 x^-1")
    # a self-inverse generator maps to its image as given
    assert ST_TO_XY(ST.word("t")) == w("y^-1 y^-1 x")
    assert ST_TO_XY(ST.word("s t s^-1")) == w("x y y^-1 y^-1 x y^-1 x^-1")
    assert ST_TO_XY(ST.word("s")).alphabet is XY


def test_word_map_empty_source():
    none = Alphabet([])
    m = WordMap(none, [], XY)
    assert list(all_words(none, 3)) == [none.empty()]
    assert m(none.empty()) == XY.empty()


def test_word_map_needs_one_image_per_generator():
    with pytest.raises(AlphabetError):
        WordMap(ST, [w("x")], XY)

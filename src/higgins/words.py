"""Inverse-closed generator alphabets and words over them.

Letters are interned small integers indexing into an alphabet's name table;
the involution (formal inversion) is a paired-index table, so inverting a
word is a table lookup per letter.  Everything here is immutable.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class AlphabetError(ValueError):
    pass


class Alphabet:
    """An ordered, inverse-closed set of named letters.

    The letter order (index order) is the fixed order used for shortlex.
    Generators are laid out as g, g^-1, g', g'^-1, ...; a self-inverse
    generator occupies a single slot and is its own involution image.
    """

    __slots__ = ("names", "inv", "_index", "generators")

    def __init__(self, generators: Sequence[str], self_inverse: Iterable[str] = ()):
        self_inverse = set(self_inverse)
        names: list[str] = []
        inv: list[int] = []
        for g in generators:
            if not g or " " in g or g.endswith("^-1"):
                raise AlphabetError(f"bad generator name: {g!r}")
            if g in names:
                raise AlphabetError(f"duplicate generator name: {g!r}")
            if g in self_inverse:
                names.append(g)
                inv.append(len(names) - 1)
            else:
                names.append(g)
                names.append(g + "^-1")
                inv.append(len(names) - 1)
                inv.append(len(names) - 2)
        unknown = self_inverse - set(generators)
        if unknown:
            raise AlphabetError(f"self_inverse names not among generators: {sorted(unknown)}")
        self.names = tuple(names)
        self.inv = tuple(inv)
        self._index = {n: i for i, n in enumerate(names)}
        self.generators = tuple(generators)

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return f"Alphabet({list(self.generators)})"

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names and self.inv == other.inv

    def __hash__(self):
        return hash((self.names, self.inv))

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlphabetError(f"unknown letter {name!r}") from None

    def letter(self, name: str) -> "Word":
        return Word(self, (self.index(name),))

    def empty(self) -> "Word":
        return Word(self, ())

    def word(self, text: str) -> "Word":
        """Parse whitespace-separated letter names; '' or 'ε' is the empty word."""
        text = text.strip()
        if text in ("", "ε"):
            return Word(self, ())
        try:
            return Word(self, tuple(map(self._index.__getitem__, text.split())))
        except KeyError as err:  # map stops at the first unknown token
            raise AlphabetError(f"unknown letter {err.args[0]!r}") from None


class Word:
    """An immutable word over an alphabet; letters are alphabet indices."""

    __slots__ = ("alphabet", "letters", "_hash")

    def __init__(self, alphabet: Alphabet, letters: Sequence[int] = ()):
        self.alphabet = alphabet
        self.letters = tuple(letters)
        self._hash = None

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alphabet, self.letters[i])
        return self.letters[i]

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.letters == other.letters
            and self.alphabet == other.alphabet
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.letters)
        return self._hash

    def __mul__(self, other: "Word") -> "Word":
        if other.alphabet is not self.alphabet and other.alphabet != self.alphabet:
            raise AlphabetError("concatenation across different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def __str__(self):
        if not self.letters:
            return "ε"
        return " ".join(self.alphabet.names[i] for i in self.letters)

    def __repr__(self):
        return f"<word {self}>"


def invert(w: Word) -> Word:
    """Letterwise-inverted reversal."""
    inv = w.alphabet.inv
    return Word(w.alphabet, tuple(inv[i] for i in reversed(w.letters)))


class WordMap:
    """The free-monoid homomorphism given on generators: the i-th generator
    of the source alphabet goes to images[i], its inverse letter to the
    inverted image.  A self-inverse generator maps to its image as given.

    Edge isomorphisms, subgroup inclusions and enlarged generating sets are
    all such maps; each letter's image is tabled once, so a word maps with
    one tuple join.
    """

    __slots__ = ("source", "target", "table")

    def __init__(self, source: Alphabet, images: Sequence[Word], target: Alphabet):
        if len(images) != len(source.generators):
            raise AlphabetError(
                f"{len(images)} images for {len(source.generators)} generators")
        table: list = [None] * len(source)
        for g, img in zip(source.generators, images):
            p = source.index(g)
            table[source.inv[p]] = invert(img).letters
            table[p] = img.letters
        self.source = source
        self.target = target
        self.table = tuple(table)

    def __call__(self, w: Word) -> Word:
        table = self.table
        return Word(self.target, tuple(x for y in w.letters for x in table[y]))


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    inv = w.alphabet.inv
    out: list[int] = []
    for x in w.letters:
        if out and out[-1] == inv[x]:
            out.pop()
        else:
            out.append(x)
    return Word(w.alphabet, tuple(out))


def shortlex_key(w: Word):
    return (len(w.letters), w.letters)


def shortlex_cmp(w1: Word, w2: Word) -> int:
    """-1, 0, or 1: shorter first, ties broken by the alphabet's letter order."""
    if w1.alphabet != w2.alphabet:
        raise AlphabetError("shortlex comparison across different alphabets")
    k1, k2 = shortlex_key(w1), shortlex_key(w2)
    return -1 if k1 < k2 else (0 if k1 == k2 else 1)

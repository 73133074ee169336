"""Independent oracles the package is tested against.

Each group oracle decides word problems by a route that shares nothing with
the cascade machinery: the Artin braid action on a free group for the trefoil
amalgam, syllable reduction for free products, and direct-product splitting
for the HNN of Z^2 over a central generator.  The normal-form scan is checked
against a second driver, the phase pipeline: pinch and cascade rounds over a
materialized path word, repeated to a fixed point.  Generator maps (edge
isomorphisms and subgroup inclusions) are checked against an image read off
the letter names.  The fellow-traveller sweep, which finds each h on the
Cayley graph, is checked against a sweep that builds and keys every h.  The
Cayley ball, a breadth-first search, is checked against a sort of every word
up to its radius, and a finite subgroup against a closure of its generators.
"""

import itertools

from higgins import certify
from higgins.fsa import enumerate_language
from higgins.words import Alphabet, Word, free_reduce, invert, shortlex_key


# --- normal forms by the phase pipeline ---------------------------------------

def deflate_inflated(system, iw) -> Word:
    """Working-alphabet word of an inflated word: tree stable letters dropped."""
    alphabets = system.alphabets
    letters = list(alphabets.vertex_word_to_x(iw.base_vertex, iw.u0))
    for e, u in iw.path:
        if not system.tree.contains(e):
            letters.append(alphabets.edge_to_x[e.name])
        letters.extend(alphabets.vertex_word_to_x(e.dst, u))
    return Word(system.alphabet, tuple(letters))


def pipeline_normal_form(system, w: Word, base) -> Word:
    """Higgins (coset) normal form of w, base ("group", v0) or ("coset", e0),
    by pinch_reduce and cascade rounds until the path word stops changing."""
    kind, anchor = base
    base_vertex = anchor if kind == "group" else anchor.dst
    iw = system.parse_alternating(system.alphabets.inflate(w, base_vertex), base_vertex)
    for _ in range(len(iw.path) + 3):
        iw = system.pinch_reduce(iw)
        out = system.cascade(iw, base).output
        if out == iw:
            return deflate_inflated(system, iw)
        iw = out
    raise AssertionError(f"cascade failed to reach a fixed point on {w}")


# --- the fellow sweep with every h keyed -------------------------------------

def keyed_sweep(lang, oracle, radius, mode, ball, coset_key=None):
    """(pairs, K, violations) of the coset fellow sweep, with every candidate
    h = v x w^-1 built as a word, keyed by the oracle, looked up in the ball
    and walked forward along w; pairs are told apart by (w, key of h)."""
    words = enumerate_language(lang, radius)
    group = coset_key if coset_key is not None else oracle.key
    by_coset: dict = {}
    for w in words:
        by_coset.setdefault(group(w), []).append(w)
    alphabet = oracle.alphabet
    steps = [alphabet.empty()] + [Word(alphabet, (x,)) for x in range(len(alphabet))]
    K = pairs = 0
    violations = []
    for v in words:
        seen = set()
        for x in steps:
            g = v * x
            for w in by_coset.get(group(g), ()):
                h = g * invert(w)
                hk = oracle.key(h)
                if (w.letters, hk) in seen:
                    continue
                seen.add((w.letters, hk))
                pairs += 1
                hi = ball.index_of_key(hk)
                if hi is None:
                    violations.append((v, h, w))
                    continue
                if mode == "sync":
                    d = certify.sync_fellow_distance(v, hi, w, ball)
                else:
                    d = certify.async_fellow_distance(v, hi, w, ball, K)
                if d is None:
                    violations.append((v, ball.words[hi], w))
                else:
                    K = max(K, d)
    violations.sort(key=lambda t: tuple(shortlex_key(u) for u in t))
    return pairs, K, violations


# --- balls and finite subgroups by brute force -------------------------------

def brute_ball(oracle, radius: int) -> list[Word]:
    """Every word of length <= radius grouped by the oracle's key, the
    shortlex-least word of each group, listed in shortlex order."""
    least: dict = {}
    for n in range(radius + 1):
        for letters in itertools.product(range(len(oracle.alphabet)), repeat=n):
            w = Word(oracle.alphabet, letters)
            k = oracle.key(w)
            if k not in least or shortlex_key(w) < shortlex_key(least[k]):
                least[k] = w
    return sorted(least.values(), key=shortlex_key)


def table_closure(table, gens) -> frozenset:
    """The elements of a finite group table generated by gens: the identity
    and gens, multiplied together until the set stops growing (closure under
    products alone gives a subgroup in a finite group)."""
    elts = {0, *gens}
    while True:
        more = {table[a][b] for a in elts for b in elts} - elts
        if not more:
            return frozenset(elts)
        elts |= more


# --- generator maps, letter by letter ----------------------------------------


def generator_image(source: Alphabet, images, target: Alphabet, w: Word) -> Word:
    """Image of w under the map sending the i-th generator of source to
    images[i], read off the letter names: a letter named g^-1 goes to the
    reversed, letterwise-inverted image of g, every other letter to its
    image as given."""
    out = []
    for x in w.letters:
        name = source.names[x]
        if name.endswith("^-1"):
            img = images[list(source.generators).index(name[:-3])]
            out.extend(target.inv[y] for y in reversed(img.letters))
        else:
            out.extend(images[list(source.generators).index(name)].letters)
    return Word(target, tuple(out))


# --- trefoil group via the braid action --------------------------------------
#
# sigma_i: f_i -> f_i f_{i+1} f_i^-1, f_{i+1} -> f_i, other generators fixed.
# On the rank-3 free group this is the standard faithful action of the
# three-strand braid group; it also descends to rank 2 by eliminating
# f3 = (f1 f2)^-1 (the action preserves the product f1 f2 f3), which gives a
# second formulation used for cross-validation.

F3 = Alphabet(["f1", "f2", "f3"])
F2 = Alphabet(["f1", "f2"])


def _aut(alphabet, *images):
    return tuple(free_reduce(alphabet.word(t)) for t in images)


def aut_apply(phi, w: Word) -> Word:
    alphabet = w.alphabet
    table = {}
    for i, img in enumerate(phi):
        p = alphabet.index(alphabet.generators[i])
        table[p] = img.letters
        table[alphabet.inv[p]] = tuple(alphabet.inv[x] for x in reversed(img.letters))
    out = []
    for x in w.letters:
        out.extend(table[x])
    return free_reduce(Word(alphabet, tuple(out)))


def aut_compose(phi, psi):
    """phi o psi: apply psi first."""
    return tuple(aut_apply(phi, img) for img in psi)


SIGMA1 = _aut(F3, "f1 f2 f1^-1", "f1", "f3")
SIGMA2 = _aut(F3, "f1", "f2 f3 f2^-1", "f2")
SIGMA1_INV = _aut(F3, "f2", "f2^-1 f1 f2", "f3")
SIGMA2_INV = _aut(F3, "f1", "f3", "f3^-1 f2 f3")
IDENT = _aut(F3, "f1", "f2", "f3")

# amalgam generators: a = s1 s2 s1, b = s1 s2
A_AUT = aut_compose(SIGMA1, aut_compose(SIGMA2, SIGMA1))
B_AUT = aut_compose(SIGMA1, SIGMA2)
A_INV = aut_compose(SIGMA1_INV, aut_compose(SIGMA2_INV, SIGMA1_INV))
B_INV = aut_compose(SIGMA2_INV, SIGMA1_INV)

# faithful rank-2 action: the braid generators as the Dehn twist pair on the
# once-punctured torus (the full twist then acts by conjugation by the
# boundary commutator, so the center survives)
SIGMA1_R2 = _aut(F2, "f1", "f2 f1")
SIGMA2_R2 = _aut(F2, "f1 f2^-1", "f2")
SIGMA1_R2_INV = _aut(F2, "f1", "f2 f1^-1")
SIGMA2_R2_INV = _aut(F2, "f1 f2", "f2")
A_R2 = aut_compose(SIGMA1_R2, aut_compose(SIGMA2_R2, SIGMA1_R2))
B_R2 = aut_compose(SIGMA1_R2, SIGMA2_R2)
A_R2_INV = aut_compose(SIGMA1_R2_INV, aut_compose(SIGMA2_R2_INV, SIGMA1_R2_INV))
B_R2_INV = aut_compose(SIGMA2_R2_INV, SIGMA1_R2_INV)


def trefoil_letter_table(alphabet: Alphabet, rank2=False):
    if rank2:
        auts = (A_R2, A_R2_INV, B_R2, B_R2_INV)
    else:
        auts = (A_AUT, A_INV, B_AUT, B_INV)
    return {
        alphabet.index("a"): auts[0],
        alphabet.index("a^-1"): auts[1],
        alphabet.index("b"): auts[2],
        alphabet.index("b^-1"): auts[3],
    }


def aut_identity(table):
    alphabet = next(iter(table.values()))[0].alphabet
    return tuple(alphabet.letter(g) for g in alphabet.generators)


def trefoil_aut(w: Word, table) -> tuple:
    phi = None
    for x in w.letters:
        phi = table[x] if phi is None else aut_compose(phi, table[x])
    return aut_identity(table) if phi is None else phi


def trefoil_key(w: Word, table):
    phi = trefoil_aut(w, table)
    return tuple(img.letters for img in phi)


# --- free products of cyclic groups ------------------------------------------

def syllables(w: Word, vertex_of_letter):
    """Reduce a word over a free product to its alternating syllable form.

    vertex_of_letter maps a letter index to (vertex, +1/-1).  Returns a tuple
    of (vertex, exponent) pairs with no zero exponents and no equal adjacent
    vertices.
    """
    stack = []
    for x in w.letters:
        v, s = vertex_of_letter[x]
        if stack and stack[-1][0] == v:
            e = stack[-1][1] + s
            stack.pop()
            if e != 0:
                stack.append((v, e))
        else:
            stack.append((v, s))
    return tuple(stack)


def zz_vertex_table(alphabet: Alphabet):
    return {
        alphabet.index("a"): ("a", 1),
        alphabet.index("a^-1"): ("a", -1),
        alphabet.index("b"): ("b", 1),
        alphabet.index("b^-1"): ("b", -1),
    }


# --- HNN of Z^2 over <x1>: the group is Z x F2 --------------------------------

def hnn_z2_key(w: Word):
    """Split off the central x1 exponent and freely reduce the rest."""
    alpha = w.alphabet
    x1, x1i = alpha.index("x1"), alpha.index("x1^-1")
    exp = 0
    rest = []
    for x in w.letters:
        if x == x1:
            exp += 1
        elif x == x1i:
            exp -= 1
        else:
            rest.append(x)
    reduced = free_reduce(Word(alpha, tuple(rest)))
    return (exp, reduced.letters)


# --- trefoil cosets of H = <x, d> in the central quotient Z/2 * Z/3 ----------
#
# H is the preimage of <x̄>, x̄ = b^2 a, so a coset is an orbit <x̄> s of
# reduced syllable forms s.  The label is found by brute force: multiply by
# x̄ and by x̄^-1 well past the length of s and keep the least form.

_ZZ_ORDER = {"a": 2, "b": 3}
_XBAR = (("b", 2), ("a", 1))
_XBAR_INV = (("a", 1), ("b", 1))


def _zz_mul(s, t):
    stack = list(s)
    for v, e in t:
        if stack and stack[-1][0] == v:
            e = (stack.pop()[1] + e) % _ZZ_ORDER[v]
        if e % _ZZ_ORDER[v]:
            stack.append((v, e % _ZZ_ORDER[v]))
    return tuple(stack)


def _zz_key(s):
    return (sum(1 if v == "a" else e for v, e in s), s)


def trefoil_orbit_label(s):
    """Least (syllable length, form) in the orbit <x̄> s, by a scan of
    |s| + 2 powers of x̄ in each direction."""
    best = s
    for unit in (_XBAR, _XBAR_INV):
        cur = s
        for _ in range(_zz_key(s)[0] + 2):
            cur = _zz_mul(unit, cur)
            if _zz_key(cur) < _zz_key(best):
                best = cur
    return best

"""Independent oracles the package is tested against.

Each oracle decides word problems by a route that shares nothing with the
cascade machinery: the Artin braid action on a free group for the trefoil
amalgam, syllable reduction for free products, and direct-product splitting
for the HNN of Z^2 over a central generator.
"""

from higgins.words import Alphabet, Word, free_reduce

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

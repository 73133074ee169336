"""Vertex-group backends and subgroup contexts, each behind one protocol.

A vertex backend (VertexBackend) solves the word problem of a vertex group:
key(w) is the element of the word w, element_word(e) is the canonical
(shortlex) word of the element e, and canonical_language is the explicit
language of those words.  The key is also the element the cascade scan
carries: identity(), prepend(x, e) and append(e, x) give the elements of
x*e and e*x in O(1) or O(head).  The base class reads canonical(w) and
geodesic_length(w) off the key; balls come from cosets.CayleyBall, a search
over the keys.

A subgroup context (SubgroupContext) gives split(e), the coset
decomposition g = h * rep(g) of a parent element e: the coset representative
word rep(g), in the coset language, and h over the subgroup generators.  The
base class reads coset_rep(w), membership(w) (the representative is empty),
h_express(w) (the h of a member) and coset_key(w) off split(parent.key(w)),
and a context gives its coset language, whose only identity-coset
representative is the empty word.  AbelianSubgroup and
cascade.Pi1EdgeSubgroup keep a coset_rep of their own, which skips h;
experiments.TrefoilCentralizerContext gives coset_rep and membership without
a split, as its crossover reads h off coset_splitter.

Abelian groups are handled in exponent space: the subgroup plus the torsion
relations span an integer lattice, and one Smith decomposition
U M V = diag(d) of that lattice answers every question asked of it: quotient
keys (hence membership), the relations among the generators, and the
coordinates of h.  AbelianSubgroup.split stays in that space: no word is
spelled but the representative and h.  A coset's representative is its
shortlex-least word: the collected word of per-factor residues when the
generator images are independent, and otherwise the word of the coset ball,
one CayleyBall over the parent's letters keyed by coset, whose prefix tree
also gives the coset automaton.
"""

from __future__ import annotations

import math

from collections.abc import Sequence
from functools import cached_property

from . import fsa
from .cosets import CayleyBall, WordMetric
from .fsa import Dfa, minimize, word_set_dfa
from .words import Alphabet, Word, WordMap, free_reduce, invert, shortlex_key


class BackendError(ValueError):
    pass


# --- integer lattice utilities ----------------------------------------------

def smith_normal_form(rows):
    """Return (d, V, U) for the lattice spanned by `rows` in Z^n.

    d is the list of diagonal entries, all positive (zeros trimmed), V the
    unimodular column transform and U the unimodular row transform with
    U M V = diag(d) exactly.  V is returned transposed: V[c] is column c, so
    (vec V)_c = sum_k vec[k] * V[c][k].  V drives quotient keys and solve;
    the rows of U beyond the rank span the left integer nullspace of M.
    """
    rows = [list(r) for r in rows]
    n = len(rows[0]) if rows else 0
    m = len(rows)
    a = [row[:] for row in rows]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        v[i], v[j] = v[j], v[i]

    def addmul_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for k in range(n):
            v[dst][k] += c * v[src][k]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def addmul_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    diag = []
    t = 0
    while t < min(m, n):
        # find a nonzero pivot in the remaining block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        while True:
            done = True
            for i in range(t + 1, m):
                q = a[i][t] // a[t][t]
                if q:
                    addmul_row(i, t, -q)
                if a[i][t] != 0:
                    swap_rows(t, i)
                    done = False
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                if q:
                    addmul_col(j, t, -q)
                if a[t][j] != 0:
                    swap_cols(t, j)
                    done = False
            if done:
                break
        if a[t][t] < 0:  # row t is zero off the pivot, so this only flips it
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        diag.append(a[t][t])
        t += 1
    # note: divisibility chain is not enforced; quotient keys only need a
    # diagonal presentation, not the canonical one
    return diag, v, u


class IntLattice:
    """Sublattice of Z^n spanned by the rows of M: quotient keys, integer
    solutions of x M = vec and the relations among the rows, all read off
    one Smith decomposition."""

    def __init__(self, rows, n):
        self.n = n
        if rows:
            self.diag, self.v, self.u = smith_normal_form(rows)
        else:
            self.diag = []
            self.v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            self.u = []

    def left_nullspace(self):
        """Basis of {x : x M = 0} over the integers."""
        return [tuple(row) for row in self.u[len(self.diag):]]

    def key(self, vec) -> tuple:
        """Canonical label of vec + lattice in Z^n / lattice."""
        out = []
        for c in range(self.n):
            col = self.v[c]
            w = sum(vec[k] * col[k] for k in range(self.n))
            if c < len(self.diag):
                out.append(w % self.diag[c])
            else:
                out.append(w)
        return tuple(out)

    def solve(self, vec) -> list[int] | None:
        """Integer x with x M = vec, or None when vec is off the lattice.

        With U M V = D, the diag(d) padded with zeros, x M = vec exactly
        when y D = vec V for y = x U^-1: (vec V)_c must be divisible by d_c
        below the rank and zero past it, and then x = y U with
        y_c = (vec V)_c / d_c (and y_c = 0 past the rank)."""
        x = [0] * len(self.u)
        for c in range(self.n):
            col = self.v[c]
            w = sum(vec[k] * col[k] for k in range(self.n))
            y, r = divmod(w, self.diag[c]) if c < len(self.diag) else (0, w)
            if r:
                return None
            if y:
                x = [xi + y * ui for xi, ui in zip(x, self.u[c])]
        return x


# --- the protocol ------------------------------------------------------------

class VertexBackend:
    """The word problem of a vertex group.  A backend gives key(w), the
    element of w, and element_word(e), its canonical word, plus identity,
    prepend, append and canonical_language; the rest is read off those."""

    def canonical(self, w: Word) -> Word:
        return self.element_word(self.key(w))

    def geodesic_length(self, w: Word) -> int:
        return len(self.canonical(w))


class SubgroupContext:
    """Oracle bundle for a subgroup H <= parent.  A context gives split and
    coset_language; coset_rep, membership, h_express and the coset key are
    read off split."""

    def __init__(self, parent, gen_words):
        self.parent = parent
        self.gen_words = list(gen_words)
        gen_names = [f"y{i + 1}" for i in range(len(gen_words))]
        identity = parent.key(parent.alphabet.empty())
        self_inv = [
            nm for nm, gw in zip(gen_names, gen_words)
            if parent.key(gw * gw) == identity and parent.key(gw) != identity
        ]
        self.gen_alphabet = Alphabet(gen_names, self_inverse=self_inv)
        # words over the subgroup generators -> parent-alphabet words
        self.expand = WordMap(self.gen_alphabet, self.gen_words, parent.alphabet)

    def split(self, elem):
        """(rep, h) for g = parent element elem: rep the word of g's coset in
        the coset language, h over the generators with g = expand(h) rep."""
        raise NotImplementedError

    def coset_rep(self, w: Word) -> Word:
        return self.split(self.parent.key(w))[0]

    def membership(self, w: Word) -> bool:
        return not self.coset_rep(w)

    def h_express(self, w: Word) -> Word:
        rep, h = self.split(self.parent.key(w))
        if rep:
            raise BackendError(f"h_express on non-member {w}")
        return h

    def coset_key(self, w: Word):
        return self.coset_rep(w).letters

    def relators(self) -> list:
        """Words over the generators whose normal closure holds every
        relation among them: a map of the generators into a group is a
        homomorphism exactly when each relator maps to the identity.  Free
        and trivial subgroups have none."""
        return []

    def broken_relator(self, iso, target) -> Word | None:
        """The first relator that iso, a map of words over these generators
        to words over target's, does not send to the identity of target's
        parent; None when iso is a homomorphism."""
        parent = target.parent
        identity = parent.key(parent.alphabet.empty())
        for r in self.relators():
            if parent.key(target.expand(iso(r))) != identity:
                return r
        return None


# --- abelian backend ---------------------------------------------------------

class AbelianBackend(VertexBackend):
    """Z^rank x prod Z/d_i with one generator per factor.

    Canonical forms are collected words x1^r1 ... xn^rn; torsion exponents are
    the residue of minimal absolute value, ties broken toward positive.
    """

    def __init__(self, rank: int, torsion: Sequence[int] = (), names: Sequence[str] | None = None):
        if rank < 0:
            raise BackendError(f"rank must be >= 0, got {rank}")
        if any(d < 2 for d in torsion):
            raise BackendError("torsion moduli must be >= 2")
        self.rank = rank
        self.torsion = tuple(torsion)
        self.n = rank + len(torsion)
        if names is None:
            names = [f"x{i + 1}" for i in range(rank)] + [
                ("t" if len(torsion) == 1 else f"t{i + 1}") for i in range(len(torsion))
            ]
        if len(names) != self.n:
            raise BackendError("need one name per factor")
        self_inverse = [names[rank + i] for i, d in enumerate(torsion) if d == 2]
        self.alphabet = Alphabet(names, self_inverse=self_inverse)
        self.pos = tuple(self.alphabet.index(nm) for nm in names)
        self.neg = tuple(self.alphabet.inv[p] for p in self.pos)
        self._moduli = (None,) * rank + self.torsion
        # letter -> (factor, sign, the factor's modulus or None)
        self._letter_vec = {}
        for i in range(self.n):
            self._letter_vec[self.pos[i]] = (i, 1, self._moduli[i])
            if self.neg[i] != self.pos[i]:
                self._letter_vec[self.neg[i]] = (i, -1, self._moduli[i])
        self.name = f"abelian(rank={rank}, torsion={list(torsion)})"

    def modulus(self, i: int) -> int | None:
        return self._moduli[i]

    def vec(self, w: Word):
        v = [0] * self.n
        for x in w.letters:
            i, s, _d = self._letter_vec[x]
            v[i] += s
        return tuple(v)

    def normalize(self, vec):
        out = []
        for i, r in enumerate(vec):
            d = self.modulus(i)
            if d is not None:
                r %= d
                if 2 * r > d:
                    r -= d
            out.append(r)
        return tuple(out)

    def serialize(self, vec) -> Word:
        letters = []
        for i, r in enumerate(vec):
            letters.extend([self.pos[i] if r > 0 else self.neg[i]] * abs(r))
        return Word(self.alphabet, tuple(letters))

    def key(self, w: Word):
        return self.normalize(self.vec(w))

    # elements: the normalized exponent vector, which is key(w)

    def identity(self) -> tuple:
        return (0,) * self.n

    def prepend(self, x: int, vec: tuple) -> tuple:
        """The element of x * vec: one coordinate moves and is renormalized."""
        i, s, d = self._letter_vec[x]
        r = vec[i] + s
        if d is not None:
            r %= d
            if 2 * r > d:
                r -= d
        return vec[:i] + (r,) + vec[i + 1:]

    def append(self, vec: tuple, x: int) -> tuple:
        """The element of vec * x, which is x * vec."""
        return self.prepend(x, vec)

    def element_word(self, vec: tuple) -> Word:
        return self.serialize(vec)

    @cached_property
    def canonical_language(self) -> Dfa:
        ranges = []
        for i in range(self.n):
            d = self.modulus(i)
            if d is None:
                ranges.append((None, None))
            else:
                ranges.append((d // 2, (d - 1) // 2))
        return _collected_dfa(self, ranges, name="canonical")


def _collected_dfa(backend: AbelianBackend, ranges, name) -> Dfa:
    """Minimal DFA of collected words with per-factor exponent ranges.

    ranges[i] = (max_pos, max_neg) with None meaning unbounded; (0, 0) means
    the factor is skipped entirely.  A state is the run being read, (factor,
    sign, run length), where an unbounded run keeps length 1.
    """
    def step(run, letter):
        i, s, _d = backend._letter_vec[letter]
        factor, sign, length = run
        bound = ranges[i][0 if s > 0 else 1]
        if (i, s) == (factor, sign):
            if bound is None:
                return run
            length += 1
        elif i > factor:
            length = 1
        else:
            return None
        return (i, s, length) if bound is None or length <= bound else None

    return minimize(fsa.explore(backend.alphabet, (-1, 0, 0), step, lambda run: True, name))


# coset language synthesis for non-independent subgroups: residual
# signatures look DFA_WINDOW letters ahead, and the learned DFA is checked on
# every representative of up to DFA_HORIZON letters
DFA_WINDOW = 8
DFA_HORIZON = 24


class _CosetOracle:
    """The parent's letters, a word keyed by the lattice key of its exponent
    vector: the oracle of a subgroup's coset ball."""

    def __init__(self, parent: AbelianBackend, lattice: IntLattice):
        self.alphabet = parent.alphabet
        self._vec, self._key = parent.vec, lattice.key

    def key(self, w: Word) -> tuple:
        return self._key(self._vec(w))


class AbelianSubgroup(SubgroupContext):
    """H <= Z^rank x prod Z/d_i in exponent space.  When the lattice splits
    factor by factor (independent images), representatives are per-factor
    residues in closed form; otherwise they, and the coset automaton, are
    read off the coset ball _cosets."""

    def __init__(self, parent: AbelianBackend, gen_words):
        super().__init__(parent, gen_words)
        self.gen_vecs = [parent.vec(g) for g in gen_words]
        rows = list(self.gen_vecs)
        for i in range(parent.n):
            d = parent.modulus(i)
            if d is not None:
                rows.append(tuple(d if j == i else 0 for j in range(parent.n)))
        self.lattice = IntLattice(rows, parent.n)
        self._rows = rows
        self._orders = self._image_orders()
        self._independent = self._images_independent()
        self._chosen_cache: dict[tuple, tuple] = {}

    def _image_orders(self):
        """Order of the image of each generator e_i in parent/H, None when
        infinite, read off the key of e_i: coordinate c is a residue mod d_c
        below the rank and free past it."""
        n = self.parent.n
        diag = self.lattice.diag
        orders = []
        for i in range(n):
            key = self.lattice.key(tuple(1 if j == i else 0 for j in range(n)))
            if any(key[len(diag):]):
                orders.append(None)
                continue
            ord_i = 1
            for w, d in zip(key, diag):
                if w:
                    ord_i = math.lcm(ord_i, d // math.gcd(w, d))
            orders.append(ord_i)
        return orders

    def _images_independent(self):
        for row in self._rows:
            for i, x in enumerate(row):
                o = self._orders[i]
                if o is None:
                    if x != 0:
                        return False
                elif o > 1 and x % o != 0:
                    return False
        return True

    def _yword(self, coeffs) -> Word:
        letters = []
        alpha = self.gen_alphabet
        for i, c in enumerate(coeffs):
            p = alpha.index(alpha.generators[i])
            letters.extend([p if c > 0 else alpha.inv[p]] * abs(c))
        return Word(alpha, tuple(letters))

    def split(self, elem):
        """The split read in exponent space: the representative's vector is
        chosen(elem), and elem minus it lies on the lattice, at the
        solution x whose generator coordinates spell h."""
        rep = self.chosen(elem)
        x = self.lattice.solve(tuple(a - b for a, b in zip(elem, rep)))
        coeffs = x[: len(self.gen_words)]
        if self._relation_rows:
            # the generators satisfy relations, so the lattice solution is one
            # spelling of many: take the subgroup's own canonical one
            coeffs = self.presentation.chosen(tuple(coeffs))
        return self.parent.serialize(rep), self._yword(coeffs)

    @cached_property
    def presentation(self) -> "AbelianSubgroup":
        """The subgroup over its own generators modulo their relations: the
        relation lattice as a subgroup of the free abelian group on the
        generator alphabet.  Two generator words are equal in the subgroup
        iff they share a coset there, and its coset language is the
        shortlex language of the subgroup over its generators."""
        k = len(self.gen_words)
        free = AbelianBackend(k, names=list(self.gen_alphabet.generators))
        return AbelianSubgroup(free, [free.serialize(row) for row in self._relation_rows])

    @cached_property
    def _relation_rows(self) -> list:
        """Exponent vectors of the relations among the generators: the left
        kernel of the lattice (generators stacked over the torsion rows),
        cut to the generator columns."""
        k = len(self.gen_words)
        return [row[:k] for row in self.lattice.left_nullspace() if any(row[:k])]

    def relators(self) -> list:
        """The relations among the generators, as presentation reads them
        off the lattice, and the commutator of each pair."""
        k = len(self.gen_words)
        out = [self._yword(row) for row in self._relation_rows]
        ys = [self._yword([int(t == i) for t in range(k)]) for i in range(k)]
        return out + [a * b * invert(a) * invert(b) for i, a in enumerate(ys) for b in ys[i + 1:]]

    def chosen(self, vec) -> tuple:
        """Exponent vector of the coset's shortlex-least word: per-factor
        residues for independent images, else the coset ball's word."""
        key = self.lattice.key(vec)
        hit = self._chosen_cache.get(key)
        if hit is not None:
            return hit
        if self._independent:
            out = []
            for i, x in enumerate(vec):
                o = self._orders[i]
                if o is None:
                    out.append(x)
                else:
                    r = x % o
                    if 2 * r > o:
                        r -= o
                    out.append(r)
            res = tuple(out)
        else:
            # vec's normalized word lies in the coset, so its least word is no longer
            ball = self._cosets
            ball.max_radius = max(ball.radius, sum(abs(r) for r in self.parent.normalize(vec)))
            res = self.parent.vec(ball.words[ball.index_of_key(key)])
        self._chosen_cache[key] = res
        return res

    @cached_property
    def _cosets(self) -> CayleyBall:
        """The coset ball of dependent images: its words are the coset
        representatives, and an edge i -x-> j stays in their prefix tree
        exactly when words[j] is words[i] x."""
        return CayleyBall(_CosetOracle(self.parent, self.lattice), 0)

    def coset_rep(self, w: Word) -> Word:
        # the base class's split(key(w))[0], without h
        return self.parent.serialize(self.chosen(self.parent.vec(w)))

    @cached_property
    def coset_language(self):
        if self._independent:
            ranges = []
            for o in self._orders:
                if o is None:
                    ranges.append((None, None))
                else:
                    ranges.append((o // 2, (o - 1) // 2))
            return _collected_dfa(self.parent, ranges, name="cosets")
        return self._synthesize_dfa()

    def _synthesize_dfa(self) -> Dfa:
        """Learn the representative language off the coset ball's prefix tree.

        States are residual signatures, the extensions of at most DFA_WINDOW
        letters that stay representatives, each stepped from the first
        representative found with it; the result is checked on the tree up
        to the horizon, and the construction fails loudly on any
        disagreement.
        """
        ball = self._cosets
        ball.max_radius = max(ball.radius, DFA_HORIZON + DFA_WINDOW)
        words, edges, letters = ball.words, ball.edges, range(len(ball.alphabet))

        def child(i, x):
            """The index of words[i] x when it is a representative, else None."""
            if i >= len(edges):
                ball.within(len(words[i]) + 1)
            j = edges[i][x]
            return j if words[j].letters == words[i].letters + (x,) else None

        def signature(i):
            todo = [(i, ())]
            for j, ext in todo:
                if len(ext) < DFA_WINDOW:
                    todo.extend((c, ext + (x,)) for x in letters if (c := child(j, x)) is not None)
            return frozenset(ext for _j, ext in todo)

        first = {}  # signature -> the first representative's index found with it

        def step(sig, x):
            i = first[sig]
            if len(words[i]) >= DFA_HORIZON:
                raise BackendError(
                    "coset language synthesis did not close within its "
                    f"horizon of {DFA_HORIZON} letters")
            c = child(i, x)
            if c is None:
                return None
            nxt = signature(c)
            first.setdefault(nxt, c)
            return nxt

        sig0 = signature(0)
        first[sig0] = 0
        dfa = fsa.explore(ball.alphabet, sig0, step, lambda sig: True, "cosets")
        # a letter must move the automaton exactly when it extends a representative
        todo = [(0, dfa.start)]
        for i, q in todo:
            if len(words[i]) == DFA_HORIZON:
                continue
            for x in letters:
                c, t = child(i, x), dfa.step(q, x)
                if (c is None) != (t is None):
                    raise BackendError(
                        "synthesized coset DFA disagrees with the oracle at "
                        f"{Word(ball.alphabet, words[i].letters + (x,))}: a lookahead "
                        f"window of {DFA_WINDOW} letters does not separate its states")
                if c is not None:
                    todo.append((c, t))
        return minimize(dfa)

# --- trivial subgroup --------------------------------------------------------

class TrivialSubgroup(SubgroupContext):
    """H = 1 in any backend; the coset language is the canonical language."""

    def __init__(self, parent):
        super().__init__(parent, [])

    def split(self, elem):
        return self.parent.element_word(elem), self.gen_alphabet.empty()

    @property
    def coset_language(self):
        return self.parent.canonical_language


# --- free backend ------------------------------------------------------------

class FreeBackend(VertexBackend):
    def __init__(self, rank: int, names: Sequence[str] | None = None):
        if rank < 0:
            raise BackendError(f"rank must be >= 0, got {rank}")
        if names is None:
            if rank > 26:
                names = [f"g{i + 1}" for i in range(rank)]
            else:
                names = [chr(ord("a") + i) for i in range(rank)]
        if len(names) != rank:
            raise BackendError("need one name per generator")
        self.rank = rank
        self.alphabet = Alphabet(names)
        self._inv = self.alphabet.inv
        self.name = f"free(rank={rank})"

    def key(self, w: Word):
        return free_reduce(w).letters

    # elements: the freely reduced letter tuple, which is key(w)

    def identity(self) -> tuple:
        return ()

    def prepend(self, x: int, letters: tuple) -> tuple:
        """The element of x * letters: x cancels against the head or joins it."""
        if letters and letters[0] == self._inv[x]:
            return letters[1:]
        return (x,) + letters

    def append(self, letters: tuple, x: int) -> tuple:
        """The element of letters * x: x cancels against the end or joins it."""
        if letters and letters[-1] == self._inv[x]:
            return letters[:-1]
        return letters + (x,)

    def element_word(self, letters: tuple) -> Word:
        return Word(self.alphabet, letters)

    @cached_property
    def canonical_language(self) -> Dfa:
        """Freely reduced words; a state is the last letter, -1 before the first."""
        inv = self.alphabet.inv
        return fsa.explore(self.alphabet, -1,
                           lambda last, x: x if last < 0 or inv[last] != x else None,
                           lambda last: True, "reduced")


class FreeCyclicSubgroup(SubgroupContext):
    """H = <gen>, gen freely reduced, read off its folded graph (Stallings,
    Invent. Math. 71, 1983; Kapovich-Myasnikov, J. Algebra 248, 2002): for
    gen = u c u^-1, c cyclically reduced, a stem u from base vertex 0 to a
    cycle c.  _sigma[q] is the shortlex-least path label to q, found
    breadth-first in letter order, and _sigma_k[q] its signed crossings of
    the cycle's closing edge.  A reduced word is in H when it reads back to
    the base; the least word of its coset is sigma(q), q the vertex where
    reading stops, then the unread rest."""

    def __init__(self, parent: FreeBackend, gen: Word):
        gen = Word(parent.alphabet, gen.letters)
        if len(gen) == 0 or free_reduce(gen) != gen:
            raise BackendError("subgroup generator must be nonempty and freely reduced")
        super().__init__(parent, [gen])
        inv, letters = parent.alphabet.inv, gen.letters
        stem = next(i for i, x in enumerate(letters) if inv[x] != letters[-1 - i])
        # vertex i is where letters[:i] ends; the last cycle letter returns to the stem's end
        n = len(letters) - stem
        self._edges = {}
        for i, x in enumerate(letters[:n]):
            j = i + 1 if i + 1 < n else stem
            self._edges[i, x] = j
            self._edges[j, inv[x]] = i
        self._crossings = {(n - 1, letters[n - 1]): 1, (stem, inv[letters[n - 1]]): -1}
        self._sigma = {0: ()}
        self._sigma_k = {0: 0}
        queue = [0]
        for q in queue:
            for x in range(len(inv)):
                t = self._edges.get((q, x))
                if t is not None and t not in self._sigma:
                    self._sigma[t] = self._sigma[q] + (x,)
                    self._sigma_k[t] = self._sigma_k[q] + self._crossings.get((q, x), 0)
                    queue.append(t)

    def split(self, elem):
        """One read of the reduced word elem along the graph, to the vertex
        q where it stops after i letters with k crossings: h is the loop
        that reads elem[:i] then sigma(q) back, gen to the power k less
        sigma(q)'s crossings."""
        q = k = i = 0
        for x in elem:
            t = self._edges.get((q, x))
            if t is None:
                break
            k += self._crossings.get((q, x), 0)
            q, i = t, i + 1
        k -= self._sigma_k[q]
        h = (0 if k > 0 else self.gen_alphabet.inv[0],) * abs(k)
        return Word(self.parent.alphabet, self._sigma[q] + elem[i:]), Word(self.gen_alphabet, h)

    @cached_property
    def coset_language(self) -> Dfa:
        """The words sigma(q) t, t reduced with its first letter missing at q:
        states (True, q) along the shortlex tree, then (False, last letter)."""
        edges, sigma, inv = self._edges, self._sigma, self.parent.alphabet.inv

        def step(state, x):
            on_tree, q = state
            if not on_tree:
                return None if inv[q] == x else (False, x)
            t = edges.get((q, x))
            if t is None:
                return (False, x)
            return (True, t) if sigma[t] == sigma[q] + (x,) else None

        return fsa.explore(self.parent.alphabet, (True, 0), step, lambda state: True, "cosets")


# --- finite backend ----------------------------------------------------------

class FiniteBackend(VertexBackend):
    """Group given by a multiplication table; element 0 is the identity."""

    def __init__(self, table: Sequence[Sequence[int]], gens: dict | None = None):
        n = len(table)
        self.table = [tuple(row) for row in table]
        for i in range(n):
            if len(self.table[i]) != n:
                raise BackendError("table is not square")
            for c in self.table[i]:
                if not 0 <= c < n:
                    raise BackendError(f"table cell {c} is not an element index 0..{n - 1}")
            if self.table[0][i] != i or self.table[i][0] != i:
                raise BackendError("row/col 0 must be the identity")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == 0:
                    inv[i] = j
        if any(v is None for v in inv):
            raise BackendError("table has no inverse for some element")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise BackendError("table is not associative")
        self.order = n
        if gens is None:
            gens = {f"g{i}": i for i in range(1, n)}
        self.gen_elts = dict(gens)
        for nm, e in self.gen_elts.items():
            if not 0 <= e < n:
                raise BackendError(f"generator {nm}: {e} is not an element index 0..{n - 1}")
        names = list(self.gen_elts)
        self_inverse = [nm for nm in names if inv[self.gen_elts[nm]] == self.gen_elts[nm]]
        self.alphabet = Alphabet(names, self_inverse=self_inverse)
        self._letter_elt = {}
        for nm in names:
            p = self.alphabet.index(nm)
            self._letter_elt[p] = self.gen_elts[nm]
            self._letter_elt[self.alphabet.inv[p]] = inv[self.gen_elts[nm]]
        # row x of the table, indexed by e, is the element of x * e
        self._prepend_row = {x: self.table[g] for x, g in self._letter_elt.items()}
        self._canon = {self.eval(w): w.letters for w in CayleyBall(self, n).elements()}
        if len(self._canon) != n:
            raise BackendError("declared generators do not generate the group")
        self.name = f"finite(order={n})"

    def eval(self, w: Word) -> int:
        e = 0
        for x in w.letters:
            e = self.table[e][self._letter_elt[x]]
        return e

    def key(self, w: Word):
        return self.eval(w)

    # elements: the table index, which is key(w)

    def identity(self) -> int:
        return 0

    def prepend(self, x: int, e: int) -> int:
        """The element of x * e, one table lookup."""
        return self._prepend_row[x][e]

    def append(self, e: int, x: int) -> int:
        """The element of e * x, one table lookup."""
        return self.table[e][self._letter_elt[x]]

    def element_word(self, e: int) -> Word:
        return Word(self.alphabet, self._canon[e])

    @cached_property
    def canonical_language(self) -> Dfa:
        return word_set_dfa(
            (Word(self.alphabet, ls) for ls in self._canon.values()), self.alphabet, "canonical")


class FiniteSubgroup(SubgroupContext):
    def __init__(self, parent: FiniteBackend, gens: Sequence[Word]):
        super().__init__(parent, gens)
        # words over the subgroup generators, by a ball of H
        self._yword = {parent.eval(w): y for w, _d, y in WordMetric(
            parent, self.gen_words, self.gen_alphabet).elements_within(parent.order)}
        self.elements = frozenset(self._yword)
        # element h rep of the right coset H g -> (word of rep, word of h), rep
        # the coset's element with the shortlex-least word
        self._split = {}
        for g in range(parent.order):
            if g in self._split:
                continue
            rep = min((parent.table[h][g] for h in self.elements),
                      key=lambda e: shortlex_key(Word(parent.alphabet, parent._canon[e])))
            rep_word = Word(parent.alphabet, parent._canon[rep])
            for h, y in self._yword.items():
                self._split[parent.table[h][rep]] = (rep_word, Word(self.gen_alphabet, y))

    def split(self, elem):
        return self._split[elem]

    def relators(self) -> list:
        """One relator per edge of H's Cayley graph over the generators:
        word(h) y word(h y)^-1, |H| |Y| of them."""
        alpha = self.gen_alphabet
        table = self.parent.table
        out = []
        for i, g in enumerate(self.gen_words):
            p = alpha.index(alpha.generators[i])
            e = self.parent.eval(g)
            for h, word in self._yword.items():
                back = invert(Word(alpha, self._yword[table[h][e]]))
                out.append(Word(alpha, word + (p,) + back.letters))
        return out

    @cached_property
    def coset_language(self):
        return word_set_dfa((rep for rep, _h in self._split.values()),
                            self.parent.alphabet, "cosets")


def subgroup_context(parent, gen_words) -> SubgroupContext:
    """The context of the subgroup of parent that gen_words generate: the
    trivial context when there are none, else the one of the parent's kind.
    BackendError when that kind does not take these words (a free group
    takes one nonempty reduced generator)."""
    if not gen_words:
        return TrivialSubgroup(parent)
    if isinstance(parent, AbelianBackend):
        return AbelianSubgroup(parent, gen_words)
    if isinstance(parent, FreeBackend):
        if len(gen_words) != 1:
            raise BackendError("free-group subgroups support a single cyclic generator")
        return FreeCyclicSubgroup(parent, gen_words[0])
    if isinstance(parent, FiniteBackend):
        return FiniteSubgroup(parent, gen_words)
    raise BackendError(f"cannot build subgroups in {parent!r}")

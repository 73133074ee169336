"""Vertex-group backends and subgroup contexts, each behind one protocol.

A vertex backend (VertexBackend) solves the word problem of a vertex group:
key(w) is the element of the word w, element_word(e) is the canonical
(shortlex) word of the element e, and canonical_language is the explicit
language of those words.  The key is also the element the cascade scan
carries: identity(), prepend(x, e) and append(e, x) give the elements of
x*e and e*x in O(1) or O(head).  The base class reads canonical(w) and
geodesic_length(w) off the key; balls come from cosets.CayleyBall, a search
over the keys.

A subgroup context (SubgroupContext) gives membership, the coset
decomposition g = h * coset_rep(g) with h_express(h) over the subgroup
generators, and a coset language whose only identity-coset representative
is the empty word.  The base class reads min_coset_length(w) and
coset_key(w) off the representative; cascade.Pi1EdgeSubgroup and
experiments.TrefoilCentralizerContext share it.

Abelian groups are handled in exponent space: the subgroup plus the torsion
relations span an integer lattice, and one Smith decomposition
U M V = diag(d) of that lattice answers every question asked of it: quotient
keys (hence membership and minimal coset representatives), the relations
among the generators, and the coordinates h_express reads off a member.
"""

from __future__ import annotations

import math

from functools import cached_property
from typing import Optional, Sequence

from . import fsa
from .cosets import CayleyBall, WordMetric
from .fsa import Dfa, LazyLanguage, Nfa, determinize, minimize, word_set_dfa
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

    def solve(self, vec) -> Optional[list[int]]:
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
    """Oracle bundle for a subgroup H <= parent.  A context gives
    membership, h_express, coset_rep and coset_language; the coset length
    and key are read off the representative."""

    def __init__(self, parent, gen_words, gen_names=None):
        self.parent = parent
        self.gen_words = list(gen_words)
        if gen_names is None:
            gen_names = [f"y{i + 1}" for i in range(len(gen_words))]
        identity = parent.key(parent.alphabet.empty())
        self_inv = [
            nm for nm, gw in zip(gen_names, gen_words)
            if parent.key(gw * gw) == identity and parent.key(gw) != identity
        ]
        self.gen_alphabet = Alphabet(gen_names, self_inverse=self_inv)
        # words over the subgroup generators -> parent-alphabet words
        self.expand = WordMap(self.gen_alphabet, self.gen_words, parent.alphabet)

    def min_coset_length(self, w: Word) -> int:
        return len(self.coset_rep(w))

    def coset_key(self, w: Word):
        return self.coset_rep(w).letters

    def relators(self) -> list:
        """Words over the generators whose normal closure holds every
        relation among them: a map of the generators into a group is a
        homomorphism exactly when each relator maps to the identity.  Free
        and trivial subgroups have none."""
        return []

    def broken_relator(self, iso, target) -> Optional[Word]:
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

def _pref_key(x: int):
    # preference for minimal shortlex word among equal-length collected forms:
    # large positive, then deep negative, then zero
    if x > 0:
        return (0, -x)
    if x < 0:
        return (1, x)
    return (2, 0)


class AbelianBackend(VertexBackend):
    """Z^rank x prod Z/d_i with one generator per factor.

    Canonical forms are collected words x1^r1 ... xn^rn; torsion exponents are
    the residue of minimal absolute value, ties broken toward positive.
    """

    def __init__(self, rank: int, torsion: Sequence[int] = (), names: Optional[Sequence[str]] = None):
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

    def modulus(self, i: int) -> Optional[int]:
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
    """DFA of collected words with per-factor exponent ranges.

    ranges[i] = (max_pos, max_neg) with None meaning unbounded; (0, 0) means
    the factor is skipped entirely.
    """
    nfa = Nfa(backend.alphabet)
    chain = [nfa.add_state() for _ in range(backend.n + 1)]
    nfa.starts = {chain[0]}
    nfa.accepting = {chain[backend.n]}
    for i in range(backend.n):
        nfa.add_eps(chain[i], chain[i + 1])
        max_pos, max_neg = ranges[i]
        for sign, letter, bound in ((1, backend.pos[i], max_pos), (-1, backend.neg[i], max_neg)):
            if bound == 0:
                continue
            if letter == backend.pos[i] and sign < 0:
                continue  # self-inverse letter: only the positive run exists
            if bound is None:
                s = nfa.add_state()
                nfa.add_edge(chain[i], letter, s)
                nfa.add_edge(s, letter, s)
                nfa.add_eps(s, chain[i + 1])
            else:
                prev = chain[i]
                for _ in range(bound):
                    s = nfa.add_state()
                    nfa.add_edge(prev, letter, s)
                    nfa.add_eps(s, chain[i + 1])
                    prev = s
    return minimize(determinize(nfa, name))


# coset language synthesis for non-independent subgroups: residual
# signatures look DFA_WINDOW letters ahead, and the learned DFA is checked on
# every collected word of up to DFA_HORIZON letters
DFA_WINDOW = 8
DFA_HORIZON = 24


class AbelianSubgroup(SubgroupContext):
    def __init__(self, parent: AbelianBackend, gen_words, gen_names=None):
        super().__init__(parent, gen_words, gen_names)
        self.gen_vecs = [parent.vec(g) for g in gen_words]
        rows = list(self.gen_vecs)
        for i in range(parent.n):
            d = parent.modulus(i)
            if d is not None:
                rows.append(tuple(d if j == i else 0 for j in range(parent.n)))
        self.lattice = IntLattice(rows, parent.n)
        self._rows = rows
        self._zero_key = self.lattice.key((0,) * parent.n)
        self._orders = self._image_orders()
        self._independent = self._images_independent()
        self._chosen_cache: dict[tuple, tuple] = {}
        self._labelled = -1  # dependent images: spheres labelled in _chosen_cache

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

    def membership(self, w: Word) -> bool:
        return self.lattice.key(self.parent.vec(w)) == self._zero_key

    def _yword(self, coeffs) -> Word:
        letters = []
        alpha = self.gen_alphabet
        for i, c in enumerate(coeffs):
            p = alpha.index(alpha.generators[i])
            letters.extend([p if c > 0 else alpha.inv[p]] * abs(c))
        return Word(alpha, tuple(letters))

    def h_express(self, w: Word) -> Word:
        vec = self.parent.vec(w)
        x = self.lattice.solve(vec)
        if x is None:
            raise BackendError(f"h_express on non-member {w}")
        coeffs = x[: len(self.gen_words)]
        if self._as_group.relations:
            # the generators satisfy relations, so the lattice solution is one
            # spelling of many: take the subgroup's own canonical one
            coeffs = self._as_group.presentation.chosen(tuple(coeffs))
        return self._yword(coeffs)

    @cached_property
    def _as_group(self) -> "AbelianSubgroupAsGroup":
        return AbelianSubgroupAsGroup(self)

    def _relation_rows(self) -> list:
        """Exponent vectors of the relations among the generators: the left
        kernel of the lattice (generators stacked over the torsion rows),
        cut to the generator columns."""
        k = len(self.gen_words)
        return [row[:k] for row in self.lattice.left_nullspace() if any(row[:k])]

    def relators(self) -> list:
        """The relations among the generators, as AbelianSubgroupAsGroup
        reads them off the lattice, and the commutator of each pair."""
        k = len(self.gen_words)
        out = [self._yword(row) for row in self._relation_rows()]
        ys = [self._yword([int(t == i) for t in range(k)]) for i in range(k)]
        return out + [a * b * invert(a) * invert(b) for i, a in enumerate(ys) for b in ys[i + 1:]]

    def chosen(self, vec) -> tuple:
        """Exponent vector of the coset's canonical representative."""
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
            # the coset meets the sphere of vec's normalized norm at the latest
            budget = sum(abs(r) for r in self.parent.normalize(vec))
            while key not in self._chosen_cache and self._labelled < budget:
                self._label_next_sphere()
            res = self._chosen_cache.get(key)
            assert res is not None
        self._chosen_cache[key] = res
        return res

    def _label_next_sphere(self):
        """Label each coset key that the next L1 sphere reaches first with its
        least _pref_key point there.  All least-norm points of a coset lie on
        the first sphere that meets it, and a sphere is labelled whole before
        it is committed, so a key is either labelled exactly or absent."""
        self._labelled += 1
        cache, lattice = self._chosen_cache, self.lattice
        best: dict = {}
        for r in _sphere(self.parent.n, self._labelled):
            k = lattice.key(r)
            if k in cache:
                continue
            pk = tuple(_pref_key(x) for x in r)
            if k not in best or pk < best[k][0]:
                best[k] = (pk, r)
        for k, (_pk, r) in best.items():
            cache[k] = r

    def coset_rep(self, w: Word) -> Word:
        return self.parent.serialize(self.chosen(self.parent.vec(w)))

    def is_rep(self, w: Word) -> bool:
        vec = self.parent.vec(w)
        if not _is_collected(self.parent, w):
            return False
        return self.chosen(vec) == tuple(vec)

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

    def _collected_extensions(self, word_letters, max_extra):
        """Collected continuations (as letter tuples) of a collected word."""
        parent = self.parent
        if word_letters:
            i, s, _d = parent._letter_vec[word_letters[-1]]
            start_factor, start_sign = i, s
        else:
            start_factor, start_sign = -1, 0
        out = [()]

        def rec(factor, sign, acc):
            if len(acc) == max_extra:
                return
            options = []
            if factor >= 0:
                letter = parent.pos[factor] if sign > 0 else parent.neg[factor]
                options.append((factor, sign, letter))
            for j in range(factor + 1, parent.n):
                options.append((j, 1, parent.pos[j]))
                if parent.neg[j] != parent.pos[j]:
                    options.append((j, -1, parent.neg[j]))
            for j, sg, letter in options:
                acc.append(letter)
                out.append(tuple(acc))
                rec(j, sg, acc)
                acc.pop()

        rec(start_factor, start_sign, [])
        return out

    def _synthesize_dfa(self) -> Dfa:
        """Learn the representative language from the exact exponent oracle.

        States are residual signatures observed through a fixed window; the
        result is verified against the oracle on every collected word up to
        the horizon and the construction fails loudly on any disagreement.
        """
        alpha = self.parent.alphabet

        def signature(letters):
            word = Word(alpha, letters)
            if not self.is_rep(word):
                return None
            acc = []
            for ext in self._collected_extensions(letters, DFA_WINDOW):
                if self.is_rep(Word(alpha, letters + ext)):
                    acc.append(ext)
            return frozenset(acc)

        sig0 = signature(())
        states = {sig0: 0}
        reps = [()]
        transitions = {}
        qi = 0
        while qi < len(reps):
            u = reps[qi]
            if len(u) >= DFA_HORIZON:
                raise BackendError(
                    "coset language synthesis did not close within its "
                    f"horizon of {DFA_HORIZON} letters")
            for ext in self._collected_extensions(u, 1):
                if not ext:
                    continue
                sig = signature(u + ext)
                if sig is None:
                    continue
                if sig not in states:
                    states[sig] = len(reps)
                    reps.append(u + ext)
                transitions[(qi, ext[0])] = states[sig]
            qi += 1
        dfa = fsa._trim(Dfa(alpha, len(reps), 0, set(range(len(reps))), transitions, "cosets"))
        self._verify_dfa(dfa)
        return minimize(dfa)

    def _verify_dfa(self, dfa: Dfa):
        for ext in self._collected_extensions((), DFA_HORIZON):
            w = Word(self.parent.alphabet, ext)
            if dfa.accepts(w) != self.is_rep(w):
                raise BackendError(
                    f"synthesized coset DFA disagrees with the oracle at {w}: "
                    f"a lookahead window of {DFA_WINDOW} letters does not "
                    "separate its states")


def _is_collected(backend: AbelianBackend, w: Word) -> bool:
    last = (-1, 0)
    for x in w.letters:
        i, s, _d = backend._letter_vec[x]
        if i < last[0] or (i == last[0] and s != last[1]):
            return False
        last = (i, s)
    # torsion runs must stay in normalized range
    vec = backend.vec(w)
    return vec == backend.normalize(vec)


def _sphere(n, m):
    """All integer vectors of L1 norm exactly m."""
    if n == 1:
        if m == 0:
            yield (0,)
        else:
            yield (m,)
            yield (-m,)
        return
    for head in range(-m, m + 1):
        for rest in _sphere(n - 1, m - abs(head)):
            yield (head,) + rest


class AbelianSubgroupAsGroup:
    """The subgroup of an abelian backend presented as a group in its own
    right, over the subgroup generator alphabet.

    Words over the generators are exponent vectors in Z^k; two words are equal
    in the subgroup iff their difference lies in the relation lattice (the
    left kernel of the generator matrix against the torsion relations).  The
    shortlex language over the generators is then the representative language
    of that lattice, reusing the coset machinery.
    """

    def __init__(self, ctx: "AbelianSubgroup"):
        k = len(ctx.gen_words)
        relations = ctx._relation_rows()
        names = list(ctx.gen_alphabet.generators)
        self.backend = AbelianBackend(k, names=names) if k else AbelianBackend(0, names=[])
        self.relations = [self.backend.serialize(c) for c in relations]
        self.presentation = AbelianSubgroup(self.backend, self.relations)

    @property
    def shortlex_language(self):
        """Unique shortlex representatives of the subgroup over its generators."""
        return self.presentation.coset_language


# --- trivial subgroup --------------------------------------------------------

class TrivialSubgroup(SubgroupContext):
    """H = 1 in any backend; the coset language is the canonical language."""

    def __init__(self, parent):
        super().__init__(parent, [], [])

    def membership(self, w: Word) -> bool:
        return len(self.parent.canonical(w)) == 0

    def h_express(self, w: Word) -> Word:
        if not self.membership(w):
            raise BackendError(f"h_express on non-member {w}")
        return self.gen_alphabet.empty()

    def coset_rep(self, w: Word) -> Word:
        return self.parent.canonical(w)

    @property
    def coset_language(self):
        return self.parent.canonical_language


# --- free backend ------------------------------------------------------------

class FreeBackend(VertexBackend):
    def __init__(self, rank: int, names: Optional[Sequence[str]] = None):
        if names is None:
            if rank > 26:
                names = [f"g{i + 1}" for i in range(rank)]
            else:
                names = [chr(ord("a") + i) for i in range(rank)]
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
        m = len(self.alphabet)
        inv = self.alphabet.inv
        transitions = {}
        for x in range(m):
            transitions[(0, x)] = x + 1
            for y in range(m):
                if inv[x] != y:
                    transitions[(x + 1, y)] = y + 1
        return Dfa(self.alphabet, m + 1, 0, set(range(m + 1)), transitions, "reduced")


class FreeCyclicSubgroup(SubgroupContext):
    """H = <gen> for a cyclically reduced generator word."""

    def __init__(self, parent: FreeBackend, gen: Word, gen_names=None):
        gen = Word(parent.alphabet, gen.letters)
        if len(gen) == 0 or free_reduce(gen) != gen:
            raise BackendError("subgroup generator must be nonempty and freely reduced")
        if len(gen) > 1 and parent.alphabet.inv[gen.letters[-1]] == gen.letters[0]:
            raise BackendError("subgroup generator must be cyclically reduced")
        super().__init__(parent, [gen], gen_names)
        self.gen = gen

    def _power_of_gen(self, reduced: Word) -> Optional[int]:
        L = len(self.gen)
        if len(reduced) % L:
            return None
        k = len(reduced) // L
        if k == 0:
            return 0
        if reduced.letters == self.gen.letters * k:
            return k
        if reduced.letters == invert(self.gen).letters * k:
            return -k
        return None

    def membership(self, w: Word) -> bool:
        return self._power_of_gen(free_reduce(w)) is not None

    def h_express(self, w: Word) -> Word:
        k = self._power_of_gen(free_reduce(w))
        if k is None:
            raise BackendError(f"h_express on non-member {w}")
        p = self.gen_alphabet.index(self.gen_alphabet.generators[0])
        letter = p if k > 0 else self.gen_alphabet.inv[p]
        return Word(self.gen_alphabet, (letter,) * abs(k))

    def coset_rep(self, w: Word) -> Word:
        """Shortlex-least word in the orbit {gen^k w}."""
        r = free_reduce(w)
        best = r
        window = len(r) // len(self.gen) + 2
        for sign_gen in (self.gen, invert(self.gen)):
            cur = r
            for _ in range(window):
                cur = free_reduce(sign_gen * cur)
                if shortlex_key(cur) < shortlex_key(best):
                    best = cur
        return best

    @cached_property
    def coset_language(self):
        if len(self.gen) == 1:
            g = self.gen.letters[0]
            gi = self.parent.alphabet.inv[g]
            base = self.parent.canonical_language
            transitions = {
                (s, x): t for (s, x), t in base.transitions.items()
                if not (s == base.start and x in (g, gi))
            }
            return fsa._trim(Dfa(
                self.parent.alphabet, base.n_states, base.start,
                base.accepting, transitions, "cosets"))
        return LazyLanguage(
            self.parent.alphabet,
            membership=lambda w: free_reduce(w) == w and self.coset_rep(w) == w,
            enumerator=lambda n: [
                w for w in fsa.enumerate_language(self.parent.canonical_language, n)
                if self.coset_rep(w) == w],
            name="cosets")


# --- finite backend ----------------------------------------------------------

class FiniteBackend(VertexBackend):
    """Group given by a multiplication table; element 0 is the identity."""

    def __init__(self, table: Sequence[Sequence[int]], gens: Optional[dict] = None):
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
    def __init__(self, parent: FiniteBackend, gens: Sequence[Word], gen_names=None):
        super().__init__(parent, gens, gen_names)
        # words over the subgroup generators, by a ball of H
        self._yword = {parent.eval(w): y for w, _d, y in WordMetric(
            parent, self.gen_words, self.gen_alphabet).elements_within(parent.order)}
        self.elements = frozenset(self._yword)
        # right cosets Hg, representative = element with shortlex-least word
        self._coset_of = {}
        self._rep_word = {}
        for g in range(parent.order):
            if g in self._coset_of:
                continue
            coset = sorted(parent.table[h][g] for h in self.elements)
            rep = min(coset, key=lambda e: shortlex_key(Word(parent.alphabet, parent._canon[e])))
            cid = len(self._rep_word)
            for e in coset:
                self._coset_of[e] = cid
            self._rep_word[cid] = Word(parent.alphabet, parent._canon[rep])

    def membership(self, w: Word) -> bool:
        return self.parent.eval(w) in self.elements

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

    def h_express(self, w: Word) -> Word:
        e = self.parent.eval(w)
        if e not in self.elements:
            raise BackendError(f"h_express on non-member {w}")
        return Word(self.gen_alphabet, self._yword[e])

    def coset_rep(self, w: Word) -> Word:
        return self._rep_word[self._coset_of[self.parent.eval(w)]]

    def coset_count(self) -> int:
        return len(self._rep_word)

    @cached_property
    def coset_language(self):
        return word_set_dfa(self._rep_word.values(), self.parent.alphabet, "cosets")

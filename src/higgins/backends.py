"""Concrete vertex-group backends and subgroup contexts.

A backend bundles the oracles everything downstream consumes: canonical
(shortlex) forms, geodesic lengths, ball enumeration and an explicit canonical
language.  A subgroup context adds membership, the coset decomposition
g = h * coset_rep(g), and a coset language whose only identity-coset
representative is the empty word.

Abelian groups are handled in exponent space: the subgroup plus the torsion
relations span an integer lattice, and Smith reduction of that lattice gives
exact quotient keys, membership, and minimal coset representatives.
"""

from __future__ import annotations


from typing import Optional, Sequence

from . import fsa
from .fsa import Dfa, LazyLanguage, Nfa, determinize, minimize, word_set_dfa
from .words import Alphabet, Word, free_reduce, invert, shortlex_key


class BackendError(ValueError):
    pass


# --- integer lattice utilities ----------------------------------------------

def smith_normal_form(rows):
    """Return (d, V, U) for the lattice spanned by `rows` in Z^n.

    d is the list of diagonal entries (zeros trimmed), V the unimodular
    column transform and U the unimodular row transform with U M V = diag(d).
    V drives quotient keys; the rows of U beyond the rank span the left
    integer nullspace of M.
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
        diag.append(abs(a[t][t]))
        t += 1
    # note: divisibility chain is not enforced; quotient keys only need a
    # diagonal presentation, not the canonical one
    return diag, v, u

# transposed-V note: v[c] is the c-th column transform row; key computation
# multiplies the vector by V on the right, i.e. w_c = sum_k vec[k] * V[k][c].
# We store v as v[c][k] above (columns as rows), so w_c = sum vec[k]*v[c][k].


class IntLattice:
    """Sublattice of Z^n with exact membership and quotient keys."""

    def __init__(self, rows, n):
        self.n = n
        self.rows = [tuple(r) for r in rows]
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
            if c < len(self.diag) and self.diag[c] != 0:
                out.append(w % self.diag[c])
            else:
                out.append(w)
        return tuple(out)

    def contains(self, vec) -> bool:
        return self.key(vec) == self.key((0,) * self.n)

    def solve(self, rows, vec) -> Optional[list[int]]:
        """Integer x with sum_i x_i rows[i] = vec, or None.

        Plain fraction-free row reduction over the row space; desk scale.
        """
        m = len(rows)
        n = self.n
        # augmented: work on transpose system rows^T x^T = vec^T
        aug = [[rows[i][j] for i in range(m)] + [vec[j]] for j in range(n)]
        pivots = []
        r = 0
        for c in range(m):
            prow = None
            for i in range(r, n):
                if aug[i][c] != 0 and (prow is None or abs(aug[i][c]) < abs(aug[prow][c])):
                    prow = i
            if prow is None:
                continue
            aug[r], aug[prow] = aug[prow], aug[r]
            # clear column c below and above by gcd steps
            changed = True
            while changed:
                changed = False
                for i in range(n):
                    if i != r and aug[i][c] != 0:
                        q = aug[i][c] // aug[r][c]
                        aug[i] = [x - q * y for x, y in zip(aug[i], aug[r])]
                        if aug[i][c] != 0:
                            aug[r], aug[i] = aug[i], aug[r]
                            changed = True
            pivots.append((r, c))
            r += 1
        x = [0] * m
        for i, c in pivots:
            num = aug[i][-1]
            for j in range(m):
                if j != c:
                    num -= aug[i][j] * x[j]
            piv = aug[i][c]
            if num % piv != 0:
                return None
            x[c] = num // piv
        # consistency on non-pivot rows
        for i in range(r, n):
            val = aug[i][-1] - sum(aug[i][j] * x[j] for j in range(m))
            if val != 0:
                return None
        for j in range(n):
            if sum(x[i] * rows[i][j] for i in range(m)) != vec[j]:
                return None
        return x


# --- abelian backend ---------------------------------------------------------

def _pref_key(x: int):
    # preference for minimal shortlex word among equal-length collected forms:
    # large positive, then deep negative, then zero
    if x > 0:
        return (0, -x)
    if x < 0:
        return (1, x)
    return (2, 0)


class AbelianBackend:
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
        self._letter_vec = {}
        for i in range(self.n):
            self._letter_vec[self.pos[i]] = (i, 1)
            if self.neg[i] != self.pos[i]:
                self._letter_vec[self.neg[i]] = (i, -1)
        self.name = f"abelian(rank={rank}, torsion={list(torsion)})"
        self._canonical_language = None

    def modulus(self, i: int) -> Optional[int]:
        if i < self.rank:
            return None
        return self.torsion[i - self.rank]

    def vec(self, w: Word):
        v = [0] * self.n
        for x in w.letters:
            i, s = self._letter_vec[x]
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

    def canonical(self, w: Word) -> Word:
        return self.serialize(self.normalize(self.vec(w)))

    def key(self, w: Word):
        return self.normalize(self.vec(w))

    def geodesic_length(self, w: Word) -> int:
        return sum(abs(r) for r in self.normalize(self.vec(w)))

    def ball(self, radius: int) -> list[Word]:
        vecs = []

        def rec(i, budget, acc):
            if i == self.n:
                vecs.append(tuple(acc))
                return
            d = self.modulus(i)
            lo, hi = -budget, budget
            if d is not None:
                lo = max(lo, -((d - 1) // 2))
                hi = min(hi, d // 2)
            for r in range(lo, hi + 1):
                acc.append(r)
                rec(i + 1, budget - abs(r), acc)
                acc.pop()

        rec(0, radius, [])
        words = [self.serialize(v) for v in vecs]
        words.sort(key=shortlex_key)
        return words

    @property
    def canonical_language(self) -> Dfa:
        if self._canonical_language is None:
            ranges = []
            for i in range(self.n):
                d = self.modulus(i)
                if d is None:
                    ranges.append((None, None))
                else:
                    ranges.append((d // 2, (d - 1) // 2))
            self._canonical_language = _collected_dfa(self, ranges, name="canonical")
        return self._canonical_language


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


class SubgroupContext:
    """Oracle bundle for a subgroup H <= parent: membership, h_express,
    canonical coset representatives and the pruned coset language."""

    def __init__(self, parent, gen_words, gen_names=None):
        self.parent = parent
        self.gen_words = list(gen_words)
        if gen_names is None:
            gen_names = [f"y{i + 1}" for i in range(len(gen_words))]
        self_inv = [
            nm for nm, gw in zip(gen_names, gen_words)
            if parent.canonical(gw * gw) == parent.canonical(parent.alphabet.empty())
            and len(parent.canonical(gw)) > 0
        ]
        self.gen_alphabet = Alphabet(gen_names, self_inverse=self_inv)
        self._expand = {}
        for i, nm in enumerate(gen_names):
            p = self.gen_alphabet.index(nm)
            self._expand[p] = self.gen_words[i]
            self._expand[self.gen_alphabet.inv[p]] = invert(self.gen_words[i])

    def expand(self, yword: Word) -> Word:
        """Map a word over the subgroup generators to a parent-alphabet word."""
        out = self.parent.alphabet.empty()
        for y in yword.letters:
            out = out * self._expand[y]
        return out

    # concrete contexts implement: membership, h_express, coset_rep,
    # min_coset_length, coset_language

    def coset_key(self, w: Word):
        return self.coset_rep(w).letters


class AbelianSubgroup(SubgroupContext):
    def __init__(self, parent: AbelianBackend, gen_words, gen_names=None,
                 dfa_window: int = 8, dfa_horizon: int = 24):
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
        self._dfa_window = dfa_window
        self._dfa_horizon = dfa_horizon
        self._language = None

    # image of e_i in parent/H
    def _image_orders(self):
        orders = []
        for i in range(self.parent.n):
            e = tuple(1 if j == i else 0 for j in range(self.parent.n))
            col = [sum(e[k] * self.lattice.v[c][k] for k in range(self.parent.n))
                   for c in range(self.parent.n)]
            ord_i = 1
            infinite = False
            for c in range(self.parent.n):
                w = col[c]
                if c < len(self.lattice.diag) and self.lattice.diag[c] != 0:
                    d = self.lattice.diag[c]
                    w %= d
                    if w:
                        step = d // _gcd(w, d)
                        ord_i = _lcm(ord_i, step)
                else:
                    if w != 0:
                        infinite = True
            orders.append(None if infinite else ord_i)
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

    def h_express(self, w: Word) -> Word:
        vec = self.parent.vec(w)
        x = self.lattice.solve(self._rows, list(vec))
        if x is None:
            # vec may differ from a lattice point by nothing: membership implies solvable
            raise BackendError(f"h_express on non-member {w}")
        letters = []
        alpha = self.gen_alphabet
        for i, c in enumerate(x[: len(self.gen_words)]):
            p = alpha.index(alpha.generators[i])
            letters.extend([p if c > 0 else alpha.inv[p]] * abs(c))
        return Word(alpha, tuple(letters))

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
            start = self.parent.normalize(vec)
            budget = sum(abs(r) for r in start)
            res = None
            for m in range(budget + 1):
                hits = [r for r in _sphere(self.parent.n, m) if self.lattice.key(r) == key]
                if hits:
                    res = min(hits, key=lambda r: tuple(_pref_key(x) for x in r))
                    break
            assert res is not None
        self._chosen_cache[key] = res
        return res

    def coset_rep(self, w: Word) -> Word:
        return self.parent.serialize(self.chosen(self.parent.vec(w)))

    def min_coset_length(self, w: Word) -> int:
        return sum(abs(r) for r in self.chosen(self.parent.vec(w)))

    def is_rep(self, w: Word) -> bool:
        vec = self.parent.vec(w)
        if not _is_collected(self.parent, w):
            return False
        return self.chosen(vec) == tuple(vec)

    @property
    def coset_language(self):
        if self._language is None:
            if self._independent:
                ranges = []
                for o in self._orders:
                    if o is None:
                        ranges.append((None, None))
                    else:
                        ranges.append((o // 2, (o - 1) // 2))
                self._language = _collected_dfa(self.parent, ranges, name="cosets")
            else:
                self._language = self._synthesize_dfa()
        return self._language

    def _collected_extensions(self, word_letters, max_extra):
        """Collected continuations (as letter tuples) of a collected word."""
        parent = self.parent
        if word_letters:
            i, s = parent._letter_vec[word_letters[-1]]
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
        W, H = self._dfa_window, self._dfa_horizon
        alpha = self.parent.alphabet

        def signature(letters):
            word = Word(alpha, letters)
            if not self.is_rep(word):
                return None
            acc = []
            for ext in self._collected_extensions(letters, W):
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
            if len(u) >= H:
                raise BackendError(
                    "coset language synthesis exceeded its horizon; "
                    "increase dfa_horizon/dfa_window")
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
        self._verify_dfa(dfa, H)
        return minimize(dfa)

    def _verify_dfa(self, dfa: Dfa, horizon: int):
        for ext in self._collected_extensions((), horizon):
            w = Word(self.parent.alphabet, ext)
            if dfa.accepts(w) != self.is_rep(w):
                raise BackendError(
                    f"synthesized coset DFA disagrees with the oracle at {w}; "
                    "increase dfa_window")


def _is_collected(backend: AbelianBackend, w: Word) -> bool:
    last = (-1, 0)
    for x in w.letters:
        i, s = backend._letter_vec[x]
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


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def _lcm(a, b):
    return a // _gcd(a, b) * b if a and b else 0


def abelian_backend(rank: int, torsion: Sequence[int] = (), names=None) -> AbelianBackend:
    return AbelianBackend(rank, torsion, names)


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
        parent = ctx.parent
        k = len(ctx.gen_words)
        torsion_rows = []
        for i in range(parent.n):
            d = parent.modulus(i)
            if d is not None:
                torsion_rows.append(tuple(d if j == i else 0 for j in range(parent.n)))
        stacked = IntLattice([list(v) for v in ctx.gen_vecs] + torsion_rows, parent.n)
        relations = []
        for row in stacked.left_nullspace():
            c = row[:k]
            if any(c):
                relations.append(c)
        names = list(ctx.gen_alphabet.generators)
        self.backend = AbelianBackend(k, names=names) if k else AbelianBackend(0, names=[])
        self.relations = [self.backend.serialize(c) for c in relations]
        self.presentation = AbelianSubgroup(self.backend, self.relations)
        self.ctx = ctx

    @property
    def alphabet(self):
        return self.backend.alphabet

    @property
    def shortlex_language(self):
        """Unique shortlex representatives of the subgroup over its generators."""
        return self.presentation.coset_language

    def key(self, yword: Word):
        return self.presentation.lattice.key(self.backend.vec(yword))

    def canonical(self, yword: Word) -> Word:
        return self.presentation.coset_rep(yword)


def abelian_subgroup(parent: AbelianBackend, gens: Sequence[Word], gen_names=None) -> AbelianSubgroup:
    return AbelianSubgroup(parent, gens, gen_names)


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

    def min_coset_length(self, w: Word) -> int:
        return self.parent.geodesic_length(w)

    @property
    def coset_language(self):
        return self.parent.canonical_language


def trivial_subgroup(parent) -> TrivialSubgroup:
    return TrivialSubgroup(parent)


# --- free backend ------------------------------------------------------------

class FreeBackend:
    def __init__(self, rank: int, names: Optional[Sequence[str]] = None):
        if names is None:
            if rank > 26:
                names = [f"g{i + 1}" for i in range(rank)]
            else:
                names = [chr(ord("a") + i) for i in range(rank)]
        self.rank = rank
        self.alphabet = Alphabet(names)
        self.name = f"free(rank={rank})"
        self._canonical_language = None

    def canonical(self, w: Word) -> Word:
        return free_reduce(w)

    def key(self, w: Word):
        return free_reduce(w).letters

    def geodesic_length(self, w: Word) -> int:
        return len(free_reduce(w))

    def ball(self, radius: int) -> list[Word]:
        out = [self.alphabet.empty()]
        frontier = [()]
        inv = self.alphabet.inv
        for _ in range(radius):
            nxt = []
            for letters in frontier:
                for x in range(len(self.alphabet)):
                    if letters and inv[letters[-1]] == x:
                        continue
                    nxt.append(letters + (x,))
            out.extend(Word(self.alphabet, ls) for ls in nxt)
            frontier = nxt
        return out

    @property
    def canonical_language(self) -> Dfa:
        if self._canonical_language is None:
            m = len(self.alphabet)
            inv = self.alphabet.inv
            transitions = {}
            for x in range(m):
                transitions[(0, x)] = x + 1
                for y in range(m):
                    if inv[x] != y:
                        transitions[(x + 1, y)] = y + 1
            self._canonical_language = Dfa(
                self.alphabet, m + 1, 0, set(range(m + 1)), transitions, "reduced")
        return self._canonical_language


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
        self._language = None

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

    def min_coset_length(self, w: Word) -> int:
        return len(self.coset_rep(w))

    @property
    def coset_language(self):
        if self._language is None:
            if len(self.gen) == 1:
                g = self.gen.letters[0]
                gi = self.parent.alphabet.inv[g]
                base = self.parent.canonical_language
                transitions = {
                    (s, x): t for (s, x), t in base.transitions.items()
                    if not (s == base.start and x in (g, gi))
                }
                self._language = fsa._trim(Dfa(
                    self.parent.alphabet, base.n_states, base.start,
                    base.accepting, transitions, "cosets"))
            else:
                self._language = LazyLanguage(
                    self.parent.alphabet,
                    membership=lambda w: free_reduce(w) == w and self.coset_rep(w) == w,
                    enumerator=lambda n: [w for w in self.parent.ball(n)
                                          if self.coset_rep(w) == w],
                    name="cosets")
        return self._language


def free_backend(rank: int, names=None) -> FreeBackend:
    return FreeBackend(rank, names)


def free_subgroup_cyclic(parent: FreeBackend, gen: Word, gen_names=None) -> FreeCyclicSubgroup:
    return FreeCyclicSubgroup(parent, gen, gen_names)


# --- finite backend ----------------------------------------------------------

class FiniteBackend:
    """Group given by a multiplication table; element 0 is the identity."""

    def __init__(self, table: Sequence[Sequence[int]], gens: Optional[dict] = None):
        n = len(table)
        self.table = [tuple(row) for row in table]
        for i in range(n):
            if len(self.table[i]) != n:
                raise BackendError("table is not square")
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
        self.inv_elt = inv
        self.order = n
        if gens is None:
            gens = {f"g{i}": i for i in range(1, n)}
        self.gen_elts = dict(gens)
        names = list(self.gen_elts)
        self_inverse = [nm for nm in names if inv[self.gen_elts[nm]] == self.gen_elts[nm]]
        self.alphabet = Alphabet(names, self_inverse=self_inverse)
        self._letter_elt = {}
        for nm in names:
            p = self.alphabet.index(nm)
            self._letter_elt[p] = self.gen_elts[nm]
            self._letter_elt[self.alphabet.inv[p]] = inv[self.gen_elts[nm]]
        # shortlex-least word per element, by breadth-first search
        self._canon: dict[int, tuple] = {0: ()}
        frontier = [0]
        while frontier:
            nxt = []
            for e in frontier:
                for x in range(len(self.alphabet)):
                    e2 = self.table[e][self._letter_elt[x]]
                    if e2 not in self._canon:
                        self._canon[e2] = self._canon[e] + (x,)
                        nxt.append(e2)
            frontier = nxt
        if len(self._canon) != n:
            raise BackendError("declared generators do not generate the group")
        self.name = f"finite(order={n})"
        self._canonical_language = None

    def eval(self, w: Word) -> int:
        e = 0
        for x in w.letters:
            e = self.table[e][self._letter_elt[x]]
        return e

    def canonical(self, w: Word) -> Word:
        return Word(self.alphabet, self._canon[self.eval(w)])

    def key(self, w: Word):
        return self.eval(w)

    def geodesic_length(self, w: Word) -> int:
        return len(self._canon[self.eval(w)])

    def ball(self, radius: int) -> list[Word]:
        words = [Word(self.alphabet, ls) for ls in self._canon.values() if len(ls) <= radius]
        words.sort(key=shortlex_key)
        return words

    @property
    def canonical_language(self) -> Dfa:
        if self._canonical_language is None:
            self._canonical_language = word_set_dfa(
                (Word(self.alphabet, ls) for ls in self._canon.values()),
                self.alphabet, "canonical")
        return self._canonical_language


class FiniteSubgroup(SubgroupContext):
    def __init__(self, parent: FiniteBackend, gens: Sequence[Word], gen_names=None):
        super().__init__(parent, gens, gen_names)
        elts = {0}
        frontier = [0]
        gen_elts = [parent.eval(g) for g in gens]
        step = gen_elts + [parent.inv_elt[e] for e in gen_elts]
        while frontier:
            nxt = []
            for e in frontier:
                for g in step:
                    e2 = parent.table[e][g]
                    if e2 not in elts:
                        elts.add(e2)
                        nxt.append(e2)
            frontier = nxt
        self.elements = frozenset(elts)
        # right cosets Hg, representative = element with shortlex-least word
        self._coset_of = {}
        self._rep_word = {}
        for g in range(parent.order):
            if g in self._coset_of:
                continue
            coset = sorted(parent.table[h][g] for h in elts)
            rep = min(coset, key=lambda e: shortlex_key(Word(parent.alphabet, parent._canon[e])))
            cid = len(self._rep_word)
            for e in coset:
                self._coset_of[e] = cid
            self._rep_word[cid] = Word(parent.alphabet, parent._canon[rep])
        self._language = None
        # words over the subgroup generators, by BFS in H
        self._yword: dict[int, tuple] = {0: ()}
        frontier = [0]
        ystep = []
        for i in range(len(self.gen_words)):
            p = self.gen_alphabet.index(self.gen_alphabet.generators[i])
            ystep.append((gen_elts[i], p))
            if self.gen_alphabet.inv[p] != p:
                ystep.append((parent.inv_elt[gen_elts[i]], self.gen_alphabet.inv[p]))
        while frontier:
            nxt = []
            for e in frontier:
                for g, letter in ystep:
                    e2 = parent.table[e][g]
                    if e2 not in self._yword:
                        self._yword[e2] = self._yword[e] + (letter,)
                        nxt.append(e2)
            frontier = nxt

    def membership(self, w: Word) -> bool:
        return self.parent.eval(w) in self.elements

    def h_express(self, w: Word) -> Word:
        e = self.parent.eval(w)
        if e not in self.elements:
            raise BackendError(f"h_express on non-member {w}")
        return Word(self.gen_alphabet, self._yword[e])

    def coset_rep(self, w: Word) -> Word:
        return self._rep_word[self._coset_of[self.parent.eval(w)]]

    def min_coset_length(self, w: Word) -> int:
        return len(self.coset_rep(w))

    def coset_count(self) -> int:
        return len(self._rep_word)

    @property
    def coset_language(self):
        if self._language is None:
            self._language = word_set_dfa(self._rep_word.values(), self.parent.alphabet, "cosets")
        return self._language


def finite_backend(table, gens=None) -> FiniteBackend:
    return FiniteBackend(table, gens)


def finite_subgroup(parent: FiniteBackend, gens, gen_names=None) -> FiniteSubgroup:
    return FiniteSubgroup(parent, gens, gen_names)

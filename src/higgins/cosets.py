"""Coset systems, Cayley balls and the hypothesis verifiers: limited and
maximal crossover, and stability of edge isomorphisms.

CayleyBall is the breadth-first search of group elements: a shortlex ball
over an oracle's letters, keyed by the oracle's canonical keys.
Subgroup lengths |h|_Y, not ambient word lengths, are path lengths in the
subgroup's own Cayley graph over the probe generating set: a WordMetric is a
CayleyBall over one letter per probe word, grown per report only as far as
its callers ask.  Every ball, the ball of g in <Z> included, keys its words
by the parent's key.

A crossover sweep measures each (u, g) once, so one limited sweep is read
at every lambda up to its own.  A context whose generators form a basis of
a free abelian subgroup may offer coset_splitter(), which gives, for one
sweep, a function split(u, g) -> (v, coordinates of u g v^-1); with Y left
at the context's generators, the sweep reads v and |h|_Y off that one call,
and other contexts keep coset_rep and the ball.  Stability first checks that
the generator map is a homomorphism, relator by relator
(SubgroupContext.broken_relator), as GraphOfGroups.validate() does.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

from .fsa import enumerate_language
from .words import Alphabet, Word, WordMap, invert, shortlex_key

WITNESS_LIMIT = 100
LENGTH_CAP_PER_STEP = 4  # see length_cap
LENGTH_CAP_MARGIN = 8

UNBOUNDED = None
_MISS = object()  # a memo miss; a cached escape is stored as UNBOUNDED


class VerifierError(ValueError):
    pass


def length_cap(radius: int, constant: int = 0) -> int:
    """How far a subgroup length is searched: a crossover's h = u g v^-1
    (constant lambda), a stable image (mu) or a factorization's y_g (none)."""
    return LENGTH_CAP_PER_STEP * (radius + constant) + LENGTH_CAP_MARGIN


class CosetSystem:
    """A subgroup context with a language of coset representatives and a
    fellow-travelling mode; coset_key keys a word by its coset, the
    context's own unless a caller that has keyed the words passes its memo."""

    def __init__(self, context, language=None, mode: str = "async", coset_key=None):
        if mode not in ("sync", "async"):
            raise VerifierError(f"mode must be sync or async, got {mode!r}")
        self.context = context
        self.language = language if language is not None else context.coset_language
        self.mode = mode
        self.coset_key = coset_key if coset_key is not None else context.coset_key


class CayleyBall:
    """Ball around the identity with exact internal metric, grown on demand.

    It starts as the identity alone.  A lookup that misses adds whole
    breadth-first spheres until the key turns up or max_radius is reached;
    len() and elements() first grow the ball to max_radius, and within(r) to
    r.  Its words are each element's shortlex-least geodesic, in shortlex
    order: the standard word acceptor's ball.  radius is the
    radius reached so far and dist holds exactly the depths 0..radius.  A
    level-by-level search finds the same first word for each element however
    far it runs, so no answer depends on how far the ball has grown.

    edges is the Cayley graph of the grown part: edges[i][x] is the index of
    words[i] * x.  Growing a sphere fills in the rows of the sphere before it,
    so every element inside the outermost sphere has its row, in index order.
    left is the left-multiplication table beside it, filled on first use:
    left[i * len(alphabet) + x] is the index of x * words[i], or UNBOUNDED
    beyond the cap, so each x * words[i] the fellow sweep meets is keyed once.
    """

    def __init__(self, oracle, radius: int):
        self.oracle = oracle
        self.alphabet = oracle.alphabet
        self.max_radius = radius
        self.radius = 0
        empty = self.alphabet.empty()
        self.words: list[Word] = [empty]
        self.dist: list[int] = [0]
        self.edges: list[list[int]] = []
        self.left: dict = {}
        self._index: dict = {oracle.key(empty): 0}
        # (i, j) with i < j -> d(g_i, g_j) or UNBOUNDED, filled by distance
        self._pair_cache: dict = {}

    def _grow(self):
        """Add the next sphere: extend the last one by every letter, in
        letter order, keeping the first word found for each new key."""
        d = self.radius + 1
        alphabet, key, index = self.alphabet, self.oracle.key, self._index
        words, edges = self.words, self.edges
        for i in range(len(edges), len(words)):
            u = words[i].letters
            row = []
            for x in range(len(alphabet)):
                w = Word(alphabet, u + (x,))
                k = key(w)
                j = index.get(k)
                if j is None:
                    j = index[k] = len(words)
                    words.append(w)
                    self.dist.append(d)
                row.append(j)
            edges.append(row)
        self.radius = d

    def __len__(self):
        return len(self.elements())

    def index(self, w: Word) -> int | None:
        return self.index_of_key(self.oracle.key(w))

    def index_of_key(self, k) -> int | None:
        """Index of the element with canonical key k, growing the ball until
        it turns up; None when it lies beyond max_radius."""
        idx = self._index.get(k)
        while idx is None and self.radius < self.max_radius:
            self._grow()
            idx = self._index.get(k)
        return idx

    def elements(self) -> list[Word]:
        return self.within(self.max_radius)

    def within(self, r: int) -> list[Word]:
        """The words at distance <= r, growing the ball to r only (never
        past max_radius)."""
        while self.radius < min(r, self.max_radius):
            self._grow()
        return self.words[:bisect_right(self.dist, r)]

    def distance(self, i: int, j: int) -> int | None:
        """d(g_i, g_j), or None when g_i^-1 g_j falls outside the capped ball."""
        if i == j:
            return 0
        key = (i, j) if i < j else (j, i)
        hit = self._pair_cache.get(key, _MISS)
        if hit is _MISS:
            a, b = key
            idx = self.index_of_key(self.oracle.key(invert(self.words[a]) * self.words[b]))
            hit = self.dist[idx] if idx is not None else UNBOUNDED
            self._pair_cache[key] = hit
        return hit


class ExtendedBackend:
    """Oracle over another generating set, each letter realized as a word
    over the parent: the parent's letters plus subgroup generators
    (concat_structure), or one letter per probe word (WordMetric)."""

    def __init__(self, parent, expand: WordMap):
        self.parent = parent
        self.alphabet = expand.source
        self.expand = expand  # words over this alphabet -> parent words

    def key(self, w: Word):
        return self.parent.key(self.expand(w))


class WordMetric(CayleyBall):
    """Lengths and shortest probe expressions for the subgroup generated by a
    set of parent words: a CayleyBall over one letter per probe word (the
    generators of probe_alphabet, when one is supplied), whose letter word y
    is keyed by parent.key(expand(y)).  The ball grows to each caller's cap
    and no further.
    """

    def __init__(self, parent, probe_words: Sequence[Word], probe_alphabet=None):
        if probe_alphabet is None:
            probe_alphabet = Alphabet([f"y{i + 1}" for i in range(len(probe_words))])
        super().__init__(
            ExtendedBackend(parent, WordMap(probe_alphabet, probe_words, parent.alphabet)), 0)

    def length(self, w: Word, cap: int) -> int | None:
        """|w| over the probe words, or None when the ball grown to cap
        (or further, if it already is) does not reach w."""
        self.max_radius = max(self.radius, cap)
        i = self.index_of_key(self.oracle.parent.key(w))
        return None if i is None else self.dist[i]

    def elements_within(self, radius: int):
        """(shortest witness word, length, probe path) for every element of
        length <= radius, by length and then shortlex."""
        self.max_radius = max(self.radius, radius)
        expand = self.oracle.expand
        return sorted(((expand(y), d, y.letters) for y, d in zip(self.within(radius), self.dist)),
                      key=lambda t: (t[1], shortlex_key(t[0])))


class VerifierReport:
    """What a crossover or stability sweep found: its first WITNESS_LIMIT
    witnesses in shortlex order, the exact number of violations and the
    number of cases swept."""

    def __init__(self, witnesses: list, swept: int):
        witnesses.sort(key=lambda t: tuple(shortlex_key(w) for w in t[:-1]))
        self.witnesses = witnesses[:WITNESS_LIMIT]  # (u, g, v, excess) or (h, image length)
        self.total_violations = len(witnesses)
        self.swept = swept

    @property
    def passed(self) -> bool:
        return self.total_violations == 0


class CrossoverReport(VerifierReport):
    """A limited-crossover sweep at lam: at(lam') is the VerifierReport of a
    sweep at lam' <= lam alone, or raises its first VerifierError.  The own
    fields are those of at(lam), but swept counts the (u, g) measured."""

    def __init__(self, lam, radius, floor, glens, us, found):
        # found: (n, m, u, g, v) in sweep order for each pair with n = |g|_Z
        # and m = |u g v^-1|_Y that is a witness (n <= lam' < m) or breaks the
        # cap (m > length_cap(radius, lam'), or m None: beyond every cap, or v
        # is the error of a failed measure) at some lam'.  A sweep at one
        # lam' let lengths up to floor, the radius Y's ball reached before it,
        # pass every cap.
        self.lam, self.swept = lam, us * len(glens)
        self._radius, self._floor, self._glens, self._us = radius, floor, glens, us
        self._found = found

    def at(self, lam: int) -> VerifierReport:
        cap, witnesses = length_cap(self._radius, lam), []
        limit = max(self._floor, cap)
        for n, m, u, g, v in self._found:
            if n <= lam and (m is None or m > limit):
                raise v if isinstance(v, VerifierError) else VerifierError(
                    f"Y does not express u g v^-1 = {u * g * invert(v)} within length {cap}")
            if n <= lam < m:
                witnesses.append((u, g, v, m - lam))
        return VerifierReport(witnesses, self._us * bisect_right(self._glens, lam))

    witnesses = property(lambda self: self.at(self.lam).witnesses)
    total_violations = property(lambda self: self.at(self.lam).total_violations)


def check_limited_crossover(sys: CosetSystem, Y: Sequence[Word] | None = None,
                            Z: Sequence[Word] | None = None, lam: int = 1,
                            radius: int = 4) -> CrossoverReport:
    """Exhaustively test |u g v^-1|_Y <= lambda for u in the language with
    |u| <= radius, g in <Z> with |g|_Z <= lambda, and v the representative of
    the coset of u g, for every lambda <= lam (CrossoverReport.at)."""
    report = _crossover(sys, Y, Z, lam, radius, maximal=False)
    report.at(min(lam, 1))  # the call raises lambda = 1's error, at() a larger lambda's
    return report


def check_maximal_crossover(sys: CosetSystem, Y: Sequence[Word] | None = None,
                            Z: Sequence[Word] | None = None, lam: int = 1,
                            radius: int = 4) -> VerifierReport:
    """Like limited crossover but g ranges over all of <Z> with |g|_Z <= radius
    and u is restricted to non-subgroup representatives."""
    return _crossover(sys, Y, Z, lam, radius, maximal=True).at(lam)


def _crossover(sys: CosetSystem, Y, Z, lam: int, radius: int, maximal: bool):
    """The crossover sweep behind both checks.  With Y left at the context's
    generators, a context's coset_splitter() gives v and the coordinates of
    u g v^-1 at once.  A maximal sweep's g is swept at lam alone."""
    ctx = sys.context
    splitter = getattr(ctx, "coset_splitter", None) if Y is None else None
    Y = list(Y) if Y is not None else list(ctx.gen_words)
    Z = list(Z) if Z is not None else list(Y)
    cap = length_cap(radius, lam)
    if splitter is not None:
        split, floor = splitter(), 0

        def measure(u, g):
            v, (m, n) = split(u, g)
            return v, abs(m) + abs(n)
    else:
        y_metric = WordMetric(ctx.parent, Y)
        for gw in ctx.gen_words:
            if y_metric.length(gw, radius + 2) is None:
                raise VerifierError(f"probe set does not generate the subgroup generator {gw} "
                                    f"within radius {radius + 2}")
        floor = y_metric.radius

        def measure(u, g):
            product = u * g
            v = ctx.coset_rep(product)
            return v, y_metric.length(product * invert(v), cap)
    gs, glens = [], []
    for g, n, _y in WordMetric(ctx.parent, Z).elements_within(radius if maximal else lam):
        n = lam if maximal else n
        gs.append((g, n, max(floor, length_cap(radius, n))))
        glens.append(n)
    found, us = [], 0
    for u in enumerate_language(sys.language, radius):
        if maximal and ctx.membership(u):
            continue
        us += 1
        for g, n, limit in gs:
            try:
                v, m = measure(u, g)
            except VerifierError as e:
                v, m = e, None
            if m is None or m > n or m > limit:
                found.append((n, m, u, g, v))
    return CrossoverReport(lam, radius, floor, glens, us, found)


def check_stability(iso_images: Sequence[Word], H1, H2, mu: int, radius: int) -> VerifierReport:
    """mu-stability of the generator map H1 -> H2: elements of Y1-length <= mu
    must have images of Y2-length <= mu.

    The map is checked to be a homomorphism before sweeping: every relator of
    H1 must map to the identity of H2.
    """
    if len(iso_images) != len(H1.gen_words):
        raise VerifierError("iso must map every generator")
    iso = WordMap(H1.gen_alphabet, iso_images, H2.gen_alphabet)
    r = H1.broken_relator(iso, H2)
    if r is not None:
        raise VerifierError(
            f"iso is not a homomorphism: the relator {r} does not map to the identity")

    m1 = WordMetric(H1.parent, H1.gen_words, H1.gen_alphabet)
    m2 = WordMetric(H2.parent, H2.gen_words)
    cap = length_cap(radius, mu)
    witnesses = []
    ys = m1.elements_within(mu)
    for _w, _d, ypath in ys:
        yword = Word(H1.gen_alphabet, ypath)
        img_len = m2.length(H2.expand(iso(yword)), cap)
        if img_len is None:
            raise VerifierError(f"image of {yword} not expressible over Y2 within {cap}")
        if img_len > mu:
            witnesses.append((yword, img_len))
    return VerifierReport(witnesses, len(ys))

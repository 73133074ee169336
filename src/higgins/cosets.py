"""Coset systems, Cayley balls and the hypothesis verifiers: limited and
maximal crossover, and stability of edge isomorphisms.

CayleyBall is the breadth-first search of group elements: a shortlex ball
over an oracle's letters, keyed by the oracle's canonical keys.
Subgroup lengths |h|_Y, not ambient word lengths, are path lengths in the
subgroup's own Cayley graph over the probe generating set: a WordMetric is a
CayleyBall over one letter per probe word, grown per report only as far as
its callers ask.  A context whose generators form a basis of a free abelian
subgroup may offer coset_splitter(), which gives, for one crossover sweep, a
function split(u, g) -> (v, coordinates of u g v^-1); with Y left at the
context's generators, the sweep reads v and |h|_Y off that one call per
(u, g), and other contexts keep coset_rep and the ball.  Every ball, the
ball of g in <Z> included, keys its words by the parent's key.  Stability
first checks that the generator map is a homomorphism, relator by relator
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
_MISS = object()  # a pair-cache miss; a cached escape is stored as UNBOUNDED


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
        self._index: dict = {oracle.key(empty): 0}
        # (i, j) with i < j -> d(g_i, g_j) or UNBOUNDED; _aligns_within reads
        # it in place and calls distance only on a miss
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


class CrossoverReport:
    def __init__(self, kind, lam, Y, Z, radius, witnesses, total_violations, swept):
        self.kind = kind
        self.lam = lam
        self.Y = Y
        self.Z = Z
        self.radius = radius
        self.witnesses = witnesses  # (u, g, v, excess)
        self.total_violations = total_violations
        self.swept = swept

    @property
    def passed(self) -> bool:
        return self.total_violations == 0

    def lines(self):
        out = [
            f"property {self.kind}",
            "params lambda=%d Y=[%s] Z=[%s]" % (
                self.lam,
                "; ".join(str(w) for w in self.Y),
                "; ".join(str(w) for w in self.Z),
            ),
            f"radius {self.radius}",
            f"status {'pass' if self.passed else 'fail'}",
            f"violations {self.total_violations}",
        ]
        for u, g, v, excess in self.witnesses:
            out.append(f"witness u={u} g={g} v={v} excess={excess}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


class StabilityReport:
    def __init__(self, mu, radius, witnesses, total_violations, swept):
        self.mu = mu
        self.radius = radius
        self.witnesses = witnesses  # (h as Y1-word, image length)
        self.total_violations = total_violations
        self.swept = swept

    @property
    def passed(self) -> bool:
        return self.total_violations == 0

    def lines(self):
        out = [
            "property stability",
            f"params mu={self.mu}",
            f"radius {self.radius}",
            f"status {'pass' if self.passed else 'fail'}",
            f"violations {self.total_violations}",
        ]
        for h, img_len in self.witnesses:
            out.append(f"witness h={h} image_length={img_len}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


def _check_generates(metric: WordMetric, ctx, radius: int):
    for gw in ctx.gen_words:
        if metric.length(gw, radius + 2) is None:
            raise VerifierError(
                f"probe set does not generate the subgroup generator {gw} "
                f"within radius {radius + 2}")


def check_limited_crossover(sys: CosetSystem, Y: Sequence[Word] | None = None,
                            Z: Sequence[Word] | None = None, lam: int = 1,
                            radius: int = 4) -> CrossoverReport:
    """Exhaustively test |u g v^-1|_Y <= lambda for u in the language with
    |u| <= radius, g in <Z> with |g|_Z <= lambda, and v the representative of
    the coset of u g."""
    return _crossover(sys, Y, Z, lam, radius, maximal=False)


def check_maximal_crossover(sys: CosetSystem, Y: Sequence[Word] | None = None,
                            Z: Sequence[Word] | None = None, lam: int = 1,
                            radius: int = 4) -> CrossoverReport:
    """Like limited crossover but g ranges over all of <Z> with |g|_Z <= radius
    and u is restricted to non-subgroup representatives."""
    return _crossover(sys, Y, Z, lam, radius, maximal=True)


def _crossover(sys: CosetSystem, Y, Z, lam: int, radius: int, maximal: bool):
    """The crossover sweep behind both checks.  With Y left at the context's
    generators, a context's coset_splitter() gives v and the coordinates of
    u g v^-1 at once."""
    ctx = sys.context
    parent = ctx.parent
    splitter = getattr(ctx, "coset_splitter", None) if Y is None else None
    Y = list(Y) if Y is not None else list(ctx.gen_words)
    Z = list(Z) if Z is not None else list(Y)
    cap = length_cap(radius, lam)
    if splitter is not None:
        split = splitter()

        def measure(u, g):
            v, (m, n) = split(u, g)
            hlen = abs(m) + abs(n)
            return v, (hlen if hlen <= cap else None)
    else:
        y_metric = WordMetric(parent, Y)
        _check_generates(y_metric, ctx, radius)

        def measure(u, g):
            product = u * g
            v = ctx.coset_rep(product)
            return v, y_metric.length(product * invert(v), cap)
    gs = WordMetric(parent, Z).elements_within(radius if maximal else lam)
    witnesses = []
    swept = 0
    for u in enumerate_language(sys.language, radius):
        if maximal and ctx.membership(u):
            continue
        for g, _glen, _y in gs:
            swept += 1
            v, hlen = measure(u, g)
            if hlen is None:
                raise VerifierError(
                    f"Y does not express u g v^-1 = {u * g * invert(v)} within length {cap}")
            if hlen > lam:
                witnesses.append((u, g, v, hlen - lam))
    witnesses.sort(key=lambda t: tuple(shortlex_key(w) for w in t[:-1]))
    kind = "maximal-crossover" if maximal else "limited-crossover"
    return CrossoverReport(kind, lam, Y, Z, radius, witnesses[:WITNESS_LIMIT],
                           len(witnesses), swept)


def check_stability(iso_images: Sequence[Word], H1, H2, mu: int, radius: int) -> StabilityReport:
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
    swept = 0
    for _w, _d, ypath in m1.elements_within(mu):
        swept += 1
        yword = Word(H1.gen_alphabet, ypath)
        img_len = m2.length(H2.expand(iso(yword)), cap)
        if img_len is None:
            raise VerifierError(f"image of {yword} not expressible over Y2 within {cap}")
        if img_len > mu:
            witnesses.append((yword, img_len))
    witnesses.sort(key=lambda t: shortlex_key(t[0]))
    kept = witnesses[:WITNESS_LIMIT]
    return StabilityReport(mu, radius, kept, len(witnesses), swept)

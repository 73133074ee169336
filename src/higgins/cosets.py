"""Coset systems and the hypothesis verifiers: limited and maximal crossover,
and stability of edge isomorphisms.

Subgroup lengths |h|_Y are path lengths in the subgroup's own Cayley graph
over the probe generating set, computed by breadth-first search and memoized
per report; they are not ambient word lengths.  A context whose generators
form a basis of a free abelian subgroup may offer coset_splitter(), which
gives, for one crossover sweep, a function split(u, g) -> (v, coordinates of
u g v^-1); with Y left at the context's generators, the sweep reads v and
|h|_Y off that one call per (u, g), and other contexts keep coset_rep and the
search.  Such a context's y_coords(w) keys the search for g in <Z> by
coordinates when Y and Z are both left at the generators.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .fsa import enumerate_language
from .words import Word, WordMap, invert, shortlex_key

WITNESS_LIMIT = 100
# a crossover's h = u g v^-1 is looked for in <Y> up to length
# LENGTH_CAP_PER_STEP * (radius + lambda) + LENGTH_CAP_MARGIN
LENGTH_CAP_PER_STEP = 4
LENGTH_CAP_MARGIN = 8


class VerifierError(ValueError):
    pass


class CosetSystem:
    def __init__(self, context, language=None, mode: str = "async"):
        if mode not in ("sync", "async"):
            raise VerifierError(f"mode must be sync or async, got {mode!r}")
        self.context = context
        self.language = language if language is not None else context.coset_language
        self.mode = mode


class WordMetric:
    """Breadth-first lengths and shortest probe expressions for the subgroup
    generated by a set of parent words.

    When a probe alphabet is supplied (one generator per probe word), each
    reached element also records its shortest word over that alphabet.

    key, when given, keys the search in place of parent.key (a context's
    coordinates of its subgroup's elements, say), so the search itself is
    unchanged.
    """

    def __init__(self, parent, probe_words: Sequence[Word], probe_alphabet=None,
                 key=None):
        self.parent = parent
        self._key = key = key if key is not None else parent.key
        steps = []
        seen_steps = set()
        identity = key(parent.alphabet.empty())
        for i, w in enumerate(probe_words):
            if probe_alphabet is not None:
                p = probe_alphabet.index(probe_alphabet.generators[i])
                variants = ((w, p), (invert(w), probe_alphabet.inv[p]))
            else:
                variants = ((w, None), (invert(w), None))
            for s, letter in variants:
                k = key(s)
                if k not in seen_steps and k != identity:
                    seen_steps.add(k)
                    steps.append((s, letter))
        self.steps = steps
        empty = parent.alphabet.empty()
        self.table = {identity: (0, empty, ())}
        self.frontier = [(empty, ())]
        self.depth = 0

    def grow_to(self, depth: int):
        key = self._key
        while self.depth < depth and self.frontier:
            nxt = []
            for u, ypath in self.frontier:
                for s, letter in self.steps:
                    w = u * s
                    k = key(w)
                    if k not in self.table:
                        ny = ypath + (letter,)
                        self.table[k] = (self.depth + 1, w, ny)
                        nxt.append((w, ny))
            self.frontier = nxt
            self.depth += 1

    def length(self, w: Word, cap: int) -> Optional[int]:
        """|w| over the probe words, or None when the search grown to cap
        (or further, if it already is) does not reach w."""
        k = self._key(w)
        hit = self.table.get(k)
        while hit is None and self.depth < cap and self.frontier:
            self.grow_to(self.depth + 1)
            hit = self.table.get(k)
        return None if hit is None else hit[0]

    def elements_within(self, radius: int):
        """(shortest witness word, length, probe path) for every element of
        length <= radius, by length and then shortlex."""
        self.grow_to(radius)
        return [(w, d, y) for d, w, y in sorted(
            self.table.values(), key=lambda t: (t[0], shortlex_key(t[1])))
            if d <= radius]


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


def check_limited_crossover(sys: CosetSystem, Y: Optional[Sequence[Word]] = None,
                            Z: Optional[Sequence[Word]] = None, lam: int = 1,
                            radius: int = 4) -> CrossoverReport:
    """Exhaustively test |u g v^-1|_Y <= lambda for u in the language with
    |u| <= radius, g in <Z> with |g|_Z <= lambda, and v the representative of
    the coset of u g."""
    return _crossover(sys, Y, Z, lam, radius, maximal=False)


def check_maximal_crossover(sys: CosetSystem, Y: Optional[Sequence[Word]] = None,
                            Z: Optional[Sequence[Word]] = None, lam: int = 1,
                            radius: int = 4) -> CrossoverReport:
    """Like limited crossover but g ranges over all of <Z> with |g|_Z <= radius
    and u is restricted to non-subgroup representatives."""
    return _crossover(sys, Y, Z, lam, radius, maximal=True)


def _crossover(sys: CosetSystem, Y, Z, lam: int, radius: int, maximal: bool):
    """The crossover sweep behind both checks.  With Y left at the context's
    generators, a context's coset_splitter() gives v and the coordinates of
    u g v^-1 at once; with Y and Z both left so, its y_coords keys the search
    for g."""
    ctx = sys.context
    parent = ctx.parent
    splitter = getattr(ctx, "coset_splitter", None) if Y is None else None
    z_key = getattr(ctx, "y_coords", None) if Y is None and Z is None else None
    Y = list(Y) if Y is not None else list(ctx.gen_words)
    Z = list(Z) if Z is not None else list(Y)
    cap = LENGTH_CAP_PER_STEP * (radius + lam) + LENGTH_CAP_MARGIN
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
    gs = WordMetric(parent, Z, key=z_key).elements_within(radius if maximal else lam)
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

    The map is validated as a homomorphism on all relations observable within
    the given radius (equal products must have equal images) before sweeping.
    """
    m1 = WordMetric(H1.parent, H1.gen_words, H1.gen_alphabet)
    m2 = WordMetric(H2.parent, H2.gen_words)
    if len(iso_images) != len(H1.gen_words):
        raise VerifierError("iso must map every generator")

    iso = WordMap(H1.gen_alphabet, iso_images, H2.gen_alphabet)

    def image_of_yword(yword: Word) -> Word:
        return H2.expand(iso(yword))

    # homomorphism check on observable relations
    seen: dict = {}
    stack = [H1.gen_alphabet.empty()]
    all_ywords = [H1.gen_alphabet.empty()]
    for _ in range(min(radius, 6)):
        nxt = []
        for yw in stack:
            for letter in range(len(H1.gen_alphabet)):
                nw = Word(H1.gen_alphabet, yw.letters + (letter,))
                nxt.append(nw)
                all_ywords.append(nw)
        stack = nxt
    for yw in all_ywords:
        k1 = H1.parent.key(H1.expand(yw))
        k2 = H2.parent.key(image_of_yword(yw))
        if k1 in seen:
            if seen[k1] != k2:
                raise VerifierError(
                    f"iso is not a homomorphism on the tested range: relation at {yw}")
        else:
            seen[k1] = k2

    cap = 4 * (mu + radius) + 8
    witnesses = []
    swept = 0
    for _w, _d, ypath in m1.elements_within(mu):
        swept += 1
        yword = Word(H1.gen_alphabet, ypath)
        img = image_of_yword(yword)
        img_len = m2.length(img, cap)
        if img_len is None:
            raise VerifierError(f"image of {yword} not expressible over Y2 within {cap}")
        if img_len > mu:
            witnesses.append((yword, img_len))
    witnesses.sort(key=lambda t: shortlex_key(t[0]))
    kept = witnesses[:WITNESS_LIMIT]
    return StabilityReport(mu, radius, kept, len(witnesses), swept)

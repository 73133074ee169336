"""Coset systems and the hypothesis verifiers: limited and maximal crossover,
stability of edge isomorphisms, concatenation of geodesics, and identity-coset
pruning.

Subgroup lengths |h|_Y are path lengths in the subgroup's own Cayley graph
over the probe generating set, computed by breadth-first search and memoized
per report; they are not ambient word lengths.  A context whose generators
form a basis of a free abelian subgroup may offer y_coords(w); the crossover
checks then read |h|_Y off those coordinates, with the search as fallback.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .fsa import Dfa, LazyLanguage, enumerate_language
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

    coords, when given, maps a parent word to its coordinates in the free
    abelian subgroup with basis probe_words, or to None off the subgroup.  It
    keys the search in place of parent.key, so the search itself is
    unchanged, and length() reads the L1 norm of the coordinates instead of
    searching.
    """

    def __init__(self, parent, probe_words: Sequence[Word], probe_alphabet=None,
                 coords=None):
        self.parent = parent
        self.coords = coords
        self._key = key = coords if coords is not None else parent.key
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
        if self.coords is not None:
            c = self.coords(w)
            if c is None:
                return None
            d = sum(abs(t) for t in c)
            return d if d <= max(cap, self.depth) else None
        k = self.parent.key(w)
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
    """The crossover sweep behind both checks.  Y and Z left at the context's
    generators take their lengths from the context's y_coords, when it has
    one, instead of a breadth-first search."""
    ctx = sys.context
    parent = ctx.parent
    y_coords = getattr(ctx, "y_coords", None) if Y is None else None
    z_coords = y_coords if Z is None else None
    Y = list(Y) if Y is not None else list(ctx.gen_words)
    Z = list(Z) if Z is not None else list(Y)
    y_metric = WordMetric(parent, Y, coords=y_coords)
    _check_generates(y_metric, ctx, radius)
    z_metric = WordMetric(parent, Z, coords=z_coords)
    gs = z_metric.elements_within(radius if maximal else lam)
    cap = LENGTH_CAP_PER_STEP * (radius + lam) + LENGTH_CAP_MARGIN
    witnesses = []
    swept = 0
    for u in enumerate_language(sys.language, radius):
        if maximal and ctx.membership(u):
            continue
        for g, _glen, _y in gs:
            swept += 1
            product = u * g
            v = ctx.coset_rep(product)
            h = product * invert(v)
            hlen = y_metric.length(h, cap)
            if hlen is None:
                raise VerifierError(
                    f"Y does not express u g v^-1 = {h} within length {cap}")
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


class ConcatReport:
    def __init__(self, radius, witnesses, total_violations, swept):
        self.radius = radius
        self.witnesses = witnesses  # (w, v0)
        self.total_violations = total_violations
        self.swept = swept

    @property
    def passed(self) -> bool:
        return self.total_violations == 0

    def lines(self):
        out = [
            "property concatenates-up",
            f"radius {self.radius}",
            f"status {'pass' if self.passed else 'fail'}",
            f"violations {self.total_violations}",
        ]
        for w, v0 in self.witnesses:
            out.append(f"witness w={w} v0={v0}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


def check_concatenates_up(ctx, radius: int) -> ConcatReport:
    """For geodesic words w over the subgroup letters and coset-minimal words
    v0, check that w v0 is geodesic; requires Y to be a subset of the parent
    letters."""
    parent = ctx.parent
    letters = []
    for gw in ctx.gen_words:
        if len(gw) != 1:
            raise VerifierError("concatenation check needs letter generators (Y subset of X)")
        letters.append(gw.letters[0])
    sub_letters = sorted({x for p in letters for x in (p, parent.alphabet.inv[p])})
    metric = WordMetric(parent, ctx.gen_words)

    y_geodesics = [[parent.alphabet.empty()]]
    frontier = [parent.alphabet.empty()]
    for d in range(1, radius + 1):
        nxt = []
        for u in frontier:
            for x in sub_letters:
                w = Word(parent.alphabet, u.letters + (x,))
                if metric.length(w, radius + 2) == d:
                    nxt.append(w)
        frontier = nxt
        y_geodesics.append(list(frontier))

    minimal_v0 = [[] for _ in range(radius + 1)]
    from .words import words_of_length
    for n in range(radius + 1):
        for v0 in words_of_length(parent.alphabet, n):
            if ctx.min_coset_length(v0) == n:
                minimal_v0[n].append(v0)

    witnesses = []
    swept = 0
    for wy in range(radius + 1):
        for w in y_geodesics[wy]:
            for n in range(radius + 1 - wy):
                for v0 in minimal_v0[n]:
                    swept += 1
                    if parent.geodesic_length(w * v0) != wy + n:
                        witnesses.append((w, v0))
    witnesses.sort(key=lambda t: (shortlex_key(t[0]), shortlex_key(t[1])))
    return ConcatReport(radius, witnesses[:WITNESS_LIMIT], len(witnesses), swept)


def prune_identity_coset(sys: CosetSystem) -> CosetSystem:
    """Remove nonempty identity-coset words from the language."""
    ctx = sys.context
    lang = sys.language
    empty = ctx.parent.alphabet.empty()
    if not lang.accepts(empty):
        raise VerifierError("language does not contain the empty word")
    if isinstance(lang, Dfa) and hasattr(ctx.parent, "table"):
        # finite backend: the subgroup membership language is regular
        from .fsa import complement, intersect, single_word_dfa, union, minimize
        parent = ctx.parent
        trans = {}
        for e in range(parent.order):
            for letter in range(len(parent.alphabet)):
                trans[(e, letter)] = parent.table[e][parent._letter_elt[letter]]
        members = Dfa(parent.alphabet, parent.order, 0,
                      {e for e in range(parent.order) if ctx.membership(
                          Word(parent.alphabet, parent._canon[e]))},
                      trans, "members")
        pruned = minimize(union(
            intersect(lang, complement(members)),
            intersect(lang, single_word_dfa(empty))))
        return CosetSystem(ctx, pruned, mode=sys.mode)
    accepts = lang.accepts
    membership = ctx.membership
    pruned = LazyLanguage(
        ctx.parent.alphabet,
        membership=lambda w: accepts(w) and (len(w) == 0 or not membership(w)),
        enumerator=lambda n: [w for w in enumerate_language(lang, n)
                              if len(w) == 0 or not membership(w)],
        name="pruned")
    return CosetSystem(ctx, pruned, mode=sys.mode)

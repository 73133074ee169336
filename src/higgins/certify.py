"""Empirical certification of fellow-traveller properties.

Distances are path distances in the Cayley graph, realized inside a
CayleyBall (cosets), grown only as far as lookups ask, up to a cap of
R + BALL_MARGIN for a radius-R sweep.  A distance beyond the cap escapes the
ball: an explicit signal, never a failure claimed beyond the tested radius.

A certificate reports K, the exact largest optimal fellow constant over the
swept pairs; each pair is measured against the running K, so its own value
is exact only above it.  The asynchronous constant is one search, the
alignment fill, run at the running K and, while it fails, at the least
distance it turned away.  The fill and the lockstep read a cell (p, q) as
its word difference v(p)^-1 h w(q) (Epstein et al., Word Processing in
Groups, ch. 2), got from a neighbour's by one or two reads of the ball's
edge and left tables.  The sweep keeps the words of g's coset and each walk
back from g per ball index of g = v x, and a pair's mirror (w, x^-1, v),
whose grid is the transpose, takes the pair's stored value.
"""

from __future__ import annotations

from .cosets import (_MISS, UNBOUNDED, CayleyBall, CosetSystem, ExtendedBackend, WordMetric,
                     check_limited_crossover, check_stability, length_cap)
from .fsa import Dfa, LazyLanguage, concat as dfa_concat, enumerate_language
from .words import Alphabet, Word, WordMap, invert, shortlex_key


class HypothesisViolation(ValueError):
    pass


BALL_MARGIN = 6  # a radius-R sweep measures distances in a ball of radius R + BALL_MARGIN
# the hypotheses report tries stability constants mu and crossover constants
# lambda from 1 up to these
HYPOTHESES_MU_MAX = 3
HYPOTHESES_LAMBDA_MAX = 3


def _walk(ball: CayleyBall, i: int, letters) -> int | None:
    """Index of words[i] * w for the letters of w, walked along the edge
    table, or None when a step leaves the capped ball.  An element of the
    outermost grown sphere has no row yet; its step is keyed and looked up,
    which grows the ball only when the neighbour is new."""
    edges = ball.edges
    for x in letters:
        if i < len(edges):
            i = edges[i][x]
        else:
            i = ball.index(Word(ball.alphabet, ball.words[i].letters + (x,)))
        if i is None:
            return None
    return i


def _walk_back(ball: CayleyBall, g: int, letters: tuple) -> int | None:
    """Index of h = g * w^-1, walked from g along w^-1 without keying h, or
    None when a step of h * w's path leaves the capped ball."""
    inv = ball.alphabet.inv
    return _walk(ball, g, [inv[x] for x in reversed(letters)])


def _move(ball: CayleyBall, i: int, x: int, y: tuple = ()) -> int | None:
    """Index of x * words[i] * y (y no letter or one), or None beyond the
    cap: x * words[i] from ball.left, keyed on first use, then the edge table;
    past an x * words[i] beyond the cap, the product is keyed in one step."""
    k = i * len(ball.alphabet.inv) + x
    j = ball.left.get(k, _MISS)
    if j is _MISS:
        j = ball.left[k] = ball.index(Word(ball.alphabet, (x,) + ball.words[i].letters))
    if j is None and y:
        return ball.index(Word(ball.alphabet, (x,) + ball.words[i].letters + y))
    return j if j is None else _walk(ball, j, y)


def _grid(ball: CayleyBall, w1, h, w2):
    """(index of h, letters of w1, letters of w2), or None when the path of
    w1 or of h w2 leaves the capped ball: w1, h and w2 are words, or letters
    whose paths the caller has walked in the ball and h's index."""
    if isinstance(w1, tuple):
        return h, w1, w2
    hi = h if isinstance(h, int) else ball.index(h)
    if hi is None or _walk(ball, 0, w1.letters) is None or _walk(ball, hi, w2.letters) is None:
        return None
    return hi, w1.letters, w2.letters


def _lockstep(ball: CayleyBall, hi: int, v: tuple, w: tuple, threshold: int,
              deltas: list) -> bool | int | None:
    """The lockstep diagonal of v against h w, each path resting at its end:
    cell t is (p, q) = (min(t, |v|), min(t, |w|)), the word difference
    δ = v(p)^-1 h w(q), whose depth is the cell's distance.  A diagonal,
    down or right move reads the next δ as _move does, unrolled.  Appends
    each δ to deltas and stops at the first cell beyond threshold or the
    ball: returns its distance (UNBOUNDED for an escape), else True."""
    edges, left, dist, inv = ball.edges, ball.left, ball.dist, ball.alphabet.inv
    m, n1, n2 = len(inv), len(v), len(w)
    di = hi
    deltas.append(di)
    d = dist[di]
    if d > threshold:
        return d
    for t in range(n1 if n1 > n2 else n2):
        if t < n1:
            x = inv[v[t]]
            j = left.get(di * m + x, _MISS)
            if j is None or j is _MISS:
                di = _move(ball, di, x, w[t:t + 1])
            elif t < n2:
                try:
                    di = edges[j][w[t]]
                except IndexError:
                    di = _walk(ball, j, w[t:t + 1])
            else:
                di = j
        else:
            try:
                di = edges[di][w[t]]
            except IndexError:
                di = _walk(ball, di, w[t:t + 1])
        deltas.append(di)
        if di is None:
            return UNBOUNDED
        d = dist[di]
        if d > threshold:
            return d
    return True


def sync_fellow_distance(w1, h, w2, ball: CayleyBall) -> int | None:
    """max_t d(w1(t), h w2(t)), with each path resting at its endpoint: the
    lockstep walk, which no distance within the ball stops.  For the
    arguments see _grid."""
    grid, deltas = _grid(ball, w1, h, w2), []
    if grid is None or _lockstep(ball, *grid, ball.max_radius, deltas) is UNBOUNDED:
        return UNBOUNDED
    return max(ball.dist[i] for i in deltas)


def _aligns_within(ball: CayleyBall, hi: int, v: tuple, w: tuple,
                   threshold: int) -> bool | int | None:
    """True when some monotone alignment of v against h w (h by its ball
    index) keeps every cell within threshold: a depth-first flood fill from
    (0, 0) over cells at distance <= threshold, by diagonal, right and down
    moves.  Otherwise every alignment crosses a cell it turned away, and it
    returns their least distance, or UNBOUNDED when all of them escape.

    Its first descent is the lockstep, read on its own (_lockstep); a
    lockstep that fails at cell t resumes the fill with cells 0..t-1 and
    their δ on the stack and cell t turned away, so the cells are visited
    in the same order as from (0, 0) and each is read at most once.  A move
    reads its cell's δ as _move does, unrolled."""
    deltas: list = []
    least = _lockstep(ball, hi, v, w, threshold, deltas)
    if least is True or len(deltas) == 1:
        return least
    n1, n2 = len(v), len(w)
    edges, left, dist, inv = ball.edges, ball.left, ball.dist, ball.alphabet.inv
    cols, m = n2 + 1, len(inv)
    stack = [(s if s < n1 else n1, s if s < n2 else n2, di) for s, di in enumerate(deltas)]
    seen = bytearray((n1 + 1) * cols)
    for p, q, _di in stack:
        seen[p * cols + q] = 1
    stack.pop()
    while stack:
        p, q, di = stack[-1]
        if p == n1 and q == n2:
            return True
        k = p * cols + q
        if p < n1 and q < n2 and not seen[k + cols + 1]:
            r, s, x = p + 1, q + 1, inv[v[p]]
            nd = left.get(di * m + x, _MISS)
            if nd is None or nd is _MISS:
                nd = _move(ball, di, x, w[q:q + 1])
            else:
                try:
                    nd = edges[nd][w[q]]
                except IndexError:
                    nd = _walk(ball, nd, w[q:q + 1])
        elif q < n2 and not seen[k + 1]:
            r, s = p, q + 1
            try:
                nd = edges[di][w[q]]
            except IndexError:
                nd = _walk(ball, di, w[q:q + 1])
        elif p < n1 and not seen[k + cols]:
            r, s = p + 1, q
            nd = _move(ball, di, inv[v[p]])
        else:
            stack.pop()
            continue
        seen[r * cols + s] = 1
        if nd is not None:
            d = dist[nd]
            if d <= threshold:
                stack.append((r, s, nd))
            elif least is UNBOUNDED or d < least:
                least = d
    return least


def async_fellow_distance(w1, h, w2, ball: CayleyBall,
                          threshold: int | None = None) -> int | None:
    """Minimal K for which some monotone alignment keeps the paths K-close:
    the fill runs at the threshold (None is 0) and, while it fails, at the
    least distance it turned away.  The result is max(exact value,
    threshold), UNBOUNDED exactly when the exact value is, so a sweep that
    passes its running maximum ends on the exact maximum.  For the
    arguments see _grid."""
    grid = _grid(ball, w1, h, w2)
    t = threshold or 0
    while grid is not None and t is not UNBOUNDED:
        nxt = _aligns_within(ball, *grid, t)
        if nxt is True:
            return t
        t = nxt
    return UNBOUNDED


class FellowCertificate:
    def __init__(self, mode, radius, pairs_tested, K_observed, violations,
                 kappa=None, language_states=None):
        self.mode = mode
        self.radius = radius
        self.pairs_tested = pairs_tested
        self.K_observed = K_observed
        self.violations = violations  # (v, h, w) triples that escaped the ball
        self.kappa = kappa
        self.language_states = language_states

    @property
    def bounded(self) -> bool:
        return not self.violations

    def lines(self):
        status = "bounded" if self.bounded else "exceeds-ball"
        out = [
            f"certificate mode={self.mode} radius={self.radius} "
            f"pairs={self.pairs_tested} K={self.K_observed} status={status}"
        ]
        if self.kappa is not None:
            out.append(f"meta kappa={self.kappa}")
        if self.language_states is not None:
            out.append(f"meta language_states={self.language_states}")
        for v, h, w in self.violations[:20]:
            out.append(f"witness v={v} h={h} w={w}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


def _language_states(lang) -> int | None:
    return lang.n_states if isinstance(lang, Dfa) else None


def _sweep(lang, oracle, radius: int, mode: str, ball: CayleyBall, coset_key=None):
    """The fellow-traveller sweep behind every certificate: all v, w in the
    language with v x = h w for a letter or empty x and some h in the
    subgroup, each measured against the running K, so K ends as the exact
    largest per-pair constant.  coset_key None stands for the trivial
    subgroup: words are grouped by element and h is the identity.

    v is walked once along the edge table to g = v x, and each candidate w
    back from g along w^-1 (_walk_back), which gives h's index without
    building or keying h.  A walk that leaves the capped ball makes its pair
    escape unmeasured; only such a pair builds and keys h, to tell it apart.
    Other pairs go by name to sync_fellow_distance or async_fellow_distance
    with h's index and the letters of v and w, so no path is walked again.
    Memos local to the call serve each g once (a padded language spells one
    g many ways): its coset's words and each walk back, by g's ball index.

    A pair (v, x, w) and its mirror (w, x^-1, v), with h^-1, have transposed
    grids, since |u^-1| = |u|, so equal constants, escapes included.  A third
    memo, (id of v, step of x, id of w) -> value, holds a measured pair's
    value until its mirror pops it in place of measuring; K only grows, so
    max(K, value) is what measuring against this K would give.  Every ordered
    pair is still counted and deduplicated, and an escaping one is reported
    with its own v, h and w.  Returns (pairs, K, violations)."""
    words = enumerate_language(lang, radius)
    group = coset_key if coset_key is not None else oracle.key
    key_of = {w.letters: group(w) for w in words}
    by_coset: dict = {}
    for wid, w in enumerate(words):
        by_coset.setdefault(key_of[w.letters], []).append(wid)
    cosets: dict = {}   # gi -> ids of the words of g's coset
    walks: dict = {}    # (gi, wid) -> index of h, _walk_back(ball, gi, words[wid].letters)
    mirrors: dict = {}  # (vid, s, wid) -> value of that pair, until its mirror reads it
    alphabet = oracle.alphabet
    # steps[s] is x, the empty word or a letter, and steps[mirror[s]] is x^-1
    steps = [alphabet.empty()] + [Word(alphabet, (y,)) for y in range(len(alphabet))]
    mirror = [0] + [1 + y for y in alphabet.inv]
    K = 0
    pairs = 0
    violations = []
    for vid, v in enumerate(words):
        vi = _walk(ball, 0, v.letters)
        seen = set()
        for s, x in enumerate(steps):
            gi = None if vi is None else _walk(ball, vi, x.letters)
            coset = cosets.get(gi)
            if coset is None:
                k = key_of.get(v.letters + x.letters, _MISS)
                coset = by_coset.get(group(v * x) if k is _MISS else k, ())
                if gi is not None:
                    cosets[gi] = coset
            for wid in coset:
                w = words[wid]
                hi = None if gi is None else walks.get((gi, wid), _MISS)
                if hi is _MISS:
                    hi = walks[gi, wid] = _walk_back(ball, gi, w.letters)
                walked = hi is not None
                if walked:
                    pk = (wid, hi)
                else:
                    h = v * x * invert(w)
                    hk = oracle.key(h)
                    hi = ball.index_of_key(hk)
                    pk = (wid, hi) if hi is not None else (wid, None, hk)
                if pk in seen:
                    continue
                seen.add(pk)
                pairs += 1
                if not walked:
                    # a path left the ball, so the pair escapes
                    violations.append((v, h if hi is None else ball.words[hi], w))
                    continue
                d = mirrors.pop((wid, mirror[s], vid), _MISS)
                if d is _MISS:
                    # looked up at call time, so a wrapped module function is used
                    if mode == "sync":
                        d = sync_fellow_distance(v.letters, hi, w.letters, ball)
                    else:
                        d = async_fellow_distance(v.letters, hi, w.letters, ball, K)
                    if wid > vid or (wid == vid and mirror[s] > s):
                        mirrors[vid, s, wid] = d
                if d is UNBOUNDED:
                    violations.append((v, ball.words[hi], w))
                else:
                    K = max(K, d)
    violations.sort(key=lambda t: tuple(shortlex_key(u) for u in t))
    return pairs, K, violations


def certify_coset_system(sys: CosetSystem, radius: int, mode: str | None = None,
                         ball: CayleyBall | None = None) -> FellowCertificate:
    """Sweep all v, w in the language with d(v, hw) <= 1 for some h in the
    subgroup, and report the largest optimal per-pair fellow constant."""
    ctx = sys.context
    mode = mode if mode is not None else sys.mode
    if ball is None:
        ball = CayleyBall(ctx.parent, radius + BALL_MARGIN)
    pairs, K, violations = _sweep(sys.language, ctx.parent, radius, mode, ball, sys.coset_key)
    kappa = None
    if ctx.gen_words:
        idxs = [ball.index(gw) for gw in ctx.gen_words]
        if all(i is not None for i in idxs):
            kappa = max(ball.dist[i] for i in idxs)
    return FellowCertificate(mode, radius, pairs, K, violations, kappa,
                             _language_states(sys.language))


def certify_automatic(lang, oracle, radius: int, mode: str = "sync",
                      ball: CayleyBall | None = None) -> FellowCertificate:
    """The coset sweep with the trivial subgroup: pairs u, v in the language
    whose endpoints are at distance <= 1."""
    if ball is None:
        ball = CayleyBall(oracle, radius + BALL_MARGIN)
    pairs, K, violations = _sweep(lang, oracle, radius, mode, ball)
    return FellowCertificate(mode, radius, pairs, K, violations, None, _language_states(lang))


def concat_structure(L_H, sys: CosetSystem):
    """The concatenation language L_H . L^H over the union generating set,
    and the word-problem oracle over its alphabet: (language, oracle).

    L_H is a language over its own alphabet, whose i-th generator stands for
    the i-th subgroup generator; it need not be the context's generator
    alphabet (an order-2 generator takes one slot there but two in the
    alphabet of an AbelianSubgroup's presentation).  When every subgroup
    generator is a single parent letter the result lives over the parent
    alphabet (and is an explicit automaton whenever both inputs are) and the
    oracle is the parent; a self-inverse parent letter then pulls back to the
    generator, never to its inverse letter, the only spelling a shortlex L_H
    uses.  Otherwise the alphabet is extended by the subgroup generators and
    the oracle is an ExtendedBackend over the enlarged alphabet.
    """
    ctx = sys.context
    parent = ctx.parent
    sub = L_H.alphabet
    lang = sys.language
    if all(len(gw) == 1 for gw in ctx.gen_words):
        to_parent = WordMap(sub, ctx.gen_words, parent.alphabet)
        if not (isinstance(L_H, Dfa) and isinstance(lang, Dfa)):
            return _concat_lazy(
                L_H, lang, to_parent, {x: x for x in range(len(parent.alphabet))}), parent
        letter_map = {y: x for y, (x,) in enumerate(to_parent.table)}
        back: dict = {}
        for y, x in letter_map.items():
            back.setdefault(x, y)
        remapped = Dfa(
            parent.alphabet, L_H.n_states, L_H.start, L_H.accepting,
            {(s, letter_map[a]): t for (s, a), t in L_H.transitions.items()
             if back[letter_map[a]] == a},
            "subgroup")
        return dfa_concat(remapped, lang, name="concat"), parent

    # general case: extend the alphabet by the subgroup generators
    names = list(parent.alphabet.generators)
    selfinv = [g for g in names
               if parent.alphabet.inv[parent.alphabet.index(g)] == parent.alphabet.index(g)]
    gen_names = []
    for g in sub.generators:
        nm = g if g not in names else f"h.{g}"
        gen_names.append(nm)
        names.append(nm)
    extended = Alphabet(names, self_inverse=selfinv)
    y_map = WordMap(sub, [extended.letter(nm) for nm in gen_names], extended)
    x_map = {parent.alphabet.index(nm): extended.index(nm) for nm in parent.alphabet.names}
    lazy = _concat_lazy(L_H, lang, y_map, x_map)
    to_parent = WordMap(
        extended, [parent.alphabet.letter(g) for g in parent.alphabet.generators] + ctx.gen_words,
        parent.alphabet)
    return lazy, ExtendedBackend(parent, to_parent)


def _concat_lazy(L_H, lang, y_map: WordMap, x_map: dict) -> LazyLanguage:
    """L_H . lang as a language over y_map.target, into which y_map sends
    L_H's letters and x_map sends lang's."""
    alphabet = y_map.target

    def enum(n: int):
        out = set()
        for head in enumerate_language(L_H, n):
            hw = y_map(head).letters
            for tail in enumerate_language(lang, n - len(head)):
                out.add(hw + tuple(x_map[x] for x in tail.letters))
        return [Word(alphabet, ls) for ls in sorted(out, key=lambda t: (len(t), t))]

    return LazyLanguage(alphabet, enum, "concat")


def detour_padded_language(lang, alphabet: Alphabet) -> LazyLanguage:
    """Pad a language with bounded detours: after each letter x, optionally
    insert d d^-1 where d is the least letter distinct from x and x^-1.

    Same cosets and elements as the base language, but the padded copies drift
    from the originals without bound under synchronous comparison, so the pair
    only fellow travels asynchronously.
    """
    def detour(x):
        for d in range(len(alphabet)):
            if d != x and d != alphabet.inv[x]:
                return d
        return None

    def enum(n: int):
        out = set()
        for base in enumerate_language(lang, n):
            variants = [()]
            for k, x in enumerate(base.letters, 1):
                d = detour(x)
                ext = [v + (x,) for v in variants]
                if d is not None:
                    # a detour only where it and the base letters after x still fit in n
                    room, pad = n - 3 - (len(base) - k), (x, d, alphabet.inv[d])
                    ext.extend(v + pad for v in variants if len(v) <= room)
                variants = ext
            out.update(variants)
        return [Word(alphabet, t) for t in sorted(out, key=lambda t: (len(t), t))]

    return LazyLanguage(alphabet, enum, "padded-detours")


def geodesic_coset_filter(sys: CosetSystem, radius: int) -> CosetSystem:
    """Restrict the language to words of minimal length in their coset.

    Verifies that the filtered language still represents, within the radius,
    every coset met by the ball of that radius; raises HypothesisViolation
    otherwise.  Each word's coset key is computed once, into a memo local
    to the call that the filtered system keeps: enumeration, the coverage
    check and the certificate's sweep all read it.
    """
    ctx = sys.context
    lang = sys.language
    reps: dict = {}  # word letters -> ctx.coset_key(w), its rep's letters

    def rep_of(w: Word) -> tuple:
        rep = reps.get(w.letters)
        if rep is None:
            rep = reps[w.letters] = ctx.coset_key(w)
        return rep

    def geodesic(w: Word) -> bool:
        return len(w) == len(rep_of(w))

    filtered = LazyLanguage(
        ctx.parent.alphabet, lambda n: [w for w in enumerate_language(lang, n) if geodesic(w)],
        "geodesic-filter")
    covered = {rep_of(w) for w in enumerate_language(filtered, radius)}
    for g in CayleyBall(ctx.parent, radius).elements():
        if rep_of(g) not in covered:
            raise HypothesisViolation(
                f"geodesic filter misses the coset of {g} within radius {radius}")
    return CosetSystem(ctx, filtered, mode="sync", coset_key=rep_of)


class HypothesesReport:
    """Pass/fail matrix for the combination hypotheses, one row per check."""

    def __init__(self, radius, rows):
        self.radius = radius
        self.rows = rows  # (row id, passed, detail)

    @property
    def passed(self) -> bool:
        return all(ok for _n, ok, _d in self.rows)

    def lines(self):
        out = [f"hypotheses radius={self.radius} status={'pass' if self.passed else 'fail'}"]
        for name, ok, detail in self.rows:
            out.append(f"row {name} status={'pass' if ok else 'fail'} {detail}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


def combination_hypotheses_report(gog, radius: int, sync: bool = False) -> HypothesesReport:
    """Check, per edge, the hypotheses of the combination pipeline: coset
    automaticity of the vertex pair, stability of the edge isomorphism, and
    crossover against every edge with the same target; sync mode adds the
    letter, geodesic-language and factorization conditions."""
    rows = []
    edges = sorted(gog.graph.edges.values(), key=lambda e: e.name)
    balls = {}
    for v, backend in gog.vertex_backends.items():
        balls[v] = CayleyBall(backend, radius + BALL_MARGIN)
    for e in edges:
        ctx = gog.ctx(e)
        sysd = CosetSystem(ctx, mode="async")
        cert = certify_coset_system(sysd, radius, mode="async", ball=balls[e.dst])
        rows.append((f"saca({e.name})", cert.bounded,
                     f"K={cert.K_observed} pairs={cert.pairs_tested}"))
        rctx = gog.ctx(e.reverse)
        best_mu = None
        for mu in range(1, HYPOTHESES_MU_MAX + 1):
            rep = check_stability(gog.edge_iso[e.name], ctx, rctx, mu, radius)
            if rep.passed:
                best_mu = mu
                break
        rows.append((f"stability({e.name})", best_mu is not None,
                     f"mu={best_mu}" if best_mu else f"no mu <= {HYPOTHESES_MU_MAX}"))
        for f in edges:
            if f.dst != e.dst:
                continue
            # a failing row sweeps again at the largest lambda, read at every lambda
            Z = gog.ctx(f).gen_words
            sweep = check_limited_crossover(sysd, Y=ctx.gen_words, Z=Z, lam=1, radius=radius)
            if not sweep.passed:
                sweep = check_limited_crossover(sysd, Y=ctx.gen_words, Z=Z,
                                                lam=HYPOTHESES_LAMBDA_MAX, radius=radius)
            best_lam = None
            for lam in range(1, HYPOTHESES_LAMBDA_MAX + 1):
                if sweep.at(lam).passed:
                    best_lam = lam
                    break
            rows.append((f"crossover({e.name},{f.name})", best_lam is not None,
                         f"lambda={best_lam}" if best_lam
                         else f"no lambda <= {HYPOTHESES_LAMBDA_MAX}"))
        if sync:
            rows.extend(_sync_rows(gog, e, radius, balls[e.dst]))
    return HypothesesReport(radius, rows)


def _sync_rows(gog, e, radius, ball):
    ctx = gog.ctx(e)
    parent = ctx.parent
    rows = []
    letters = all(len(gw) == 1 for gw in ctx.gen_words)
    rows.append((f"sync-letters({e.name})", letters,
                 "Y within X" if letters else "subgroup generators are not letters"))
    lang_ok = True
    detail = "geodesic, Y-avoiding, pruned"
    y_first = {gw.letters[0] for gw in ctx.gen_words if len(gw) == 1}
    y_first |= {parent.alphabet.inv[x] for x in y_first}
    for w in enumerate_language(ctx.coset_language, radius):
        if len(w) != parent.geodesic_length(w):
            lang_ok, detail = False, f"non-geodesic representative {w}"
            break
        if len(w) > 0 and letters and w.letters[0] in y_first:
            lang_ok, detail = False, f"representative starts with a subgroup letter: {w}"
            break
        if len(w) > 0 and ctx.membership(w):
            lang_ok, detail = False, f"nonempty identity-coset representative {w}"
            break
    rows.append((f"sync-language({e.name})", lang_ok, detail))
    metric = WordMetric(parent, ctx.gen_words)
    fact_ok = True
    detail = "g = y_g z_g with |y_g| + |z_g| = |g|"
    for g in ball.within(radius):
        z = ctx.coset_rep(g)
        h = g * invert(z)
        hlen = metric.length(h, length_cap(radius))
        if hlen is None or hlen + len(z) != parent.geodesic_length(g):
            fact_ok, detail = False, f"no geodesic y_g z_g factorization for {g}"
            break
    rows.append((f"sync-factorization({e.name})", fact_ok, detail))
    cert = certify_coset_system(CosetSystem(ctx, mode="sync"), radius, mode="sync", ball=ball)
    rows.append((f"sync-saca({e.name})", cert.bounded, f"K={cert.K_observed}"))
    return rows

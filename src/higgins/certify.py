"""Empirical certification of fellow-traveller properties.

Distances are path distances in the Cayley graph, realized inside a
CayleyBall, the breadth-first ball over canonical keys that subgroup lengths
use too (it lives in cosets and is importable from here): d(g, h) is the
depth of the canonical key of g^-1 h.  The ball grows one sphere at a time,
only as far as the lookups ask, up to a cap of R + BALL_MARGIN for a
radius-R sweep; a distance is exact whenever its key lies within the cap and
is otherwise reported as escaping the ball.  Certificates never claim
failure beyond the tested radius; an escape is an explicit signal, meaning
"beyond the cap".

A certificate reports K, the largest over all swept pairs of each pair's
optimal fellow constant.  The sweep measures every pair against the running
K, so a pair's own value is exact only where it exceeds that K; the reported
K is still the exact maximum, and escapes are found exactly as without the
threshold.  The asynchronous constant is one search: the alignment fill, run
at the running K and, while it fails, at the least distance it turned away.

Within one sweep, the words of g's coset and each walk back from g are kept
per ball index of g = v x, since a padded language spells one g many ways.
A pair (v, x, w) and its mirror (w, x^-1, v), whose h is inverted, have
transposed distance grids because |u^-1| = |u|, so the sweep measures one of
them and gives the other the stored value, raised to the running K.
A pair's alignment check reads the ball's pair cache in place, and a pair
whose lockstep diagonal fails resumes the flood fill at the failing cell
rather than starting it again from (0, 0).
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


def _step(ball: CayleyBall, i: int, x: int) -> int | None:
    """Index of words[i] * x, or None beyond the cap.  An element of the
    outermost grown sphere has no edge-table row yet; its step is keyed and
    looked up, which grows the ball only when the neighbour is new."""
    if i < len(ball.edges):
        return ball.edges[i][x]
    return ball.index(Word(ball.alphabet, ball.words[i].letters + (x,)))


def _prefix_indices(ball: CayleyBall, start, w: Word) -> list[int] | None:
    """Ball indices of start * prefix(w, t) for t = 0..|w|, walked forward
    along the edge table, or None when a step leaves the capped ball.  start
    is a word, or its index in the ball, which saves keying it."""
    if isinstance(start, int):
        i = start
    else:
        i = ball.index(start) if start.letters else 0
        if i is None:
            return None
    out = [i]
    edges = ball.edges
    for x in w.letters:
        i = edges[i][x] if i < len(edges) else _step(ball, i, x)
        if i is None:
            return None
        out.append(i)
    return out


def _walk_back(ball: CayleyBall, g: int, letters: tuple) -> list[int] | None:
    """Ball indices b[t] = h * prefix(w, t) for t = 0..|w|, where g = h * w is
    given by its index and w by its letters: the edge table is walked from g
    along w^-1, one inverse letter at a time from the right, so b[0] is the
    index of h = g * w^-1, found without building or keying h.  None when a
    step leaves the capped ball."""
    n = len(letters)
    out = [g] * (n + 1)
    inv, edges = ball.alphabet.inv, ball.edges
    i = g
    for t in range(n, 0, -1):
        x = inv[letters[t - 1]]
        i = edges[i][x] if i < len(edges) else _step(ball, i, x)
        if i is None:
            return None
        out[t - 1] = i
    return out


def _paths(ball: CayleyBall, w1, h, w2):
    """The prefix paths of w1 from the identity and of w2 from h.  Either word
    may already be given as its path, a list of ball indices; a path for w2
    starts at h, so h is then not read."""
    a = w1 if isinstance(w1, list) else _prefix_indices(ball, 0, w1)
    b = w2 if isinstance(w2, list) else _prefix_indices(ball, h, w2)
    return a, b


def sync_fellow_distance(w1, h, w2, ball: CayleyBall) -> int | None:
    """max_t d(w1(t), h w2(t)), with each path resting at its endpoint.  h is
    a word or its index in the ball; w1 and w2 are words or their prefix
    paths as lists of ball indices (see _paths)."""
    a, b = _paths(ball, w1, h, w2)
    if a is None or b is None:
        return UNBOUNDED
    n1, n2 = len(a) - 1, len(b) - 1
    best = 0
    for t in range(max(n1, n2) + 1):
        d = ball.distance(a[min(t, n1)], b[min(t, n2)])
        if d is UNBOUNDED:
            return UNBOUNDED
        best = max(best, d)
    return best


def _aligns_within(ball: CayleyBall, a: list[int], b: list[int],
                   threshold: int) -> bool | int | None:
    """True when some monotone alignment of the prefix paths a and b keeps
    every cell within threshold: a depth-first flood fill of the prefix grid
    from (0, 0) over cells at distance <= threshold, with diagonal, right and
    down moves, that evaluates distances only for the cells it reaches.

    When the fill fails, every monotone alignment crosses a cell it turned
    away, so it returns the least distance among those cells, the next
    threshold worth trying, or UNBOUNDED when each of them escapes the ball.

    The fill's first descent is the lockstep diagonal, each path resting at
    its end; it is read first on its own, without the fill's bookkeeping, and
    most pairs that align end there.  A lockstep that fails at its cell t
    resumes the fill where that descent stands: cells 0..t-1 on the stack and
    cell t turned away.  So the fill visits the cells in the same order as
    from (0, 0) and reads each at most once.  Distances are read from the
    ball's pair cache in place, and ball.distance runs only on a miss."""
    n1, n2 = len(a) - 1, len(b) - 1
    cache, distance = ball._pair_cache, ball.distance
    for t in range(max(n1, n2) + 1):
        i, j = a[t if t < n1 else n1], b[t if t < n2 else n2]
        d = 0 if i == j else cache.get((i, j) if i < j else (j, i), _MISS)
        if d is _MISS:
            d = distance(i, j)
        if d is UNBOUNDED or d > threshold:
            break
    else:
        return True
    least = d
    if t == 0:
        return least
    path = [(s if s < n1 else n1, s if s < n2 else n2) for s in range(t + 1)]
    seen = set(path)
    path.pop()
    while path:
        p, q = path[-1]
        if p == n1 and q == n2:
            return True
        for cell in ((p + 1, q + 1), (p, q + 1), (p + 1, q)):
            r, s = cell
            if r > n1 or s > n2 or cell in seen:
                continue
            seen.add(cell)
            i, j = a[r], b[s]
            d = 0 if i == j else cache.get((i, j) if i < j else (j, i), _MISS)
            if d is _MISS:
                d = distance(i, j)
            if d is UNBOUNDED:
                continue
            if d <= threshold:
                path.append(cell)
                break
            if least is UNBOUNDED or d < least:
                least = d
        else:
            path.pop()
    return least


def async_fellow_distance(w1, h, w2, ball: CayleyBall,
                          threshold: int | None = None) -> int | None:
    """Minimal K for which some monotone alignment keeps the paths K-close:
    the alignment fill runs at the threshold (None is 0) and, while it fails,
    again at the least distance it turned away, which no alignment avoids.

    The result is max(exact value, threshold): exact only where it exceeds
    the threshold, and UNBOUNDED exactly when the exact value is, so a sweep
    that passes its running maximum still ends on the exact maximum.  h is a
    word or its index in the ball; w1 and w2 are words or their prefix paths
    as lists of ball indices (see _paths)."""
    a, b = _paths(ball, w1, h, w2)
    if a is None or b is None:
        return UNBOUNDED
    t = threshold or 0
    while t is not UNBOUNDED:
        nxt = _aligns_within(ball, a, b, t)
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


def _letter_words(alphabet: Alphabet):
    out = [alphabet.empty()]
    out.extend(Word(alphabet, (x,)) for x in range(len(alphabet)))
    return out


def _language_states(lang) -> int | None:
    return lang.n_states if isinstance(lang, Dfa) else None


def _sweep(lang, oracle, radius: int, mode: str, ball: CayleyBall, coset_key=None):
    """The fellow-traveller sweep behind every certificate: all v, w in the
    language with v x = h w for a letter or empty x and some h in the
    subgroup, each measured against the running K, so K ends as the exact
    largest per-pair constant.  coset_key None stands for the trivial
    subgroup: words are grouped by element and h is the identity.

    Every pair is measured on index paths in the Cayley graph of the ball.
    v's prefix path is walked once per v and gives g = v x by one more edge;
    each candidate w is then walked back from g along w^-1 (_walk_back),
    which yields h's index and w's path from h at once, so h is neither
    built nor keyed.  A walk that leaves the capped ball, v's path to g or
    w's back from g, is final: a path with a point beyond the cap makes its
    pair escape, so the pair is reported without measuring.  Only such a pair
    builds h and keys it, to tell its h apart from the other pairs' (an h
    beyond the cap by its key).

    Many v share one g (a padded language spells each element many ways), so
    two memos local to the call serve each g in the ball once: its coset's
    words, keyed by g's ball index gi, and each walk back, keyed by gi and
    w's id, its place in the enumeration.  A walked path is shared by every
    pair that reads it, and no pair writes to it.  Each word is keyed once,
    and a g = v x that spells a word reads that word's key.

    Each pair (v, x, w), with h = v x w^-1, has a mirror (w, x^-1, v) with
    h^-1: cell (s, t) of one grid is d(v(s), h w(t)) = |v(s)^-1 h w(t)|, and
    cell (t, s) of the other is the length of its inverse, so the grids are
    transposes with equal sync and async constants, escapes included.  A
    third memo, (id of v, step of x, id of w) -> value, holds a pair's value
    while its mirror is still ahead in the sweep; the mirror pops it in
    place of measuring.  The value was measured against an earlier K, and K
    only grows, so max(K, value) is max(K, what measuring against this K
    would give).  Only pairs whose paths both lie in the ball are measured,
    so only they store or reuse a value.  Every ordered pair is still counted
    and deduplicated, and an escaping one is reported with its own v, h and
    w.  Returns (pairs, K, violations)."""
    words = enumerate_language(lang, radius)
    group = coset_key if coset_key is not None else oracle.key
    key_of = {w.letters: group(w) for w in words}
    by_coset: dict = {}
    for wid, w in enumerate(words):
        by_coset.setdefault(key_of[w.letters], []).append(wid)
    cosets: dict = {}   # gi -> ids of the words of g's coset
    walks: dict = {}    # (gi, wid) -> _walk_back(ball, gi, words[wid].letters)
    mirrors: dict = {}  # (vid, s, wid) -> value of that pair, until its mirror reads it
    steps = _letter_words(oracle.alphabet)
    # steps[s] is x, steps[mirror[s]] is x^-1
    mirror = [0] + [1 + y for y in oracle.alphabet.inv]
    K = 0
    pairs = 0
    violations = []
    for vid, v in enumerate(words):
        a = _prefix_indices(ball, 0, v)
        seen = set()
        for s, x in enumerate(steps):
            if a is None:
                gi = None
            else:
                gi = _step(ball, a[-1], x.letters[0]) if s else a[-1]
            coset = cosets.get(gi)
            if coset is None:
                k = key_of.get(v.letters + x.letters, _MISS)
                coset = by_coset.get(group(v * x) if k is _MISS else k, ())
                if gi is not None:
                    cosets[gi] = coset
            for wid in coset:
                w = words[wid]
                b = None if gi is None else walks.get((gi, wid), _MISS)
                if b is _MISS:
                    b = walks[gi, wid] = _walk_back(ball, gi, w.letters)
                if b is not None:
                    hi = b[0]
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
                if b is None:
                    # a path left the ball, so the pair escapes
                    violations.append((v, h if hi is None else ball.words[hi], w))
                    continue
                d = mirrors.pop((wid, mirror[s], vid), _MISS)
                if d is _MISS:
                    # looked up at call time, so a wrapped module function is used
                    if mode == "sync":
                        d = sync_fellow_distance(a, hi, b, ball)
                    else:
                        d = async_fellow_distance(a, hi, b, ball, K)
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
        out = []
        for base in enumerate_language(lang, n):
            variants = [()]
            for x in base.letters:
                d = detour(x)
                ext = [v + (x,) for v in variants]
                if d is not None:
                    ext.extend(v + (x, d, alphabet.inv[d]) for v in variants)
                variants = ext
            out.extend(Word(alphabet, v) for v in variants if len(v) <= n)
        uniq = sorted({w.letters for w in out}, key=lambda t: (len(t), t))
        return [Word(alphabet, t) for t in uniq]

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
            best_lam = None
            for lam in range(1, HYPOTHESES_LAMBDA_MAX + 1):
                rep = check_limited_crossover(
                    sysd, Y=ctx.gen_words, Z=gog.ctx(f).gen_words, lam=lam, radius=radius)
                if rep.passed:
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

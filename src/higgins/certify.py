"""Empirical certification of fellow-traveller properties.

Distances are path distances in the Cayley graph, realized inside a ball
built by breadth-first search over canonical keys: d(g, h) is the depth of
the canonical key of g^-1 h.  The ball grows one sphere at a time, only as
far as the lookups ask, up to a cap of R + BALL_MARGIN for a radius-R sweep;
a distance is exact whenever its key lies within the cap and is otherwise
reported as escaping the ball.  Certificates never claim failure beyond the
tested radius; an escape is an explicit signal, meaning "beyond the cap".

A certificate reports K, the largest over all swept pairs of each pair's
optimal fellow constant.  The sweep measures every pair against the running
K, so a pair's own value is exact only where it exceeds that K (a pair that
stays within it skips the exact computation); the reported K is still the
exact maximum, and escapes are found exactly as without the threshold.
"""

from __future__ import annotations

from typing import Optional

from .cosets import CosetSystem, WordMetric, check_limited_crossover, check_stability
from .fsa import Dfa, LazyLanguage, concat as dfa_concat, enumerate_language
from .words import Alphabet, Word, invert, shortlex_key

UNBOUNDED = None
_MISS = object()  # a pair-cache miss; a cached escape is stored as UNBOUNDED


class HypothesisViolation(ValueError):
    pass


BALL_MARGIN = 6  # a radius-R sweep measures distances in a ball of radius R + BALL_MARGIN


class CayleyBall:
    """Ball around the identity with exact internal metric, grown on demand.

    It starts as the identity alone.  A lookup that misses adds whole
    breadth-first spheres until the key turns up or max_radius is reached;
    len() and elements() first grow the ball to max_radius.  radius is the
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

    def _complete(self):
        while self.radius < self.max_radius:
            self._grow()

    def __len__(self):
        self._complete()
        return len(self.words)

    def index(self, w: Word) -> Optional[int]:
        return self.index_of_key(self.oracle.key(w))

    def index_of_key(self, k) -> Optional[int]:
        """Index of the element with canonical key k, growing the ball until
        it turns up; None when it lies beyond max_radius."""
        idx = self._index.get(k)
        while idx is None and self.radius < self.max_radius:
            self._grow()
            idx = self._index.get(k)
        return idx

    def elements(self) -> list[Word]:
        self._complete()
        return list(self.words)

    def distance(self, i: int, j: int) -> Optional[int]:
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


def cayley_ball(oracle, radius: int) -> CayleyBall:
    return CayleyBall(oracle, radius)


def _prefix_indices(ball: CayleyBall, start, w: Word) -> Optional[list[int]]:
    """Ball indices of start * prefix(w, t) for t = 0..|w|, walked along the
    edge table; only a step off the outermost grown sphere asks the ball.
    start is a word, or its index in the ball, which saves keying it."""
    if isinstance(start, int):
        i = start
    else:
        i = ball.index(start) if start.letters else 0
        if i is None:
            return None
    out = [i]
    edges, words, alphabet = ball.edges, ball.words, ball.alphabet
    for x in w.letters:
        if i < len(edges):
            i = edges[i][x]
        else:
            i = ball.index(Word(alphabet, words[i].letters + (x,)))
            if i is None:
                return None
        out.append(i)
    return out


def sync_fellow_distance(w1: Word, h, w2: Word, ball: CayleyBall) -> Optional[int]:
    """max_t d(w1(t), h w2(t)), with each path resting at its endpoint; h is
    a word or its index in the ball."""
    empty = ball.alphabet.empty()
    a = _prefix_indices(ball, empty, w1)
    b = _prefix_indices(ball, h, w2)
    if a is None or b is None:
        return UNBOUNDED
    best = 0
    for t in range(max(len(w1), len(w2)) + 1):
        d = ball.distance(a[min(t, len(w1))], b[min(t, len(w2))])
        if d is UNBOUNDED:
            return UNBOUNDED
        best = max(best, d)
    return best


def _aligns_within(ball: CayleyBall, a: list[int], b: list[int], threshold: int) -> bool:
    """Whether some monotone alignment of the prefix paths a and b keeps every
    cell within threshold: a depth-first flood fill of the prefix grid from
    (0, 0) over cells at distance <= threshold, with diagonal, right and down
    moves, that evaluates distances only for the cells it reaches."""
    n1, n2 = len(a) - 1, len(b) - 1
    distance = ball.distance
    d = distance(a[0], b[0])
    if d is UNBOUNDED or d > threshold:
        return False
    seen = {(0, 0)}
    path = [(0, 0)]
    while path:
        i, j = path[-1]
        if i == n1 and j == n2:
            return True
        for cell in ((i + 1, j + 1), (i, j + 1), (i + 1, j)):
            p, q = cell
            if p > n1 or q > n2 or cell in seen:
                continue
            seen.add(cell)
            d = distance(a[p], b[q])
            if d is not UNBOUNDED and d <= threshold:
                path.append(cell)
                break
        else:
            path.pop()
    return False


def async_fellow_distance(w1: Word, h, w2: Word, ball: CayleyBall,
                          threshold: Optional[int] = None) -> Optional[int]:
    """Minimal K for which some monotone alignment keeps the paths K-close:
    bottleneck dynamic programming over the prefix grid with right, down and
    diagonal moves.

    With a threshold, a pair that some alignment keeps within it returns the
    threshold without running the dynamic programme, so the result is
    max(exact value, threshold): exact only where it exceeds the threshold,
    and UNBOUNDED exactly when the exact value is.  A sweep that passes its
    running maximum therefore still ends on the exact maximum.  h is a word
    or its index in the ball."""
    empty = ball.alphabet.empty()
    a = _prefix_indices(ball, empty, w1)
    b = _prefix_indices(ball, h, w2)
    if a is None or b is None:
        return UNBOUNDED
    if threshold is not None and _aligns_within(ball, a, b, threshold):
        return threshold
    INF = float("inf")
    n1, n2 = len(w1), len(w2)
    dp = [[INF] * (n2 + 1) for _ in range(n1 + 1)]
    for i in range(n1 + 1):
        row = dp[i]
        for j in range(n2 + 1):
            d = ball.distance(a[i], b[j])
            if d is UNBOUNDED:
                continue
            if i == 0 and j == 0:
                row[j] = d
                continue
            prev = INF
            if i > 0:
                prev = min(prev, dp[i - 1][j])
            if j > 0:
                prev = min(prev, row[j - 1])
            if i > 0 and j > 0:
                prev = min(prev, dp[i - 1][j - 1])
            row[j] = max(d, prev)
    return UNBOUNDED if dp[n1][n2] == INF else int(dp[n1][n2])


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


def _language_states(lang) -> Optional[int]:
    if isinstance(lang, LazyLanguage) and lang.dfa is not None:
        return lang.dfa.n_states
    if isinstance(lang, Dfa):
        return lang.n_states
    return None


def _sweep(lang, oracle, radius: int, mode: str, ball: CayleyBall, coset_key=None):
    """The fellow-traveller sweep behind every certificate: all v, w in the
    language with d(v, hw) <= 1 for some h in the subgroup, each measured
    against the running K, so K ends as the exact largest per-pair constant.
    coset_key None stands for the trivial subgroup: words are grouped by
    element and h is the empty word.  Each h is keyed once, for the pair's
    dedup and its ball index alike.  Returns (pairs, K, violations)."""
    words = enumerate_language(lang, radius)
    group = coset_key if coset_key is not None else oracle.key
    by_coset: dict = {}
    for w in words:
        by_coset.setdefault(group(w), []).append(w)
    empty = oracle.alphabet.empty()
    K = 0
    pairs = 0
    violations = []
    for v in words:
        seen = set()
        for x in _letter_words(oracle.alphabet):
            g = v * x
            for w in by_coset.get(group(g), ()):
                if coset_key is None:
                    h, pk = empty, w.letters
                else:
                    h = g * invert(w)
                    hk = oracle.key(h)
                    pk = (w.letters, hk)
                if pk in seen:
                    continue
                seen.add(pk)
                pairs += 1
                hi = 0 if coset_key is None else ball.index_of_key(hk)
                if hi is None:
                    violations.append((v, h, w))
                    continue
                # looked up at call time, so a wrapped module function is used
                if mode == "sync":
                    d = sync_fellow_distance(v, hi, w, ball)
                else:
                    d = async_fellow_distance(v, hi, w, ball, K)
                if d is UNBOUNDED:
                    violations.append((v, ball.words[hi], w))
                else:
                    K = max(K, d)
    violations.sort(key=lambda t: tuple(shortlex_key(u) for u in t))
    return pairs, K, violations


def certify_coset_system(sys: CosetSystem, radius: int, mode: Optional[str] = None,
                         ball: Optional[CayleyBall] = None) -> FellowCertificate:
    """Sweep all v, w in the language with d(v, hw) <= 1 for some h in the
    subgroup, and report the largest optimal per-pair fellow constant."""
    ctx = sys.context
    mode = mode if mode is not None else sys.mode
    if ball is None:
        ball = CayleyBall(ctx.parent, radius + BALL_MARGIN)
    pairs, K, violations = _sweep(sys.language, ctx.parent, radius, mode, ball, ctx.coset_key)
    kappa = None
    if ctx.gen_words:
        idxs = [ball.index(gw) for gw in ctx.gen_words]
        if all(i is not None for i in idxs):
            kappa = max(ball.dist[i] for i in idxs)
    return FellowCertificate(mode, radius, pairs, K, violations, kappa,
                             _language_states(sys.language))


def certify_automatic(lang, oracle, radius: int, mode: str = "sync",
                      ball: Optional[CayleyBall] = None) -> FellowCertificate:
    """The coset sweep with the trivial subgroup: pairs u, v in the language
    whose endpoints are at distance <= 1."""
    if ball is None:
        ball = CayleyBall(oracle, radius + BALL_MARGIN)
    pairs, K, violations = _sweep(lang, oracle, radius, mode, ball)
    return FellowCertificate(mode, radius, pairs, K, violations, None, _language_states(lang))


class ExtendedBackend:
    """Oracle over an enlarged generating set: old letters plus subgroup
    generators realized as words over the parent."""

    def __init__(self, parent, alphabet: Alphabet, expansions):
        self.parent = parent
        self.alphabet = alphabet
        self._exp = expansions  # letter -> parent Word
        self.name = f"extended({parent.name})"

    def expand(self, w: Word) -> Word:
        out = self.parent.alphabet.empty()
        for x in w.letters:
            out = out * self._exp[x]
        return out

    def canonical(self, w: Word) -> Word:
        return self.parent.canonical(self.expand(w))

    def key(self, w: Word):
        return self.parent.key(self.expand(w))


def concat_structure(L_H, sys: CosetSystem):
    """The concatenation language L_H . L^H over the union generating set.

    L_H is a language over the subgroup's generator alphabet.  When every
    subgroup generator is a single parent letter the result lives over the
    parent alphabet (and is an explicit automaton whenever both inputs are);
    otherwise the alphabet is extended by the subgroup generators and the
    companion oracle comes from concat_oracle.
    """
    ctx = sys.context
    parent = ctx.parent
    if all(len(gw) == 1 for gw in ctx.gen_words):
        letter_map = {}
        for i, gw in enumerate(ctx.gen_words):
            p = ctx.gen_alphabet.index(ctx.gen_alphabet.generators[i])
            letter_map[p] = gw.letters[0]
            letter_map[ctx.gen_alphabet.inv[p]] = parent.alphabet.inv[gw.letters[0]]
        lang = sys.language
        if isinstance(L_H, Dfa) and isinstance(lang, Dfa):
            remapped = Dfa(
                parent.alphabet, L_H.n_states, L_H.start, L_H.accepting,
                {(s, letter_map[a]): t for (s, a), t in L_H.transitions.items()},
                "subgroup")
            return dfa_concat(remapped, lang, name="concat")

        def member(w: Word) -> bool:
            for cut in range(len(w) + 1):
                head, tail = w[:cut], w[cut:]
                hy = _pull_back(head, letter_map, ctx.gen_alphabet)
                if hy is None:
                    break
                if L_H.accepts(hy) and lang.accepts(tail):
                    return True
            return False

        def enum(n: int):
            out = set()
            for head in enumerate_language(L_H, n):
                hw = Word(parent.alphabet, tuple(letter_map[y] for y in head.letters))
                for tail in enumerate_language(lang, n - len(head)):
                    out.add((hw * tail).letters)
            return [Word(parent.alphabet, ls) for ls in sorted(out, key=lambda t: (len(t), t))]

        return LazyLanguage(parent.alphabet, member, enumerator=enum, name="concat")

    # general case: extend the alphabet by the subgroup generators
    names = list(parent.alphabet.generators)
    selfinv = [g for g in names
               if parent.alphabet.inv[parent.alphabet.index(g)] == parent.alphabet.index(g)]
    gen_names = []
    for i, g in enumerate(ctx.gen_alphabet.generators):
        nm = g if g not in names else f"h.{g}"
        gen_names.append(nm)
        names.append(nm)
    union = Alphabet(names, self_inverse=selfinv)
    expansions = {}
    for g in parent.alphabet.generators:
        p = union.index(g)
        q = parent.alphabet.index(g)
        expansions[p] = Word(parent.alphabet, (q,))
        expansions[union.inv[p]] = Word(parent.alphabet, (parent.alphabet.inv[q],))
    y_map = {}
    for i, nm in enumerate(gen_names):
        p = union.index(nm)
        expansions[p] = ctx.gen_words[i]
        expansions[union.inv[p]] = invert(ctx.gen_words[i])
        q = ctx.gen_alphabet.index(ctx.gen_alphabet.generators[i])
        y_map[q] = p
        y_map[ctx.gen_alphabet.inv[q]] = union.inv[p]
    x_map = {parent.alphabet.index(nm): union.index(nm) for nm in parent.alphabet.names}

    y_back = _invert_map(y_map)
    x_back = _invert_map(x_map)

    def member(w: Word) -> bool:
        cut = 0
        while cut < len(w) and w.letters[cut] in y_back:
            cut += 1
        for c in range(cut + 1):
            tail_letters = tuple(x_back.get(x) for x in w.letters[c:])
            if any(x is None for x in tail_letters):
                continue
            head = Word(ctx.gen_alphabet, tuple(y_back[x] for x in w.letters[:c]))
            if L_H.accepts(head) and sys.language.accepts(Word(parent.alphabet, tail_letters)):
                return True
        return False

    def enum(n: int):
        out = set()
        for head in enumerate_language(L_H, n):
            hw = tuple(y_map[y] for y in head.letters)
            for tail in enumerate_language(sys.language, n - len(head)):
                out.add(hw + tuple(x_map[x] for x in tail.letters))
        return [Word(union, ls) for ls in sorted(out, key=lambda t: (len(t), t))]

    lazy = LazyLanguage(union, member, enumerator=enum, name="concat")
    lazy_oracle = ExtendedBackend(parent, union, expansions)
    return lazy, lazy_oracle


def _invert_map(m):
    return {v: k for k, v in m.items()}


def _pull_back(w: Word, letter_map, gen_alphabet) -> Optional[Word]:
    back = _invert_map(letter_map)
    letters = []
    for x in w.letters:
        y = back.get(x)
        if y is None:
            return None
        letters.append(y)
    return Word(gen_alphabet, tuple(letters))


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

    def strip(ls):
        out = []
        i = 0
        while i < len(ls):
            out.append(ls[i])
            d = detour(ls[i])
            if (d is not None and i + 2 < len(ls)
                    and ls[i + 1] == d and ls[i + 2] == alphabet.inv[d]):
                i += 3
            else:
                i += 1
        return tuple(out)

    def member(w: Word) -> bool:
        return lang.accepts(Word(alphabet, strip(w.letters)))

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

    return LazyLanguage(alphabet, member, enumerator=enum, name="padded-detours")


def geodesic_coset_filter(sys: CosetSystem, radius: int) -> CosetSystem:
    """Restrict the language to words of minimal length in their coset.

    Verifies that the filtered language still represents, within the radius,
    every coset met by the ball of that radius; raises HypothesisViolation
    otherwise.
    """
    ctx = sys.context
    lang = sys.language
    accepts = lang.accepts

    def member(w: Word) -> bool:
        return accepts(w) and len(w) == ctx.min_coset_length(w)

    filtered = LazyLanguage(
        ctx.parent.alphabet, member,
        enumerator=lambda n: [w for w in enumerate_language(lang, n)
                              if len(w) == ctx.min_coset_length(w)],
        name="geodesic-filter")
    covered = {ctx.coset_key(w) for w in enumerate_language(filtered, radius)}
    for g in ctx.parent.ball(radius):
        if ctx.coset_key(g) not in covered:
            raise HypothesisViolation(
                f"geodesic filter misses the coset of {g} within radius {radius}")
    return CosetSystem(ctx, filtered, sys.claimed_K, "sync")


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


def combination_hypotheses_report(gog, radius: int, lambda_max: int = 3,
                                  mu_max: int = 3, sync: bool = False) -> HypothesesReport:
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
        for mu in range(1, mu_max + 1):
            rep = check_stability(gog.edge_iso[e.name], ctx, rctx, mu, radius)
            if rep.passed:
                best_mu = mu
                break
        rows.append((f"stability({e.name})", best_mu is not None,
                     f"mu={best_mu}" if best_mu else f"no mu <= {mu_max}"))
        for f in edges:
            if f.dst != e.dst:
                continue
            best_lam = None
            for lam in range(1, lambda_max + 1):
                rep = check_limited_crossover(
                    sysd, Y=ctx.gen_words, Z=gog.ctx(f).gen_words, lam=lam, radius=radius)
                if rep.passed:
                    best_lam = lam
                    break
            rows.append((f"crossover({e.name},{f.name})", best_lam is not None,
                         f"lambda={best_lam}" if best_lam else f"no lambda <= {lambda_max}"))
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
    for g in parent.ball(radius):
        z = ctx.coset_rep(g)
        h = g * invert(z)
        hlen = metric.length(h, 4 * radius + 8)
        if hlen is None or hlen + len(z) != parent.geodesic_length(g):
            fact_ok, detail = False, f"no geodesic y_g z_g factorization for {g}"
            break
    rows.append((f"sync-factorization({e.name})", fact_ok, detail))
    cert = certify_coset_system(CosetSystem(ctx, mode="sync"), radius, mode="sync", ball=ball)
    rows.append((f"sync-saca({e.name})", cert.bounded, f"K={cert.K_observed}"))
    return rows

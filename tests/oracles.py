"""Independent oracles the package is tested against.

Each group oracle decides word problems by a route that shares nothing with
the cascade machinery or the trefoil's syllable arithmetic: the Artin braid
action on a free group for the trefoil amalgam and for the trefoil over its
own generators x, y, syllable reduction for free products, and
direct-product splitting for the HNN of Z^2 over a central generator.  The
coordinates of an element of the trefoil's H = <x, d> are read off a scan
of the powers of x̄.  The normal-form scan is checked
against a second driver, the phase pipeline: pinch and cascade rounds over a
materialized path word, repeated to a fixed point.  Membership in a Higgins
language, nf(w) == w in the package, is checked against a parse of w into
its path word, segment by segment.  Generator maps (edge
isomorphisms and subgroup inclusions) are checked against an image read off
the letter names, and an edge isomorphism's inverse, read off the split of
the subgroup its images generate, against a breadth-first search over
source words.  The fellow-traveller sweep, which finds each h on the
Cayley graph, is checked against a sweep that builds and keys every h, its
reuse of a mirror pair's value against the same sweep measuring every pair,
its alignment fill against reachability over the whole prefix grid, and the
asynchronous constant, which raises the fill's threshold until it passes,
against bottleneck dynamic programming over that grid.  The
Cayley ball, a breadth-first search, is checked against a sort of every word
up to its radius, and a finite subgroup against a closure of its generators.
Subgroup lengths and finite tables, read off Cayley balls over one letter per
generator, are checked against searches that multiply by generator words
(or table elements) step by step.  One limited-crossover sweep, read at
every lambda, is checked against a full sweep per lambda.
An abelian coset's representative, read off one coset ball, is checked
against a scan of the L1 spheres for each query, and a free cyclic
coset's representative against the least word of its orbit gen^k w.  Every
automaton the package explores state by state from its start is checked,
state for state, against the subset construction of a nondeterministic
automaton with epsilon moves.  A test language given only by membership is
listed by testing every word up to the length, and words are listed by
enumeration.  The languages the package builds from others, which it only
lists, are checked against membership tests: a padded word with its detours
struck out, and a concatenation cut at every point.  The spanning tree, one breadth-first search, is checked against
a breadth-first choice of its edges grown to a fixed point over them, with
paths read by climbing to the root from both ends.
"""

import itertools
from collections import deque
from typing import Optional

from higgins import certify, cosets
from higgins.backends import (
    AbelianBackend, AbelianSubgroup, FreeBackend, FreeCyclicSubgroup, TrivialSubgroup,
)
from higgins.fsa import Dfa, _trim, enumerate_language, minimize
from higgins.gog import GogError
from higgins.words import Alphabet, Word, free_reduce, invert, shortlex_key


# --- words by enumeration ---------------------------------------------------------

def prefix(w: Word, t: int) -> Word:
    """Length-min(t, |w|) prefix; for t >= |w| this is w itself."""
    if t >= len(w.letters):
        return w
    return Word(w.alphabet, w.letters[:t])


def words_of_length(alphabet: Alphabet, n: int):
    """All words of exactly length n, in lexicographic (letter-index) order."""
    for letters in itertools.product(range(len(alphabet)), repeat=n):
        yield Word(alphabet, letters)


def all_words(alphabet: Alphabet, max_len: int):
    """All words of length <= max_len, in shortlex order."""
    for n in range(max_len + 1):
        yield from words_of_length(alphabet, n)


# --- spanning trees by a fixed point -------------------------------------------------

class FixedPointTree:
    """A spanning tree given by its edge names (both directions of each pair)
    and a root, grown to a fixed point: each round crosses, in name order,
    every tree edge from a vertex already reached to one that is not."""

    def __init__(self, graph, tree_edge_names, root: str):
        self.edge_names = frozenset(tree_edge_names)
        self.root = root
        self.parent = {root: None}
        self.depth = {root: 0}
        changed = True
        while changed:
            changed = False
            for nm in sorted(self.edge_names):
                e = graph.edges[nm]
                if e.src in self.depth and e.dst not in self.depth:
                    self.parent[e.dst] = e
                    self.depth[e.dst] = self.depth[e.src] + 1
                    changed = True
        if len(self.depth) != len(graph.vertices):
            raise GogError("tree does not span the graph")

    def path(self, u: str, v: str) -> list:
        """The tree path from u to v: up to the root from each end, then the
        shared part cut off."""
        def to_root(x):
            edges = []
            while self.parent[x] is not None:
                edges.append(self.parent[x])
                x = self.parent[x].src
            return edges
        up, down = to_root(u), to_root(v)
        while up and down and up[-1] is down[-1]:
            up.pop()
            down.pop()
        return [e.reverse for e in up] + down[::-1]


def bfs_tree(graph) -> FixedPointTree:
    """The default tree: breadth-first from the least-named vertex over every
    edge in name order, then grown to a fixed point over the edges found."""
    root = min(graph.vertices)
    seen = {root}
    tree = []
    queue = deque([root])
    edges_sorted = sorted(graph.edges.values(), key=lambda e: e.name)
    while queue:
        v = queue.popleft()
        for e in edges_sorted:
            if e.src == v and e.dst not in seen:
                seen.add(e.dst)
                tree += [e.name, e.reverse.name]
                queue.append(e.dst)
    return FixedPointTree(graph, tree, root)


# --- normal forms by the phase pipeline ---------------------------------------

def deflate_inflated(system, iw) -> Word:
    """Working-alphabet word of a path word: tree edges dropped."""
    alphabets = system.alphabets
    letters = list(alphabets.vertex_word_to_x(iw.base_vertex, iw.u0))
    for e, u in iw.path:
        if not system.tree.contains(e):
            letters.append(alphabets.edge_to_x[e.name])
        letters.extend(alphabets.vertex_word_to_x(e.dst, u))
    return Word(system.alphabet, tuple(letters))


def pipeline_normal_form(system, w: Word, base) -> Word:
    """Higgins (coset) normal form of w, base ("group", v0) or ("coset", e0),
    by pinch_reduce and cascade rounds until the path word stops changing."""
    kind, anchor = base
    base_vertex = anchor if kind == "group" else anchor.dst
    iw = system.alphabets.inflate(w, base_vertex)
    for _ in range(len(iw.path) + 3):
        iw = system.pinch_reduce(iw)
        out = system.cascade(iw, base).output
        if out == iw:
            return deflate_inflated(system, iw)
        iw = out
    raise AssertionError(f"cascade failed to reach a fixed point on {w}")


def higgins_membership(system, w: Word, base) -> bool:
    """Is w in the Higgins (coset) language at base?  Parse w into its path
    word and check each segment: the base segment canonical (or a coset
    representative of e0), every later one a coset representative, no empty
    segment between a stable letter and its inverse, and no empty segment
    after a final tree edge."""
    kind, anchor = base
    base_vertex = anchor if kind == "group" else anchor.dst
    iw = system.alphabets.inflate(w, base_vertex)
    if kind == "group":
        if system.gog.backend(base_vertex).canonical(iw.u0) != iw.u0:
            return False
    else:
        if system.gog.ctx(anchor).coset_rep(iw.u0) != iw.u0:
            return False
    for i, (e, u) in enumerate(iw.path):
        if system.gog.ctx(e).coset_rep(u) != u:
            return False
        if i + 1 < len(iw.path) and iw.path[i + 1][0] is e.reverse and len(u) == 0:
            return False
    if iw.path and system.tree.contains(iw.path[-1][0]) and len(iw.path[-1][1]) == 0:
        return False
    return True


# --- the fellow sweep with every h keyed -------------------------------------

def keyed_sweep(lang, oracle, radius, mode, ball, coset_key=None):
    """(pairs, K, violations) of the coset fellow sweep, with every candidate
    h = v x w^-1 built as a word, keyed by the oracle, looked up in the ball
    and walked forward along w; pairs are told apart by (w, key of h)."""
    words = enumerate_language(lang, radius)
    group = coset_key if coset_key is not None else oracle.key
    by_coset: dict = {}
    for w in words:
        by_coset.setdefault(group(w), []).append(w)
    alphabet = oracle.alphabet
    steps = [alphabet.empty()] + [Word(alphabet, (x,)) for x in range(len(alphabet))]
    K = pairs = 0
    violations = []
    for v in words:
        seen = set()
        for x in steps:
            g = v * x
            for w in by_coset.get(group(g), ()):
                h = g * invert(w)
                hk = oracle.key(h)
                if (w.letters, hk) in seen:
                    continue
                seen.add((w.letters, hk))
                pairs += 1
                hi = ball.index_of_key(hk)
                if hi is None:
                    violations.append((v, h, w))
                    continue
                if mode == "sync":
                    d = certify.sync_fellow_distance(v, hi, w, ball)
                else:
                    d = certify.async_fellow_distance(v, hi, w, ball, K)
                if d is None:
                    violations.append((v, ball.words[hi], w))
                else:
                    K = max(K, d)
    violations.sort(key=lambda t: tuple(shortlex_key(u) for u in t))
    return pairs, K, violations


def sweep_without_reuse(lang, oracle, radius, mode, ball, coset_key=None):
    """(pairs, K, violations) of the coset fellow sweep as it ran before a
    pair could reuse its mirror's value: every ordered pair (v, x, w) is
    measured, each h found by walking back from g = v x along w^-1, with the
    words of each g's coset and each walk kept per ball index of g."""
    words = enumerate_language(lang, radius)
    group = coset_key if coset_key is not None else oracle.key
    by_coset: dict = {}
    for w in words:
        by_coset.setdefault(group(w), []).append(w)
    cosets: dict = {}  # gi -> the words of g's coset
    walks: dict = {}   # (gi, w.letters) -> _walk_back(ball, gi, w.letters), h's index
    alphabet = oracle.alphabet
    steps = [alphabet.empty()] + [Word(alphabet, (x,)) for x in range(len(alphabet))]
    K = 0
    pairs = 0
    violations = []
    for v in words:
        vi = certify._walk(ball, 0, v.letters)
        seen = set()
        for x in steps:
            g = v * x
            if vi is None:
                gi = None
            else:
                gi = certify._walk(ball, vi, x.letters)
            if gi is None:
                coset = by_coset.get(group(g), ())
            else:
                coset = cosets.get(gi)
                if coset is None:
                    coset = cosets[gi] = by_coset.get(group(g), ())
            for w in coset:
                if gi is None:
                    b = None
                else:
                    b = walks.get((gi, w.letters), certify._MISS)
                    if b is certify._MISS:
                        b = walks[gi, w.letters] = certify._walk_back(ball, gi, w.letters)
                if b is not None:
                    hi = b
                    pk = (w.letters, hi)
                else:
                    h = g * invert(w)
                    hk = oracle.key(h)
                    hi = ball.index_of_key(hk)
                    pk = (w.letters, hi) if hi is not None else (w.letters, None, hk)
                if pk in seen:
                    continue
                seen.add(pk)
                pairs += 1
                if hi is None:
                    violations.append((v, h, w))
                    continue
                # letters for paths walked in the ball, else words to walk
                v_in, w_in = (v, w) if b is None else (v.letters, w.letters)
                if mode == "sync":
                    d = certify.sync_fellow_distance(v_in, hi, w_in, ball)
                else:
                    d = certify.async_fellow_distance(v_in, hi, w_in, ball, K)
                if d is certify.UNBOUNDED:
                    violations.append((v, ball.words[hi], w))
                else:
                    K = max(K, d)
    violations.sort(key=lambda t: tuple(shortlex_key(u) for u in t))
    return pairs, K, violations


def prefix_path(ball, start, w):
    """Ball indices of start * prefix(w, t) for t = 0..|w|, each step one
    certify._walk along the edge table, or None when one leaves the ball.
    start is a word or its index in the ball."""
    i = start if isinstance(start, int) else ball.index(start)
    out = [i]
    for x in w.letters:
        if i is None:
            break
        i = certify._walk(ball, i, (x,))
        out.append(i)
    return None if i is None else out


def fellow_paths(ball, w1, h, w2):
    """The prefix paths, lists of ball indices, of w1 from the identity and of
    w2 from h, or None for a path that leaves the ball.  w1 and w2 are words
    or letter tuples, h a word or its ball index, as for
    certify.async_fellow_distance."""
    if isinstance(w1, tuple):
        w1, w2 = Word(ball.alphabet, w1), Word(ball.alphabet, w2)
    return prefix_path(ball, 0, w1), prefix_path(ball, h, w2)


def aligns_by_grid(ball, a, b, threshold):
    """True when some monotone alignment of the prefix paths a and b keeps
    every cell within threshold; otherwise the least distance among the cells
    just past the reachable region, which every alignment crosses, or None
    when each of them escapes the ball.  Every cell of the grid is measured,
    and reachability from (0, 0) by diagonal, right and down moves is filled
    row by row."""
    n1, n2 = len(a) - 1, len(b) - 1
    dist = [[ball.distance(a[i], b[j]) for j in range(n2 + 1)] for i in range(n1 + 1)]
    reach = [[False] * (n2 + 1) for _ in range(n1 + 1)]
    past = []
    for i in range(n1 + 1):
        for j in range(n2 + 1):
            entered = (i == j == 0
                       or (i > 0 and reach[i - 1][j])
                       or (j > 0 and reach[i][j - 1])
                       or (i > 0 and j > 0 and reach[i - 1][j - 1]))
            if not entered:
                continue
            d = dist[i][j]
            if d is not None and d <= threshold:
                reach[i][j] = True
            elif d is not None:
                past.append(d)
    if reach[n1][n2]:
        return True
    return min(past, default=None)


def async_by_grid(w1, h, w2, ball):
    """The exact asynchronous fellow constant of a pair, by bottleneck
    dynamic programming over the whole prefix grid with right, down and
    diagonal moves: the least, over monotone alignments, of the largest cell
    distance, or None when every alignment crosses a cell beyond the ball.
    Arguments as for certify.async_fellow_distance, without a threshold."""
    a, b = fellow_paths(ball, w1, h, w2)
    if a is None or b is None:
        return None
    INF = float("inf")
    n1, n2 = len(a) - 1, len(b) - 1
    dp = [[INF] * (n2 + 1) for _ in range(n1 + 1)]
    for i in range(n1 + 1):
        row = dp[i]
        for j in range(n2 + 1):
            d = ball.distance(a[i], b[j])
            if d is None:
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
    return None if dp[n1][n2] == INF else int(dp[n1][n2])


# --- abelian coset representatives by a scan per query ------------------------

def scanned_chosen(ctx, vec) -> tuple:
    """Exponent vector of the canonical representative of vec's coset in the
    abelian subgroup ctx: the L1 spheres are scanned from radius 0 up to the
    norm of vec's normal form, and the first sphere that meets the coset gives
    its point whose collected word is shortlex-least.  Among points of one
    norm that is the least under a per-coordinate preference: a larger
    positive exponent (more copies of the first letter), then a deeper
    negative one, then zero."""
    def sphere(n, m):
        if n == 0:
            if m == 0:
                yield ()
            return
        for head in range(-m, m + 1):
            for rest in sphere(n - 1, m - abs(head)):
                yield (head,) + rest

    def preference(r):
        return tuple((0, -x) if x > 0 else (1, x) if x < 0 else (2, 0) for x in r)

    key = ctx.lattice.key(vec)
    budget = sum(abs(r) for r in ctx.parent.normalize(vec))
    for m in range(budget + 1):
        hits = [r for r in sphere(ctx.parent.n, m) if ctx.lattice.key(r) == key]
        if hits:
            return min(hits, key=preference)
    raise AssertionError(f"no sphere up to {budget} meets the coset of {vec}")


# --- free cyclic cosets by an orbit search -------------------------------------

def free_cyclic_rep_by_orbit(gen: Word, w: Word) -> Word:
    """The shortlex-least word of the right coset <gen> w in a free group:
    the least free_reduce(gen^k w) over |k| <= 2 |r|, r the reduced w.  That
    range holds the least word.  The reduced gen^k = u c^k u^-1 (c the
    cyclic core) has at least |k| letters, and appending r cancels at most
    |r| of them, so for |k| > 2 |r| the product has more than |r| letters,
    more than the word at k = 0."""
    r = free_reduce(w)
    g, g_inv = free_reduce(gen), invert(free_reduce(gen))
    best, up, down = r, r, r
    for _ in range(2 * len(r)):
        up, down = free_reduce(g * up), free_reduce(g_inv * down)
        best = min(best, up, down, key=shortlex_key)
    return best


# --- balls and finite subgroups by brute force -------------------------------

def brute_ball(oracle, radius: int) -> list[Word]:
    """Every word of length <= radius grouped by the oracle's key, the
    shortlex-least word of each group, listed in shortlex order."""
    least: dict = {}
    for n in range(radius + 1):
        for letters in itertools.product(range(len(oracle.alphabet)), repeat=n):
            w = Word(oracle.alphabet, letters)
            k = oracle.key(w)
            if k not in least or shortlex_key(w) < shortlex_key(least[k]):
                least[k] = w
    return sorted(least.values(), key=shortlex_key)


def enumerator_by_filter(alphabet: Alphabet, membership):
    """An enumerator for a LazyLanguage given only by membership: every
    word up to the length, tested one by one."""
    def enumerate_words(max_len):
        return [w for n in range(max_len + 1)
                for letters in itertools.product(range(len(alphabet)), repeat=n)
                if membership(w := Word(alphabet, letters))]
    return enumerate_words


# --- membership in languages built from others ---------------------------------

def detour_padded_by_expansion(lang, alphabet: Alphabet, n: int) -> list[Word]:
    """The words of length <= n of certify.detour_padded_language(lang,
    alphabet), built without pruning: all 2^k padded variants of each base
    word of k letters, the detour d d^-1 after a letter x optional, d the
    least letter other than x and x^-1; those longer than n are dropped."""
    def detour(x):
        return next((d for d in range(len(alphabet)) if d != x and d != alphabet.inv[x]), None)

    out = set()
    for base in enumerate_language(lang, n):
        variants = [()]
        for x in base.letters:
            d = detour(x)
            ext = [v + (x,) for v in variants]
            if d is not None:
                ext.extend(v + (x, d, alphabet.inv[d]) for v in variants)
            variants = ext
        out.update(v for v in variants if len(v) <= n)
    return [Word(alphabet, t) for t in sorted(out, key=lambda t: (len(t), t))]


def detour_padded_accepts(lang: Dfa, alphabet: Alphabet, w: Word) -> bool:
    """Whether w is in certify.detour_padded_language(lang, alphabet): w with
    each detour d d^-1 after a letter x struck out, d the least letter other
    than x and x^-1, is a word of lang."""
    def detour(x):
        return next((d for d in range(len(alphabet)) if d != x and d != alphabet.inv[x]), None)

    ls, out, i = w.letters, [], 0
    while i < len(ls):
        out.append(ls[i])
        d = detour(ls[i])
        if d is not None and ls[i + 1:i + 3] == (d, alphabet.inv[d]):
            i += 3
        else:
            i += 1
    return lang.accepts(Word(alphabet, tuple(out)))


def concat_accepts(L_H: Dfa, lang: Dfa, y_map, x_map: dict, w: Word) -> bool:
    """Whether w is in L_H . lang over y_map.target, into which y_map sends
    L_H's letters and x_map sends lang's: some cut of w pulls back to a word
    of L_H and a word of lang.  A target letter that two letters of L_H
    share pulls back to the first of them, the generator before its inverse
    letter."""
    y_back: dict = {}
    for y, (x,) in enumerate(y_map.table):
        y_back.setdefault(x, y)
    x_back = {x: p for p, x in x_map.items()}
    head = []
    for cut in range(len(w) + 1):
        tail = tuple(x_back.get(x) for x in w.letters[cut:])
        if (None not in tail and L_H.accepts(Word(L_H.alphabet, tuple(head)))
                and lang.accepts(Word(lang.alphabet, tail))):
            return True
        if cut == len(w) or w.letters[cut] not in y_back:
            return False
        head.append(y_back[w.letters[cut]])


def table_closure(table, gens) -> frozenset:
    """The elements of a finite group table generated by gens: the identity
    and gens, multiplied together until the set stops growing (closure under
    products alone gives a subgroup in a finite group)."""
    elts = {0, *gens}
    while True:
        more = {table[a][b] for a in elts for b in elts} - elts
        if not more:
            return frozenset(elts)
        elts |= more


# --- subgroup lengths and finite tables by step searches ---------------------

class SearchedWordMetric:
    """Breadth-first lengths and shortest probe expressions for the subgroup
    generated by parent words, searched over steps rather than letters: each
    probe word and its inverse is a step (a step keyed like the identity or
    like an earlier step is dropped), and level d + 1 is every level-d word
    times every step, in step order, keeping the first word found for each
    key.  A probe alphabet, when given, names the step letters of the probe
    paths; key, when given, keys the search in place of parent.key."""

    def __init__(self, parent, probe_words, probe_alphabet=None, key=None):
        self.key = key = key if key is not None else parent.key
        empty = parent.alphabet.empty()
        identity = key(empty)
        self.steps, seen = [], set()
        for i, w in enumerate(probe_words):
            if probe_alphabet is not None:
                p = probe_alphabet.index(probe_alphabet.generators[i])
                variants = ((w, p), (invert(w), probe_alphabet.inv[p]))
            else:
                variants = ((w, None), (invert(w), None))
            for step, letter in variants:
                k = key(step)
                if k not in seen and k != identity:
                    seen.add(k)
                    self.steps.append((step, letter))
        self.table = {identity: (0, empty, ())}
        self.frontier = [(empty, ())]
        self.depth = 0

    def grow_to(self, depth: int):
        while self.depth < depth and self.frontier:
            nxt = []
            for u, ypath in self.frontier:
                for step, letter in self.steps:
                    w = u * step
                    k = self.key(w)
                    if k not in self.table:
                        self.table[k] = (self.depth + 1, w, ypath + (letter,))
                        nxt.append((w, ypath + (letter,)))
            self.frontier = nxt
            self.depth += 1

    def length(self, w: Word, cap: int):
        k = self.key(w)
        while k not in self.table and self.depth < cap and self.frontier:
            self.grow_to(self.depth + 1)
        hit = self.table.get(k)
        return None if hit is None else hit[0]

    def elements_within(self, radius: int):
        self.grow_to(radius)
        return [(w, d, y) for d, w, y in sorted(
            self.table.values(), key=lambda t: (t[0], shortlex_key(t[1])))
            if d <= radius]


# --- limited crossover by one sweep per lambda -------------------------------------

def crossover_sweep(sys, Y, Z, lam: int, radius: int):
    """(witnesses, total_violations, swept) of one limited-crossover sweep at
    lam alone: every u of the language with |u| <= radius against every g
    with |g|_Z <= lam, measuring |u g v^-1|_Y against length_cap(radius, lam)
    through the context's coset_splitter when Y is None, else through
    coset_rep and a WordMetric; raises the first VerifierError in sweep
    order."""
    ctx = sys.context
    splitter = getattr(ctx, "coset_splitter", None) if Y is None else None
    Y = list(Y) if Y is not None else list(ctx.gen_words)
    Z = list(Z) if Z is not None else list(Y)
    cap = cosets.length_cap(radius, lam)
    if splitter is not None:
        split = splitter()

        def measure(u, g):
            v, (m, n) = split(u, g)
            return v, (abs(m) + abs(n) if abs(m) + abs(n) <= cap else None)
    else:
        y_metric = cosets.WordMetric(ctx.parent, Y)
        for gw in ctx.gen_words:
            if y_metric.length(gw, radius + 2) is None:
                raise cosets.VerifierError(
                    f"probe set does not generate the subgroup generator {gw} "
                    f"within radius {radius + 2}")

        def measure(u, g):
            v = ctx.coset_rep(u * g)
            return v, y_metric.length(u * g * invert(v), cap)
    gs = cosets.WordMetric(ctx.parent, Z).elements_within(lam)
    witnesses, swept = [], 0
    for u in enumerate_language(sys.language, radius):
        for g, _n, _y in gs:
            swept += 1
            v, hlen = measure(u, g)
            if hlen is None:
                raise cosets.VerifierError(
                    f"Y does not express u g v^-1 = {u * g * invert(v)} within length {cap}")
            if hlen > lam:
                witnesses.append((u, g, v, hlen - lam))
    witnesses.sort(key=lambda t: tuple(shortlex_key(w) for w in t[:-1]))
    return witnesses[:cosets.WITNESS_LIMIT], len(witnesses), swept


def crossover_by_separate_sweeps(sys, Y=None, Z=None, lam_max: int = 1, radius: int = 4):
    """One crossover_sweep per lambda = 1..lam_max, each its (witnesses,
    total_violations, swept) or the message of the VerifierError it raised."""
    out = []
    for lam in range(1, lam_max + 1):
        try:
            out.append(crossover_sweep(sys, Y, Z, lam, radius))
        except cosets.VerifierError as e:
            out.append(str(e))
    return out


def table_search(table, steps) -> dict:
    """Shortlex-least word of every element reached from the identity 0 of a
    multiplication table, level by level: steps are (element, letter) pairs
    in letter order, and a letter moves e to table[e][element]."""
    words = {0: ()}
    frontier = [0]
    while frontier:
        nxt = []
        for e in frontier:
            for g, letter in steps:
                e2 = table[e][g]
                if e2 not in words:
                    words[e2] = words[e] + (letter,)
                    nxt.append(e2)
        frontier = nxt
    return words


# --- generator maps, letter by letter ----------------------------------------


def generator_image(source: Alphabet, images, target: Alphabet, w: Word) -> Word:
    """Image of w under the map sending the i-th generator of source to
    images[i], read off the letter names: a letter named g^-1 goes to the
    reversed, letterwise-inverted image of g, every other letter to its
    image as given."""
    out = []
    for x in w.letters:
        name = source.names[x]
        if name.endswith("^-1"):
            img = images[list(source.generators).index(name[:-3])]
            out.extend(target.inv[y] for y in reversed(img.letters))
        else:
            out.extend(images[list(source.generators).index(name)].letters)
    return Word(target, tuple(out))


def reverse_iso_by_search(src_ctx, dst_ctx, images, depth=10):
    """The inverse of a generator map by breadth-first search over the source
    subgroup: for each generator of dst_ctx, the first source word of at most
    depth letters whose image names its element.  None when some generator
    has no such word."""
    parent = dst_ctx.parent
    source, target = src_ctx.gen_alphabet, dst_ctx.gen_alphabet
    image = [generator_image(source, images, target, Word(source, (x,))).letters
             for x in range(len(source))]

    def image_key(yword: Word):
        return parent.key(dst_ctx.expand(Word(target, sum((image[x] for x in yword), ()))))

    targets = {parent.key(gw): i for i, gw in enumerate(dst_ctx.gen_words)}
    found = {}
    empty = source.empty()
    seen = {image_key(empty)}
    frontier = [empty]
    if image_key(empty) in targets:
        found[targets[image_key(empty)]] = empty
    for _ in range(depth):
        if len(found) == len(dst_ctx.gen_words):
            break
        nxt = []
        for yw in frontier:
            for letter in range(len(source)):
                cand = Word(source, yw.letters + (letter,))
                k = image_key(cand)
                if k in targets and targets[k] not in found:
                    found[targets[k]] = cand
                if k not in seen:
                    seen.add(k)
                    nxt.append(cand)
        frontier = nxt
    if len(found) != len(dst_ctx.gen_words):
        return None
    return [found[i] for i in range(len(dst_ctx.gen_words))]


# --- trefoil group via the braid action --------------------------------------
#
# sigma_i: f_i -> f_i f_{i+1} f_i^-1, f_{i+1} -> f_i, other generators fixed.
# On the rank-3 free group this is the standard faithful action of the
# three-strand braid group; it also descends to rank 2 by eliminating
# f3 = (f1 f2)^-1 (the action preserves the product f1 f2 f3), which gives a
# second formulation used for cross-validation.

F3 = Alphabet(["f1", "f2", "f3"])
F2 = Alphabet(["f1", "f2"])


def _aut(alphabet, *images):
    return tuple(free_reduce(alphabet.word(t)) for t in images)


def aut_apply(phi, w: Word) -> Word:
    alphabet = w.alphabet
    table = {}
    for i, img in enumerate(phi):
        p = alphabet.index(alphabet.generators[i])
        table[p] = img.letters
        table[alphabet.inv[p]] = tuple(alphabet.inv[x] for x in reversed(img.letters))
    out = []
    for x in w.letters:
        out.extend(table[x])
    return free_reduce(Word(alphabet, tuple(out)))


def aut_compose(phi, psi):
    """phi o psi: apply psi first."""
    return tuple(aut_apply(phi, img) for img in psi)


SIGMA1 = _aut(F3, "f1 f2 f1^-1", "f1", "f3")
SIGMA2 = _aut(F3, "f1", "f2 f3 f2^-1", "f2")
SIGMA1_INV = _aut(F3, "f2", "f2^-1 f1 f2", "f3")
SIGMA2_INV = _aut(F3, "f1", "f3", "f3^-1 f2 f3")
IDENT = _aut(F3, "f1", "f2", "f3")

# amalgam generators: a = s1 s2 s1, b = s1 s2
A_AUT = aut_compose(SIGMA1, aut_compose(SIGMA2, SIGMA1))
B_AUT = aut_compose(SIGMA1, SIGMA2)
A_INV = aut_compose(SIGMA1_INV, aut_compose(SIGMA2_INV, SIGMA1_INV))
B_INV = aut_compose(SIGMA2_INV, SIGMA1_INV)

# faithful rank-2 action: the braid generators as the Dehn twist pair on the
# once-punctured torus (the full twist then acts by conjugation by the
# boundary commutator, so the center survives)
SIGMA1_R2 = _aut(F2, "f1", "f2 f1")
SIGMA2_R2 = _aut(F2, "f1 f2^-1", "f2")
SIGMA1_R2_INV = _aut(F2, "f1", "f2 f1^-1")
SIGMA2_R2_INV = _aut(F2, "f1 f2", "f2")
A_R2 = aut_compose(SIGMA1_R2, aut_compose(SIGMA2_R2, SIGMA1_R2))
B_R2 = aut_compose(SIGMA1_R2, SIGMA2_R2)
A_R2_INV = aut_compose(SIGMA1_R2_INV, aut_compose(SIGMA2_R2_INV, SIGMA1_R2_INV))
B_R2_INV = aut_compose(SIGMA2_R2_INV, SIGMA1_R2_INV)


def trefoil_letter_table(alphabet: Alphabet, rank2=False):
    if rank2:
        auts = (A_R2, A_R2_INV, B_R2, B_R2_INV)
    else:
        auts = (A_AUT, A_INV, B_AUT, B_INV)
    return {
        alphabet.index("a"): auts[0],
        alphabet.index("a^-1"): auts[1],
        alphabet.index("b"): auts[2],
        alphabet.index("b^-1"): auts[3],
    }


def aut_identity(table):
    alphabet = next(iter(table.values()))[0].alphabet
    return tuple(alphabet.letter(g) for g in alphabet.generators)


def trefoil_aut(w: Word, table) -> tuple:
    phi = None
    for x in w.letters:
        phi = table[x] if phi is None else aut_compose(phi, table[x])
    return aut_identity(table) if phi is None else phi


def trefoil_key(w: Word, table):
    phi = trefoil_aut(w, table)
    return tuple(img.letters for img in phi)



# the trefoil over its own generators: x = b^-1 a and y = a^-1 b^2 in the
# amalgam, keyed by the faithful rank-2 action
_AB = Alphabet(["a", "b"])
_AB_TABLE = trefoil_letter_table(_AB, rank2=True)
_XY_IN_AB = {"x": "b^-1 a", "x^-1": "a^-1 b", "y": "a^-1 b b", "y^-1": "b^-1 b^-1 a"}


def trefoil_xy_key(w: Word):
    """Key of a word over {x, y}: the braid action of its amalgam image."""
    letters = []
    for x in w.letters:
        letters.extend(_AB.word(_XY_IN_AB[w.alphabet.names[x]]).letters)
    return trefoil_key(Word(_AB, tuple(letters)), _AB_TABLE)

# --- free products of cyclic groups ------------------------------------------

def syllables(w: Word, vertex_of_letter):
    """Reduce a word over a free product to its alternating syllable form.

    vertex_of_letter maps a letter index to (vertex, +1/-1).  Returns a tuple
    of (vertex, exponent) pairs with no zero exponents and no equal adjacent
    vertices.
    """
    stack = []
    for x in w.letters:
        v, s = vertex_of_letter[x]
        if stack and stack[-1][0] == v:
            e = stack[-1][1] + s
            stack.pop()
            if e != 0:
                stack.append((v, e))
        else:
            stack.append((v, s))
    return tuple(stack)


def zz_vertex_table(alphabet: Alphabet):
    return {
        alphabet.index("a"): ("a", 1),
        alphabet.index("a^-1"): ("a", -1),
        alphabet.index("b"): ("b", 1),
        alphabet.index("b^-1"): ("b", -1),
    }


# --- HNN of Z^2 over <x1>: the group is Z x F2 --------------------------------

def hnn_z2_key(w: Word):
    """Split off the central x1 exponent and freely reduce the rest."""
    alpha = w.alphabet
    x1, x1i = alpha.index("x1"), alpha.index("x1^-1")
    exp = 0
    rest = []
    for x in w.letters:
        if x == x1:
            exp += 1
        elif x == x1i:
            exp -= 1
        else:
            rest.append(x)
    reduced = free_reduce(Word(alpha, tuple(rest)))
    return (exp, reduced.letters)


# --- trefoil cosets of H = <x, d> in the central quotient Z/2 * Z/3 ----------
#
# H is the preimage of <x̄>, x̄ = b^2 a, so a coset is an orbit <x̄> s of
# reduced syllable forms s.  The label is found by brute force: multiply by
# x̄ and by x̄^-1 well past the length of s and keep the least form.

_ZZ_ORDER = {"a": 2, "b": 3}
_XBAR = (("b", 2), ("a", 1))
_XBAR_INV = (("a", 1), ("b", 1))


def _zz_mul(s, t):
    stack = list(s)
    for v, e in t:
        if stack and stack[-1][0] == v:
            e = (stack.pop()[1] + e) % _ZZ_ORDER[v]
        if e % _ZZ_ORDER[v]:
            stack.append((v, e % _ZZ_ORDER[v]))
    return tuple(stack)


def _zz_key(s):
    return (sum(1 if v == "a" else e for v, e in s), s)


def trefoil_orbit_label(s):
    """Least (syllable length, form) in the orbit <x̄> s, by a scan of
    |s| + 2 powers of x̄ in each direction."""
    best = s
    for unit in (_XBAR, _XBAR_INV):
        cur = s
        for _ in range(_zz_key(s)[0] + 2):
            cur = _zz_mul(unit, cur)
            if _zz_key(cur) < _zz_key(best):
                best = cur
    return best


_XY_SYL = {"x": _XBAR, "x^-1": _XBAR_INV, "y": (("a", 1), ("b", 2)), "y^-1": (("b", 1), ("a", 1))}


def trefoil_coords(w: Word):
    """(m, n) with w = x^m d^n over {x, y}, or None when w is not in
    H = <x, d>: the syllable form of w in Z/2 * Z/3 is matched against every
    power of x̄ up to its syllable length, and since d = (xyx)^2 the exponent
    sum of w is m + 6n.  H is free abelian on {x, d}, so |w|_{x, d} = |m| + |n|."""
    s = ()
    for x in w.letters:
        s = _zz_mul(s, _XY_SYL[w.alphabet.names[x]])
    size = _zz_key(s)[0]
    for m in range(-size, size + 1):
        if (_XBAR * m if m >= 0 else _XBAR_INV * -m) == s:
            exponent_sum = sum(-1 if w.alphabet.names[x].endswith("^-1") else 1
                               for x in w.letters)
            n, rest = divmod(exponent_sum - m, 6)
            assert rest == 0, f"exponent sum of {w} is not {m} mod 6"
            return m, n
    return None


# --- automata by the subset construction ---------------------------------------
#
# Each automaton the package builds is rebuilt here as a nondeterministic
# automaton with epsilon moves and determinized by the subset construction,
# which numbers its states breadth-first in letter order.  The Higgins product
# enumerates every (component, state, fresh) triple up front and leaves
# reachability to the determinization.

class Nfa:
    """Nondeterministic automaton with epsilon moves; construction scratchpad."""

    def __init__(self, alphabet):
        self.alphabet = alphabet
        self.n_states = 0
        self.starts: set[int] = set()
        self.accepting: set[int] = set()
        self.trans: dict[tuple[int, int], set[int]] = {}
        self.eps: dict[int, set[int]] = {}

    def add_state(self) -> int:
        self.n_states += 1
        return self.n_states - 1

    def add_edge(self, s, letter, t):
        self.trans.setdefault((s, letter), set()).add(t)

    def add_eps(self, s, t):
        self.eps.setdefault(s, set()).add(t)

    def eps_closure(self, states) -> frozenset:
        seen = set(states)
        todo = list(seen)
        while todo:
            s = todo.pop()
            for t in self.eps.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return frozenset(seen)


def determinize(nfa: Nfa, name="dfa") -> Dfa:
    """Subset construction; output states numbered in BFS letter order."""
    m = len(nfa.alphabet)
    start = nfa.eps_closure(nfa.starts)
    index = {start: 0}
    order = [start]
    transitions = {}
    qi = 0
    while qi < len(order):
        cur = order[qi]
        qi += 1
        for letter in range(m):
            nxt = set()
            for s in cur:
                nxt |= nfa.trans.get((s, letter), set())
            if not nxt:
                continue
            closed = nfa.eps_closure(nxt)
            if closed not in index:
                index[closed] = len(order)
                order.append(closed)
            transitions[(index[cur], letter)] = index[closed]
    accepting = {index[ss] for ss in order if ss & nfa.accepting}
    dfa = Dfa(nfa.alphabet, len(order), 0, accepting, transitions, name)
    return _trim(dfa)


def _to_nfa(dfa: Dfa) -> Nfa:
    nfa = Nfa(dfa.alphabet)
    for _ in range(dfa.n_states):
        nfa.add_state()
    nfa.starts = {dfa.start}
    nfa.accepting = set(dfa.accepting)
    for (s, a), t in dfa.transitions.items():
        nfa.add_edge(s, a, t)
    return nfa


def union_by_subsets(a: Dfa, b: Dfa, name="union") -> Dfa:
    nfa = Nfa(a.alphabet)
    na = _to_nfa(a)
    shift = na.n_states
    nfa.n_states = a.n_states + b.n_states
    nfa.starts = {a.start, b.start + shift}
    nfa.accepting = set(a.accepting) | {s + shift for s in b.accepting}
    nfa.trans = {k: set(v) for k, v in na.trans.items()}
    for (s, x), t in b.transitions.items():
        nfa.add_edge(s + shift, x, t + shift)
    return determinize(nfa, name)


def concat_by_subsets(a: Dfa, b: Dfa, name="concat") -> Dfa:
    nfa = _to_nfa(a)
    shift = nfa.n_states
    nfa.n_states += b.n_states
    for (s, x), t in b.transitions.items():
        nfa.add_edge(s + shift, x, t + shift)
    for s in a.accepting:
        nfa.add_eps(s, b.start + shift)
    nfa.accepting = {s + shift for s in b.accepting}
    return determinize(nfa, name)


def intersect_by_subsets(a: Dfa, b: Dfa, name="intersection") -> Dfa:
    """One automaton state per pair of states, every pair up front."""
    nfa = Nfa(a.alphabet)
    pair = {(s, t): nfa.add_state() for s in range(a.n_states) for t in range(b.n_states)}
    nfa.starts = {pair[(a.start, b.start)]}
    nfa.accepting = {pair[(s, t)] for s in a.accepting for t in b.accepting}
    for (s, x), s2 in a.transitions.items():
        for t in range(b.n_states):
            t2 = b.transitions.get((t, x))
            if t2 is not None:
                nfa.add_edge(pair[(s, t)], x, pair[(s2, t2)])
    return determinize(nfa, name)


def complement_by_subsets(a: Dfa, name="complement") -> Dfa:
    """a completed by a sink, with the accepting states swapped."""
    nfa = _to_nfa(a)
    sink = nfa.add_state()
    for s in range(sink + 1):
        for x in range(len(a.alphabet)):
            if (s, x) not in nfa.trans:
                nfa.add_edge(s, x, sink)
    nfa.accepting = set(range(sink + 1)) - set(a.accepting)
    return determinize(nfa, name)


def word_set_by_subsets(words, alphabet, name="wordset") -> Dfa:
    """Trie acceptor for a finite set of words."""
    nfa = Nfa(alphabet)
    root = nfa.add_state()
    nfa.starts = {root}
    for w in words:
        s = root
        for x in w.letters:
            nxt = nfa.trans.get((s, x))
            if nxt:
                s = next(iter(nxt))
            else:
                t = nfa.add_state()
                nfa.add_edge(s, x, t)
                s = t
        nfa.accepting.add(s)
    return determinize(nfa, name)


def collected_by_subsets(backend, ranges, name) -> Dfa:
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


def reduced_by_subsets(alphabet, first_banned=(), name="reduced") -> Dfa:
    """Freely reduced words, one state per last letter, that do not begin
    with a letter of first_banned."""
    nfa = Nfa(alphabet)
    start = nfa.add_state()
    last = [nfa.add_state() for _ in range(len(alphabet))]
    nfa.starts = {start}
    nfa.accepting = {start, *last}
    for x in range(len(alphabet)):
        if x not in first_banned:
            nfa.add_edge(start, x, last[x])
        for y in range(len(alphabet)):
            if alphabet.inv[x] != y:
                nfa.add_edge(last[x], y, last[y])
    return determinize(nfa, name)


def free_cyclic_by_subsets(ctx) -> Dfa:
    """The coset language of <gen> in a free group, rebuilt: the loop
    labelled gen folded, two vertices merged at a time, until no two edges
    from a vertex share a letter; sigma(q), the shortlex-least path label to
    q, relaxed over the edges until it stops changing; then one state per
    vertex along the shortlex tree and one per last letter once the word
    has left the graph at a letter missing there."""
    alphabet = ctx.parent.alphabet
    inv, gen = alphabet.inv, ctx.gen_words[0].letters
    merged = list(range(len(gen)))

    def find(v):
        while merged[v] != v:
            v = merged[v]
        return v

    edges = {(i, x, (i + 1) % len(gen)) for i, x in enumerate(gen)}
    edges |= {(t, inv[x], s) for s, x, t in edges}
    while True:
        edges = {(find(s), x, find(t)) for s, x, t in edges}
        moves, clash = {}, None
        for s, x, t in sorted(edges):
            if moves.setdefault((s, x), t) != t:
                clash = (moves[s, x], t)
                break
        if clash is None:
            break
        merged[max(clash)] = min(clash)
    sigma, changed = {0: ()}, True
    while changed:
        changed = False
        for (s, x), t in moves.items():
            if s in sigma:
                label = sigma[s] + (x,)
                if t not in sigma or (len(label), label) < (len(sigma[t]), sigma[t]):
                    sigma[t], changed = label, True
    nfa = Nfa(alphabet)
    tree = {q: nfa.add_state() for q in sorted(sigma)}
    left = [nfa.add_state() for _ in range(len(alphabet))]
    nfa.starts = {tree[0]}
    nfa.accepting = set(range(nfa.n_states))
    for q, state in tree.items():
        for x in range(len(alphabet)):
            t = moves.get((q, x))
            if t is None:
                nfa.add_edge(state, x, left[x])
            elif sigma[t] == sigma[q] + (x,):
                nfa.add_edge(state, x, tree[t])
    for x in range(len(alphabet)):
        for y in range(len(alphabet)):
            if inv[x] != y:
                nfa.add_edge(left[x], y, left[y])
    return determinize(nfa, "cosets")


def _abelian_ranges(orders):
    """Exponent ranges of the collected words whose factors have these
    orders (None for infinite)."""
    return [(None, None) if d is None else (d // 2, (d - 1) // 2) for d in orders]


def canonical_by_subsets(backend) -> Dfa:
    """A vertex group's canonical language, rebuilt."""
    if isinstance(backend, AbelianBackend):
        orders = [backend.modulus(i) for i in range(backend.n)]
        return collected_by_subsets(backend, _abelian_ranges(orders), "canonical")
    if isinstance(backend, FreeBackend):
        return reduced_by_subsets(backend.alphabet)
    words = (Word(backend.alphabet, ls) for ls in backend._canon.values())
    return word_set_by_subsets(words, backend.alphabet, "canonical")


def coset_language_by_subsets(ctx) -> Optional[Dfa]:
    """An edge context's coset language, rebuilt; None where the package
    learns it (dependent abelian generators)."""
    if isinstance(ctx, TrivialSubgroup):
        return canonical_by_subsets(ctx.parent)
    if isinstance(ctx, AbelianSubgroup):
        if not ctx._independent:
            return None
        return collected_by_subsets(ctx.parent, _abelian_ranges(ctx._orders), "cosets")
    if isinstance(ctx, FreeCyclicSubgroup):
        return free_cyclic_by_subsets(ctx)
    return word_set_by_subsets({rep for rep, _h in ctx._split.values()},
                               ctx.parent.alphabet, "cosets")


def higgins_by_subsets(system, base) -> Dfa:
    """The Higgins (coset) automaton at base: one automaton state per
    (component, component state, segment still empty), every triple up front,
    with the moves Pi1System.higgins_automaton documents."""
    kind, anchor = base
    base_vertex = anchor if kind == "group" else anchor.dst
    comps = {None: system._component_dfa(base)}
    for e in system.gog.graph.edges.values():
        comps[e] = system._component_dfa(("coset", e))
    nfa = Nfa(system.alphabet)
    index = {(marker, q, fresh): nfa.add_state()
             for marker, dfa in comps.items()
             for q in range(dfa.n_states) for fresh in (True, False)}
    nfa.starts = {index[(None, comps[None].start, True)]}
    nfa.accepting = {i for (marker, q, _f), i in index.items() if q in comps[marker].accepting}
    for (marker, q, fresh), i in index.items():
        dfa = comps[marker]
        cur = base_vertex if marker is None else marker.dst
        for xl in range(len(system.alphabet)):
            k = system.alphabets.kind_x[xl]
            if k[0] == "v" and k[1] == cur:
                t = dfa.step(q, k[2])
                if t is not None:
                    nfa.add_edge(i, xl, index[(marker, t, False)])
                continue
            if q not in dfa.accepting:
                continue
            if k[0] == "v":
                tpath = system.tree.path(cur, k[1])
                if marker is not None and tpath[0] is marker.reverse and fresh:
                    continue
                last = tpath[-1]
                t = comps[last].step(comps[last].start, k[2])
                if t is not None:
                    nfa.add_edge(i, xl, index[(last, t, False)])
            else:
                f = k[1]
                tpath = system.tree.path(cur, f.src)
                first = tpath[0] if tpath else f
                if marker is not None and first is marker.reverse and fresh:
                    continue
                nfa.add_edge(i, xl, index[(f, comps[f].start, True)])
    return determinize(nfa, "higgins")

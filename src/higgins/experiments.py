"""The trefoil crossover experiment.

The trefoil knot group G = <x, y | xyx = yxy> is worked over its own
generators x, y.  Its word problem is syllable arithmetic: d = (xyx)^2 is
central and G/<d> is Z/2 * Z/3 with a = xyx of order 2 and b = xy of order 3
(so x = b^-1 a, y = a^-1 b^2).  Two words with the same syllable form there
differ by a power d^n, and d has exponent sum 6, so TrefoilXYBackend keys a
word by its syllable form and its exponent sum over {x, y}.  trefoil_amalgam
builds the same group as the graph of groups <a, b | a^2 = b^3>, for the
amalgam's own cascade machinery.

The subgroup is H = <x, d>, and the coset language is the set of
shortlex-least words over {x, y} per right coset.  H contains the center, so
it is the full preimage of <x̄> under G -> G/<d>; membership and coset labels
reduce to power-pattern matching on syllable forms: orbit_split(s) writes a
form as s = x̄^k label, with label the least form in the orbit <x̄> s.
Representatives come from a breadth-first search of the coset (Schreier)
graph over those labels, pruned at a syllable cap so deep products stay
tractable; the search grows one level at a time, only when a label is not
yet known, and keeps each representative v with its shift k' (v = x̄^k' label)
and exponent sum.  The pruning cap is part of the documented representative
choice and is cross-checked against an unpruned element search at small
radius in the tests.

H = <x> x <d> is free abelian, so subgroup lengths need no search either:
h = x^m d^n has |h|_{x, d} = |m| + |n|.  With Y left at {x, d}, the crossover
sweep asks coset_splitter()'s split(u, g): it joins the keys of u and g at
their junction, splits the product as x̄^k label and reads v, m = k - k' and
n off the label's entry, building neither u g nor h.  WordMetric, a Cayley
ball of H over one letter per generator keyed by the backend, measures any
other probe set.

The experiment sweeps once, at lambda_max, and reads every lambda off that
sweep.  No bound is proved here: per crossover constant, the report only
says whether witnesses were found at the tested radius.
"""

from __future__ import annotations

from .backends import AbelianBackend, AbelianSubgroup, SubgroupContext
from .cascade import Pi1System
from .cosets import CosetSystem, VerifierError, check_limited_crossover
from .fsa import LazyLanguage
from .gog import DirectedGraph, GraphOfGroups
from .words import Alphabet, Word, invert, shortlex_key


def trefoil_amalgam() -> GraphOfGroups:
    """<a, b | a^2 = b^3> as a graph of groups with two Z vertices."""
    A = AbelianBackend(1, names=["a"])
    B = AbelianBackend(1, names=["b"])
    graph = DirectedGraph()
    graph.add_vertex("va")
    graph.add_vertex("vb")
    graph.add_edge_pair("e", "vb", "va")
    ctx_e = AbelianSubgroup(A, [A.alphabet.word("a a")])
    ctx_er = AbelianSubgroup(B, [B.alphabet.word("b b b")])
    return GraphOfGroups(
        graph, {"va": A, "vb": B},
        {"e": ctx_e, "e~": ctx_er},
        {"e": [ctx_er.gen_alphabet.word("y1")], "e~": [ctx_e.gen_alphabet.word("y1")]},
    )


def trefoil_system() -> Pi1System:
    return Pi1System(trefoil_amalgam())


# syllable arithmetic in the central quotient Z/2 * Z/3
_ORD = {"a": 2, "b": 3}


def _push(stack, v, e):
    if stack and stack[-1][0] == v:
        e = (stack[-1][1] + e) % _ORD[v]
        stack.pop()
        if e:
            stack.append((v, e))
    elif e % _ORD[v]:
        stack.append((v, e % _ORD[v]))


def _mul(s, t):
    """(s t, |s t| - |s| - |t|) for reduced forms s and t, with |.| the
    syllable length of _syl_len.

    Only syllables at the junction cancel: pop s's tail against t's head
    while the vertices agree, then join what is left with one concatenation.
    """
    i, j, delta = len(s), 0, 0
    while i and j < len(t) and s[i - 1][0] == t[j][0]:
        v, e1 = s[i - 1]
        e2 = t[j][1]
        i -= 1
        j += 1
        if v == "a":                # a a = 1
            delta -= 2
            continue
        e = (e1 + e2) % 3
        delta += e - e1 - e2
        if e:
            return s[:i] + (("b", e),) + t[j:], delta
    return s[:i] + t[j:], delta


X_BAR = (("b", 2), ("a", 1))        # image of x, syllable length 3
X_BAR_INV = (("a", 1), ("b", 1))    # syllable length 2

_LETTER_SYL = {
    "x": X_BAR,
    "x^-1": X_BAR_INV,
    "y": (("a", 1), ("b", 2)),      # image of y = a^-1 b^2
    "y^-1": (("b", 1), ("a", 1)),
}


class TrefoilXYBackend:
    """Word problem of the trefoil group over its own generators x, y: a
    word's key is its syllable form in G/<d> = Z/2 * Z/3 and its exponent
    sum, which fixes the power of the central d = (xyx)^2 (exponent sum 6)."""

    def __init__(self):
        self.alphabet = Alphabet(["x", "y"])
        self.name = "trefoil-xy"
        self.letter_syl = {self.alphabet.index(nm): syl for nm, syl in _LETTER_SYL.items()}
        self.letter_exp = {self.alphabet.index(nm): -1 if nm.endswith("^-1") else 1
                           for nm in _LETTER_SYL}

    def syllables(self, w: Word):
        stack = []
        for letter in w.letters:
            for v, e in self.letter_syl[letter]:
                _push(stack, v, e)
        return tuple(stack)

    def exponent_sum(self, w: Word) -> int:
        return sum(self.letter_exp[x] for x in w.letters)

    def key(self, w: Word):
        return self.syllables(w), self.exponent_sum(w)


def _syl_len(s):
    return sum(1 if v == "a" else e for v, e in s)


def orbit_split(s):
    """(label, k) with s = x̄^k label, where label is the least syllable form
    in the orbit <x̄> s by (syllable length, form); O(len(s)).

    Strip the longest prefix of s that is a power of x̄ or of x̄^-1, leaving
    t.  As t starts with neither b^2 a nor a b, at most one of x̄ t and
    x̄^-1 t cancels into t, and every further power of x̄^±1 only prepends
    syllables; so the least form is one of x̄^-1 t, t, x̄ t.  Their lengths
    are compared relative to |t|, from the junction of each product.
    """
    unit, step = (X_BAR, 1) if s[:1] == X_BAR[:1] else (X_BAR_INV, -1)
    i = 0
    while s[i:i + 2] == unit:
        i += 2
    t = s[i:]
    k = step * (i // 2)
    down, d_down = _mul(X_BAR_INV, t)
    up, d_up = _mul(X_BAR, t)
    (_n, label), k = min(((2 + d_down, down), k + 1), ((0, t), k), ((3 + d_up, up), k - 1))
    return label, k


def orbit_label(s):
    """Least syllable form, by (syllable length, form), in the orbit <x̄> s."""
    return orbit_split(s)[0]


class TrefoilCentralizerContext(SubgroupContext):
    """Subgroup context for H = <x, d> over the generators {x, y}.

    The syllable cap bounds the coset-graph search; products swept at radius r
    with crossover constant lambda carry labels of syllable length at most
    2(r + lambda), so the cap must dominate that.
    """

    def __init__(self, syllable_cap: int = 24):
        self.parent = parent = TrefoilXYBackend()
        alpha = parent.alphabet
        # (letter, syllable form, its syllable length, exponent sum) per letter
        self._steps = [(x, parent.letter_syl[x], _syl_len(parent.letter_syl[x]),
                        parent.letter_exp[x]) for x in range(len(alpha))]
        self.gen_words = [alpha.word("x"), alpha.word("x y x x y x")]
        self.syllable_cap = syllable_cap
        # label -> (representative, k with rep = x̄^k label, exponent sum)
        self._reps: dict = {}
        self._depth = -1
        self._frontier = None

    def membership(self, w: Word) -> bool:
        return orbit_label(self.parent.syllables(w)) == ()

    def coset_label(self, w: Word):
        """Least syllable form in the orbit <x̄> w̄; a canonical coset name."""
        return orbit_label(self.parent.syllables(w))

    def coset_splitter(self):
        """A function split(u, g) -> (v, (m, n)) for one crossover sweep, with
        v the representative of the coset of u g and u g v^-1 = x^m d^n; it
        builds neither u g nor h = u g v^-1.

        With u g = x̄^k label and v = x̄^k' label in G/<d>, h maps to x̄^(k - k'),
        and the exponent sum of h is e(u) + e(g) - e(v) = m + 6n.  The keys
        (form, exponent sum) of u and g are computed once per word per sweep,
        and dropped with the function.
        """
        key = self.parent.key
        forms: dict = {}  # letters of a swept u or g -> its key

        def split(u: Word, g: Word):
            fu = forms.get(u.letters)
            if fu is None:
                fu = forms[u.letters] = key(u)
            fg = forms.get(g.letters)
            if fg is None:
                fg = forms[g.letters] = key(g)
            label, k = orbit_split(_mul(fu[0], fg[0])[0])
            v, k_rep, e_rep = self._reps.get(label) or self._search(label, u * g)
            m = k - k_rep
            n, rest = divmod(fu[1] + fg[1] - e_rep - m, 6)
            if rest:
                raise VerifierError(f"exponent sum of {u * g * invert(v)} is not {m} mod 6")
            return v, (m, n)
        return split

    # -- representatives: breadth-first search of the coset graph --------------

    def _grow(self):
        alpha = self.parent.alphabet
        if self._depth < 0:
            empty = alpha.empty()
            self._reps = {(): (empty, 0, 0)}
            self._frontier = [((), 0, 0, empty)]
            self._depth = 0
            return
        nxt = []
        for s, n, e, word in self._frontier:
            for letter, syl, syl_n, syl_e in self._steps:
                s2, delta = _mul(s, syl)
                n2 = n + syl_n + delta
                if n2 > self.syllable_cap:
                    continue
                label, k = orbit_split(s2)
                if label in self._reps:
                    continue
                w2 = Word(alpha, word.letters + (letter,))
                self._reps[label] = (w2, k, e + syl_e)
                nxt.append((s2, n2, e + syl_e, w2))
        self._frontier = nxt
        self._depth += 1

    def ensure_depth(self, depth: int):
        while self._depth < depth and (self._depth < 0 or self._frontier):
            self._grow()

    def _search(self, label, w: Word):
        """The entry of label, growing the search one level at a time; w is a
        word of the coset, for the search bound and the error."""
        self.ensure_depth(0)
        rep = self._reps.get(label)
        bound = max(len(w), 3 * self.syllable_cap)
        while rep is None and self._frontier and self._depth < bound:
            self._grow()
            rep = self._reps.get(label)
        if rep is None:
            raise VerifierError(
                f"no representative found for the coset of {w}; raise syllable_cap")
        return rep

    def coset_rep(self, w: Word) -> Word:
        # a label, once found, keeps its representative: look it up first and
        # grow the search only on a miss
        label = self.coset_label(w)
        return (self._reps.get(label) or self._search(label, w))[0]

    def representatives(self, radius: int):
        self.ensure_depth(radius)
        reps = [w for w, _k, _e in self._reps.values() if len(w) <= radius]
        reps.sort(key=shortlex_key)
        return reps

    @property
    def coset_language(self):
        return LazyLanguage(self.parent.alphabet, self.representatives, "trefoil-xd-reps")


class TrefoilExperimentReport:
    def __init__(self, radius, lambda_max, syllable_cap, coset_count, rows):
        self.radius = radius
        self.lambda_max = lambda_max
        self.syllable_cap = syllable_cap
        self.coset_count = coset_count
        self.rows = rows              # (lam, status, violations, sample or None)
        self.certified = next((lam for lam, status, *_ in rows if status == "no-witnesses"), None)

    def lines(self):
        out = [
            "experiment trefoil-crossover",
            f"params radius={self.radius} lambda_max={self.lambda_max}",
            "representatives shortlex-bfs over {x,y} "
            f"(coset-graph search, syllable cap {self.syllable_cap})",
            f"cosets {self.coset_count}",
        ]
        for lam, status, violations, sample in self.rows:
            line = f"lambda={lam} status={status} violations={violations}"
            if sample is not None:
                u, g, v, excess = sample
                line += f" sample=u=[{u}] g=[{g}] v=[{v}] excess={excess}"
            out.append(line)
        if self.certified is None:
            out.append("certified none")
            out.append(f"note no lambda <= {self.lambda_max} certified at radius {self.radius}")
        else:
            out.append(f"certified lambda={self.certified}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


def run_trefoil_experiment(radius: int, lambda_max: int,
                           context: TrefoilCentralizerContext | None = None
                           ) -> TrefoilExperimentReport:
    ctx = context or TrefoilCentralizerContext(syllable_cap=3 * (radius + lambda_max) + 4)
    reps = ctx.representatives(radius)
    rows = [(lam, "inconclusive", 0, None) for lam in range(1, lambda_max + 1)]
    if len(reps) > 1 and lambda_max > 0:
        sweep = check_limited_crossover(CosetSystem(ctx), lam=lambda_max, radius=radius)
        for lam in range(1, lambda_max + 1):
            report = sweep.at(lam)
            status = ("inconclusive" if lam >= radius else
                      "no-witnesses" if report.passed else "witnesses")
            rows[lam - 1] = (lam, status, report.total_violations, (report.witnesses or [None])[0])
    return TrefoilExperimentReport(radius, lambda_max, ctx.syllable_cap, len(reps), rows)

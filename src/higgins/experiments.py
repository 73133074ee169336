"""The trefoil crossover experiment.

The trefoil knot group G = <x, y | xyx = yxy> is realized as the amalgam
<a, b | a^2 = b^3> via a = xyx, b = xy (so x = b^-1 a, y = a^-1 b^2), and the
amalgam's cascade machinery decides the word problem.  The experiment itself
lives over the group's own generators x, y: the subgroup is H = <x, d> with
d the central element (xyx)^2, and the coset language is the set of
shortlex-least words over {x, y} per right coset.

H contains the center, so it is the full preimage of <x̄> under
G -> G/<d> = Z/2 * Z/3; membership and coset labels reduce to power-pattern
matching on free-product normal forms, and a label (the least form in the
orbit <x̄> s) takes O(n) time in the length of s.  Representatives come from a
breadth-first search of the coset (Schreier) graph over those labels, pruned
at a syllable cap so deep products stay tractable; the search grows one level
at a time, only when a label is not yet known.  The pruning cap is part of
the documented representative choice and is cross-checked against an
unpruned element search at small radius in the tests.

H = <x> x <d> is free abelian, so subgroup lengths need no search either:
y_coords reads the coordinates (m, n) of h = x^m d^n off the syllable form
and the exponent sum, and |h|_{x, d} = |m| + |n|.  The crossover checks use
them when Y and Z are left at {x, d}; the breadth-first search of WordMetric
stays the fallback for any other probe set, and the oracle in the tests.

No bound is proved here: per crossover constant, the report only says
whether witnesses were found at the tested radius.
"""

from __future__ import annotations

from typing import Optional

from .backends import abelian_backend, abelian_subgroup
from .cascade import Pi1Backend, Pi1System
from .cosets import CosetSystem, VerifierError, check_limited_crossover
from .fsa import LazyLanguage
from .gog import DirectedGraph, GraphOfGroups
from .words import Alphabet, Word, shortlex_key


def trefoil_amalgam() -> GraphOfGroups:
    """<a, b | a^2 = b^3> as a graph of groups with two Z vertices."""
    A = abelian_backend(1, names=["a"])
    B = abelian_backend(1, names=["b"])
    graph = DirectedGraph()
    graph.add_vertex("va")
    graph.add_vertex("vb")
    graph.add_edge_pair("e", "vb", "va")
    ctx_e = abelian_subgroup(A, [A.alphabet.word("a a")])
    ctx_er = abelian_subgroup(B, [B.alphabet.word("b b b")])
    return GraphOfGroups(
        graph, {"va": A, "vb": B},
        {"e": ctx_e, "e~": ctx_er},
        {"e": [ctx_er.gen_alphabet.word("y1")], "e~": [ctx_e.gen_alphabet.word("y1")]},
    )


def trefoil_system() -> Pi1System:
    return Pi1System(trefoil_amalgam())


class TrefoilXYBackend:
    """Word-problem oracle for the trefoil group over its own generators:
    keys are amalgam normal forms of the expanded words."""

    def __init__(self, system: Optional[Pi1System] = None):
        self.system = system if system is not None else trefoil_system()
        self.pi1 = Pi1Backend(self.system, "va")
        self.alphabet = Alphabet(["x", "y"])
        ab = self.pi1.alphabet
        self._exp = {
            self.alphabet.index("x"): ab.word("b^-1 a"),
            self.alphabet.index("x^-1"): ab.word("a^-1 b"),
            self.alphabet.index("y"): ab.word("a^-1 b b"),
            self.alphabet.index("y^-1"): ab.word("b^-1 b^-1 a"),
        }
        self.name = "trefoil-xy"

    def expand(self, w: Word) -> Word:
        out = self.pi1.alphabet.empty()
        for letter in w.letters:
            out = out * self._exp[letter]
        return out

    def canonical(self, w: Word) -> Word:
        # canonical key only; there is no re-serialization over {x, y}
        return self.pi1.canonical(self.expand(w))

    def key(self, w: Word):
        return self.pi1.key(self.expand(w))


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
    stack = list(s)
    for v, e in t:
        _push(stack, v, e)
    return tuple(stack)


X_BAR = (("b", 2), ("a", 1))        # image of x
X_BAR_INV = (("a", 1), ("b", 1))

_LETTER_SYL = {
    "x": X_BAR,
    "x^-1": X_BAR_INV,
    "y": (("a", 1), ("b", 2)),      # image of y = a^-1 b^2
    "y^-1": (("b", 1), ("a", 1)),
}


def in_xbar_powers(s) -> bool:
    if not s:
        return True
    if len(s) % 2:
        return False
    unit = X_BAR if s[0] == X_BAR[0] else X_BAR_INV
    return all(s[i] == unit[i % 2] for i in range(len(s)))


def _syl_len(s):
    return sum(1 if v == "a" else e for v, e in s)


def _syl_key(s):
    return (_syl_len(s), s)


def orbit_label(s):
    """Least syllable form, by _syl_key, in the orbit <x̄> s, in O(len(s)).

    Strip the longest prefix of s that is a power of x̄ or of x̄^-1, leaving
    t.  As t starts with neither b^2 a nor a b, at most one of x̄ t and
    x̄^-1 t cancels into t, and every further power of x̄^±1 only prepends
    syllables; so the least form is one of x̄^-1 t, t, x̄ t.
    """
    unit = X_BAR if s[:1] == X_BAR[:1] else X_BAR_INV
    i = 0
    while s[i:i + 2] == unit:
        i += 2
    t = s[i:]
    return min((_mul(X_BAR_INV, t), t, _mul(X_BAR, t)), key=_syl_key)


class TrefoilCentralizerContext:
    """Subgroup context for H = <x, d> over the generators {x, y}.

    The syllable cap bounds the coset-graph search; products swept at radius r
    with crossover constant lambda carry labels of syllable length at most
    2(r + lambda), so the cap must dominate that.
    """

    def __init__(self, system: Optional[Pi1System] = None, syllable_cap: int = 24):
        self.parent = TrefoilXYBackend(system)
        alpha = self.parent.alphabet
        self._letter_syl = {alpha.index(nm): syl for nm, syl in _LETTER_SYL.items()}
        self._letter_exp = {alpha.index(nm): -1 if nm.endswith("^-1") else 1
                            for nm in _LETTER_SYL}
        self.gen_words = [alpha.word("x"), alpha.word("x y x x y x")]
        self.syllable_cap = syllable_cap
        self._reps: dict = {}
        self._depth = -1
        self._frontier = None

    def syllables(self, w: Word):
        stack = []
        for letter in w.letters:
            for v, e in self._letter_syl[letter]:
                _push(stack, v, e)
        return tuple(stack)

    def membership(self, w: Word) -> bool:
        return in_xbar_powers(self.syllables(w))

    def y_coords(self, w: Word):
        """(m, n) with w = x^m d^n, or None when w is not in H; O(|w|).

        The syllable form of a member is x̄^m, and since d = (xyx)^2 the
        exponent sum of w over {x, y} is m + 6n.  H = <x> x <d> is free
        abelian on {x, d}, so |w|_{x, d} = |m| + |n|.
        """
        s = self.syllables(w)
        if not in_xbar_powers(s):
            return None
        m = len(s) // 2 if s[:1] == X_BAR[:1] else -(len(s) // 2)
        n, rest = divmod(sum(self._letter_exp[x] for x in w.letters) - m, 6)
        if rest:
            raise VerifierError(f"exponent sum of {w} is not {m} mod 6")
        return m, n

    def coset_label(self, w: Word):
        """Least syllable form in the orbit <x̄> w̄; a canonical coset name."""
        return orbit_label(self.syllables(w))

    # -- representatives: breadth-first search of the coset graph --------------

    def _grow(self):
        alpha = self.parent.alphabet
        if self._depth < 0:
            empty = alpha.empty()
            self._reps = {orbit_label(()): empty}
            self._frontier = [((), empty)]
            self._depth = 0
            return
        nxt = []
        for s, word in self._frontier:
            for letter in range(len(alpha)):
                s2 = _mul(s, self._letter_syl[letter])
                if _syl_len(s2) > self.syllable_cap:
                    continue
                label = orbit_label(s2)
                if label in self._reps:
                    continue
                w2 = Word(alpha, word.letters + (letter,))
                self._reps[label] = w2
                nxt.append((s2, w2))
        self._frontier = nxt
        self._depth += 1

    def ensure_depth(self, depth: int):
        while self._depth < depth and (self._depth < 0 or self._frontier):
            self._grow()

    def coset_rep(self, w: Word) -> Word:
        # a label, once found, keeps its representative: look it up first and
        # grow the search one level at a time only on a miss
        label = self.coset_label(w)
        rep = self._reps.get(label)
        if rep is None:
            self.ensure_depth(0)
            bound = max(len(w), 3 * self.syllable_cap)
            while rep is None and self._frontier and self._depth < bound:
                self._grow()
                rep = self._reps.get(label)
        if rep is None:
            raise VerifierError(
                f"no representative found for the coset of {w}; raise syllable_cap")
        return rep

    def coset_key(self, w: Word):
        return self.coset_rep(w).letters

    def min_coset_length(self, w: Word) -> int:
        return len(self.coset_rep(w))

    def representatives(self, radius: int):
        self.ensure_depth(radius)
        reps = [w for w in self._reps.values() if len(w) <= radius]
        reps.sort(key=shortlex_key)
        return reps

    @property
    def coset_language(self):
        return LazyLanguage(
            self.parent.alphabet,
            membership=lambda w: self.coset_rep(w) == w,
            enumerator=self.representatives,
            name="trefoil-xd-reps")


class TrefoilExperimentReport:
    def __init__(self, radius, lambda_max, coset_count, rows, certified):
        self.radius = radius
        self.lambda_max = lambda_max
        self.coset_count = coset_count
        self.rows = rows              # (lam, status, violations, sample or None)
        self.certified = certified    # least certified lambda or None

    def lines(self):
        out = [
            "experiment trefoil-crossover",
            f"params radius={self.radius} lambda_max={self.lambda_max}",
            "representatives shortlex-bfs over {x,y} "
            f"(coset-graph search, syllable cap {3 * (self.radius + self.lambda_max) + 4})",
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
                           context: Optional[TrefoilCentralizerContext] = None
                           ) -> TrefoilExperimentReport:
    if context is not None:
        ctx = context
    else:
        ctx = TrefoilCentralizerContext(syllable_cap=3 * (radius + lambda_max) + 4)
    sys = CosetSystem(ctx, mode="async")
    reps = ctx.representatives(radius)
    if len(reps) <= 1:
        return TrefoilExperimentReport(
            radius, lambda_max, len(reps),
            [(lam, "inconclusive", 0, None) for lam in range(1, lambda_max + 1)], None)
    rows = []
    certified = None
    for lam in range(1, lambda_max + 1):
        report = check_limited_crossover(sys, lam=lam, radius=radius)
        conclusive = lam < radius
        if not conclusive:
            status = "inconclusive"
        elif report.passed:
            status = "no-witnesses"
        else:
            status = "witnesses"
        sample = report.witnesses[0] if report.witnesses else None
        rows.append((lam, status, report.total_violations, sample))
        if certified is None and status == "no-witnesses":
            certified = lam
    return TrefoilExperimentReport(radius, lambda_max, len(reps), rows, certified)

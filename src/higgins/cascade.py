"""Higgins coset languages and the cascade procedure.

Words over the working alphabet are inflated (tree stable letters inserted),
parsed into alternating path words u0 s_{e1} u1 ... s_{ek} uk, pinch-reduced
(backtracking subwords s_e g s_ebar with g in the edge subgroup are replaced
by the isomorphism image), and cascaded: a right-to-left sweep that pushes
edge-subgroup components leftward through the edge isomorphisms while each
segment drops into its coset language.  Deflating the result gives the unique
normal form, because every component language has unique representatives.

Two drivers implement the same procedure: the phase pipeline below, which
materializes each stage and records a trace, and CascadeScan, an incremental
form that consumes letters right to left and shares suffix state across a
word tree (the sweeps in the test suite walk millions of words through it).
"""

from __future__ import annotations


from typing import Optional

from .fsa import Dfa, LazyLanguage
from .gog import Edge, GogError, GraphOfGroups, SpanningTree, StableAlphabets, maximal_tree
from .words import Word, invert


class ParseError(ValueError):
    pass


class InflatedWord:
    """Alternating path word: base segment plus (edge, segment) steps."""

    __slots__ = ("base_vertex", "u0", "path")

    def __init__(self, base_vertex: str, u0: Word, path):
        self.base_vertex = base_vertex
        self.u0 = u0
        self.path = list(path)

    def __eq__(self, other):
        return (
            isinstance(other, InflatedWord)
            and self.base_vertex == other.base_vertex
            and self.u0 == other.u0
            and len(self.path) == len(other.path)
            and all(e1 is e2 and u1 == u2 for (e1, u1), (e2, u2) in zip(self.path, other.path))
        )

    def __repr__(self):
        steps = " ".join(f"s_{e.name} [{u}]" for e, u in self.path)
        return f"<inflated @{self.base_vertex}: [{self.u0}] {steps}>"


class HigginsWord(InflatedWord):
    """An inflated word whose segments are coset representatives and whose
    backtracks and tree-final segment are nonempty; cascades produce these."""


class CascadeTrace:
    """Connector elements produced by one cascade sweep.

    connectors[i] = (h_i over Y_{e_i}, h'_i over Y_{ebar_i}) for i = 1..k,
    listed left to right.
    """

    def __init__(self, connectors, reps, output: InflatedWord):
        self.connectors = connectors
        self.reps = reps
        self.output = output

    def log_lines(self):
        lines = []
        for i, ((h, h_img), rep) in enumerate(zip(self.connectors, self.reps), start=1):
            lines.append(f"i={i} h={h} h'={h_img} u'={rep}")
        return lines


class Pi1System:
    """A graph of groups with a chosen spanning tree and its stable alphabets."""

    def __init__(self, gog: GraphOfGroups, tree: Optional[SpanningTree] = None):
        problems = gog.validate()
        if problems:
            raise GogError("invalid graph of groups: " + "; ".join(problems))
        self.gog = gog
        self.tree = tree if tree is not None else maximal_tree(gog.graph)
        self.alphabets = StableAlphabets(gog, self.tree)
        self.alphabet = self.alphabets.deflated
        self._tree_paths = {}

    def tree_path(self, u: str, v: str):
        key = (u, v)
        if key not in self._tree_paths:
            self._tree_paths[key] = tuple(self.tree.path(u, v))
        return self._tree_paths[key]

    def word(self, text: str) -> Word:
        return self.alphabet.word(text)

    # -- phase pipeline ------------------------------------------------------

    def parse_alternating(self, w_hat: Word, base: str) -> InflatedWord:
        """Split an inflated word at stable letters, checking path continuity."""
        cur = base
        segments = [[]]
        edges = []
        for hl in w_hat.letters:
            kind = self.alphabets.kind_hat[hl]
            if kind[0] == "v":
                _, v, bl = kind
                if v != cur:
                    raise ParseError(
                        f"letter {self.alphabets.inflated.names[hl]} belongs to vertex {v}, "
                        f"current vertex is {cur}")
                segments[-1].append(bl)
            else:
                e = kind[1]
                if e.src != cur:
                    raise ParseError(
                        f"stable letter s_{e.name} starts at {e.src}, current vertex is {cur}")
                edges.append(e)
                segments.append([])
                cur = e.dst
        u0 = self.alphabets.to_vertex_word(base, segments[0])
        path = [
            (e, self.alphabets.to_vertex_word(e.dst, seg))
            for e, seg in zip(edges, segments[1:])
        ]
        return InflatedWord(base, u0, path)

    def pinch_reduce(self, iw: InflatedWord) -> InflatedWord:
        """Remove backtracking subwords s_e g s_ebar with g in the edge subgroup,
        rightmost first, to a fixed point."""
        u0 = iw.u0
        path = list(iw.path)
        while True:
            hit = None
            for i in range(len(path) - 2, -1, -1):
                e, u = path[i]
                e2, _ = path[i + 1]
                if e2 is e.reverse and self.gog.ctx(e).membership(u):
                    hit = i
                    break
            if hit is None:
                return InflatedWord(iw.base_vertex, u0, path)
            e, u = path[hit]
            ctx = self.gog.ctx(e)
            img = self.gog.ctx(e.reverse).expand(self.gog.apply_iso(e, ctx.h_express(u)))
            _, u_after = path[hit + 1]
            merged = img * u_after
            if hit == 0:
                u0 = u0 * merged
                path = path[2:]
            else:
                e_prev, u_prev = path[hit - 1]
                path[hit - 1] = (e_prev, u_prev * merged)
                path = path[:hit] + path[hit + 2:]

    def cascade(self, iw: InflatedWord, base) -> CascadeTrace:
        """Right-to-left sweep through the coset languages.

        base is ("group", v0) or ("coset", e0); the input must satisfy the
        no-backtracking hypothesis (run pinch_reduce first).
        """
        kind, anchor = base
        base_vertex = anchor if kind == "group" else anchor.dst
        if iw.base_vertex != base_vertex:
            raise ParseError(
                f"word is based at {iw.base_vertex}, cascade base is {base_vertex}")
        pending = None  # word over the alphabet of the current segment's vertex
        reps = []
        connectors = []
        for e, u in reversed(iw.path):
            ctx = self.gog.ctx(e)
            seg = u if pending is None else u * pending
            rep = ctx.coset_rep(seg)
            h_y = ctx.h_express(seg * invert(rep))
            h_img_y = self.gog.apply_iso(e, h_y)
            pending = self.gog.ctx(e.reverse).expand(h_img_y)
            reps.append(rep)
            connectors.append((h_y, h_img_y))
        reps.reverse()
        connectors.reverse()
        seg0 = iw.u0 if pending is None else iw.u0 * pending
        if kind == "group":
            u0 = self.gog.backend(base_vertex).canonical(seg0)
        else:
            u0 = self.gog.ctx(anchor).coset_rep(seg0)
        path = [(e, rep) for (e, _), rep in zip(iw.path, reps)]
        while path and self.tree.contains(path[-1][0]) and len(path[-1][1]) == 0:
            path.pop()
        return CascadeTrace(connectors, reps, HigginsWord(base_vertex, u0, path))

    def _reduce(self, w: Word, base) -> InflatedWord:
        kind, anchor = base
        base_vertex = anchor if kind == "group" else anchor.dst
        iw = self.parse_alternating(self.alphabets.inflate(w, base_vertex), base_vertex)
        for _ in range(len(iw.path) + 3):
            iw = self.pinch_reduce(iw)
            out = self.cascade(iw, base).output
            if out == iw:
                return iw
            iw = out
        raise AssertionError("cascade failed to reach a fixed point")

    def deflate_inflated(self, iw: InflatedWord) -> Word:
        letters = list(self.alphabets.vertex_word_to_x(iw.base_vertex, iw.u0))
        for e, u in iw.path:
            if not self.tree.contains(e):
                letters.append(self.alphabets.edge_to_x[e.name])
            letters.extend(self.alphabets.vertex_word_to_x(e.dst, u))
        return Word(self.alphabet, tuple(letters))

    def normal_form(self, w: Word, v0: Optional[str] = None) -> Word:
        v0 = v0 if v0 is not None else self.tree.root
        return self.deflate_inflated(self._reduce(w, ("group", v0)))

    def coset_normal_form(self, w: Word, e0: Edge) -> Word:
        return self.deflate_inflated(self._reduce(w, ("coset", e0)))

    def normal_form_trace(self, w: Word, base) -> CascadeTrace:
        kind, anchor = base
        base_vertex = anchor if kind == "group" else anchor.dst
        iw = self.pinch_reduce(
            self.parse_alternating(self.alphabets.inflate(w, base_vertex), base_vertex))
        return self.cascade(iw, base)

    def word_problem(self, w1: Word, w2: Word, v0: Optional[str] = None) -> bool:
        return self.normal_form(w1, v0) == self.normal_form(w2, v0)

    # -- membership and the language automaton --------------------------------

    def _segment_is_rep(self, ctx, u: Word) -> bool:
        return ctx.coset_rep(u) == u

    def higgins_membership(self, w: Word, base) -> bool:
        kind, anchor = base
        base_vertex = anchor if kind == "group" else anchor.dst
        iw = self.parse_alternating(self.alphabets.inflate(w, base_vertex), base_vertex)
        if kind == "group":
            if self.gog.backend(base_vertex).canonical(iw.u0) != iw.u0:
                return False
        else:
            if not self._segment_is_rep(self.gog.ctx(anchor), iw.u0):
                return False
        for i, (e, u) in enumerate(iw.path):
            if not self._segment_is_rep(self.gog.ctx(e), u):
                return False
            if i + 1 < len(iw.path) and iw.path[i + 1][0] is e.reverse and len(u) == 0:
                return False
        if iw.path and self.tree.contains(iw.path[-1][0]) and len(iw.path[-1][1]) == 0:
            return False
        return True

    def _component_dfa(self, base) -> Dfa:
        kind, anchor = base
        if kind == "group":
            lang = self.gog.backend(anchor).canonical_language
        else:
            lang = self.gog.ctx(anchor).coset_language
        if isinstance(lang, LazyLanguage):
            lang = lang.dfa
        if not isinstance(lang, Dfa):
            raise GogError("component language has no explicit automaton")
        return lang

    def higgins_automaton(self, base) -> Dfa:
        """Product automaton for the deflated Higgins (coset) language.

        States carry the current component (base segment or edge coset
        language), its automaton state, and whether the segment is still
        empty; stable letters and implicit tree moves are allowed only along
        valid paths and only where an empty segment is permitted.
        """
        kind, anchor = base
        base_vertex = anchor if kind == "group" else anchor.dst
        base_dfa = self._component_dfa(base)
        edge_dfas = {}
        for name in self.gog.graph.edges:
            lang = self.gog.ctx(self.gog.graph.edges[name]).coset_language
            if isinstance(lang, LazyLanguage):
                lang = lang.dfa
            if not isinstance(lang, Dfa):
                raise GogError(f"edge {name}: coset language has no explicit automaton")
            edge_dfas[name] = lang

        def comp(marker):
            return base_dfa if marker is None else edge_dfas[marker.name]

        def vertex_of(marker):
            return base_vertex if marker is None else marker.dst

        start = (None, base_dfa.start, True)
        index = {start: 0}
        order = [start]
        transitions = {}
        qi = 0
        while qi < len(order):
            marker, q, fresh = order[qi]
            dfa = comp(marker)
            cur = vertex_of(marker)

            def add(letter, state):
                if state not in index:
                    index[state] = len(order)
                    order.append(state)
                transitions[(qi, letter)] = index[state]

            for xl in range(len(self.alphabet)):
                k = self.alphabets.kind_x[xl]
                if k[0] == "v":
                    _, v, bl = k
                    if v == cur:
                        t = dfa.step(q, bl)
                        if t is not None:
                            add(xl, (marker, t, False))
                    else:
                        if q not in dfa.accepting:
                            continue
                        tpath = self.tree_path(cur, v)
                        if marker is not None and tpath[0] is marker.reverse and fresh:
                            continue
                        last = tpath[-1]
                        t = edge_dfas[last.name].step(edge_dfas[last.name].start, bl)
                        if t is not None:
                            add(xl, (last, t, False))
                else:
                    f = k[1]
                    if q not in dfa.accepting:
                        continue
                    tpath = self.tree_path(cur, f.src)
                    first = tpath[0] if tpath else f
                    if marker is not None and first is marker.reverse and fresh:
                        continue
                    add(xl, (f, edge_dfas[f.name].start, True))
            qi += 1
        accepting = {
            i for i, (marker, q, _fresh) in enumerate(order)
            if q in comp(marker).accepting
        }
        from .fsa import _trim
        return _trim(Dfa(self.alphabet, len(order), 0, accepting, transitions, "higgins"))

    # -- incremental right-to-left driver --------------------------------------

    def scan_initial(self):
        return (None, (), (), None)

    def _close_chain(self, edges, seg_letters, vertex, tail):
        """Close the open segment at the last edge of `edges`, then the empty
        segments at the earlier ones, connectors flowing left.  Returns the
        carry entering the next segment (at the source of edges[0]) and the
        updated tail."""
        carry = seg_letters
        for e in reversed(edges):
            ctx = self.gog.ctx(e)
            seg = Word(ctx.parent.alphabet, carry)
            rep = ctx.coset_rep(seg)
            if len(rep) == 0 and tail is not None and tail[0][0] is e.reverse:
                img = self.gog.ctx(e.reverse).expand(
                    self.gog.apply_iso(e, ctx.h_express(seg)))
                (_, u_next), tail = tail
                carry = img.letters + u_next
            else:
                h_y = ctx.h_express(seg * invert(rep))
                carry = self.gog.ctx(e.reverse).expand(
                    self.gog.apply_iso(e, h_y)).letters
                tail = ((e, rep.letters), tail)
        return carry, tail

    def scan_prepend(self, state, xl: int):
        """Prepend one working-alphabet letter to the suffix state."""
        vertex, active, suffix, tail = state
        k = self.alphabets.kind_x[xl]
        if k[0] == "v":
            _, v, bl = k
            if vertex is None:
                return (v, (bl,), (), tail)
            if v == vertex:
                return (vertex, (bl,) + active, suffix, tail)
            carry, tail = self._close_chain(
                self.tree_path(v, vertex), active + suffix, vertex, tail)
            return (v, (bl,), carry, tail)
        f = k[1]
        if vertex is None:
            vertex, active, suffix = f.dst, (), ()
        if vertex != f.dst:
            carry, tail = self._close_chain(
                self.tree_path(f.dst, vertex), active + suffix, vertex, tail)
            active, suffix, vertex = (), carry, f.dst
        carry, tail = self._close_chain((f,), active + suffix, vertex, tail)
        return (f.src, (), carry, tail)

    def scan_finalize(self, state, base) -> Word:
        kind, anchor = base
        base_vertex = anchor if kind == "group" else anchor.dst
        vertex, active, suffix, tail = state
        if vertex is None:
            vertex, active, suffix = base_vertex, (), ()
        seg0 = active + suffix
        if vertex != base_vertex:
            seg0, tail = self._close_chain(
                self.tree_path(base_vertex, vertex), seg0, vertex, tail)
        backend = self.gog.backend(base_vertex)
        w0 = Word(backend.alphabet, seg0)
        u0 = backend.canonical(w0) if kind == "group" else self.gog.ctx(anchor).coset_rep(w0)
        steps = []
        while tail is not None:
            head, tail = tail
            steps.append(head)
        while steps and self.tree.contains(steps[-1][0]) and not steps[-1][1]:
            steps.pop()
        letters = list(self.alphabets.vertex_word_to_x(base_vertex, u0))
        for e, rep in steps:
            if not self.tree.contains(e):
                letters.append(self.alphabets.edge_to_x[e.name])
            letters.extend(
                self.alphabets.vx_to_x[(e.dst, bl)] for bl in rep)
        return Word(self.alphabet, tuple(letters))

    def scan_word(self, w: Word, base) -> Word:
        state = self.scan_initial()
        for xl in reversed(w.letters):
            state = self.scan_prepend(state, xl)
        return self.scan_finalize(state, base)


class Pi1Backend:
    """Group-backend facade over a Pi1System: canonical forms are Higgins
    normal forms, balls come from breadth-first search with those keys."""

    def __init__(self, system: Pi1System, v0: Optional[str] = None):
        self.system = system
        self.v0 = v0 if v0 is not None else system.tree.root
        self.alphabet = system.alphabet
        self._canon_cache = {}
        self.name = "pi1"

    def canonical(self, w: Word) -> Word:
        hit = self._canon_cache.get(w.letters)
        if hit is None:
            hit = self.system.scan_word(w, ("group", self.v0))
            self._canon_cache[w.letters] = hit
        return hit

    def key(self, w: Word):
        return self.canonical(w).letters

    def ball(self, radius: int) -> list[Word]:
        seen = {self.key(self.alphabet.empty()): self.alphabet.empty()}
        frontier = [self.alphabet.empty()]
        for _ in range(radius):
            nxt = []
            for u in frontier:
                for xl in range(len(self.alphabet)):
                    w = Word(self.alphabet, u.letters + (xl,))
                    k = self.key(w)
                    if k not in seen:
                        seen[k] = w
                        nxt.append(w)
            frontier = nxt
        return list(seen.values())

    @property
    def canonical_language(self):
        return LazyLanguage(
            self.alphabet,
            membership=lambda w: self.system.higgins_membership(w, ("group", self.v0)),
            name="higgins")


class Pi1EdgeSubgroup:
    """Subgroup context for an edge group inside the fundamental group."""

    def __init__(self, system: Pi1System, e0: Edge):
        self.system = system
        self.e0 = e0
        self.parent = Pi1Backend(system, e0.dst)
        edge_ctx = system.gog.ctx(e0)
        self.gen_alphabet = edge_ctx.gen_alphabet
        self.gen_words = [
            Word(system.alphabet,
                 system.alphabets.vertex_word_to_x(e0.dst, gw))
            for gw in edge_ctx.gen_words
        ]
        self._edge_ctx = edge_ctx
        self._rep_cache = {}

    def expand(self, yword: Word) -> Word:
        out = self.system.alphabet.empty()
        for y in yword.letters:
            gi = yword.alphabet.inv[y]
            if gi < y:
                out = out * invert(self.gen_words[self._gen_index(gi)])
            else:
                out = out * self.gen_words[self._gen_index(y)]
        return out

    def _gen_index(self, letter):
        return self.gen_alphabet.generators.index(self.gen_alphabet.names[letter])

    def coset_rep(self, w: Word) -> Word:
        hit = self._rep_cache.get(w.letters)
        if hit is None:
            hit = self.system.scan_word(w, ("coset", self.e0))
            self._rep_cache[w.letters] = hit
        return hit

    def coset_key(self, w: Word):
        return self.coset_rep(w).letters

    def membership(self, w: Word) -> bool:
        return len(self.coset_rep(w)) == 0

    def h_express(self, w: Word) -> Word:
        # a member reduces, inside the vertex backend, to an edge-group element
        nf = self.parent.canonical(w)
        iw = self.system.parse_alternating(
            self.system.alphabets.inflate(nf, self.e0.dst), self.e0.dst)
        if iw.path or not self._edge_ctx.membership(iw.u0):
            raise GogError(f"h_express on non-member {w}")
        return self._edge_ctx.h_express(iw.u0)

    def min_coset_length(self, w: Word) -> int:
        return len(self.coset_rep(w))

    @property
    def coset_language(self):
        try:
            dfa = self.system.higgins_automaton(("coset", self.e0))
        except GogError:
            dfa = None
        return LazyLanguage(
            self.system.alphabet,
            membership=lambda w: self.system.higgins_membership(w, ("coset", self.e0)),
            dfa=dfa,
            name="higgins-cosets")

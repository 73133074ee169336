"""Higgins coset languages and the cascade procedure.

Words over the working alphabet are inflated (tree stable letters inserted),
parsed into alternating path words u0 s_{e1} u1 ... s_{ek} uk, pinch-reduced
(backtracking subwords s_e g s_ebar with g in the edge subgroup are replaced
by the isomorphism image), and cascaded: a right-to-left sweep that pushes
edge-subgroup components leftward through the edge isomorphisms while each
segment drops into its coset language.  Deflating the result gives the unique
normal form, because every component language has unique representatives.

Pi1System.scan_word computes every normal form: it consumes letters right to
left and closes each segment into its coset language as the segment ends, so
suffix state can be shared across a word tree.  The scan state is (vertex,
element, tail): the open segment is carried as its element in the vertex
backend, so no segment is ever keyed again.  One loop, Pi1System._scan, reads
every letter.  A letter of the open vertex costs one backend.prepend; a letter
that leaves it costs one probe of a memo keyed by (letter, vertex, element),
whose entry holds the whole switch: the closed edge and its step, the carry,
the element the new segment opens with.  A miss, and any route of two or more
tree edges, closes through _close_chain, which memoizes each close by edge and
element with the element of the carry it sends left; a group-based finalize
reads the base element's canonical word, memoized by vertex and element.
Membership in a Higgins (coset) language is scan_word(w, base) == w, and
Pi1System.language pairs that predicate with the product automaton where one
exists.  The phase pipeline (parse_alternating, pinch_reduce, cascade) stays
only behind `nf --trace`: it materializes one round with the connector trace
printed.
"""

from __future__ import annotations


from typing import Optional

from .backends import SubgroupContext
from .fsa import Dfa, LazyLanguage
from .gog import Edge, GogError, GraphOfGroups, SpanningTree, StableAlphabets, maximal_tree
from .words import Word, WordMap, invert


_BOTTOM = (None, (), None, ())


def _pass(_x, elem):  # a stable letter's prepend: the carry opens the segment
    return elem


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
        # (edge name, vertex element) -> (rep letters, carry element,
        # deflated step); see _close_chain
        self._closes = {}
        # (vertex, element) -> working letters of the element's canonical word
        self._heads = {}
        # (letter, open vertex, element) -> a one-edge switch; see _scan
        self._switches = {}
        # working letter -> (vertex, backend letter, backend.prepend), or
        # (Edge, None, _pass) for a stable letter
        self._scan_letters = {}
        # vertex letter -> the scan state of the one-letter word; see scan_word
        self._opens = {}
        for xl, kind in self.alphabets.kind_x.items():
            if kind[0] == "v":
                _, v, bl = kind
                backend = gog.backend(v)
                self._scan_letters[xl] = (v, bl, backend.prepend)
                self._opens[xl] = (v, backend.prepend(bl, backend.identity()), _BOTTOM)
            else:
                self._scan_letters[xl] = (kind[1], None, _pass)

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

    def normal_form(self, w: Word, v0: Optional[str] = None) -> Word:
        v0 = v0 if v0 is not None else self.tree.root
        return self.scan_word(w, ("group", v0))

    def coset_normal_form(self, w: Word, e0: Edge) -> Word:
        return self.scan_word(w, ("coset", e0))

    def normal_form_trace(self, w: Word, base) -> CascadeTrace:
        kind, anchor = base
        base_vertex = anchor if kind == "group" else anchor.dst
        iw = self.pinch_reduce(
            self.parse_alternating(self.alphabets.inflate(w, base_vertex), base_vertex))
        return self.cascade(iw, base)

    def word_problem(self, w1: Word, w2: Word, v0: Optional[str] = None) -> bool:
        return self.normal_form(w1, v0) == self.normal_form(w2, v0)

    # -- the language and its automaton ----------------------------------------

    def language(self, base) -> LazyLanguage:
        """The Higgins language at base ("group", v0), or the coset language
        at ("coset", e0): the words that are their own normal form.  Its dfa
        is higgins_automaton(base), or None when some component language has
        no explicit automaton."""
        try:
            dfa = self.higgins_automaton(base)
        except GogError:
            dfa = None
        return LazyLanguage(
            self.alphabet,
            membership=lambda w: self.scan_word(w, base) == w,
            dfa=dfa,
            name="higgins" if base[0] == "group" else "higgins-cosets")

    def _component_dfa(self, base) -> Dfa:
        kind, anchor = base
        if kind == "group":
            lang = self.gog.backend(anchor).canonical_language
        else:
            lang = self.gog.ctx(anchor).coset_language
        if isinstance(lang, LazyLanguage):
            lang = lang.dfa
        if not isinstance(lang, Dfa):
            raise GogError(f"{kind} {getattr(anchor, 'name', anchor)}: "
                           "component language has no explicit automaton")
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
        edge_dfas = {name: self._component_dfa(("coset", e))
                     for name, e in self.gog.graph.edges.items()}

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

    # A scan state is (vertex, element, tail): the open segment's vertex and
    # its element in that vertex's backend (backend.key of the segment's
    # letters, updated by backend.prepend per letter).  The tail holds the
    # closed segments, leftmost on top, as nodes (edge, rep letters, node
    # below, deflated letters of the step); _BOTTOM ends it.  _switches maps
    # (letter, vertex, element), for a letter that leaves the vertex along one
    # edge e, to (e, e.reverse if the rep is empty else False, rep letters,
    # step, new vertex, carry, carry with the letter prepended, e.src's
    # backend.append): a hit pushes the node, or joins the segment below
    # into the carry when that node is e.reverse's.

    def scan_initial(self):
        return (None, None, _BOTTOM)

    def _close_chain(self, edges, elem, tail):
        """Close the open segment (element `elem`) at the last edge of
        `edges`, then the empty segments at the earlier ones, connectors
        flowing left.  Returns the element of the carry entering the next
        segment (at the source of edges[0]), the updated tail, and the close
        made at edges[0].

        A close's coset rep and connector (seg rep^-1 mapped across the edge)
        are only needed up to the element seg represents, so _closes keeps
        them, with the carry's element and the step's deflated letters, per
        (edge, vertex element)."""
        closes = self._closes
        for e in reversed(edges):
            k = (e.name, elem)
            hit = closes.get(k)
            if hit is None:
                ctx = self.gog.ctx(e)
                seg = ctx.parent.element_word(elem)
                rep = ctx.coset_rep(seg)
                img = self.gog.ctx(e.reverse).expand(
                    self.gog.apply_iso(e, ctx.h_express(seg * invert(rep))))
                step = self.alphabets.vertex_word_to_x(e.dst, rep)
                if not self.tree.contains(e):
                    step = (self.alphabets.edge_to_x[e.name],) + step
                hit = closes[k] = (rep.letters, self.gog.backend(e.src).key(img), step)
            rep, elem, step = hit
            if not rep and tail[0] is e.reverse:  # backtrack: join the segment beyond
                append = self.gog.backend(e.src).append
                for y in tail[1]:
                    elem = append(elem, y)
                tail = tail[2]
            else:
                tail = (e, rep, tail, step)
        return elem, tail, hit

    def _scan(self, state, letters):
        """Prepend `letters`, in the order given, to the suffix state."""
        vertex, elem, tail = state
        table, switches = self._scan_letters, self._switches
        for xl in letters:
            v, bl, prepend = table[xl]
            if v == vertex:
                elem = prepend(bl, elem)
                continue
            hit = switches.get((xl, vertex, elem))
            if hit is None:
                vertex, elem, tail = self._switch(xl, vertex, elem, tail)
                continue
            e, back, rep, step, vertex, carry, opened, append = hit
            if tail[0] is back:  # backtrack: join the segment beyond
                for y in tail[1]:
                    carry = append(carry, y)
                tail = tail[2]
                elem = prepend(bl, carry)
            else:
                tail = (e, rep, tail, step)
                elem = opened
        return (vertex, elem, tail)

    def _switch(self, xl, vertex, elem, tail):
        """Prepend a letter that leaves the open segment's vertex, on a miss
        of the letter memo.  A route of one edge is remembered under
        (letter, vertex, element) with the close _close_chain just made."""
        v, bl, prepend = self._scan_letters[xl]
        key = (xl, vertex, elem)
        if bl is None:  # stable letter s_f, read at f.src
            f, v = v, v.src
            if vertex is None:
                vertex, elem = f.dst, self.gog.backend(f.dst).identity()
            edges = (f,) + self.tree_path(f.dst, vertex)
        elif vertex is None:
            return v, prepend(bl, self.gog.backend(v).identity()), tail
        else:
            edges = self.tree_path(v, vertex)
        carry, tail, (rep, closed, step) = self._close_chain(edges, elem, tail)
        if len(edges) == 1:
            e = edges[0]
            self._switches[key] = (
                e, False if rep else e.reverse, rep, step, v, closed,
                prepend(bl, closed), self.gog.backend(e.src).append)
        return v, prepend(bl, carry), tail

    def scan_prepend(self, state, xl: int):
        """Prepend one working-alphabet letter to the suffix state."""
        return self._scan(state, (xl,))

    def scan_finalize(self, state, base) -> Word:
        kind, anchor = base
        base_vertex = anchor if kind == "group" else anchor.dst
        vertex, elem, tail = state
        backend = self.gog.backend(base_vertex)
        if vertex is None:
            elem = backend.identity()
        elif vertex != base_vertex:
            elem, tail, _ = self._close_chain(
                self.tree_path(base_vertex, vertex), elem, tail)
        if kind == "group":
            head = self._heads.get((base_vertex, elem))
            if head is None:
                head = self._heads[(base_vertex, elem)] = self.alphabets.vertex_word_to_x(
                    base_vertex, backend.element_word(elem))
        else:
            head = self.alphabets.vertex_word_to_x(
                base_vertex, self.gog.ctx(anchor).coset_rep(backend.element_word(elem)))
        letters = list(head)
        while tail is not _BOTTOM:
            letters += tail[3]
            tail = tail[2]
        return Word(self.alphabet, tuple(letters))

    def scan_word(self, w: Word, base) -> Word:
        # a vertex letter opens the empty word's segment without a close, which
        # no letter-memo entry expresses, so a last vertex letter is read here
        letters = w.letters
        state = self._opens.get(letters[-1]) if letters else None
        if state is None:
            state = self.scan_initial()
        else:
            letters = letters[:-1]
        return self.scan_finalize(self._scan(state, reversed(letters)), base)


class Pi1Backend:
    """Group-backend facade over a Pi1System: canonical forms and keys are
    Higgins normal forms, memoized by word; a cosets.CayleyBall over these
    keys gives its balls."""

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

    @property
    def canonical_language(self):
        return self.system.language(("group", self.v0))


class Pi1EdgeSubgroup(SubgroupContext):
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
        self.expand = WordMap(self.gen_alphabet, self.gen_words, system.alphabet)
        self._edge_ctx = edge_ctx
        self._rep_cache = {}

    def coset_rep(self, w: Word) -> Word:
        hit = self._rep_cache.get(w.letters)
        if hit is None:
            hit = self.system.scan_word(w, ("coset", self.e0))
            self._rep_cache[w.letters] = hit
        return hit

    def membership(self, w: Word) -> bool:
        return len(self.coset_rep(w)) == 0

    def h_express(self, w: Word) -> Word:
        # a member's normal form is a word of the vertex group at e0.dst
        v0, alphabets = self.e0.dst, self.system.alphabets
        kinds = [alphabets.kind_x[xl] for xl in self.parent.canonical(w).letters]
        if all(k[:2] == ("v", v0) for k in kinds):
            u = alphabets.to_vertex_word(v0, [k[2] for k in kinds])
            if self._edge_ctx.membership(u):
                return self._edge_ctx.h_express(u)
        raise GogError(f"h_express on non-member {w}")

    @property
    def coset_language(self):
        return self.system.language(("coset", self.e0))

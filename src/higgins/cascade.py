"""Higgins coset languages and the cascade procedure.

A word over the working alphabet is inflated into its alternating path word
u0 s_{e1} u1 ... s_{ek} uk (tree edges included), pinch-reduced (backtracking
subwords s_e g s_ebar with g in the edge subgroup are replaced by the
isomorphism image), and cascaded: a right-to-left sweep that pushes
edge-subgroup components leftward through the edge isomorphisms while each
segment drops into its coset language.  Spelling the result over the working
alphabet, tree edges dropped, gives the unique normal form, because every
component language has unique representatives.

Pi1System.scan_word computes every normal form: it consumes letters right to
left and closes each segment into its coset language as the segment ends, so
suffix state can be shared across a word tree.  The scan state is (id,
tail): the open segment is carried as its element in the vertex backend,
named by a small integer id per (vertex, element) the scan has met, so no
segment is ever keyed again.  Each id has a row over the working alphabet,
filled on first use, as an automatic structure reads a word through a finite
table (Epstein et al., Word Processing in Groups, 1992): a letter of the
open vertex holds the id of its prepend, and a letter that leaves along one
edge holds the whole switch: the closed edge and its step, the carry, the id
the new segment opens with.  Id 0 is the empty word, whose row opens a
segment at each letter.  One loop, Pi1System._scan, reads every letter as
two list indexings and a type test.  A switch whose closed segment is in
the edge subgroup backtracks when the segment below was closed at the
reverse edge, and joins it into the carry; the switch keeps each join it
makes, by the rep letters below, so a segment is joined once per switch.
An empty slot, and any route of two or more tree edges, closes through
_close_chain, which memoizes each close by edge and element with the
element of the carry it sends left; a miss asks the edge's context for its
split of the element, the coset rep and the subgroup part at once.
Finalize reads the base element's canonical word or, at a coset base, the
rep of the base edge context's split, memoized by base and element.
The Higgins (coset) language is the set of words w with scan_word(w, base)
== w, and Pi1System.higgins_automaton(base) is its automaton, the product of
the component languages; Pi1Backend.canonical_language and
Pi1EdgeSubgroup.coset_language are that automaton.  Pi1EdgeSubgroup.split
reads the coset rep off the scan and h off the edge context's own split.  The
phase pipeline (inflate, pinch_reduce, cascade) stays only behind `nf
--trace`: it materializes one round, one split per segment, with the
connector trace printed.
"""

from __future__ import annotations

from .backends import SubgroupContext
from .fsa import Dfa, explore
from .gog import (
    Edge, GogError, GraphOfGroups, InflatedWord, SpanningTree, StableAlphabets,
)
from .words import Word, WordMap, invert


_BOTTOM = (None, (), None, ())


class ParseError(ValueError):
    pass


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
    """A graph of groups with a chosen spanning tree and its working alphabet."""

    def __init__(self, gog: GraphOfGroups, tree: SpanningTree | None = None):
        problems = gog.validate()
        if problems:
            raise GogError("invalid graph of groups: " + "; ".join(problems))
        self.gog = gog
        self.tree = tree if tree is not None else SpanningTree(gog.graph)
        self.alphabets = StableAlphabets(gog, self.tree)
        self.alphabet = self.alphabets.alphabet
        # (edge name, vertex element) -> (rep letters, carry element,
        # working letters of the step); see _close_chain
        self._closes = {}
        # (base vertex or edge, element) -> working letters of the element's
        # canonical word or coset rep; see scan_finalize
        self._heads = {}
        # working letter -> (vertex, backend letter, backend.prepend), or
        # (Edge, None, None) for a stable letter
        self._scan_letters = {}
        for xl, kind in self.alphabets.kind_x.items():
            if kind[0] == "v":
                _, v, bl = kind
                self._scan_letters[xl] = (v, bl, gog.backend(v).prepend)
            else:
                self._scan_letters[xl] = (kind[1], None, None)
        # the element table: id -> (vertex, element), its inverse, and each
        # id's row over the working alphabet; id 0 is the empty word
        self._elems = [(None, None)]
        self._eids = {(None, None): 0}
        self._rows = [[None] * len(self.alphabet)]

    def word(self, text: str) -> Word:
        return self.alphabet.word(text)

    # -- phase pipeline ------------------------------------------------------

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
        no-backtracking hypothesis (run pinch_reduce first).  In the output
        every segment is its component's representative, and trailing tree
        steps with empty segments are dropped.
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
            rep, h_y = ctx.split(ctx.parent.key(seg))
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
        return CascadeTrace(connectors, reps, InflatedWord(base_vertex, u0, path))

    def normal_form(self, w: Word, v0: str | None = None) -> Word:
        v0 = v0 if v0 is not None else self.tree.root
        return self.scan_word(w, ("group", v0))

    def coset_normal_form(self, w: Word, e0: Edge) -> Word:
        return self.scan_word(w, ("coset", e0))

    def normal_form_trace(self, w: Word, base) -> CascadeTrace:
        kind, anchor = base
        base_vertex = anchor if kind == "group" else anchor.dst
        return self.cascade(self.pinch_reduce(self.alphabets.inflate(w, base_vertex)), base)

    def word_problem(self, w1: Word, w2: Word, v0: str | None = None) -> bool:
        return self.normal_form(w1, v0) == self.normal_form(w2, v0)

    # -- the Higgins automaton -------------------------------------------------

    def _component_dfa(self, base) -> Dfa:
        kind, anchor = base
        return (self.gog.backend(anchor).canonical_language if kind == "group"
                else self.gog.ctx(anchor).coset_language)

    def higgins_automaton(self, base) -> Dfa:
        """Product automaton for the Higgins (coset) language over the
        working alphabet, explored from its start.

        A state is (marker, q, fresh): the current component (None for the
        base segment, else the edge whose coset language the segment reads),
        its automaton state, and whether the segment is still empty.  Stable
        letters and implicit tree moves are allowed only along valid paths and
        only where an empty segment is permitted.
        """
        kind, anchor = base
        base_vertex = anchor if kind == "group" else anchor.dst
        comps = {None: self._component_dfa(base)}
        comps.update((e, self._component_dfa(("coset", e)))
                     for e in self.gog.graph.edges.values())
        kind_x = self.alphabets.kind_x

        def step(state, xl):
            marker, q, fresh = state
            dfa = comps[marker]
            cur = base_vertex if marker is None else marker.dst
            k = kind_x[xl]
            if k[0] == "v" and k[1] == cur:
                t = dfa.step(q, k[2])
                return None if t is None else (marker, t, False)
            if q not in dfa.accepting:
                return None
            if k[0] == "v":
                tpath = self.tree.path(cur, k[1])
                if marker is not None and tpath[0] is marker.reverse and fresh:
                    return None
                last = tpath[-1]
                t = comps[last].step(comps[last].start, k[2])
                return None if t is None else (last, t, False)
            f = k[1]
            tpath = self.tree.path(cur, f.src)
            first = tpath[0] if tpath else f
            if marker is not None and first is marker.reverse and fresh:
                return None
            return (f, comps[f].start, True)

        return explore(self.alphabet, (None, comps[None].start, True), step,
                       lambda state: state[1] in comps[state[0]].accepting, "higgins")

    # -- incremental right-to-left driver --------------------------------------

    # A scan state is (id, tail).  The id names the open segment's vertex
    # and its element in that vertex's backend (backend.key of the segment's
    # letters), _elems[id]; id 0 is the empty word, with no open segment.
    # The tail holds the closed segments, leftmost on top, as nodes (edge,
    # rep letters, node below, working letters of the step); _BOTTOM ends it.
    # _rows[id][letter] is None until the scan first reads that letter
    # there.  Then it holds the id of the letter times the element, for a
    # letter of the open vertex or any vertex letter at id 0, or, for a
    # letter that leaves the vertex along one edge e, the switch (e.reverse
    # if the rep is empty else False, e, rep letters, step, the id the new
    # segment opens with, the carry's element, e.src's backend.append, the
    # joins, a dict if the rep is empty else None): it pushes the node, or
    # joins the segment below into the carry when that node is e.reverse's.
    # backend.prepend runs once per filled slot of a vertex letter.  The
    # join appends the rep letters below to the carry and reopens through
    # the carry's row; joins keeps the id that gives, by those letters, since
    # the switch fixes everything else the join reads (e, the carry and the
    # letter).

    def scan_initial(self):
        return (0, _BOTTOM)

    def _id(self, v, elem):
        """The id of element `elem` at vertex v, added on first sight."""
        key = (v, elem)
        eid = self._eids.get(key)
        if eid is None:
            eid = self._eids[key] = len(self._elems)
            self._elems.append(key)
            self._rows.append([None] * len(self.alphabet))
        return eid

    def _open(self, v, elem, xl):
        """The id of the segment letter xl opens at v on the element
        `elem`: xl times elem, by elem's row, or elem itself for a stable
        letter, whose carry opens the segment."""
        eid = self._id(v, elem)
        _v, bl, prepend = self._scan_letters[xl]
        if bl is None:
            return eid
        row = self._rows[eid]
        hit = row[xl]
        if hit is None:
            hit = row[xl] = self._id(v, prepend(bl, elem))
        return hit

    def _close_chain(self, edges, elem, tail):
        """Close the open segment (element `elem`) at the last edge of
        `edges`, then the empty segments at the earlier ones, connectors
        flowing left.  Returns the element of the carry entering the next
        segment (at the source of edges[0]), the updated tail, and the close
        made at edges[0].

        A close's coset rep and connector (seg rep^-1 mapped across the edge)
        are only needed up to the element seg represents, so one ctx.split
        of that element gives both, and _closes keeps them, with the carry's
        element and the step's working letters, per (edge, vertex
        element)."""
        closes = self._closes
        for e in reversed(edges):
            k = (e.name, elem)
            hit = closes.get(k)
            if hit is None:
                rep, h = self.gog.ctx(e).split(elem)
                img = self.gog.ctx(e.reverse).expand(self.gog.apply_iso(e, h))
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
        eid, tail = state
        rows = self._rows
        for xl in letters:
            hit = rows[eid][xl]
            if type(hit) is int:
                eid = hit
            elif hit is None:
                eid, tail = self._fill(eid, xl, tail)
            elif tail[0] is hit[0]:  # backtrack: join the segment beyond
                joins, below = hit[7], tail[1]
                eid = joins.get(below)
                if eid is None:
                    carry, append = hit[5], hit[6]
                    for y in below:
                        carry = append(carry, y)
                    eid = joins[below] = self._open(hit[1].src, carry, xl)
                tail = tail[2]
            else:
                tail = (hit[1], hit[2], tail, hit[3])
                eid = hit[4]
        return (eid, tail)

    def _fill(self, eid, xl, tail):
        """Prepend letter xl to the state (eid, tail) where the slot of xl in
        the row of eid is empty, and fill it unless the letter closes a
        route of two or more edges, which stays uncached."""
        vertex, elem = self._elems[eid]
        v, bl, _prepend = self._scan_letters[xl]
        if bl is None:  # stable letter s_f, read at f.src
            f, v = v, v.src
            if vertex is None:
                vertex, elem = f.dst, self.gog.backend(f.dst).identity()
            edges = (f,) + self.tree.path(f.dst, vertex)
        elif vertex is None:  # the letter opens the empty word's segment
            hit = self._rows[eid][xl] = self._open(v, self.gog.backend(v).identity(), xl)
            return hit, tail
        elif v == vertex:
            return self._open(v, elem, xl), tail
        else:
            edges = self.tree.path(v, vertex)
        carry, tail, (rep, closed, step) = self._close_chain(edges, elem, tail)
        if len(edges) == 1:
            e = edges[0]
            self._rows[eid][xl] = (
                False if rep else e.reverse, e, rep, step, self._open(v, closed, xl),
                closed, self.gog.backend(v).append, None if rep else {})
        return self._open(v, carry, xl), tail

    def scan_prepend(self, state, xl: int):
        """Prepend one working-alphabet letter to the suffix state."""
        return self._scan(state, (xl,))

    def scan_finalize(self, state, base) -> Word:
        kind, anchor = base
        base_vertex = anchor if kind == "group" else anchor.dst
        eid, tail = state
        vertex, elem = self._elems[eid]
        backend = self.gog.backend(base_vertex)
        if vertex is None:
            elem = backend.identity()
        elif vertex != base_vertex:
            elem, tail, _ = self._close_chain(
                self.tree.path(base_vertex, vertex), elem, tail)
        head = self._heads.get((anchor, elem))
        if head is None:
            word = (backend.element_word(elem) if kind == "group"
                    else self.gog.ctx(anchor).split(elem)[0])
            head = self._heads[(anchor, elem)] = self.alphabets.vertex_word_to_x(
                base_vertex, word)
        letters = list(head)
        while tail is not _BOTTOM:
            letters += tail[3]
            tail = tail[2]
        return Word(self.alphabet, tuple(letters))

    def scan_word(self, w: Word, base) -> Word:
        return self.scan_finalize(self._scan(self.scan_initial(), reversed(w.letters)), base)


class Pi1Backend:
    """Group-backend facade over a Pi1System: canonical forms and keys are
    Higgins normal forms, memoized by word; a cosets.CayleyBall over these
    keys gives its balls."""

    def __init__(self, system: Pi1System, v0: str | None = None):
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
    def canonical_language(self) -> Dfa:
        return self.system.higgins_automaton(("group", self.v0))


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

    def split(self, elem):
        """elem is a normal form at e0.dst.  The coset rep is its coset
        normal form, and g rep^-1, in the edge group, has a normal form that
        is a word of the vertex group at e0.dst, which the edge's own
        context splits."""
        system, v0 = self.system, self.e0.dst
        w = Word(system.alphabet, elem)
        rep = self.coset_rep(w)
        h_nf = self.parent.canonical(w * invert(rep)) if rep else w
        kinds = system.alphabets.kind_x
        u = system.alphabets.to_vertex_word(v0, [kinds[xl][2] for xl in h_nf.letters])
        return rep, self._edge_ctx.split(self._edge_ctx.parent.key(u))[1]

    def coset_rep(self, w: Word) -> Word:
        # the base class's split(key(w))[0], without h
        return self.system.scan_word(w, ("coset", self.e0))

    @property
    def coset_language(self) -> Dfa:
        return self.system.higgins_automaton(("coset", self.e0))

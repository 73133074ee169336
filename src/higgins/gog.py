"""Graph-of-groups data model.

A directed graph with edge involution carries a group backend per vertex, a
subgroup context of the terminal vertex group per directed edge, and edge
isomorphisms in inverse pairs.  Each isomorphism is given on the generators
of its edge subgroup and applied to words as a `words.WordMap`.  A spanning
tree fixes the stable letters that are trivial in the fundamental group, so
the working alphabet has vertex letters and the stable letters off the tree
only.  One breadth-first search, SpanningTree, gives the default tree and
checks a declared one.  StableAlphabets.inflate reads a working word into
its alternating path word, putting the tree edges back where the word
changes vertex.
"""

from __future__ import annotations

from collections import deque

from .words import Alphabet, Word, WordMap


class GogError(ValueError):
    pass


class Edge:
    __slots__ = ("name", "src", "dst", "reverse")

    def __init__(self, name, src, dst):
        self.name = name
        self.src = src  # initial vertex
        self.dst = dst  # terminal vertex; edge subgroup lives here

    def __repr__(self):
        return f"<edge {self.name}: {self.src} -> {self.dst}>"


class DirectedGraph:
    def __init__(self):
        self.vertices: list[str] = []
        self.edges: dict[str, Edge] = {}
        self.pairs: list[tuple[str, str]] = []  # (declared, reverse) names

    def add_vertex(self, name: str):
        if name in self.vertices:
            raise GogError(f"duplicate vertex {name!r}")
        self.vertices.append(name)

    def add_edge_pair(self, name: str, src: str, dst: str) -> Edge:
        reverse_name = name + "~"
        for nm in (name, reverse_name):
            if nm in self.edges:
                raise GogError(f"duplicate edge {nm!r}")
        for v in (src, dst):
            if v not in self.vertices:
                raise GogError(f"unknown vertex {v!r}")
        e = Edge(name, src, dst)
        r = Edge(reverse_name, dst, src)
        e.reverse = r
        r.reverse = e
        self.edges[name] = e
        self.edges[reverse_name] = r
        self.pairs.append((name, reverse_name))
        return e


class SpanningTree:
    """The spanning tree the fundamental group is read relative to: a
    breadth-first search from the least-named vertex that tries, at each
    vertex it reaches, the edges out of it in name order.  With edge_names
    None the search may cross any edge, which gives the default tree.  A
    declared tree names its edge pairs (either direction stands for the
    pair); the search may cross only those, and must cross every one, so a
    name that is no edge, a tree that misses a vertex and a pair left over
    (a loop, or an edge that closes a cycle) raise GogError."""

    def __init__(self, graph: DirectedGraph, edge_names=None):
        if edge_names is None:
            allowed = set(graph.edges)
        else:
            allowed = set()
            for nm in edge_names:
                if nm not in graph.edges:
                    raise GogError(f"tree edge {nm!r} not declared")
                allowed.update((nm, graph.edges[nm].reverse.name))
        if not graph.vertices:
            raise GogError("graph has no vertices")
        self.root = root = min(graph.vertices)
        # parent[v] = edge whose dst is v on the path from the root
        self.parent: dict[str, Edge | None] = {root: None}
        self.depth = {root: 0}
        edges = [graph.edges[nm] for nm in sorted(allowed)]
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for e in edges:
                if e.src == v and e.dst not in self.depth:
                    self.parent[e.dst] = e
                    self.depth[e.dst] = self.depth[v] + 1
                    queue.append(e.dst)
        if len(self.depth) != len(graph.vertices):
            raise GogError("tree does not span the graph")
        self.edge_names = frozenset(
            nm for e in self.parent.values() if e is not None for nm in (e.name, e.reverse.name))
        cycle = [nm for nm, _ in graph.pairs if nm in allowed and nm not in self.edge_names]
        if edge_names is not None and cycle:
            raise GogError(f"tree has a cycle through {', '.join(cycle)}")
        self._paths: dict = {}  # (u, v) -> path

    def contains(self, edge: Edge) -> bool:
        return edge.name in self.edge_names

    def path(self, u: str, v: str) -> tuple:
        """The unique reduced tree path from u to v, as directed edges."""
        hit = self._paths.get((u, v))
        if hit is None:
            up, vp = [], []
            a, b = u, v
            while self.depth[a] > self.depth[b]:
                up.append(self.parent[a])
                a = self.parent[a].src
            while self.depth[b] > self.depth[a]:
                vp.append(self.parent[b])
                b = self.parent[b].src
            while a != b:
                up.append(self.parent[a])
                a = self.parent[a].src
                vp.append(self.parent[b])
                b = self.parent[b].src
            hit = self._paths[(u, v)] = tuple([e.reverse for e in up] + vp[::-1])
        return hit


class GraphOfGroups:
    """The quadruple: graph, vertex backends, edge subgroup contexts, edge isos.

    `edge_iso[e]` lists, per generator of the edge subgroup at e, its image as
    a word over the generators of the subgroup at the reverse edge.  To change
    an isomorphism, assign a new list to its entry: apply_iso keeps one map per
    entry object.
    """

    def __init__(self, graph: DirectedGraph, vertex_backends, edge_contexts, edge_iso):
        self.graph = graph
        self.vertex_backends = dict(vertex_backends)
        self.edge_contexts = dict(edge_contexts)
        self.edge_iso = dict(edge_iso)
        self._iso_maps: dict = {}  # edge name -> (edge_iso entry, its WordMap)

    def backend(self, vertex: str):
        return self.vertex_backends[vertex]

    def ctx(self, edge: Edge):
        return self.edge_contexts[edge.name]

    def apply_iso(self, edge: Edge, yword: Word) -> Word:
        """Image of a word over Y_e under the edge isomorphism, over Y_ebar."""
        images = self.edge_iso[edge.name]
        hit = self._iso_maps.get(edge.name)
        if hit is None or hit[0] is not images:
            # built on first use, and again after edge_iso[name] is reassigned
            hit = (images, WordMap(self.ctx(edge).gen_alphabet, images,
                                   self.ctx(edge.reverse).gen_alphabet))
            self._iso_maps[edge.name] = hit
        return hit[1](yword)

    def validate(self) -> list[str]:
        problems = []
        try:
            SpanningTree(self.graph)
        except GogError:
            problems.append("graph is not connected")
        for v in self.graph.vertices:
            if v not in self.vertex_backends:
                problems.append(f"vertex {v} has no backend")
        for name, e in sorted(self.graph.edges.items()):
            ctx = self.edge_contexts.get(name)
            if ctx is None:
                problems.append(f"edge {name} has no subgroup context")
                continue
            if ctx.parent is not self.vertex_backends.get(e.dst):
                problems.append(f"edge {name}: subgroup does not live in the backend of {e.dst}")
            images = self.edge_iso.get(name)
            if images is None or len(images) != len(ctx.gen_words):
                problems.append(f"edge {name}: iso must map every subgroup generator")
                continue
            rctx = self.edge_contexts.get(e.reverse.name)
            rimages = self.edge_iso.get(e.reverse.name)
            if rctx is None or rimages is None or len(rimages) != len(rctx.gen_words):
                continue  # the reverse edge reports its own problem
            for i, img in enumerate(images):
                expanded = rctx.expand(img)
                if not rctx.membership(expanded):
                    problems.append(
                        f"edge {name}: iso image of generator {i + 1} leaves the reverse subgroup")
                back_img = self.apply_iso(e.reverse, img)
                back = self.ctx(e).expand(back_img)
                want = ctx.gen_words[i]
                if ctx.parent.key(back) != ctx.parent.key(want):
                    problems.append(
                        f"edge {name}: iso composed with reverse iso is not the identity "
                        f"on generator {i + 1}")
            # with the round trip above, a homomorphism both ways is an isomorphism
            r = ctx.broken_relator(lambda y: self.apply_iso(e, y), rctx)
            if r is not None:
                problems.append(
                    f"edge {name}: iso is not a homomorphism: the relator {r} "
                    "does not map to the identity")
        return problems


class InflatedWord:
    """Alternating path word u0 s_e1 u1 ... s_ek uk: the base segment and the
    (edge, segment) steps, each segment a word of its edge's terminal vertex
    group.  Tree edges appear as steps like any other edge."""

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


class StableAlphabets:
    """The working alphabet of the fundamental group, and the path word of a
    word over it.

    Vertex generator names are kept bare when globally unique, namespaced as
    vertex.name otherwise; every directed edge pair off the tree contributes
    a stable letter s_<edge>.  Tree edges have no letter: inflate reads them
    off the tree wherever a word changes vertex.
    """

    def __init__(self, gog: GraphOfGroups, tree: SpanningTree):
        self.gog = gog
        self.tree = tree
        graph = gog.graph
        counts: dict[str, int] = {}
        for v in graph.vertices:
            for g in gog.backend(v).alphabet.generators:
                counts[g] = counts.get(g, 0) + 1
        stable_names = {f"s_{nm}" for nm, _ in graph.pairs}

        def display(v, g):
            if counts[g] > 1 or g in stable_names:
                return f"{v}.{g}"
            return g

        gens, selfinv = [], []
        vertex_letters = []  # (vertex, backend generator name, display)
        for v in graph.vertices:
            backend = gog.backend(v)
            for g in backend.alphabet.generators:
                d = display(v, g)
                vertex_letters.append((v, g, d))
                gens.append(d)
                p = backend.alphabet.index(g)
                if backend.alphabet.inv[p] == p:
                    selfinv.append(d)
        off_tree = [nm for nm, _ in graph.pairs if nm not in tree.edge_names]
        gens += [f"s_{nm}" for nm in off_tree]
        self.alphabet = alphabet = Alphabet(gens, self_inverse=selfinv)

        self.kind_x = {}     # letter -> ("v", vertex, backend letter) | ("e", Edge)
        self.vx_to_x = {}    # (vertex, backend letter) -> letter
        self.edge_to_x = {}  # edge name -> stable letter, off the tree only
        for v, g, d in vertex_letters:
            backend_alphabet = gog.backend(v).alphabet
            p, xl = backend_alphabet.index(g), alphabet.index(d)
            for bl, l in ((p, xl), (backend_alphabet.inv[p], alphabet.inv[xl])):
                self.kind_x[l] = ("v", v, bl)
                self.vx_to_x[(v, bl)] = l
        for nm in off_tree:
            e, xl = graph.edges[nm], alphabet.index(f"s_{nm}")
            for edge, l in ((e, xl), (e.reverse, alphabet.inv[xl])):
                self.kind_x[l] = ("e", edge)
                self.edge_to_x[edge.name] = l

    def to_vertex_word(self, vertex: str, letters) -> Word:
        return Word(self.gog.backend(vertex).alphabet, tuple(letters))

    def vertex_word_to_x(self, vertex: str, w: Word) -> tuple:
        return tuple(self.vx_to_x[(vertex, bl)] for bl in w.letters)

    def inflate(self, w: Word, start: str) -> InflatedWord:
        """The path word of w read from vertex `start`: a step at each stable
        letter, and one at each edge of the tree path wherever w changes
        vertex; a segment holds the vertex letters read before the next step."""
        head, steps = [], []
        seg, cur = head, start
        for xl in w.letters:
            kind = self.kind_x[xl]
            if kind[0] == "v":
                edges = self.tree.path(cur, kind[1])
            else:
                edges = self.tree.path(cur, kind[1].src) + (kind[1],)
            for e in edges:
                seg = []
                steps.append((e, seg))
                cur = e.dst
            if kind[0] == "v":
                seg.append(kind[2])
        word = self.to_vertex_word
        return InflatedWord(start, word(start, head), [(e, word(e.dst, u)) for e, u in steps])

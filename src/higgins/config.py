"""Project configuration files.

Line-based sections; a header `[...]` may carry inline key=value tokens and
owns the following lines up to the next header.  Values that contain spaces
(generator words, iso maps) take the rest of the line after `key=`.

    [group G] kind=abelian rank=2 torsion=4
    [group F] kind=free rank=2
    [group S] kind=finite table=s3.csv generators=r:1,s:3
    [subgroup H in G]
    generators=x1 x2;t
    [graph]
    vertices=va:A,vb:B
    edge e: vb -> va subgroup=He reverse_subgroup=Her iso=y1->y1
    tree=e
    [cosetsystem C] subgroup=H mode=sync language=canonical
    [experiment] radius=5 lambda_max=4

Parse failures carry line numbers; reference resolution happens in build().
"""

from __future__ import annotations

import os
from typing import Optional

from .backends import (
    AbelianBackend, AbelianSubgroup, FiniteBackend, FiniteSubgroup, FreeBackend,
    FreeCyclicSubgroup, TrivialSubgroup,
)
from .cascade import Pi1EdgeSubgroup, Pi1System
from .certify import detour_padded_language
from .cosets import CosetSystem
from .gog import DirectedGraph, GraphOfGroups, SpanningTree
from .words import Word, WordMap


class ConfigError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}" if lineno else message)
        self.lineno = lineno


class _Section:
    def __init__(self, lineno, header, entries):
        self.lineno = lineno
        self.header = header      # list of header tokens
        self.entries = entries    # list of (lineno, key, value) or (lineno, "edge", text)


def _split_kv(lineno, text):
    if "=" not in text:
        raise ConfigError(lineno, f"expected key=value, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def parse_sections(text: str) -> list[_Section]:
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.lstrip().startswith("["):
            line = line.strip()
            end = line.find("]")
            if end < 0:
                raise ConfigError(lineno, "unterminated section header")
            header = line[1:end].split()
            rest = line[end + 1:].strip()
            entries = []
            if rest:
                for tok in rest.split():
                    entries.append((lineno,) + _split_kv(lineno, tok))
            current = _Section(lineno, header, entries)
            sections.append(current)
        else:
            if current is None:
                raise ConfigError(lineno, "content before any section header")
            line = line.strip()
            if line.startswith("edge "):
                current.entries.append((lineno, "edge", line[5:]))
            else:
                current.entries.append((lineno,) + _split_kv(lineno, line))
    return sections


class ProjectConfig:
    def __init__(self):
        self.groups: dict = {}
        self.subgroups: dict = {}          # name -> (context, group name)
        self.graph_decl = None
        self.cosetsystems: dict = {}       # name -> dict of fields
        self.experiment = {}
        self._system = None
        self._gog = None

    # -- resolved objects ------------------------------------------------------

    def gog(self) -> GraphOfGroups:
        if self._gog is None:
            raise ConfigError(0, "config has no [graph] section")
        return self._gog

    def system(self) -> Pi1System:
        if self._system is None:
            self._system = Pi1System(self.gog(), self._tree())
        return self._system

    def _tree(self) -> Optional[SpanningTree]:
        names = self.graph_decl.get("tree")
        if not names:
            return None
        gog = self.gog()
        full = []
        for nm in names:
            if nm not in gog.graph.edges:
                raise ConfigError(0, f"tree edge {nm!r} not declared")
            full.append(nm)
            full.append(gog.graph.edges[nm].reverse.name)
        return SpanningTree(gog.graph, full, min(gog.graph.vertices))

    def coset_system(self, name: Optional[str] = None) -> CosetSystem:
        if not self.cosetsystems:
            raise ConfigError(0, "config declares no coset systems")
        if name is None:
            name = sorted(self.cosetsystems)[0]
        if name not in self.cosetsystems:
            raise ConfigError(0, f"unknown coset system {name!r}")
        decl = self.cosetsystems[name]
        if "edge" in decl:
            system = self.system()
            edge = system.gog.graph.edges.get(decl["edge"])
            if edge is None:
                raise ConfigError(0, f"unknown edge {decl['edge']!r}")
            ctx = Pi1EdgeSubgroup(system, edge)
        else:
            sub = decl.get("subgroup")
            if sub not in self.subgroups:
                raise ConfigError(0, f"unknown subgroup {sub!r}")
            ctx = self.subgroups[sub][0]
        language = ctx.coset_language
        if decl.get("language") == "padded":
            language = detour_padded_language(language, ctx.parent.alphabet)
        return CosetSystem(ctx, language, mode=decl.get("mode", "async"))


def _int(lineno, what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(lineno, f"{what}: expected an integer, got {text!r}") from None


def _build_group(section: _Section, base_dir: str):
    entries = {k: v for _ln, k, v in section.entries}
    kind = entries.get("kind")
    name = section.header[1]
    if kind == "abelian":
        rank = _int(section.lineno, f"group {name}: rank", entries.get("rank", "0"))
        torsion = [_int(section.lineno, f"group {name}: torsion", t)
                   for t in entries.get("torsion", "").split(",") if t]
        names = [n for n in entries.get("names", "").split(",") if n] or None
        return AbelianBackend(rank, torsion, names)
    if kind == "free":
        rank = _int(section.lineno, f"group {name}: rank", entries.get("rank", "1"))
        names = [n for n in entries.get("names", "").split(",") if n] or None
        return FreeBackend(rank, names)
    if kind == "finite":
        path = entries.get("table")
        if path is None:
            raise ConfigError(section.lineno, f"group {name}: finite groups need table=")
        full = path if os.path.isabs(path) else os.path.join(base_dir, path)
        with open(full) as fh:
            table = [[_int(section.lineno, f"group {name}: table {path} cell", cell)
                      for cell in line.strip().split(",")]
                     for line in fh if line.strip()]
        gens = None
        if "generators" in entries:
            gens = {}
            for item in entries["generators"].split(","):
                nm, colon, idx = item.partition(":")
                if not colon:
                    raise ConfigError(section.lineno,
                                      f"group {name}: generator {item!r} is not name:index")
                nm = nm.strip()
                gens[nm] = _int(section.lineno, f"group {name}: generator {nm}", idx)
        return FiniteBackend(table, gens)
    raise ConfigError(section.lineno, f"group {name}: unknown kind {kind!r}")


def _build_subgroup(section: _Section, groups):
    if len(section.header) != 4 or section.header[2] != "in":
        raise ConfigError(section.lineno, "expected [subgroup <name> in <group>]")
    name, group_name = section.header[1], section.header[3]
    if group_name not in groups:
        raise ConfigError(section.lineno, f"unknown group {group_name!r}")
    backend = groups[group_name]
    entries = {k: v for _ln, k, v in section.entries}
    gen_text = entries.get("generators", "")
    words = [backend.alphabet.word(t) for t in gen_text.split(";") if t.strip()]
    if not words:
        return TrivialSubgroup(backend), group_name
    if isinstance(backend, AbelianBackend):
        return AbelianSubgroup(backend, words), group_name
    if isinstance(backend, FreeBackend):
        if len(words) != 1:
            raise ConfigError(section.lineno,
                              "free-group subgroups support a single cyclic generator")
        return FreeCyclicSubgroup(backend, words[0]), group_name
    if isinstance(backend, FiniteBackend):
        return FiniteSubgroup(backend, words), group_name
    raise ConfigError(section.lineno, f"cannot build subgroups in {backend!r}")


def _parse_iso(lineno, text, src_ctx, dst_ctx):
    images = {}
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        if "->" not in item:
            raise ConfigError(lineno, f"bad iso entry {item!r}")
        src, img = item.split("->", 1)
        images[src.strip()] = dst_ctx.gen_alphabet.word(img.strip())
    out = []
    for g in src_ctx.gen_alphabet.generators:
        if g not in images:
            raise ConfigError(lineno, f"iso does not map generator {g!r}")
        out.append(images.pop(g))
    if images:
        raise ConfigError(lineno, f"iso maps unknown generators {sorted(images)}")
    return out


REVERSE_ISO_DEPTH = 10  # longest source word the reverse-iso search tries


def derive_reverse_iso(src_ctx, dst_ctx, images):
    """Invert a generator-level isomorphism by breadth-first search over the
    source subgroup: for each target generator find a source word of at most
    REVERSE_ISO_DEPTH letters whose image matches it.

    Not a CayleyBall: the benchmark checks every ball built while certifying
    configs/hnn_z2.gog, whose load runs this (tests/test_ball_capture.py)."""
    parent_dst = dst_ctx.parent
    iso = WordMap(src_ctx.gen_alphabet, images, dst_ctx.gen_alphabet)

    def image_key(yword: Word):
        return parent_dst.key(dst_ctx.expand(iso(yword)))

    targets = {parent_dst.key(gw): i for i, gw in enumerate(dst_ctx.gen_words)}
    found: dict = {}
    empty = src_ctx.gen_alphabet.empty()
    seen = {image_key(empty)}
    frontier = [empty]
    if image_key(empty) in targets:
        found[targets[image_key(empty)]] = empty
    for _ in range(REVERSE_ISO_DEPTH):
        if len(found) == len(dst_ctx.gen_words):
            break
        nxt = []
        for yw in frontier:
            for letter in range(len(src_ctx.gen_alphabet)):
                cand = Word(src_ctx.gen_alphabet, yw.letters + (letter,))
                k = image_key(cand)
                if k in targets and targets[k] not in found:
                    found[targets[k]] = cand
                if k not in seen:
                    seen.add(k)
                    nxt.append(cand)
        frontier = nxt
    if len(found) != len(dst_ctx.gen_words):
        raise ConfigError(
            0, "cannot derive the reverse iso by search; declare reverse_iso explicitly")
    return [found[i] for i in range(len(dst_ctx.gen_words))]


def _build_graph(section: _Section, config: ProjectConfig):
    graph = DirectedGraph()
    vertex_backends = {}
    edge_contexts = {}
    edge_iso = {}
    decl = {"tree": None}
    edge_lines = []
    for lineno, key, value in section.entries:
        if key == "vertices":
            for item in value.split(","):
                if ":" not in item:
                    raise ConfigError(lineno, f"bad vertex entry {item!r}")
                v, g = (p.strip() for p in item.split(":", 1))
                if g not in config.groups:
                    raise ConfigError(lineno, f"unknown group {g!r}")
                graph.add_vertex(v)
                vertex_backends[v] = config.groups[g]
        elif key == "edge":
            edge_lines.append((lineno, value))
        elif key == "tree":
            decl["tree"] = [t.strip() for t in value.split(",") if t.strip()]
        else:
            raise ConfigError(lineno, f"unknown graph entry {key!r}")
    known_keys = ("subgroup", "reverse_subgroup", "iso", "reverse_iso")
    for lineno, text in edge_lines:
        # <e>: <v1> -> <v2> key=value ...; iso values run to the next known key
        try:
            head, rest = text.split(":", 1)
            ename = head.strip()
            parts = rest.strip().split(None, 3)
            src, arrow, dst = parts[0], parts[1], parts[2]
            if arrow != "->":
                raise ValueError
            attrs = parts[3] if len(parts) > 3 else ""
        except (ValueError, IndexError):
            raise ConfigError(lineno, f"bad edge declaration {text!r}") from None
        fields = {}
        remaining = attrs.strip()
        while remaining:
            key, eq, rest2 = remaining.partition("=")
            key = key.strip()
            if not eq or key not in known_keys:
                raise ConfigError(lineno, f"edge {ename}: bad attribute near {remaining!r}")
            stop = len(rest2)
            for other in known_keys:
                pos = rest2.find(f" {other}=")
                if 0 <= pos < stop:
                    stop = pos
            fields[key] = rest2[:stop].strip()
            remaining = rest2[stop:].strip()
        for needed in ("subgroup", "reverse_subgroup"):
            if needed not in fields:
                raise ConfigError(lineno, f"edge {ename}: missing {needed}=")
        for sub in (fields["subgroup"], fields["reverse_subgroup"]):
            if sub not in config.subgroups:
                raise ConfigError(lineno, f"edge {ename}: unknown subgroup {sub!r}")
        ctx = config.subgroups[fields["subgroup"]][0]
        rctx = config.subgroups[fields["reverse_subgroup"]][0]
        edge = graph.add_edge_pair(ename, src, dst)
        edge_contexts[ename] = ctx
        edge_contexts[edge.reverse.name] = rctx
        if ctx.gen_words:
            if "iso" not in fields:
                raise ConfigError(lineno, f"edge {ename}: missing iso=")
            images = _parse_iso(lineno, fields["iso"], ctx, rctx)
        else:
            images = []
        edge_iso[ename] = images
        if "reverse_iso" in fields:
            edge_iso[edge.reverse.name] = _parse_iso(lineno, fields["reverse_iso"], rctx, ctx)
        elif rctx.gen_words:
            edge_iso[edge.reverse.name] = derive_reverse_iso(ctx, rctx, images)
        else:
            edge_iso[edge.reverse.name] = []
    config.graph_decl = decl
    config._gog = GraphOfGroups(graph, vertex_backends, edge_contexts, edge_iso)


def load_config(path: str) -> ProjectConfig:
    with open(path) as fh:
        text = fh.read()
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_config(text: str, base_dir: str = ".") -> ProjectConfig:
    config = ProjectConfig()
    for section in parse_sections(text):
        kind = section.header[0]
        if kind == "group":
            if len(section.header) != 2:
                raise ConfigError(section.lineno, "expected [group <name>]")
            config.groups[section.header[1]] = _build_group(section, base_dir)
        elif kind == "subgroup":
            ctx, gname = _build_subgroup(section, config.groups)
            config.subgroups[section.header[1]] = (ctx, gname)
        elif kind == "graph":
            _build_graph(section, config)
        elif kind == "cosetsystem":
            if len(section.header) != 2:
                raise ConfigError(section.lineno, "expected [cosetsystem <name>]")
            config.cosetsystems[section.header[1]] = {
                k: v for _ln, k, v in section.entries}
        elif kind == "experiment":
            config.experiment = {k: v for _ln, k, v in section.entries}
        else:
            raise ConfigError(section.lineno, f"unknown section {kind!r}")
    return config

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

Parse failures carry line numbers, and so does an entry its section does not
read, a second section of one name and a second entry of one key (only the
graph's edge and vertices lines add up; an edge line's attributes are its
entries), an empty name in names=, a generator named twice in a finite
group's generators= or in an iso, a vertex or edge named twice, an edge to
an unknown vertex and an iso image letter the target subgroup lacks.  A group
entry that is not a number names its own line; a fault the group's
constructor finds among its entries (a negative rank, a torsion modulus below
2, names that do not match the rank, a table whose row 0 is not the identity,
...) names the section's last line.  Groups, subgroups and the graph are
built as their sections are read, and a tree= entry is checked as a spanning
tree once the graph's edges have all been read; a coset system's entries are
checked then (one of subgroup= and edge=, a known mode= and language=), and
the subgroup or edge it names is checked once every section has been read,
since sections may come in any order.  coset_system() builds a system.

An edge without reverse_iso= gets the exact inverse of its iso
(derive_reverse_iso), read off the subgroup its images generate.  That
subgroup's context, like a declared subgroup's, comes from
backends.subgroup_context.
"""

from __future__ import annotations

import os

from .backends import AbelianBackend, BackendError, FiniteBackend, FreeBackend, subgroup_context
from .cascade import Pi1EdgeSubgroup, Pi1System
from .certify import detour_padded_language
from .cosets import CosetSystem
from .gog import DirectedGraph, GogError, GraphOfGroups, SpanningTree
from .words import AlphabetError, WordMap, free_reduce


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
        self.tree: SpanningTree | None = None  # a declared tree=, else the default
        self.cosetsystems: dict = {}       # name -> dict of fields
        self._system = None
        self._gog = None

    # -- resolved objects ------------------------------------------------------

    @property
    def has_graph(self) -> bool:
        return self._gog is not None

    def gog(self) -> GraphOfGroups:
        if self._gog is None:
            raise ConfigError(0, "config has no [graph] section")
        return self._gog

    def system(self) -> Pi1System:
        if self._system is None:
            self._system = Pi1System(self.gog(), self.tree)
        return self._system

    def coset_system(self, name: str | None = None) -> CosetSystem:
        if not self.cosetsystems:
            raise ConfigError(0, "config declares no coset systems")
        if name is None:
            name = sorted(self.cosetsystems)[0]
        if name not in self.cosetsystems:
            raise ConfigError(0, f"unknown coset system {name!r}")
        decl = self.cosetsystems[name]
        if "edge" in decl:
            system = self.system()
            ctx = Pi1EdgeSubgroup(system, system.gog.graph.edges[decl["edge"]])
        else:
            ctx = self.subgroups[decl["subgroup"]][0]
        language = ctx.coset_language
        if decl.get("language") == "padded":
            language = detour_padded_language(language, ctx.parent.alphabet)
        return CosetSystem(ctx, language, mode=decl.get("mode", "async"))


def _int(lineno, what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(lineno, f"{what}: expected an integer, got {text!r}") from None


def read_text(path: str) -> str:
    """The text of a file the run reads: a config, a table or an automaton."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ConfigError(0, f"{path}: not UTF-8 text") from None


def _entries(section: _Section, what: str, allowed=None) -> dict:
    """The section's entries by key.  A second entry for a key is refused,
    and so is one whose key is not in allowed (when given), so a repeated or
    misspelt key is an error rather than a silent choice or default."""
    out = {}
    for lineno, key, value in section.entries:
        if allowed is not None and key not in allowed:
            raise ConfigError(lineno, f"{what}: unknown entry {key!r}")
        if key in out:
            raise ConfigError(lineno, f"{what}: second {key}= entry")
        out[key] = value
    return out


GROUP_ENTRIES = {
    "abelian": ("kind", "rank", "torsion", "names"),
    "free": ("kind", "rank", "names"),
    "finite": ("kind", "table", "generators"),
}


def _build_group(section: _Section, base_dir: str):
    name = section.header[1]
    entries = _entries(section, f"group {name}")
    line = {key: lineno for lineno, key, _value in section.entries}

    def number(key, what, text):
        return _int(line.get(key, section.lineno), f"group {name}: {what}", text)

    def declared_names():
        if "names" not in entries:
            return None
        names = entries["names"].split(",")
        if "" in names:
            raise ConfigError(line["names"], f"group {name}: empty name in "
                                             f"names={entries['names']}")
        return names

    def build(backend, *args):
        try:
            return backend(*args)
        except (AlphabetError, BackendError) as exc:
            # the constructor reads the entries together: name the last one's line
            raise ConfigError(max(line.values()), f"group {name}: {exc}") from None

    kind = entries.get("kind")
    if kind in GROUP_ENTRIES:
        _entries(section, f"group {name} (kind={kind})", GROUP_ENTRIES[kind])
    if kind == "abelian":
        rank = number("rank", "rank", entries.get("rank", "0"))
        torsion = [number("torsion", "torsion", t)
                   for t in entries.get("torsion", "").split(",") if t]
        return build(AbelianBackend, rank, torsion, declared_names())
    if kind == "free":
        rank = number("rank", "rank", entries.get("rank", "1"))
        return build(FreeBackend, rank, declared_names())
    if kind == "finite":
        path = entries.get("table")
        if path is None:
            raise ConfigError(section.lineno, f"group {name}: finite groups need table=")
        full = path if os.path.isabs(path) else os.path.join(base_dir, path)
        table = [[number("table", f"table {path} cell", cell)
                  for cell in row.strip().split(",")]
                 for row in read_text(full).splitlines() if row.strip()]
        gens = None
        if "generators" in entries:
            gens = {}
            for item in entries["generators"].split(","):
                nm, colon, idx = item.partition(":")
                if not colon:
                    raise ConfigError(line["generators"],
                                      f"group {name}: generator {item!r} is not name:index")
                nm = nm.strip()
                if nm in gens:
                    raise ConfigError(line["generators"],
                                      f"group {name}: generator {nm!r} given twice")
                gens[nm] = number("generators", f"generator {nm}", idx)
        return build(FiniteBackend, table, gens)
    raise ConfigError(section.lineno, f"group {name}: unknown kind {kind!r}")


def _build_subgroup(section: _Section, groups):
    if len(section.header) != 4 or section.header[2] != "in":
        raise ConfigError(section.lineno, "expected [subgroup <name> in <group>]")
    name, group_name = section.header[1], section.header[3]
    if group_name not in groups:
        raise ConfigError(section.lineno, f"unknown group {group_name!r}")
    backend = groups[group_name]
    _entries(section, f"subgroup {name}", ("generators",))
    gen_line, gen_text = next(((ln, v) for ln, k, v in section.entries if k == "generators"),
                              (section.lineno, ""))
    try:
        words = [backend.alphabet.word(t) for t in gen_text.split(";") if t.strip()]
        return subgroup_context(backend, words), group_name
    except (AlphabetError, BackendError) as exc:
        raise ConfigError(gen_line, f"subgroup {name}: generators: {exc}") from None


def _parse_iso(lineno, what, text, src_ctx, dst_ctx):
    images = {}
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        if "->" not in item:
            raise ConfigError(lineno, f"{what}: bad entry {item!r}")
        src, img = item.split("->", 1)
        src = src.strip()
        if src in images:
            raise ConfigError(lineno, f"{what} maps generator {src!r} twice")
        try:
            images[src] = dst_ctx.gen_alphabet.word(img.strip())
        except AlphabetError as exc:
            raise ConfigError(lineno, f"{what}: {exc}") from None
    out = []
    for g in src_ctx.gen_alphabet.generators:
        if g not in images:
            raise ConfigError(lineno, f"{what} does not map generator {g!r}")
        out.append(images.pop(g))
    if images:
        raise ConfigError(lineno, f"{what} maps unknown generators {sorted(images)}")
    return out


def derive_reverse_iso(src_ctx, dst_ctx, images):
    """Invert a generator-level isomorphism exactly: the images generate a
    subgroup of dst_ctx's parent, whose own split expresses each generator of
    dst_ctx over the images, and image i is read back as source generator i.
    None when the map is not onto dst_ctx's subgroup, or when the parent
    takes no subgroup generated by the images (several in a free group)."""
    try:
        image_ctx = subgroup_context(dst_ctx.parent,
                                     [free_reduce(dst_ctx.expand(y)) for y in images])
        over_images = [image_ctx.h_express(gw) for gw in dst_ctx.gen_words]
    except BackendError:
        return None
    source = src_ctx.gen_alphabet
    back = WordMap(image_ctx.gen_alphabet, [source.letter(g) for g in source.generators], source)
    return [back(h) for h in over_images]


def _build_graph(section: _Section, config: ProjectConfig):
    graph = DirectedGraph()
    vertex_backends = {}
    edge_contexts = {}
    edge_iso = {}
    tree_line = None  # (line, names) of the tree= entry
    edge_lines = []
    for lineno, key, value in section.entries:
        if key == "vertices":
            for item in value.split(","):
                if ":" not in item:
                    raise ConfigError(lineno, f"bad vertex entry {item!r}")
                v, g = (p.strip() for p in item.split(":", 1))
                if g not in config.groups:
                    raise ConfigError(lineno, f"unknown group {g!r}")
                try:
                    graph.add_vertex(v)
                except GogError as exc:
                    raise ConfigError(lineno, str(exc)) from None
                vertex_backends[v] = config.groups[g]
        elif key == "edge":
            edge_lines.append((lineno, value))
        elif key == "tree":
            if tree_line is not None:
                raise ConfigError(lineno, "graph: second tree= entry")
            tree_line = (lineno, [t.strip() for t in value.split(",") if t.strip()])
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
            if key in fields:
                raise ConfigError(lineno, f"edge {ename}: second {key}= entry")
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
        try:
            edge = graph.add_edge_pair(ename, src, dst)
        except GogError as exc:
            raise ConfigError(lineno, str(exc)) from None
        edge_contexts[ename] = ctx
        edge_contexts[edge.reverse.name] = rctx
        if ctx.gen_words:
            if "iso" not in fields:
                raise ConfigError(lineno, f"edge {ename}: missing iso=")
            images = _parse_iso(lineno, f"edge {ename}: iso", fields["iso"], ctx, rctx)
        else:
            images = []
        edge_iso[ename] = images
        if "reverse_iso" in fields:
            edge_iso[edge.reverse.name] = _parse_iso(
                lineno, f"edge {ename}: reverse_iso", fields["reverse_iso"], rctx, ctx)
        elif rctx.gen_words:
            reverse = derive_reverse_iso(ctx, rctx, images)
            if reverse is None:
                raise ConfigError(lineno, f"edge {ename}: iso is not onto the reverse subgroup, "
                                          "or has several images in a free group; "
                                          "declare reverse_iso explicitly")
            edge_iso[edge.reverse.name] = reverse
        else:
            edge_iso[edge.reverse.name] = []
    if tree_line is not None:
        try:
            config.tree = SpanningTree(graph, tree_line[1])
        except GogError as exc:
            raise ConfigError(tree_line[0], str(exc)) from None
    config._gog = GraphOfGroups(graph, vertex_backends, edge_contexts, edge_iso)


def load_config(path: str) -> ProjectConfig:
    return parse_config(read_text(path), base_dir=os.path.dirname(os.path.abspath(path)))


def parse_config(text: str, base_dir: str = ".") -> ProjectConfig:
    config = ProjectConfig()
    seen = set()  # (kind, name) of every section read
    references = []  # (line, coset system, "subgroup" or "edge", name) to check at the end
    for section in parse_sections(text):
        kind = section.header[0]
        name = section.header[1] if kind != "graph" and len(section.header) > 1 else None
        if (kind, name) in seen:
            raise ConfigError(section.lineno, f"second [{' '.join(section.header)}] section")
        seen.add((kind, name))
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
            what = f"cosetsystem {section.header[1]}"
            decl = _entries(section, what, ("subgroup", "edge", "mode", "language"))
            line = {key: lineno for lineno, key, _value in section.entries}
            for key, allowed in (("mode", ("sync", "async")),
                                 ("language", ("canonical", "padded"))):
                if key in decl and decl[key] not in allowed:
                    raise ConfigError(
                        line[key], f"{key} must be {' or '.join(allowed)}, got {decl[key]!r}")
            if "subgroup" in decl and "edge" in decl:
                raise ConfigError(max(line["subgroup"], line["edge"]),
                                  f"{what}: give subgroup= or edge=, not both")
            if "subgroup" not in decl and "edge" not in decl:
                raise ConfigError(section.lineno, f"{what}: missing subgroup= or edge=")
            key = "subgroup" if "subgroup" in decl else "edge"
            references.append((line[key], what, key, decl[key]))
            config.cosetsystems[section.header[1]] = decl
        else:
            raise ConfigError(section.lineno, f"unknown section {kind!r}")
    edges = config._gog.graph.edges if config.has_graph else {}
    for lineno, what, key, name in references:
        if name not in (config.subgroups if key == "subgroup" else edges):
            raise ConfigError(lineno, f"{what}: unknown {key} {name!r}")
    return config

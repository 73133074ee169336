"""Shared graph-of-groups instances used across the test suite."""

import os

from higgins.backends import (
    AbelianBackend, AbelianSubgroup, FreeBackend, TrivialSubgroup,
)
from higgins.cascade import Pi1System
from higgins.config import parse_config
from higgins.gog import DirectedGraph, GraphOfGroups


def zz_gog():
    """Free product Z * Z over the trivial edge group."""
    A = FreeBackend(1, ["a"])
    B = FreeBackend(1, ["b"])
    graph = DirectedGraph()
    graph.add_vertex("va")
    graph.add_vertex("vb")
    graph.add_edge_pair("e", "vb", "va")
    ctx_e = TrivialSubgroup(A)
    ctx_er = TrivialSubgroup(B)
    return GraphOfGroups(
        graph, {"va": A, "vb": B},
        {"e": ctx_e, "e~": ctx_er},
        {"e": [], "e~": []},
    )


def zz_system():
    return Pi1System(zz_gog())


def trefoil_gog():
    """Amalgam <a, b | a^2 = b^3>, edge subgroup <a^2> = <b^3>."""
    A = AbelianBackend(1, names=["a"])
    B = AbelianBackend(1, names=["b"])
    graph = DirectedGraph()
    graph.add_vertex("va")
    graph.add_vertex("vb")
    graph.add_edge_pair("e", "vb", "va")
    ctx_e = AbelianSubgroup(A, [A.alphabet.word("a a")])
    ctx_er = AbelianSubgroup(B, [B.alphabet.word("b b b")])
    iso_e = [ctx_er.gen_alphabet.word("y1")]
    iso_er = [ctx_e.gen_alphabet.word("y1")]
    return GraphOfGroups(
        graph, {"va": A, "vb": B},
        {"e": ctx_e, "e~": ctx_er},
        {"e": iso_e, "e~": iso_er},
    )


def trefoil_system():
    return Pi1System(trefoil_gog())


def hnn_z2_gog():
    """HNN extension of Z^2 over <x1> with the identity isomorphism."""
    G = AbelianBackend(2)
    graph = DirectedGraph()
    graph.add_vertex("v")
    graph.add_edge_pair("f", "v", "v")
    ctx_f = AbelianSubgroup(G, [G.alphabet.word("x1")])
    ctx_fr = AbelianSubgroup(G, [G.alphabet.word("x1")])
    return GraphOfGroups(
        graph, {"v": G},
        {"f": ctx_f, "f~": ctx_fr},
        {"f": [ctx_fr.gen_alphabet.word("y1")], "f~": [ctx_f.gen_alphabet.word("y1")]},
    )


def hnn_z2_system():
    return Pi1System(hnn_z2_gog())


# --- every shipped config as a graph of groups -----------------------------------
#
# abelian_pairs.gog and finite_s3.gog declare vertex groups but no graph; these
# graphs put their torsion groups at the vertices.  In the HNN of Z^2 x Z/4
# over <t> (t -> t^-1) the edge generator has a relation (t^4 = 1), so
# h_express must pick one spelling per element, and S3 *_{Z/2} S3 has finite
# vertex groups throughout.

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

SHIPPED_GRAPHS = {
    "abelian_pairs.gog": """
[subgroup Tor in M]
generators=t
[subgroup TorR in M]
generators=t
[graph]
vertices=v:M
edge f: v -> v subgroup=Tor reverse_subgroup=TorR iso=y1->y1^-1
""",
    "finite_s3.gog": """
[subgroup HsR in S]
generators=s
[graph]
vertices=va:S,vb:S
edge e: vb -> va subgroup=Hs reverse_subgroup=HsR iso=y1->y1
""",
    "free_product_zz.gog": "",
    "hnn_z2.gog": "",
    "trefoil_amalgam.gog": "",
}


# --- regression configs ------------------------------------------------------------
#
# Whole configs for shapes the shipped ones lack, each pinned after a crash or
# a wrong answer: Z *_Z Z over <a^2, a^3>, whose edge generators are
# dependent (h_express used to reject members), the HNN extension of F2
# over <a b> (enum used to list the vertex group's words instead of Pi1's),
# and the HNN extension of F2 by a b a^-1 -> b, which is Z * Z^2 and whose
# edge generator is not cyclically reduced (such configs used to be
# refused).  The path tree va - vb - vc of Z vertices, with an HNN loop at
# vc, is the one config whose letters switch along routes of two or three
# edges (a letter of va read at vc, s_f read at va), the routes the scan's
# element table leaves to _close_chain.
#
# Then the paper's families of examples: the Artin group I2(5) as the amalgam
# <a, b | a^2 = b^5>; the Coxeter groups D_inf = C2 * C2 and PSL(2, Z) =
# C2 * C3, whose vertex groups are finite abelian (every letter of D_inf is
# its own inverse); the Klein bottle group, the HNN extension of Z by
# a -> a^-1; and BS(1, 2), the HNN extension of Z by a -> a^2, whose
# synchronous constant grows with the radius.

REGRESSION_GRAPHS = {
    "dependent_amalgam.gog": """
[group A] kind=abelian rank=1 names=a
[group B] kind=abelian rank=1 names=b
[subgroup H in A]
generators=a a; a a a
[subgroup K in B]
generators=b b; b b b
[graph]
vertices=va:A,vb:B
edge e: vb -> va subgroup=H reverse_subgroup=K iso=y1->y1; y2->y2
""",
    "hnn_f2.gog": """
[group F] kind=free rank=2 names=a,b
[subgroup H in F]
generators=a b
[subgroup Hr in F]
generators=a b
[graph]
vertices=v:F
edge f: v -> v subgroup=H reverse_subgroup=Hr iso=y1->y1
""",
    "hnn_f2_stem.gog": """
[group F] kind=free rank=2 names=a,b
[subgroup H in F]
generators=a b a^-1
[subgroup Hr in F]
generators=b
[graph]
vertices=v:F
edge f: v -> v subgroup=H reverse_subgroup=Hr iso=y1->y1
""",
    "path_tree_hnn.gog": """
[group A] kind=abelian rank=1 names=a
[group B] kind=abelian rank=1 names=b
[group C] kind=abelian rank=1 names=c
[subgroup A2 in A]
generators=a a
[subgroup B3 in B]
generators=b b b
[subgroup B2 in B]
generators=b b
[subgroup C3 in C]
generators=c c c
[subgroup C2 in C]
generators=c c
[subgroup C2r in C]
generators=c c
[graph]
vertices=va:A,vb:B,vc:C
edge e: vb -> va subgroup=A2 reverse_subgroup=B3 iso=y1->y1
edge g: vc -> vb subgroup=B2 reverse_subgroup=C3 iso=y1->y1
edge f: vc -> vc subgroup=C2 reverse_subgroup=C2r iso=y1->y1^-1
""",
    "artin_i2_5.gog": """
[group A] kind=abelian rank=1 names=a
[group B] kind=abelian rank=1 names=b
[subgroup A2 in A]
generators=a a
[subgroup B5 in B]
generators=b b b b b
[graph]
vertices=va:A,vb:B
edge e: vb -> va subgroup=A2 reverse_subgroup=B5 iso=y1->y1
""",
    "coxeter_d_inf.gog": """
[group A] kind=abelian rank=0 torsion=2 names=a
[group B] kind=abelian rank=0 torsion=2 names=b
[subgroup Ta in A]
generators=
[subgroup Tb in B]
generators=
[graph]
vertices=va:A,vb:B
edge e: vb -> va subgroup=Ta reverse_subgroup=Tb
""",
    "coxeter_psl2z.gog": """
[group A] kind=abelian rank=0 torsion=2 names=a
[group B] kind=abelian rank=0 torsion=3 names=b
[subgroup Ta in A]
generators=
[subgroup Tb in B]
generators=
[graph]
vertices=va:A,vb:B
edge e: vb -> va subgroup=Ta reverse_subgroup=Tb
""",
    "klein_bottle.gog": """
[group A] kind=abelian rank=1 names=a
[subgroup H in A]
generators=a
[subgroup Hr in A]
generators=a
[graph]
vertices=v:A
edge f: v -> v subgroup=H reverse_subgroup=Hr iso=y1->y1^-1
""",
    "bs_1_2.gog": """
[group A] kind=abelian rank=1 names=a
[subgroup H in A]
generators=a
[subgroup H2 in A]
generators=a a
[graph]
vertices=v:A
edge f: v -> v subgroup=H reverse_subgroup=H2 iso=y1->y1
""",
}

# the configs the normal-form law tests run on: shipped first, then regressions
LAW_CONFIGS = sorted(SHIPPED_GRAPHS) + sorted(REGRESSION_GRAPHS)


def shipped_config(name):
    """A fresh parse of a shipped config, with the graph above added where
    the config has none, or of a regression config."""
    if name in REGRESSION_GRAPHS:
        return parse_config(REGRESSION_GRAPHS[name])
    with open(os.path.join(CONFIGS, name)) as fh:
        text = fh.read()
    return parse_config(text + SHIPPED_GRAPHS[name], base_dir=CONFIGS)


def shipped_system(name):
    """A fresh Pi1System for a shipped or regression config (see
    shipped_config)."""
    return shipped_config(name).system()

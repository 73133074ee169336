"""The protocol every vertex backend and subgroup context keeps: a canonical
form is the word of the word's key, a geodesic length is the length of the
canonical form, a minimal coset length is the length of the coset
representative, and a coset key is the representative's letters."""

import random
from pathlib import Path

import pytest

from higgins.backends import (
    AbelianBackend, AbelianSubgroup, FiniteBackend, FiniteSubgroup, FreeBackend,
    FreeCyclicSubgroup, TrivialSubgroup,
)
from higgins.cascade import Pi1EdgeSubgroup
from higgins.experiments import TrefoilCentralizerContext
from higgins.words import Word

from builders import trefoil_system

S3_CSV = Path(__file__).resolve().parent.parent / "configs" / "s3.csv"


def s3():
    table = [[int(c) for c in row.split(",")] for row in S3_CSV.read_text().split()]
    return FiniteBackend(table, {"r": 1, "s": 3})


def seeded_words(alphabet, seed, count=120, max_len=12):
    rng = random.Random(seed)
    m = len(alphabet)
    return [Word(alphabet, tuple(rng.randrange(m) for _ in range(rng.randrange(max_len + 1))))
            for _ in range(count)]


BACKENDS = {
    "Z2xZ/4": lambda: AbelianBackend(2, [4]),
    "ZxZ/2xZ/3": lambda: AbelianBackend(1, [2, 3]),
    "F2": lambda: FreeBackend(2),
    "S3": s3,
}


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_vertex_backend_canonical_is_the_word_of_the_key(name):
    G = BACKENDS[name]()
    for w in seeded_words(G.alphabet, name):
        c = G.canonical(w)
        assert c == G.element_word(G.key(w)), w
        assert G.geodesic_length(w) == len(c), w


def _abelian(rank, torsion, gens, independent):
    def build():
        G = AbelianBackend(rank, torsion)
        ctx = AbelianSubgroup(G, [G.alphabet.word(g) for g in gens.split(";")])
        assert ctx._independent is independent
        return ctx
    return build


def _free_cyclic(gen):
    def build():
        F = FreeBackend(2)
        return FreeCyclicSubgroup(F, F.alphabet.word(gen))
    return build


def _finite_s3():
    G = s3()
    return FiniteSubgroup(G, [G.alphabet.word("s")])


def _trefoil_edge():
    system = trefoil_system()
    return Pi1EdgeSubgroup(system, system.gog.graph.edges["e"])


CONTEXTS = {
    "abelian-independent": _abelian(2, [4], "x1; t t", True),
    "abelian-dependent": _abelian(2, [4], "x1 x2; x2 t", False),
    "trivial-free": lambda: TrivialSubgroup(FreeBackend(2)),
    "trivial-abelian": lambda: TrivialSubgroup(AbelianBackend(1, [3])),
    "free-cyclic-letter": _free_cyclic("a"),
    "free-cyclic-word": _free_cyclic("a b a^-1 b"),
    "finite-s3": _finite_s3,
    "pi1-edge": _trefoil_edge,
    "trefoil-centralizer": TrefoilCentralizerContext,
}


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_subgroup_context_coset_length_and_key_read_the_representative(name):
    ctx = CONTEXTS[name]()
    for w in seeded_words(ctx.parent.alphabet, name, max_len=8):
        rep = ctx.coset_rep(w)
        assert ctx.min_coset_length(w) == len(rep), w
        assert ctx.coset_key(w) == rep.letters, w

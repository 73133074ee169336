import random

import pytest

from higgins.backends import (
    abelian_backend, abelian_subgroup, finite_backend, finite_subgroup,
    free_backend, free_subgroup_cyclic,
)
from higgins.cosets import (
    CosetSystem, VerifierError, WordMetric, check_limited_crossover,
    check_maximal_crossover, check_stability,
)
from higgins.fsa import word_set_dfa
from higgins.words import Alphabet, Word, free_reduce, invert
from oracles import SearchedWordMetric


def z2_axis():
    G = abelian_backend(2)
    return G, abelian_subgroup(G, [G.alphabet.word("x1")])


def test_word_metric_lengths():
    G = abelian_backend(1, names=["b"])
    m = WordMetric(G, [G.alphabet.word("b b"), G.alphabet.word("b b b")])
    assert m.length(G.alphabet.word("b b"), 4) == 1
    assert m.length(G.alphabet.word("b"), 4) == 2  # b = b^3 (b^2)^-1
    assert m.length(G.alphabet.empty(), 4) == 0


def c_n(n):
    return finite_backend([[(i + j) % n for j in range(n)] for i in range(n)], {"g": 1})


S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 2, 0, 5, 3, 4], [2, 0, 1, 4, 5, 3],
            [3, 4, 5, 0, 1, 2], [4, 5, 3, 2, 0, 1], [5, 3, 4, 1, 2, 0]]

# parent, number of probe words, longest probe word; free probes are reduced
METRIC_CASES = {
    "abelian-torsion": (lambda: abelian_backend(2, [4], names=["x1", "x2", "t"]), 3, 3),
    "abelian-dependent": (lambda: abelian_backend(1, names=["a"]), 3, 4),
    "free-cyclic": (lambda: free_backend(2), 1, 4),
    "s3": (lambda: finite_backend(S3_TABLE, {"r": 1, "s": 3}), 2, 3),
    "c5": (lambda: c_n(5), 2, 3),
    "c6": (lambda: c_n(6), 2, 4),
}


@pytest.mark.parametrize("name", sorted(METRIC_CASES))
def test_word_metric_equals_the_step_search(name):
    make, count, longest = METRIC_CASES[name]
    G = make()
    alpha = G.alphabet
    rng = random.Random(name)
    for _ in range(12):
        probes = []
        for _ in range(rng.randint(1, count)):
            w = Word(alpha, tuple(rng.randrange(len(alpha)) for _ in range(rng.randint(0, longest))))
            probes.append(free_reduce(w) if name.startswith("free") else w)
        names = Alphabet([f"y{i + 1}" for i in range(len(probes))])
        for probe_alphabet in (None, names):
            got = WordMetric(G, probes, probe_alphabet)
            want = SearchedWordMetric(G, probes, probe_alphabet)
            for r in range(4):
                if probe_alphabet is None:  # the search's probe paths are unnamed
                    assert ([t[:2] for t in got.elements_within(r)]
                            == [t[:2] for t in want.elements_within(r)])
                else:
                    assert got.elements_within(r) == want.elements_within(r)
            for _ in range(20):
                w = Word(alpha, tuple(rng.randrange(len(alpha)) for _ in range(rng.randint(0, 6))))
                cap = rng.randint(0, 6)
                assert got.length(w, cap) == want.length(w, cap), (name, probes, str(w), cap)


def test_limited_crossover_axis_passes():
    G, H = z2_axis()
    report = check_limited_crossover(CosetSystem(H), lam=1, radius=6)
    assert report.passed and report.swept > 0
    assert "status pass" in str(report)


def test_limited_crossover_identity_probe():
    G, H = z2_axis()
    for lam in (1, 2, 3):
        report = check_limited_crossover(
            CosetSystem(H), Z=[G.alphabet.empty()], lam=lam, radius=4)
        assert report.passed


def test_limited_crossover_diag_and_mixed():
    G = abelian_backend(2)
    H = abelian_subgroup(G, [G.alphabet.word("x1 x2")])
    assert check_limited_crossover(CosetSystem(H), lam=1, radius=5).passed
    M = abelian_backend(2, [4], names=["x1", "x2", "t"])
    HM = abelian_subgroup(M, [M.alphabet.word("x1 t")])
    assert check_limited_crossover(CosetSystem(HM), lam=1, radius=5).passed


def test_crossover_scaling():
    G = abelian_backend(2)
    for gens in (["x1"], ["x1 x2"]):
        H = abelian_subgroup(G, [G.alphabet.word(g) for g in gens])
        sys = CosetSystem(H)
        assert check_limited_crossover(sys, lam=1, radius=6).passed
        for k in (2, 3):
            assert check_limited_crossover(sys, lam=k, radius=6).passed


def test_limited_crossover_witness_arithmetic():
    """Failing case cross-checked by exponent arithmetic: Y too small."""
    G = abelian_backend(2)
    H = abelian_subgroup(G, [G.alphabet.word("x1")])
    # probe Z reaches x1^2 in one step, so h = u x1^2 u^-1 has Y-length 2
    report = check_limited_crossover(
        CosetSystem(H), Z=[G.alphabet.word("x1 x1")], lam=1, radius=3)
    assert not report.passed
    u, g, v, excess = report.witnesses[0]
    h = u * g * invert(v)
    assert G.normalize(G.vec(h))[0] == 2 and excess == 1


def test_maximal_crossover_free_group():
    F = free_backend(2)
    H = free_subgroup_cyclic(F, F.alphabet.word("a"))
    report = check_maximal_crossover(CosetSystem(H), lam=1, radius=4)
    assert report.passed


def test_maximal_crossover_fails_in_z2():
    G, H = z2_axis()
    report = check_maximal_crossover(CosetSystem(H), lam=1, radius=4)
    assert not report.passed
    # u = x2, g = x1^3, v = x2 gives |u g v^-1|_Y = 3
    assert any(str(g) == "x1 x1 x1" for _u, g, _v, _e in report.witnesses)


def test_maximal_crossover_vacuous_when_u_in_H():
    G, H = z2_axis()
    only_eps = CosetSystem(H, word_set_dfa([G.alphabet.empty()], G.alphabet))
    report = check_maximal_crossover(only_eps, lam=1, radius=4)
    assert report.passed and report.swept == 0


def test_stability_generator_bijection():
    A = abelian_backend(1, names=["a"])
    B = abelian_backend(1, names=["b"])
    H1 = abelian_subgroup(A, [A.alphabet.word("a a")])
    H2 = abelian_subgroup(B, [B.alphabet.word("b b b")])
    rep = check_stability([H2.gen_alphabet.word("y1")], H1, H2, mu=1, radius=4)
    assert rep.passed


def test_stability_imbalanced_generators():
    A = abelian_backend(1, names=["a"])
    B = abelian_backend(1, names=["b"])
    H1 = abelian_subgroup(A, [A.alphabet.word("a")])
    H2 = abelian_subgroup(B, [B.alphabet.word("b b"), B.alphabet.word("b b b")])
    img = [H2.gen_alphabet.word("y2 y1^-1")]  # a -> b
    rep1 = check_stability(img, H1, H2, mu=1, radius=3)
    assert not rep1.passed
    assert rep1.witnesses[0][1] == 2  # |b| over {b^2, b^3} is 2
    rep2 = check_stability(img, H1, H2, mu=2, radius=3)
    assert rep2.passed


def test_stability_rejects_non_homomorphism():
    A = finite_backend([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]], {"t": 1})
    B = finite_backend([[0, 1, 2], [1, 2, 0], [2, 0, 1]], {"s": 1})
    H1 = finite_subgroup(A, [A.alphabet.word("t")])
    H2 = finite_subgroup(B, [B.alphabet.word("s")])
    with pytest.raises(VerifierError):
        check_stability([H2.gen_alphabet.word("y1")], H1, H2, mu=2, radius=4)


def test_stability_checks_every_relator():
    # t has order 16, so t^8 = t^-8 is the shortest relation that equal
    # products of length <= 6 cannot show; its image b^16 in Z is not 1
    A = c_n(16)
    B = abelian_backend(1, names=["b"])
    H1 = finite_subgroup(A, [A.alphabet.word("g")])
    H2 = abelian_subgroup(B, [B.alphabet.word("b")])
    with pytest.raises(VerifierError, match="the relator .* does not map to the identity"):
        check_stability([H2.gen_alphabet.word("y1")], H1, H2, mu=2, radius=6)

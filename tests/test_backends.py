import itertools
import random

import pytest

from higgins.backends import (
    BackendError, IntLattice, AbelianBackend, AbelianSubgroup, FiniteBackend,
    FiniteSubgroup, FreeBackend, FreeCyclicSubgroup, TrivialSubgroup, _collected_dfa,
)
from higgins.certify import CayleyBall
from higgins.fsa import enumerate_language
from higgins.words import Word, free_reduce, invert
from oracles import (
    all_words, canonical_by_subsets, collected_by_subsets, coset_language_by_subsets,
    brute_ball, free_cyclic_rep_by_orbit, scanned_chosen, table_closure, table_search,
)


# --- brute-force oracles ------------------------------------------------------

def brute_abelian_member(backend, gen_vecs, vec, bound=8):
    """Is vec in the subgroup lattice?  Exhaustive integer-combination search."""
    k = len(gen_vecs)
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=k):
        s = [sum(c * g[i] for c, g in zip(coeffs, gen_vecs)) for i in range(backend.n)]
        if backend.normalize(tuple(a - b for a, b in zip(vec, s))) == (0,) * backend.n:
            return True
    return False


def brute_coset_rep(ctx, w, max_len):
    """Shortlex-least word over the parent alphabet in the same right coset."""
    best = None
    target = ctx.parent.key(w)
    for cand in all_words(ctx.parent.alphabet, max_len):
        diff = cand * invert(w)
        if ctx.membership(diff):
            return cand  # shortlex enumeration: first hit is least
    return best


def perm_mult_table(perms):
    idx = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            pq = tuple(p[q[i]] for i in range(len(p)))  # apply q then p? fix below
            row.append(idx[pq])
        table.append(row)
    return table


def s3_table():
    # elements ordered: identity first, then by one-line form
    e = (0, 1, 2)
    r = (1, 2, 0)
    r2 = (2, 0, 1)
    s = (0, 2, 1)
    sr = (2, 1, 0)
    sr2 = (1, 0, 2)
    perms = [e, r, r2, s, sr, sr2]
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return perms, table


# --- abelian backend ----------------------------------------------------------

def test_abelian_canonical_collects():
    G = AbelianBackend(2)
    assert str(G.canonical(G.alphabet.word("x1 x2 x1"))) == "x1 x1 x2"


def test_abelian_torsion_reduction():
    G = AbelianBackend(0, [4], names=["t"])
    assert str(G.canonical(G.alphabet.word("t t t t t"))) == "t"
    assert str(G.canonical(G.alphabet.word("t t t"))) == "t^-1"
    assert str(G.canonical(G.alphabet.word("t t"))) == "t t"  # tie toward positive


def test_abelian_geodesic_length():
    G = AbelianBackend(1)
    assert G.geodesic_length(G.alphabet.word("x1 x1^-1")) == 0


def test_abelian_canonical_equals_brute_equality():
    G = AbelianBackend(1, [3], names=["x", "t"])
    seen = {}
    for w in all_words(G.alphabet, 4):
        vec = G.normalize(G.vec(w))
        key = G.canonical(w).letters
        if vec in seen:
            assert seen[vec] == key
        else:
            seen[vec] = key


def test_abelian_ball_count():
    G = AbelianBackend(2)
    assert len(CayleyBall(G, 2).elements()) == 13  # |{(a,b): |a|+|b| <= 2}|
    ball = CayleyBall(G, 3).elements()
    assert len(set(w.letters for w in ball)) == len(ball)


def test_abelian_canonical_language_agrees():
    G = AbelianBackend(1, [4], names=["x", "t"])
    dfa = G.canonical_language
    for w in all_words(G.alphabet, 5):
        assert dfa.accepts(w) == (G.canonical(w) == w)


# --- abelian subgroups ----------------------------------------------------------

def test_abelian_subgroup_diag_example():
    G = AbelianBackend(2)
    H = AbelianSubgroup(G, [G.alphabet.word("x1 x2")])
    w = G.alphabet.word("x1 x1 x2 x2 x2")  # exponent vector (2, 3)
    assert str(H.coset_rep(w)) == "x1^-1"
    h = H.h_express(w * invert(H.coset_rep(w)))
    assert str(h) == "y1 y1 y1"
    assert H.coset_rep(G.alphabet.empty()) == G.alphabet.empty()


def test_abelian_subgroup_axis():
    G = AbelianBackend(2)
    H = AbelianSubgroup(G, [G.alphabet.word("x1")])
    lang = enumerate_language(H.coset_language, 3)
    assert [str(w) for w in lang] == [
        "ε", "x2", "x2^-1", "x2 x2", "x2^-1 x2^-1", "x2 x2 x2", "x2^-1 x2^-1 x2^-1"]


def test_abelian_subgroup_enumeration_example():
    G = AbelianBackend(2)
    H = AbelianSubgroup(G, [G.alphabet.word("x1 x2")])
    lang = enumerate_language(H.coset_language, 2)
    assert [str(w) for w in lang] == ["ε", "x1", "x1^-1", "x1 x1", "x1^-1 x1^-1"]


def test_abelian_membership_against_brute():
    G = AbelianBackend(2, [4], names=["x1", "x2", "t"])
    gens = [G.alphabet.word("x1 x2 t t"), G.alphabet.word("x2 x2")]
    H = AbelianSubgroup(G, gens)
    gen_vecs = [G.vec(g) for g in gens] + [(0, 0, 4)]
    verdicts = {}  # by exponent vector: 259 words meet only 63 vectors
    for w in all_words(G.alphabet, 3):
        vec = G.vec(w)
        if vec not in verdicts:
            verdicts[vec] = brute_abelian_member(G, gen_vecs, vec)
        assert H.membership(w) == verdicts[vec], str(w)


def test_abelian_decomposition_identity():
    G = AbelianBackend(2, [4], names=["x1", "x2", "t"])
    H = AbelianSubgroup(G, [G.alphabet.word("x1 t")])
    for w in CayleyBall(G, 4).elements():
        rep = H.coset_rep(w)
        h = H.h_express(w * invert(rep))
        assert G.key(H.expand(h) * rep) == G.key(w)
        # constancy on the coset, sampled over generator multiples
        for g in H.gen_words:
            assert H.coset_rep(g * w) == rep


@pytest.mark.parametrize("gens", ["t", "t t", "t; t t", "x1 t t; x2 t", "x1 x2; t; x2 t t"])
def test_abelian_h_express_one_connector_per_element(gens):
    # generators with relations spell an element many ways; every spelling
    # must get one connector, a geodesic one over the generators
    G = AbelianBackend(2, [4], names=["x1", "x2", "t"])
    H = AbelianSubgroup(G, [G.alphabet.word(g) for g in gens.split(";")])
    rng = random.Random(11)
    connector, shortest = {}, {}
    for coeffs in itertools.product(range(-5, 6), repeat=len(H.gen_words)):
        letters = []
        for c, g in zip(coeffs, H.gen_words):
            letters.extend((g if c > 0 else invert(g)).letters * abs(c))
        rng.shuffle(letters)
        w = Word(G.alphabet, tuple(letters))
        k = G.key(w)
        h = H.h_express(w)
        assert G.key(H.expand(h)) == k
        assert connector.setdefault(k, h) == h, f"{w}: {h} vs {connector[k]}"
        shortest[k] = min(shortest.get(k, 99), sum(map(abs, coeffs)))
    for k, h in connector.items():
        if shortest[k] <= 5:
            assert len(h) == shortest[k], str(h)


def test_abelian_h_express_reduces_torsion_powers():
    G = AbelianBackend(2, [4], names=["x1", "x2", "t"])
    H = AbelianSubgroup(G, [G.alphabet.word("t")])
    assert str(H.h_express(G.alphabet.word("t t t t t"))) == "y1"
    assert str(H.h_express(G.alphabet.word("t^-1 t^-1 t^-1"))) == "y1"
    assert str(H.h_express(G.alphabet.word("t^-1 t^-1"))) == "y1 y1"


@pytest.mark.parametrize("rank, torsion, gens", [
    (1, [], "x1 x1; x1 x1 x1"),
    (1, [], "x1; x1 x1"),
    (2, [4], "x1 t; t t"),
], ids=["z-squares-cubes", "z-one-two", "z2-z4-mixed"])
def test_abelian_h_express_dependent_generators(rank, torsion, gens):
    # the generators satisfy relations among themselves; h_express must still
    # answer every member, with an h that expands to the member's element
    G = AbelianBackend(rank, torsion)
    H = AbelianSubgroup(G, [G.alphabet.word(g) for g in gens.split(";")])
    members = [w for w in CayleyBall(G, 6).elements() if H.membership(w)]
    assert len(members) > 5
    for w in members:
        assert G.key(H.expand(H.h_express(w))) == G.key(w), str(w)
    for w in CayleyBall(G, 3).elements():
        if not H.membership(w):
            with pytest.raises(BackendError):
                H.h_express(w)


def test_lattice_solve_reads_the_smith_decomposition():
    """U M V = diag(d) with every d > 0, and solve(v) gives an x with
    x M = v exactly when v's key is the lattice's zero key."""
    rng = random.Random(21)
    for _ in range(80):
        m, n = rng.randint(1, 4), rng.randint(1, 3)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        L = IntLattice(M, n)
        d, Vt, U = L.diag, L.v, L.u  # Vt[c] is column c of V
        assert all(x > 0 for x in d)
        for i in range(m):
            for j in range(n):
                entry = sum(U[i][k] * M[k][l] * Vt[j][l] for k in range(m) for l in range(n))
                assert entry == (d[i] if i == j and i < len(d) else 0), (M, i, j)
        zero = L.key((0,) * n)
        for v in itertools.product(range(-3, 4), repeat=n):
            x = L.solve(v)
            if L.key(v) == zero:
                assert x is not None, (M, v)
                assert [sum(x[i] * M[i][j] for i in range(m)) for j in range(n)] == list(v)
            else:
                assert x is None, (M, v)


def test_abelian_coset_rep_is_shortlex_least():
    G = AbelianBackend(2)
    for gens in ([G.alphabet.word("x1 x2")], [G.alphabet.word("x1 x1 x2")]):
        H = AbelianSubgroup(G, gens)
        for w in CayleyBall(G, 3).elements():
            rep = H.coset_rep(w)
            brute = brute_coset_rep(H, w, len(rep))
            assert brute == rep, f"{w} -> {rep} vs {brute}"


def test_abelian_mixed_subgroup_synthesized_dfa():
    G = AbelianBackend(2, [4], names=["x1", "x2", "t"])
    H = AbelianSubgroup(G, [G.alphabet.word("x1 t")])
    dfa = H.coset_language
    for w in all_words(G.alphabet, 5):
        assert dfa.accepts(w) == (H.coset_rep(w) == w), str(w)


def _seeded_abelian_subgroup(rng):
    rank = rng.randint(1, 3)
    torsion = [rng.choice((2, 3, 4, 6)) for _ in range(rng.randint(0, 3 - rank))]
    G = AbelianBackend(rank, torsion)
    m = len(G.alphabet)
    gens = [Word(G.alphabet, tuple(rng.randrange(m) for _ in range(rng.randint(1, 4))))
            for _ in range(rng.randint(1, 2))]
    return G, AbelianSubgroup(G, gens)


def test_abelian_labelled_spheres_match_the_scan_per_query():
    # Z^n x torsion with n <= 3; a third or more of the seeded subgroups have
    # dependent images, where chosen reads the coset ball
    rng = random.Random(3)
    dependent = 0
    for _ in range(40):
        G, H = _seeded_abelian_subgroup(rng)
        dependent += not H._independent
        for _ in range(30):
            vec = tuple(rng.randint(-4, 4) for _ in range(G.n))
            assert H.chosen(vec) == scanned_chosen(H, vec), (G.name, H.gen_words, vec)
    assert dependent >= 10


def test_abelian_automata_equal_the_subset_construction():
    # collected words under random exponent ranges, and the canonical and
    # independent coset languages of seeded subgroups, state for state
    rng = random.Random(25)
    for _ in range(60):
        G = AbelianBackend(rng.randint(0, 2), [rng.randint(2, 6) for _ in range(rng.randint(1, 2))])
        ranges = [(rng.choice((None, 0, 1, 2, 3)), rng.choice((None, 0, 1, 2, 3)))
                  for _ in range(G.n)]
        assert _collected_dfa(G, ranges, "r") == collected_by_subsets(G, ranges, "r")
    independent = 0
    for _ in range(40):
        G, H = _seeded_abelian_subgroup(rng)
        assert G.canonical_language == canonical_by_subsets(G)
        if H._independent:
            independent += 1
            assert H.coset_language == coset_language_by_subsets(H)
    assert independent >= 10


@pytest.mark.parametrize("rank, torsion, gens", [
    (1, [4], ["x1 t"]), (1, [4], ["x1 x1 t"]),
    (1, [2, 3], ["x1 t1 t2"]), (2, [2], ["x1 t", "x2 x2"]),
], ids=["z-z4-x1t", "z-z4-x1x1t", "z-z2-z3", "z2-z2-two-gens"])
def test_abelian_labelled_spheres_synthesize_the_scanned_dfa(rank, torsion, gens):
    # the learned automaton's words are the scanned representatives, up to 8 letters
    names = None if len(torsion) != 1 else [f"x{i + 1}" for i in range(rank)] + ["t"]
    G = AbelianBackend(rank, torsion, names)
    H = AbelianSubgroup(G, [G.alphabet.word(g) for g in gens])
    assert not H._independent
    nearest = {}  # coset key -> a least-norm vector of norm <= 8 in the coset
    for vec in sorted(itertools.product(range(-8, 9), repeat=G.n), key=lambda v: sum(map(abs, v))):
        if sum(map(abs, vec)) <= 8:
            nearest.setdefault(H.lattice.key(vec), vec)
    scanned = {G.serialize(scanned_chosen(H, vec)) for vec in nearest.values()}
    assert set(enumerate_language(H.coset_language, 8)) == scanned


def test_abelian_coset_ball_is_the_brute_ball_of_coset_keys():
    # dependent images read representatives off one coset ball; independent
    # ones never build it
    rng = random.Random(29)
    dependent = independent = 0
    for _ in range(40):
        G, H = _seeded_abelian_subgroup(rng)
        for _ in range(30):
            H.chosen(tuple(rng.randint(-5, 5) for _ in range(G.n)))
        if H._independent:
            independent += 1
            H.coset_language
            assert "_cosets" not in vars(H)
            continue
        dependent += 1
        ball = H._cosets
        ball.max_radius = max(ball.radius, 4)
        assert ball.within(4) == brute_ball(ball.oracle, 4), (G.name, H.gen_words)
    assert dependent >= 10 and independent >= 10


def test_abelian_coset_language_unique_reps():
    G = AbelianBackend(2)
    H = AbelianSubgroup(G, [G.alphabet.word("x1 x2")])
    seen = {}
    for w in enumerate_language(H.coset_language, 8):
        key = H.lattice.key(G.vec(w))
        assert key not in seen
        seen[key] = w
    # every coset met in the radius-4 ball is covered
    for w in CayleyBall(G, 4).elements():
        assert H.lattice.key(G.vec(w)) in seen


def test_abelian_coset_language_geodesic():
    G = AbelianBackend(2, [4], names=["x1", "x2", "t"])
    H = AbelianSubgroup(G, [G.alphabet.word("x1 t")])
    for w in enumerate_language(H.coset_language, 6):
        assert len(w) == len(H.coset_rep(w))


@pytest.mark.parametrize("limit, value, message", [
    ("DFA_HORIZON", 1, "horizon of 1 letters"),
    ("DFA_WINDOW", 0, "window of 0 letters"),
])
def test_abelian_synthesis_errors_name_their_limit(monkeypatch, limit, value, message):
    import higgins.backends
    monkeypatch.setattr(higgins.backends, limit, value)
    G = AbelianBackend(2, [4], names=["x1", "x2", "t"])
    H = AbelianSubgroup(G, [G.alphabet.word("x1 t")])
    with pytest.raises(BackendError, match=message):
        H.coset_language


def test_abelian_rejects_bad_modulus():
    with pytest.raises(BackendError):
        AbelianBackend(1, [1])


# --- trivial subgroup -----------------------------------------------------------

def test_trivial_subgroup():
    G = AbelianBackend(2)
    T = TrivialSubgroup(G)
    w = G.alphabet.word("x1 x2 x1^-1")
    assert T.coset_rep(w) == G.canonical(w)
    assert T.membership(G.alphabet.word("x1 x1^-1"))
    assert not T.membership(w)
    assert T.h_express(G.alphabet.word("x1 x1^-1")) == T.gen_alphabet.empty()


# --- free backend ---------------------------------------------------------------

def test_free_canonical_and_ball():
    F = FreeBackend(2)
    assert F.canonical(F.alphabet.word("a b b^-1")) == F.alphabet.word("a")
    assert len(CayleyBall(F, 2).elements()) == 17  # 1 + 4 + 12
    dfa = F.canonical_language
    for w in all_words(F.alphabet, 4):
        assert dfa.accepts(w) == (free_reduce(w) == w)


def test_free_automata_equal_the_subset_construction():
    for rank in (1, 2, 3):
        F = FreeBackend(rank)
        assert F.canonical_language == canonical_by_subsets(F)
        for g in F.alphabet.names:
            H = FreeCyclicSubgroup(F, F.alphabet.word(g))
            assert H.coset_language == coset_language_by_subsets(H)
    for rank, gen in _free_cyclic_generators():
        H = FreeCyclicSubgroup(FreeBackend(rank), gen)
        assert H.coset_language == coset_language_by_subsets(H), f"<{gen}>"


def test_free_cyclic_membership():
    F = FreeBackend(2)
    H = FreeCyclicSubgroup(F, F.alphabet.word("a"))
    assert H.membership(F.alphabet.word("a^-1 a^-1 a^-1"))
    assert not H.membership(F.alphabet.word("a b"))
    assert str(H.h_express(F.alphabet.word("a a"))) == "y1 y1"


def test_free_cyclic_coset_rep_examples():
    F = FreeBackend(2)
    H = FreeCyclicSubgroup(F, F.alphabet.word("a"))
    assert str(H.coset_rep(F.alphabet.word("a a b a"))) == "b a"
    H2 = FreeCyclicSubgroup(F, F.alphabet.word("a b"))
    assert str(H2.coset_rep(F.alphabet.word("a b a b b"))) == "b"


def test_free_cyclic_rep_constant_and_least():
    F = FreeBackend(2)
    for gen in ("a", "a b", "a a"):
        H = FreeCyclicSubgroup(F, F.alphabet.word(gen))
        for w in CayleyBall(F, 3).elements():
            rep = H.coset_rep(w)
            assert H.coset_rep(H.gen_words[0] * w) == rep
            assert H.coset_rep(invert(H.gen_words[0]) * w) == rep
            brute = brute_coset_rep(H, w, len(rep))
            assert brute == rep, f"gen {gen}: {w} -> {rep} vs {brute}"


def test_free_cyclic_language_agrees():
    F = FreeBackend(2)
    H = FreeCyclicSubgroup(F, F.alphabet.word("a"))
    lang = H.coset_language
    for w in all_words(F.alphabet, 4):
        expected = free_reduce(w) == w and H.coset_rep(w) == w
        assert lang.accepts(w) == expected
    H2 = FreeCyclicSubgroup(F, F.alphabet.word("a b"))
    lang2 = H2.coset_language
    for w in all_words(F.alphabet, 4):
        expected = free_reduce(w) == w and H2.coset_rep(w) == w
        assert lang2.accepts(w) == expected
    assert enumerate_language(lang2, 4) == [w for w in all_words(F.alphabet, 4)
                                            if lang2.accepts(w)]


def _random_reduced(rng, alphabet, n, cyclic=False):
    """A seeded freely reduced word of n letters; with cyclic, one whose
    last letter does not cancel its first."""
    while True:
        letters = []
        while len(letters) < n:
            x = rng.randrange(len(alphabet))
            if not letters or alphabet.inv[letters[-1]] != x:
                letters.append(x)
        if not cyclic or n < 2 or alphabet.inv[letters[-1]] != letters[0]:
            return Word(alphabet, tuple(letters))


def _free_cyclic_generators():
    """(rank, generator) pairs: fixed examples, proper powers and conjugates
    among them, then seeded cyclically reduced words over F2 and F3 and
    seeded conjugates of some of them, freely reduced."""
    fixed = [(2, "a"), (2, "b^-1"), (2, "a a"), (2, "a b"), (2, "a a b"), (2, "b a a"),
             (2, "a b a^-1 b^-1"), (2, "a b a b"), (2, "a b^-1 a^-1 b^-1"),
             (2, "a b a^-1"), (2, "b^-1 a a b"), (2, "b a b a^-1 b^-1"),
             (3, "c"), (3, "a b c"), (3, "c^-1 a b b"), (3, "a c^-1 b a"),
             (3, "a b c b^-1 a^-1")]
    gens = [(rank, FreeBackend(rank).alphabet.word(g)) for rank, g in fixed]
    rng = random.Random(26)
    for rank in (2, 3):
        alphabet = FreeBackend(rank).alphabet
        cores = [_random_reduced(rng, alphabet, rng.randrange(2, 8), cyclic=True)
                 for _ in range(4)]
        stems = [_random_reduced(rng, alphabet, rng.randrange(1, 4)) for _ in range(2)]
        gens += [(rank, c) for c in cores]
        gens += [(rank, free_reduce(u * c * invert(u))) for u, c in zip(stems, cores)]
    return gens


def test_free_cyclic_matches_the_orbit_oracle():
    # coset reps, membership, split, h_express and the listed coset language against
    # an orbit search that shares nothing with the context
    rng = random.Random(27)
    for rank, gen in _free_cyclic_generators():
        F = FreeBackend(rank)
        H = FreeCyclicSubgroup(F, gen)
        words = list(all_words(F.alphabet, 4))
        words += [Word(F.alphabet, tuple(rng.randrange(2 * rank)
                                         for _ in range(rng.randrange(8, 15))))
                  for _ in range(40)]
        for w in words:
            rep = free_cyclic_rep_by_orbit(gen, w)
            assert H.coset_rep(w) == rep, f"<{gen}>: {w}"
            assert H.membership(w) == (len(rep) == 0), f"<{gen}>: {w}"
            rep_split, h = H.split(F.key(w))
            assert rep_split == rep, f"<{gen}>: {w}"
            assert free_reduce(h) == h and free_reduce(H.expand(h) * rep) == free_reduce(w)
            if not rep:
                h = H.h_express(w)
                assert free_reduce(h) == h and free_reduce(H.expand(h)) == free_reduce(w)
        max_len = 6 if rank == 2 else 4
        reps = [w for w in all_words(F.alphabet, max_len)
                if free_reduce(w) == w and free_cyclic_rep_by_orbit(gen, w) == w]
        assert enumerate_language(H.coset_language, max_len) == reps, f"<{gen}>"


def test_free_cyclic_rejects_unreduced():
    # an empty or freely unreduced generator is refused; a reduced one that is
    # not cyclically reduced folds to a stem and a cycle
    F = FreeBackend(2)
    with pytest.raises(BackendError):
        FreeCyclicSubgroup(F, F.alphabet.word("a b b^-1"))
    with pytest.raises(BackendError):
        FreeCyclicSubgroup(F, F.alphabet.empty())
    H = FreeCyclicSubgroup(F, F.alphabet.word("a b a^-1"))
    assert str(H.coset_rep(F.alphabet.word("a b b a^-1 b"))) == "b"
    assert str(H.h_express(F.alphabet.word("a b^-1 a^-1"))) == "y1^-1"


# --- finite backend --------------------------------------------------------------

def test_finite_z2():
    G = FiniteBackend([[0, 1], [1, 0]], {"t": 1})
    assert str(G.canonical(G.alphabet.word("t t t"))) == "t"
    assert G.geodesic_length(G.alphabet.word("t t")) == 0
    assert G.alphabet.inv[G.alphabet.index("t")] == G.alphabet.index("t")


def test_finite_s3_cosets():
    perms, table = s3_table()
    G = FiniteBackend(table, {"r": 1, "s": 3})
    H = FiniteSubgroup(G, [G.alphabet.word("s")])
    assert len({H.coset_rep(w).letters for w in all_words(G.alphabet, 3)}) == 3
    # brute force: orbit of right multiplication
    cosets = set()
    for g in range(6):
        coset = frozenset(table[h][g] for h in (0, 3))
        cosets.add(coset)
    assert len(cosets) == 3


def test_finite_trivial_subgroup_rep_is_canonical():
    perms, table = s3_table()
    G = FiniteBackend(table, {"r": 1, "s": 3})
    H = FiniteSubgroup(G, [])
    for w in all_words(G.alphabet, 3):
        assert H.coset_rep(w) == G.canonical(w)


def test_finite_canonical_matches_table():
    perms, table = s3_table()
    G = FiniteBackend(table, {"r": 1, "s": 3})
    for w in all_words(G.alphabet, 4):
        e = 0
        for x in w.letters:
            e = table[e][G._letter_elt[x]]
        assert G.eval(w) == e
        assert G.eval(G.canonical(w)) == e


def test_finite_subgroup_language_and_h_express():
    perms, table = s3_table()
    G = FiniteBackend(table, {"r": 1, "s": 3})
    H = FiniteSubgroup(G, [G.alphabet.word("s")])
    lang = enumerate_language(H.coset_language, 4)
    assert len(lang) == 3 and lang[0] == G.alphabet.empty()
    for w in all_words(G.alphabet, 3):
        if H.membership(w):
            assert G.eval(H.expand(H.h_express(w))) == G.eval(w)


def test_finite_subgroup_elements_are_the_closure():
    _perms, s3 = s3_table()
    c6 = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    cases = [(s3, {"r": 1, "s": 3}, ["", "s", "r", "r r", "s r", "s;r", "r s;s r"]),
             (c6, {"g": 1}, ["", "g", "g g", "g g g", "g g;g g g", "g g g g"])]
    for table, gens, subgroups in cases:
        G = FiniteBackend(table, gens)
        for spec in subgroups:
            words = [G.alphabet.word(g) for g in spec.split(";") if g]
            H = FiniteSubgroup(G, words)
            assert H.elements == table_closure(table, [G.eval(w) for w in words]), spec
            for e in H.elements:
                member = Word(G.alphabet, G._canon[e])
                assert G.eval(H.expand(H.h_express(member))) == e


def test_finite_tables_equal_the_table_search():
    _perms, s3 = s3_table()
    cases = [(s3, {"r": 1, "s": 3}), (s3, {"s": 3, "t": 4}), (s3, None)]
    cases += [([[(i + j) % n for j in range(n)] for i in range(n)], {"g": 1}) for n in (2, 5, 6)]
    rng = random.Random(7)
    for table, gens in cases:
        G = FiniteBackend(table, gens)
        assert G._canon == table_search(
            table, [(G._letter_elt[x], x) for x in range(len(G.alphabet))])
        for _ in range(6):
            words = [Word(G.alphabet, tuple(rng.randrange(len(G.alphabet))
                                            for _ in range(rng.randint(0, 3))))
                     for _ in range(rng.randint(0, 2))]
            H = FiniteSubgroup(G, words)
            alpha = H.gen_alphabet
            steps = []
            for i, w in enumerate(words):
                p = alpha.index(alpha.generators[i])
                steps.append((G.eval(w), p))
                if alpha.inv[p] != p:
                    steps.append((G.eval(invert(w)), alpha.inv[p]))
            assert H._yword == table_search(table, steps), [str(w) for w in words]


def test_finite_validation_errors():
    with pytest.raises(BackendError):
        FiniteBackend([[0, 1], [1, 1]])
    with pytest.raises(BackendError):
        FiniteBackend([[0, 1, 2], [1, 2, 0], [2, 0, 1]], {"r": 0})  # identity generates nothing


def test_backend_canonical_idempotent_across_backends():
    perms, table = s3_table()
    backends = [
        AbelianBackend(2),
        AbelianBackend(1, [3], names=["x", "t"]),
        FreeBackend(2),
        FiniteBackend(table, {"r": 1, "s": 3}),
    ]
    for G in backends:
        for w in all_words(G.alphabet, 3):
            c = G.canonical(w)
            assert G.canonical(c) == c
            assert G.geodesic_length(c) == len(c)
            v = G.alphabet.word(str(G.alphabet.letter(G.alphabet.names[0])))
            assert G.canonical(w * v * invert(v)) == c


@pytest.mark.parametrize("name", ["Z2xZ/4", "ZxZ/2", "F2", "S3"])
def test_prepend_and_append_fold_to_the_key(name):
    """The scan's element of a word, built by prepending its letters right to
    left from the identity, is the backend's key of the word, and so is the
    fold of append left to right; the element's word is the word's canonical
    form."""
    _perms, s3 = s3_table()
    G = {"Z2xZ/4": lambda: AbelianBackend(2, [4]),
         "ZxZ/2": lambda: AbelianBackend(1, [2]),  # t is self-inverse
         "F2": lambda: FreeBackend(2),
         "S3": lambda: FiniteBackend(s3, {"r": 1, "s": 3})}[name]()
    rng = random.Random(7)
    m = len(G.alphabet)
    for _ in range(300):
        w = Word(G.alphabet, tuple(rng.randrange(m) for _ in range(rng.randrange(25))))
        e = G.identity()
        for x in reversed(w.letters):
            e = G.prepend(x, e)
        assert e == G.key(w), w
        assert G.element_word(e) == G.canonical(w), w
        e = G.identity()
        for x in w.letters:
            e = G.append(e, x)
        assert e == G.key(w), w


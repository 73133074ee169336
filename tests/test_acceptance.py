"""Acceptance sweeps, one test per criterion.

Every test prints a single `ACCEPTANCE <n> pass ...` line (run pytest with -s
to see them) and enforces its runtime budget.  Expected values come from
independent oracles: the Artin braid action, syllable reduction, exponent
arithmetic, and brute-force staircase/coset enumeration.
"""

import random
import time

import pytest

from builders import hnn_z2_system, trefoil_system, zz_system
from oracles import (
    all_words, aut_compose, aut_identity, detour_padded_accepts, hnn_z2_key, prefix,
    trefoil_letter_table,
)
from higgins.backends import (
    AbelianBackend, AbelianSubgroup, FiniteBackend,
    FreeBackend,
)
from higgins.cascade import Pi1EdgeSubgroup
from higgins.certify import (
    CayleyBall, certify_automatic, certify_coset_system,
    combination_hypotheses_report, concat_structure, detour_padded_language,
    geodesic_coset_filter, async_fellow_distance, sync_fellow_distance,
)
from higgins.cosets import CosetSystem, check_limited_crossover
from higgins.experiments import run_trefoil_experiment
from higgins.fsa import Dfa, enumerate_language, minimize, intersect, union, complement
from higgins.words import Word, free_reduce, invert, shortlex_cmp


def _report(n, summary, t0, budget):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {n} pass: {summary} ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed <= budget, f"criterion {n} exceeded its {budget}s budget: {elapsed:.1f}s"


def _sweep_words(system, base, max_len, visit, seed_state=None):
    """Depth-first walk of all words of length <= max_len, building words
    right to left so cascade suffix states are shared; visit(state, payload)
    is called once per word."""
    m = len(system.alphabet)
    prepend = system.scan_prepend

    def rec(state, payload, depth):
        visit(state, payload)
        if depth == 0:
            return
        for x in range(m):
            rec(prepend(state, x), (x, payload), depth - 1)

    rec(system.scan_initial(), seed_state, max_len)


def test_criterion_1_trefoil_word_problem():
    """Cascade word problem vs the braid action, all words of length <= 8."""
    t0 = time.time()
    system = trefoil_system()
    base = ("group", system.tree.root)
    table = trefoil_letter_table(system.alphabet)
    ident = aut_identity(table)
    finalize = system.scan_finalize
    m = len(system.alphabet)
    prepend = system.scan_prepend
    nf_to_key: dict = {}
    key_to_nf: dict = {}
    counts = [0, 0]  # words, disagreements

    def key_of(phi):
        return tuple(img.letters for img in phi)

    def rec(state, phi, depth):
        counts[0] += 1
        nf = finalize(state, base).letters
        k = key_of(phi)
        prev = nf_to_key.setdefault(nf, k)
        if prev != k:
            counts[1] += 1
        prev_nf = key_to_nf.setdefault(k, nf)
        if prev_nf != nf:
            counts[1] += 1
        if depth:
            for x in range(m):
                rec(prepend(state, x), aut_compose(table[x], phi), depth - 1)

    rec(system.scan_initial(), ident, 8)
    assert counts[0] == (4 ** 9 - 1) // 3
    assert counts[1] == 0, f"{counts[1]} disagreements with the braid action"
    assert len(nf_to_key) == len(key_to_nf)
    _report(1, f"trefoil word problem on {counts[0]} words, "
               f"{len(nf_to_key)} elements, 0 disagreements", t0, 60)


def test_criterion_2_free_product_normal_forms():
    """Cascade normal forms vs interleaved free reduction, length <= 10."""
    t0 = time.time()
    system = zz_system()
    base = ("group", "va")
    alpha = system.alphabet
    vt = {alpha.index("a"): ("a", 1), alpha.index("a^-1"): ("a", -1),
          alpha.index("b"): ("b", 1), alpha.index("b^-1"): ("b", -1)}
    pos = {"a": alpha.index("a"), "b": alpha.index("b")}
    neg = {"a": alpha.index("a^-1"), "b": alpha.index("b^-1")}
    finalize = system.scan_finalize
    prepend = system.scan_prepend
    m = len(alpha)
    counts = [0, 0]

    def expected(syls):
        out = []
        for v, e in syls:
            out.extend([pos[v] if e > 0 else neg[v]] * abs(e))
        return tuple(out)

    def rec(state, syls, depth):
        counts[0] += 1
        if finalize(state, base).letters != expected(syls):
            counts[1] += 1
        if depth:
            for x in range(m):
                v, s = vt[x]
                if syls and syls[0][0] == v:
                    e = syls[0][1] + s
                    ns = ((v, e),) + syls[1:] if e else syls[1:]
                else:
                    ns = ((v, s),) + syls
                rec(prepend(state, x), ns, depth - 1)

    rec(system.scan_initial(), (), 10)
    assert counts[0] == (4 ** 11 - 1) // 3
    assert counts[1] == 0, f"{counts[1]} mismatches against free reduction"
    _report(2, f"Z*Z normal forms on {counts[0]} words, 0 mismatches", t0, 30)


def test_criterion_3_abelian_proposition():
    """1-limited crossover and finite synchronous K for abelian pairs."""
    t0 = time.time()
    G = AbelianBackend(2)
    M = AbelianBackend(2, [4], names=["x1", "x2", "t"])
    systems = [
        ("Z2/<x1>", CosetSystem(AbelianSubgroup(G, [G.alphabet.word("x1")]), mode="sync")),
        ("Z2/<x1x2>", CosetSystem(AbelianSubgroup(G, [G.alphabet.word("x1 x2")]), mode="sync")),
        ("Z2xZ4/<x1t>", CosetSystem(AbelianSubgroup(M, [M.alphabet.word("x1 t")]), mode="sync")),
    ]
    ks = []
    for name, sys_ in systems:
        crossover = check_limited_crossover(sys_, lam=1, radius=8)
        assert crossover.passed, f"{name}: {crossover.witnesses}"
        cert = certify_coset_system(sys_, radius=8, mode="sync")
        assert cert.bounded, f"{name}: {cert}"
        ks.append(cert.K_observed)
    _report(3, f"abelian pairs certified, sync K = {ks}", t0, 60)


def test_criterion_4_concatenation_theorem():
    """L_H . L^H is automatic for Z^3 over H = <x1, x2>."""
    t0 = time.time()
    G = AbelianBackend(3)
    H = AbelianSubgroup(G, [G.alphabet.word("x1"), G.alphabet.word("x2")])
    assert not H.presentation.gen_words  # free abelian of rank 2
    lang, oracle = concat_structure(H.presentation.coset_language, CosetSystem(H))
    assert isinstance(lang, Dfa) and oracle is G
    cert = certify_automatic(lang, G, radius=8, mode="async")
    assert cert.bounded, str(cert)
    # spot-check the language is the collected one
    words = enumerate_language(lang, 4)
    assert all(G.canonical(w) == w for w in words)
    _report(4, f"Z^3 concatenation structure async K = {cert.K_observed} "
               f"on {cert.pairs_tested} pairs", t0, 60)


def test_criterion_5_synchronous_subsystem():
    """Geodesic filtering of a detour-padded system recovers a synchronous one."""
    t0 = time.time()
    G = AbelianBackend(2)
    H = AbelianSubgroup(G, [G.alphabet.word("x1")])
    padded = detour_padded_language(H.coset_language, G.alphabet)
    sys_ = CosetSystem(H, padded, mode="async")
    async_cert = certify_coset_system(sys_, radius=6, mode="async")
    assert async_cert.bounded and async_cert.K_observed <= 2
    filtered = geodesic_coset_filter(sys_, radius=8)  # verifies coset coverage
    cert = certify_coset_system(filtered, radius=8, mode="sync")
    assert cert.bounded, str(cert)
    got = {w.letters for w in enumerate_language(filtered.language, 8)}
    x2, x2i = G.alphabet.index("x2"), G.alphabet.index("x2^-1")
    brute_geo = set()
    for w in all_words(G.alphabet, 8):
        vec = G.vec(w)
        if (vec[0] == 0 and len(w) == abs(vec[1])
                and detour_padded_accepts(H.coset_language, G.alphabet, w)):
            brute_geo.add(w.letters)
    # coset-geodesic words over Z^2/<x1> are exactly the pure x2 powers
    assert brute_geo == {(x2,) * r for r in range(9)} | {(x2i,) * r for r in range(1, 9)}
    assert got == brute_geo
    _report(5, f"filtered detour system sync K = {cert.K_observed}, "
               f"{len(got)} geodesic representatives", t0, 30)


def test_criterion_6_higgins_uniqueness():
    """Higgins language words of length <= 6 represent distinct elements."""
    t0 = time.time()
    trefoil = trefoil_system()
    dfa = trefoil.higgins_automaton(("group", "va"))
    table = trefoil_letter_table(trefoil.alphabet)
    seen = {}
    words = enumerate_language(dfa, 6)
    for w in words:
        phi = aut_identity(table)
        for x in w.letters:
            phi = aut_compose(phi, table[x])
        k = tuple(img.letters for img in phi)
        assert k not in seen, f"duplicate element: {w} vs {seen[k]}"
        seen[k] = w
    n_trefoil = len(words)

    hnn = hnn_z2_system()
    dfa = hnn.higgins_automaton(("group", "v"))
    seen = {}
    words = enumerate_language(dfa, 6)
    for w in words:
        k = hnn_z2_key(w)
        assert k not in seen, f"duplicate element: {w} vs {seen[k]}"
        seen[k] = w
    _report(6, f"uniqueness on {n_trefoil} trefoil and {len(words)} HNN "
               "language words", t0, 60)


def test_criterion_7_main_theorem_conclusion():
    """The trefoil Higgins coset language is asynchronously coset automatic."""
    t0 = time.time()
    system = trefoil_system()
    e0 = system.gog.graph.edges["e"]
    ctx = Pi1EdgeSubgroup(system, e0)
    sys_ = CosetSystem(ctx, mode="async")
    cert = certify_coset_system(sys_, radius=6, mode="async")
    assert cert.bounded, str(cert)
    report = combination_hypotheses_report(system.gog, radius=6)
    assert report.passed, str(report)
    _report(7, f"trefoil coset language async K = {cert.K_observed} on "
               f"{cert.pairs_tested} pairs; {len(report.rows)} hypothesis rows pass",
            t0, 120)


def test_criterion_8_trefoil_crossover_experiment():
    """Witnesses against limited crossover for H = <x, d>, monotone in radius."""
    t0 = time.time()
    reports = {r: run_trefoil_experiment(r, 4) for r in (3, 4, 5)}
    INF = float("inf")
    minimal = {r: (rep.certified if rep.certified is not None else INF)
               for r, rep in reports.items()}
    assert minimal[3] <= minimal[4] <= minimal[5]
    assert minimal[5] > 3
    for lam, status, violations, _sample in reports[5].rows:
        if lam <= 3:
            assert status == "witnesses" and violations > 0
    again = run_trefoil_experiment(3, 4)
    assert again.lines() == reports[3].lines()  # deterministic report
    _report(8, "crossover witnesses at lambda <= 3 for radius 5, "
               f"violations={[reports[5].rows[i][2] for i in range(3)]}", t0, 300)


def test_criterion_9_infrastructure_suites():
    """Property suites: automata, word laws, backends, alignment DP."""
    t0 = time.time()
    rng = random.Random(99)
    AB = FreeBackend(2).alphabet

    def random_dfa():
        n = rng.randint(1, 5)
        transitions = {}
        for s in range(n):
            for a in range(len(AB)):
                if rng.random() < 0.8:
                    transitions[(s, a)] = rng.randrange(n)
        return Dfa(AB, n, 0, {s for s in range(n) if rng.random() < 0.4}, transitions)

    full8 = {w.letters for w in all_words(AB, 8)}
    for _ in range(50):
        d1, d2 = random_dfa(), random_dfa()
        m1 = minimize(d1)
        assert minimize(m1).n_states == m1.n_states
        s1 = {w.letters for w in enumerate_language(d1, 8)}
        s2 = {w.letters for w in enumerate_language(d2, 8)}
        assert {w.letters for w in enumerate_language(m1, 8)} == s1
        assert {w.letters for w in enumerate_language(intersect(d1, d2), 8)} == s1 & s2
        assert {w.letters for w in enumerate_language(union(d1, d2), 8)} == s1 | s2
        assert {w.letters for w in enumerate_language(complement(d1), 8)} == full8 - s1

    for _ in range(300):
        u = Word(AB, tuple(rng.randrange(4) for _ in range(rng.randrange(10))))
        v = Word(AB, tuple(rng.randrange(4) for _ in range(rng.randrange(10))))
        assert invert(invert(u)) == u
        assert free_reduce(u * invert(u)) == AB.empty()
        assert free_reduce(free_reduce(u)) == free_reduce(u)
        assert shortlex_cmp(u, v) == -shortlex_cmp(v, u)
        assert prefix(u, len(u)) == u

    # backend canonical forms vs brute-force equality at length 6
    A3 = AbelianBackend(1, [3], names=["x", "t"])
    by_vec: dict = {}
    for w in all_words(A3.alphabet, 6):
        vec = A3.normalize(A3.vec(w))
        can = A3.canonical(w).letters
        assert by_vec.setdefault(vec, can) == can
    F = FreeBackend(2)
    for _ in range(500):
        w = Word(F.alphabet, tuple(rng.randrange(4) for _ in range(6)))
        assert F.canonical(w) == free_reduce(w)
    table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    C5 = FiniteBackend(table, {"g": 1})
    for w in all_words(C5.alphabet, 6):
        assert C5.eval(C5.canonical(w)) == C5.eval(w)

    # alignment: async <= sync, and the DP matches brute staircase search
    G = AbelianBackend(2)
    ball = CayleyBall(G, 9)
    from test_certify import brute_async
    checked = 0
    for _ in range(80):
        w1 = Word(G.alphabet, tuple(rng.randrange(4) for _ in range(rng.randrange(7))))
        w2 = Word(G.alphabet, tuple(rng.randrange(4) for _ in range(rng.randrange(7))))
        h = Word(G.alphabet, tuple(rng.randrange(4) for _ in range(rng.randrange(2))))
        a = async_fellow_distance(w1, h, w2, ball)
        s = sync_fellow_distance(w1, h, w2, ball)
        assert a == brute_async(w1, h, w2, ball)
        if a is not None and s is not None:
            assert a <= s
            checked += 1
    assert checked > 20
    _report(9, "automata, word-core, backend and alignment property suites", t0, 60)

import random

import pytest

import higgins.certify as certify
import higgins.cosets as cosets
from builders import LAW_CONFIGS, shipped_config
from higgins.backends import (
    AbelianBackend, AbelianSubgroup, FiniteBackend, FiniteSubgroup,
    FreeBackend, FreeCyclicSubgroup,
)
from higgins.cosets import (
    CosetSystem, VerifierError, WordMetric, check_limited_crossover,
    check_maximal_crossover, check_stability,
)
from higgins.experiments import TrefoilCentralizerContext
from higgins.fsa import word_set_dfa
from higgins.words import Alphabet, Word, free_reduce, invert
from oracles import SearchedWordMetric, crossover_by_separate_sweeps


def z2_axis():
    G = AbelianBackend(2)
    return G, AbelianSubgroup(G, [G.alphabet.word("x1")])


def test_word_metric_lengths():
    G = AbelianBackend(1, names=["b"])
    m = WordMetric(G, [G.alphabet.word("b b"), G.alphabet.word("b b b")])
    assert m.length(G.alphabet.word("b b"), 4) == 1
    assert m.length(G.alphabet.word("b"), 4) == 2  # b = b^3 (b^2)^-1
    assert m.length(G.alphabet.empty(), 4) == 0


def c_n(n):
    return FiniteBackend([[(i + j) % n for j in range(n)] for i in range(n)], {"g": 1})


S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 2, 0, 5, 3, 4], [2, 0, 1, 4, 5, 3],
            [3, 4, 5, 0, 1, 2], [4, 5, 3, 2, 0, 1], [5, 3, 4, 1, 2, 0]]

# parent, number of probe words, longest probe word; free probes are reduced
METRIC_CASES = {
    "abelian-torsion": (lambda: AbelianBackend(2, [4], names=["x1", "x2", "t"]), 3, 3),
    "abelian-dependent": (lambda: AbelianBackend(1, names=["a"]), 3, 4),
    "free-cyclic": (lambda: FreeBackend(2), 1, 4),
    "s3": (lambda: FiniteBackend(S3_TABLE, {"r": 1, "s": 3}), 2, 3),
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


def test_limited_crossover_identity_probe():
    G, H = z2_axis()
    for lam in (1, 2, 3):
        report = check_limited_crossover(
            CosetSystem(H), Z=[G.alphabet.empty()], lam=lam, radius=4)
        assert report.passed


def test_limited_crossover_diag_and_mixed():
    G = AbelianBackend(2)
    H = AbelianSubgroup(G, [G.alphabet.word("x1 x2")])
    assert check_limited_crossover(CosetSystem(H), lam=1, radius=5).passed
    M = AbelianBackend(2, [4], names=["x1", "x2", "t"])
    HM = AbelianSubgroup(M, [M.alphabet.word("x1 t")])
    assert check_limited_crossover(CosetSystem(HM), lam=1, radius=5).passed


def test_crossover_scaling():
    G = AbelianBackend(2)
    for gens in (["x1"], ["x1 x2"]):
        H = AbelianSubgroup(G, [G.alphabet.word(g) for g in gens])
        sys = CosetSystem(H)
        assert check_limited_crossover(sys, lam=1, radius=6).passed
        for k in (2, 3):
            assert check_limited_crossover(sys, lam=k, radius=6).passed


def test_limited_crossover_witness_arithmetic():
    """Failing case cross-checked by exponent arithmetic: Y too small."""
    G = AbelianBackend(2)
    H = AbelianSubgroup(G, [G.alphabet.word("x1")])
    # probe Z reaches x1^2 in one step, so h = u x1^2 u^-1 has Y-length 2
    report = check_limited_crossover(
        CosetSystem(H), Z=[G.alphabet.word("x1 x1")], lam=1, radius=3)
    assert not report.passed
    u, g, v, excess = report.witnesses[0]
    h = u * g * invert(v)
    assert G.normalize(G.vec(h))[0] == 2 and excess == 1


def test_maximal_crossover_free_group():
    F = FreeBackend(2)
    H = FreeCyclicSubgroup(F, F.alphabet.word("a"))
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
    A = AbelianBackend(1, names=["a"])
    B = AbelianBackend(1, names=["b"])
    H1 = AbelianSubgroup(A, [A.alphabet.word("a a")])
    H2 = AbelianSubgroup(B, [B.alphabet.word("b b b")])
    rep = check_stability([H2.gen_alphabet.word("y1")], H1, H2, mu=1, radius=4)
    assert rep.passed


def test_stability_imbalanced_generators():
    A = AbelianBackend(1, names=["a"])
    B = AbelianBackend(1, names=["b"])
    H1 = AbelianSubgroup(A, [A.alphabet.word("a")])
    H2 = AbelianSubgroup(B, [B.alphabet.word("b b"), B.alphabet.word("b b b")])
    img = [H2.gen_alphabet.word("y2 y1^-1")]  # a -> b
    rep1 = check_stability(img, H1, H2, mu=1, radius=3)
    assert not rep1.passed
    assert rep1.witnesses[0][1] == 2  # |b| over {b^2, b^3} is 2
    rep2 = check_stability(img, H1, H2, mu=2, radius=3)
    assert rep2.passed


def test_stability_rejects_non_homomorphism():
    A = FiniteBackend([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]], {"t": 1})
    B = FiniteBackend([[0, 1, 2], [1, 2, 0], [2, 0, 1]], {"s": 1})
    H1 = FiniteSubgroup(A, [A.alphabet.word("t")])
    H2 = FiniteSubgroup(B, [B.alphabet.word("s")])
    with pytest.raises(VerifierError):
        check_stability([H2.gen_alphabet.word("y1")], H1, H2, mu=2, radius=4)


def test_stability_checks_every_relator():
    # t has order 16, so t^8 = t^-8 is the shortest relation that equal
    # products of length <= 6 cannot show; its image b^16 in Z is not 1
    A = c_n(16)
    B = AbelianBackend(1, names=["b"])
    H1 = FiniteSubgroup(A, [A.alphabet.word("g")])
    H2 = AbelianSubgroup(B, [B.alphabet.word("b")])
    with pytest.raises(VerifierError, match="the relator .* does not map to the identity"):
        check_stability([H2.gen_alphabet.word("y1")], H1, H2, mu=2, radius=6)


# --- one limited-crossover sweep, read at every lambda -----------------------------

def read_every_lambda(sys, Y=None, Z=None, lam_max=1, radius=4):
    """crossover_by_separate_sweeps' list read off one check_limited_crossover
    call at lam_max: each lambda's (witnesses, total_violations, swept) or
    error message.  A call that raises holds only the lambda = 1 entry."""
    try:
        report = check_limited_crossover(sys, Y=Y, Z=Z, lam=lam_max, radius=radius)
    except VerifierError as e:
        return [str(e)]
    out = []
    for lam in range(1, lam_max + 1):
        try:
            r = report.at(lam)
            out.append((r.witnesses, r.total_violations, r.swept))
        except VerifierError as e:
            out.append(str(e))
    if not isinstance(out[-1], str):
        # the report's own fields are those of lam_max, and every pair is measured once
        assert (report.witnesses, report.total_violations, report.swept) == out[-1]
    return out


def assert_one_sweep_equals_separate_sweeps(make_sys, Y=None, Z=None, lam_max=1, radius=4):
    want = crossover_by_separate_sweeps(make_sys(), Y, Z, lam_max, radius)
    got = read_every_lambda(make_sys(), Y, Z, lam_max, radius)
    assert got == (want[:1] if isinstance(want[0], str) else want)
    return want


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
@pytest.mark.parametrize("probes", ["split", "Y", "Z"])
def test_trefoil_one_sweep_equals_separate_sweeps(radius, probes):
    ctx = TrefoilCentralizerContext()
    alpha = ctx.parent.alphabet
    Y = ctx.gen_words if probes == "Y" else None  # a given Y skips the splitter
    Z = [alpha.word("x x"), ctx.gen_words[1]] if probes == "Z" else None
    want = assert_one_sweep_equals_separate_sweeps(
        lambda: CosetSystem(TrefoilCentralizerContext()), Y, Z, 4, radius)
    assert any(w[1] for w in want)  # witnesses at some lambda


ABELIAN_CONTEXTS = {
    "axis": (lambda: AbelianBackend(2), "x1"),
    "diag": (lambda: AbelianBackend(2), "x1 x2"),
    "mixed": (lambda: AbelianBackend(2, [4], names=["x1", "x2", "t"]), "x1 t"),
}


@pytest.mark.parametrize("name", sorted(ABELIAN_CONTEXTS))
@pytest.mark.parametrize("z", [None, "", "x1 x1"])
def test_abelian_one_sweep_equals_separate_sweeps(name, z):
    make, gen = ABELIAN_CONTEXTS[name]
    G = make()
    Z = None if z is None else [G.alphabet.word(z)]
    for radius in (3, 5):
        assert_one_sweep_equals_separate_sweeps(
            lambda: CosetSystem(AbelianSubgroup(G, [G.alphabet.word(gen)])), None, Z, 3, radius)


def crossover_rows(gog):
    """(Y, Z) of every crossover row of the hypotheses report, by row name."""
    edges = sorted(gog.graph.edges.values(), key=lambda e: e.name)
    return {f"crossover({e.name},{f.name})": (gog.ctx(e), gog.ctx(f).gen_words)
            for e in edges for f in edges if f.dst == e.dst}


@pytest.mark.parametrize("config", LAW_CONFIGS)
def test_hypotheses_rows_equal_separate_sweeps(config, monkeypatch):
    calls = []

    def counted(sys, Y=None, Z=None, lam=1, radius=4):
        calls.append(lam)
        return check_limited_crossover(sys, Y=Y, Z=Z, lam=lam, radius=radius)
    monkeypatch.setattr(certify, "check_limited_crossover", counted)
    lam_max = certify.HYPOTHESES_LAMBDA_MAX
    for radius in (3, 4):
        gog = shipped_config(config).gog()
        rows = crossover_rows(gog)
        del calls[:]
        report = certify.combination_hypotheses_report(gog, radius)
        details = {name: detail for name, _ok, detail in report.rows}
        failing = 0
        for name, (ctx, Z) in rows.items():
            want = assert_one_sweep_equals_separate_sweeps(
                lambda: CosetSystem(ctx), ctx.gen_words, Z, lam_max, radius)
            best = next((lam for lam, w in enumerate(want, 1) if w[1] == 0), None)
            assert details[name] == (f"lambda={best}" if best else f"no lambda <= {lam_max}")
            failing += best != 1
        # a passing row sweeps once at lambda = 1, a failing one once more at lam_max
        assert sorted(calls) == sorted([1] * len(rows) + [lam_max] * failing)
        if config in ("bs_1_2.gog", "path_tree_hnn.gog"):
            assert failing


# caps (LENGTH_CAP_PER_STEP, LENGTH_CAP_MARGIN) small enough to fail: at 0, 0
# every lambda fails, the first call raises; at 0, 3 and 0, 4 the trefoil's
# lambda = 1 passes its cap and a larger lambda's error waits until it is read
@pytest.mark.parametrize("caps", [(0, 0), (0, 3), (0, 4)])
def test_cap_errors_equal_separate_sweeps(caps, monkeypatch):
    monkeypatch.setattr(cosets, "LENGTH_CAP_PER_STEP", caps[0])
    monkeypatch.setattr(cosets, "LENGTH_CAP_MARGIN", caps[1])
    ctx = TrefoilCentralizerContext()
    errors = []
    for Y in (None, ctx.gen_words):
        want = assert_one_sweep_equals_separate_sweeps(
            lambda: CosetSystem(TrefoilCentralizerContext()), Y, None, 3, 2)
        errors.append([isinstance(w, str) for w in want])
    # over Y = {x1^2, x1^3} the check reaches x1 at length 2, so that a sweep
    # alone keeps lengths up to 2 within every cap: g = x1 is a witness there
    G = AbelianBackend(2)
    for Y in (None, [G.alphabet.word("x1 x1"), G.alphabet.word("x1 x1 x1")]):
        for Z in (None, [G.alphabet.word("x1 x1")], [G.alphabet.word("x1")]):
            want = assert_one_sweep_equals_separate_sweeps(
                lambda: CosetSystem(AbelianSubgroup(G, [G.alphabet.word("x1")])), Y, Z, 3, 3)
            errors.append([isinstance(w, str) for w in want])
    assert errors[0] == {(0, 0): [True] * 3, (0, 3): [False, True, True],
                         (0, 4): [False, False, True]}[caps]


# the messages of the separate sweeps, which the hypotheses report raised when
# it swept once per lambda: raised by the first call (margin 1), and by the
# second call at lambda = 2 (margin 3) and at lambda = 3 (margin 4)
@pytest.mark.parametrize("margin, message", [
    (1, "a a within length 1"), (3, "a a a a within length 3"), (4, "a a a a a a within length 4")])
def test_failing_hypotheses_row_raises_the_separate_sweeps_error(margin, message, monkeypatch):
    monkeypatch.setattr(cosets, "LENGTH_CAP_PER_STEP", 0)
    monkeypatch.setattr(cosets, "LENGTH_CAP_MARGIN", margin)
    gog = shipped_config("bs_1_2.gog").gog()
    ctx, Z = crossover_rows(gog)["crossover(f,f~)"]
    want = crossover_by_separate_sweeps(CosetSystem(ctx), ctx.gen_words, Z, 3, 3)
    assert want[-1] == f"Y does not express u g v^-1 = {message}"
    with pytest.raises(VerifierError) as err:
        certify.combination_hypotheses_report(gog, 3)
    assert str(err.value) == want[-1]

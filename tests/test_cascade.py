
import random

import pytest

from builders import (
    LAW_CONFIGS, hnn_z2_system, shipped_config, shipped_system, trefoil_system, zz_system,
)
from oracles import (
    A_AUT, B_AUT, IDENT, all_words, aut_compose, higgins_membership, hnn_z2_key,
    pipeline_normal_form, syllables, trefoil_key, trefoil_letter_table, zz_vertex_table,
)
from higgins.backends import BackendError
from higgins.cascade import ParseError, Pi1EdgeSubgroup
from higgins.fsa import enumerate_language
from higgins.gog import InflatedWord
from higgins.words import Word, invert


ZZ = zz_system()
TREFOIL = trefoil_system()
HNN = hnn_z2_system()


# --- oracle sanity ------------------------------------------------------------

def test_braid_relation_and_central_element():
    from oracles import (
        SIGMA1, SIGMA2, SIGMA1_INV, SIGMA2_INV,
        SIGMA1_R2, SIGMA2_R2, SIGMA1_R2_INV, SIGMA2_R2_INV,
        A_R2, B_R2,
    )
    for s1, s2, s1i, s2i in (
        (SIGMA1, SIGMA2, SIGMA1_INV, SIGMA2_INV),
        (SIGMA1_R2, SIGMA2_R2, SIGMA1_R2_INV, SIGMA2_R2_INV),
    ):
        s1s2s1 = aut_compose(s1, aut_compose(s2, s1))
        s2s1s2 = aut_compose(s2, aut_compose(s1, s2))
        assert s1s2s1 == s2s1s2
        ident = aut_compose(s1, s1i)
        assert aut_compose(s2i, s2) == ident
        assert all(len(img) == 1 for img in ident)
    a2 = aut_compose(A_AUT, A_AUT)
    b3 = aut_compose(B_AUT, aut_compose(B_AUT, B_AUT))
    assert a2 == b3
    assert a2 != IDENT  # the center acts by a nontrivial inner automorphism
    assert aut_compose(A_R2, A_R2) == aut_compose(B_R2, aut_compose(B_R2, B_R2))


def test_rank3_and_rank2_actions_give_same_partition():
    t3 = trefoil_letter_table(TREFOIL.alphabet)
    t2 = trefoil_letter_table(TREFOIL.alphabet, rank2=True)
    by3, by2 = {}, {}
    for w in all_words(TREFOIL.alphabet, 4):
        by3.setdefault(trefoil_key(w, t3), set()).add(w.letters)
        by2.setdefault(trefoil_key(w, t2), set()).add(w.letters)
    assert sorted(map(sorted, by3.values())) == sorted(map(sorted, by2.values()))


# --- free product Z * Z -------------------------------------------------------

def test_zz_normal_form_examples():
    assert str(ZZ.normal_form(ZZ.word("a b a^-1 a b"))) == "a b b"
    assert ZZ.normal_form(ZZ.word("")) == ZZ.word("")
    nf = ZZ.normal_form(ZZ.word("a b a^-1 b^-1"))
    assert len(nf) == 4
    assert ZZ.normal_form(ZZ.word("a b")) != ZZ.normal_form(ZZ.word("b a"))


def test_zz_matches_syllable_oracle():
    table = zz_vertex_table(ZZ.alphabet)
    for w in all_words(ZZ.alphabet, 5):
        nf = ZZ.normal_form(w)
        assert syllables(nf, table) == syllables(w, table)
        # the normal form is the plain concatenation of the syllables
        assert len(nf) == sum(abs(e) for _, e in syllables(w, table))


def test_zz_pinch_example():
    # b s_e s_e^-1 b at vb: the tree edge e out and back with an empty segment
    e = ZZ.gog.graph.edges["e"]
    b = ZZ.gog.backend("vb").alphabet.word("b")
    iw = InflatedWord("vb", b, [(e, ZZ.gog.backend("va").alphabet.empty()), (e.reverse, b)])
    out = ZZ.pinch_reduce(iw)
    assert not out.path
    assert str(out.u0) == "b b"  # joined at the base after the trivial pinch


# --- trefoil amalgam ----------------------------------------------------------

def test_trefoil_edge_relation():
    nf = TREFOIL.normal_form
    assert nf(TREFOIL.word("a a")) == nf(TREFOIL.word("b b b"))
    assert nf(TREFOIL.word("a a b")) == nf(TREFOIL.word("b b b b"))
    assert nf(TREFOIL.word("a")) != nf(TREFOIL.word("b"))


def test_trefoil_pinch_example():
    # s_e^-1 b b b s_e at va: b^3 lies in the edge subgroup at vb
    e = TREFOIL.gog.graph.edges["e"]
    bbb = TREFOIL.gog.backend("vb").alphabet.word("b b b")
    va = TREFOIL.gog.backend("va").alphabet
    iw = InflatedWord("va", va.empty(), [(e.reverse, bbb), (e, va.empty())])
    out = TREFOIL.pinch_reduce(iw)
    assert not out.path
    assert str(out.u0) == "a a"


def test_trefoil_matches_artin_oracle():
    table = trefoil_letter_table(TREFOIL.alphabet)
    forms = {}
    for w in all_words(TREFOIL.alphabet, 5):
        nf = TREFOIL.normal_form(w)
        key = trefoil_key(w, table)
        if key in forms:
            assert forms[key] == nf, f"oracle-equal words got different forms: {w}"
        else:
            forms[key] = nf
    # distinct normal forms must be oracle-distinct
    assert len(set(f.letters for f in forms.values())) == len(forms)


def test_normal_form_idempotent_and_member():
    rng = random.Random(3)
    for sys in (ZZ, TREFOIL, HNN):
        base = ("group", sys.tree.root)
        m = len(sys.alphabet)
        for _ in range(150):
            w = Word(sys.alphabet, tuple(rng.randrange(m) for _ in range(rng.randrange(9))))
            nf = sys.normal_form(w)
            assert sys.normal_form(nf) == nf
            assert higgins_membership(sys, nf, base)


def test_cascade_fixed_point_on_higgins_words():
    for sys in (ZZ, TREFOIL):
        base = ("group", sys.tree.root)
        for w in all_words(sys.alphabet, 4):
            nf = sys.normal_form(w)
            iw = sys.alphabets.inflate(nf, sys.tree.root)
            out = sys.cascade(iw, base).output
            assert out == iw


def test_cascade_connector_equations():
    """Each cascade step satisfies its defining equation in the vertex group."""
    rng = random.Random(4)
    sys = TREFOIL
    m = len(sys.alphabet)
    for _ in range(100):
        w = Word(sys.alphabet, tuple(rng.randrange(m) for _ in range(rng.randrange(8))))
        base_vertex = sys.tree.root
        iw = sys.pinch_reduce(sys.alphabets.inflate(w, base_vertex))
        trace = sys.cascade(iw, ("group", base_vertex))
        pending = None
        for (e, u), (h_y, h_img_y), rep in zip(
                reversed(iw.path), reversed(trace.connectors), reversed(trace.reps)):
            ctx = sys.gog.ctx(e)
            backend = ctx.parent
            seg = u if pending is None else u * pending
            # seg =_G h * rep
            assert backend.key(seg) == backend.key(ctx.expand(h_y) * rep)
            pending = sys.gog.ctx(e.reverse).expand(h_img_y)


# --- coset normal forms ---------------------------------------------------------

def test_trefoil_coset_forms():
    e0 = TREFOIL.gog.graph.edges["e~"]  # subgroup <b^3> at the b-vertex
    cf = TREFOIL.coset_normal_form
    assert cf(TREFOIL.word("b b b b"), e0) == cf(TREFOIL.word("b"), e0)
    assert cf(TREFOIL.word("b b b"), e0) == TREFOIL.word("")
    assert cf(TREFOIL.word(""), e0) == TREFOIL.word("")


def test_coset_form_constant_under_subgroup_left_multiplication():
    e0 = TREFOIL.gog.graph.edges["e"]  # subgroup <a^2> at the a-vertex
    gen = TREFOIL.word("a a")
    for w in all_words(TREFOIL.alphabet, 4):
        rep = TREFOIL.coset_normal_form(w, e0)
        assert TREFOIL.coset_normal_form(gen * w, e0) == rep
        assert TREFOIL.coset_normal_form(invert(gen) * w, e0) == rep


def test_zz_trivial_coset_equals_group_form():
    e0 = ZZ.gog.graph.edges["e"]
    for w in all_words(ZZ.alphabet, 4):
        assert ZZ.coset_normal_form(w, e0) == ZZ.normal_form(w, e0.dst)


# --- HNN of Z^2 -----------------------------------------------------------------

def test_hnn_conjugation_relation():
    assert str(HNN.normal_form(HNN.word("s_f x1 s_f^-1"))) == "x1"
    assert HNN.normal_form(HNN.word("s_f x1")) == HNN.normal_form(HNN.word("x1 s_f"))
    assert HNN.normal_form(HNN.word("s_f x2")) != HNN.normal_form(HNN.word("x2 s_f"))


def test_hnn_matches_direct_product_oracle():
    seen = {}
    for w in all_words(HNN.alphabet, 4):
        nf = HNN.normal_form(w)
        key = hnn_z2_key(w)
        if key in seen:
            assert seen[key] == nf, str(w)
        else:
            seen[key] = nf
    assert len(set(f.letters for f in seen.values())) == len(seen)


# --- scan driver agrees with the phase pipeline ----------------------------------

def test_scan_matches_pipeline_exhaustive():
    for sys in (ZZ, TREFOIL, HNN):
        base = ("group", sys.tree.root)
        for w in all_words(sys.alphabet, 4):
            assert sys.normal_form(w) == pipeline_normal_form(sys, w, base), f"{sys}: {w}"


def _random_word(rng, sys, lo, hi):
    m = len(sys.alphabet)
    return Word(sys.alphabet, tuple(rng.randrange(m) for _ in range(rng.randrange(lo, hi))))


def _bases(sys):
    return [("group", v) for v in sys.gog.graph.vertices] + [
        ("coset", sys.gog.graph.edges[name]) for name in sorted(sys.gog.graph.edges)]


def test_scan_matches_pipeline_random_long():
    rng = random.Random(11)
    for config in LAW_CONFIGS:
        sys = shipped_system(config)
        edges = [sys.gog.graph.edges[name] for name in sorted(sys.gog.graph.edges)]
        for _ in range(150):
            w = _random_word(rng, sys, 6, 12)
            assert sys.normal_form(w) == pipeline_normal_form(sys, w, ("group", sys.tree.root))
            for e0 in edges:
                assert sys.coset_normal_form(w, e0) == pipeline_normal_form(
                    sys, w, ("coset", e0)), f"{config}: {w} at {e0.name}"


@pytest.mark.parametrize("config", LAW_CONFIGS)
def test_normal_form_laws(config):
    """nf(nf w) = nf w, nf(u v) = nf(nf u . nf v) and nf(w w^-1) = 1 at every
    base vertex."""
    rng = random.Random(12)
    sys = shipped_system(config)
    for v0 in sys.gog.graph.vertices:
        for _ in range(100):
            u, v = _random_word(rng, sys, 0, 11), _random_word(rng, sys, 0, 11)
            nu, nv = sys.normal_form(u, v0), sys.normal_form(v, v0)
            assert sys.normal_form(nu, v0) == nu
            assert sys.normal_form(u * v, v0) == sys.normal_form(nu * nv, v0)
            assert sys.normal_form(u * invert(u), v0) == sys.alphabet.empty()


@pytest.mark.parametrize("config", LAW_CONFIGS)
def test_language_membership_matches_the_parse_oracle(config):
    """At every base, the scan's language (nf(w) == w) and the automaton
    accept exactly the words the parse-based oracle accepts; every edge's
    h_express gives back a member's element and rejects non-members."""
    rng = random.Random(14)
    sys = shipped_system(config)
    words = list(all_words(sys.alphabet, 2)) + [_random_word(rng, sys, 3, 9) for _ in range(60)]
    for base in _bases(sys):
        dfa = sys.higgins_automaton(base)
        for w in words + [sys.scan_word(w, base) for w in words]:
            want = higgins_membership(sys, w, base)
            assert (sys.scan_word(w, base) == w) == want, f"{config}: {w} at {base}"
            assert dfa.accepts(w) == want, f"{config}: {w} at {base}"
    for name in sorted(sys.gog.graph.edges):
        H = Pi1EdgeSubgroup(sys, sys.gog.graph.edges[name])
        m = len(H.gen_alphabet)
        for _ in range(40):
            n = rng.randrange(6) if m else 0
            h = Word(H.gen_alphabet, tuple(rng.randrange(m) for _ in range(n)))
            x = rng.randrange(len(sys.alphabet))
            w = Word(sys.alphabet, (x, sys.alphabet.inv[x])) * H.expand(h)
            assert H.parent.key(H.expand(H.h_express(w))) == H.parent.key(w), f"{name}: {w}"
        for w in words:
            if not H.membership(w):
                with pytest.raises(BackendError):
                    H.h_express(w)


# --- the close memo -----------------------------------------------------------------

MEMO_CONFIGS = ("abelian_pairs.gog", "finite_s3.gog")


def _memo_words(config):
    """Seeded words, plus pairs that close one vertex element under two
    spellings in the middle segment (t and t^5 in Z/4, s and s^3 in S3)."""
    sys = shipped_system(config)
    rng = random.Random(13)
    words = [_random_word(rng, sys, 0, 14) for _ in range(200)]
    if config == "abelian_pairs.gog":
        pairs = [("s_f {} s_f^-1 x2", "t", "t t t t t"),
                 ("x1 s_f^-1 {} s_f", "t^-1", "t t t")]
    else:
        pairs = [("vb.r {} vb.r", "va.s", "va.s va.s va.s"),
                 ("vb.s {} vb.r", "va.r", "va.r va.r va.r va.r")]
    for text, short, long in pairs:
        words += [sys.word(text.format(short)), sys.word(text.format(long))]
    return words


def _closes_recorded(sys, log):
    """Log (edge name, vertex element, the element's canonical letters) for
    every split the scan asks of an edge's context."""
    for name, e in sys.gog.graph.edges.items():
        ctx = sys.gog.ctx(e)

        def split(elem, ctx=ctx, name=name, inner=ctx.split):
            log.append((name, elem, ctx.parent.element_word(elem).letters))
            return inner(elem)
        ctx.split = split


class _NoMemo(dict):
    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


class _NoRow(list):
    """A row of the scan's element table that keeps no slot."""

    def __getitem__(self, xl):
        return None

    def __setitem__(self, xl, value):
        pass


class _NoRows(list):
    """An element table whose rows keep nothing, so every letter is read
    through _fill."""

    def __init__(self, rows):
        super().__init__(_NoRow(row) for row in rows)

    def append(self, row):
        super().append(_NoRow(row))


@pytest.mark.parametrize("config", MEMO_CONFIGS)
def test_close_memo_is_independent_of_spelling_order(config):
    words = _memo_words(config)
    oracle_sys = shipped_system(config)
    memos = []
    for order in (words, words[::-1]):
        sys = shipped_system(config)
        for w in order:
            for v0 in sys.gog.graph.vertices:
                assert sys.normal_form(w, v0) == pipeline_normal_form(
                    oracle_sys, w, ("group", v0)), f"{config}: {w} at {v0}"
        memos.append(sys._closes)
    # h_express gives one connector per element, also over abelian_pairs'
    # <t>, whose generator has a relation (t^4), so either order fills the
    # memo alike
    first, second = memos
    assert first == second


@pytest.mark.parametrize("config", MEMO_CONFIGS)
def test_close_memo_has_one_entry_per_closed_element(config):
    words = _memo_words(config)
    every, misses = [], []
    unmemoized, memoized = shipped_system(config), shipped_system(config)
    # a filled switch slot skips _closes, so the reference keeps neither
    # _closes nor the element table's rows
    unmemoized._closes = _NoMemo()
    unmemoized._rows = _NoRows(unmemoized._rows)
    _closes_recorded(unmemoized, every)
    _closes_recorded(memoized, misses)
    for w in words:
        assert unmemoized.normal_form(w) == memoized.normal_form(w)
    pairs = {(name, key) for name, key, _ in every}
    # the last four words are two pairs, each one element spelled two ways
    for short, long in (words[-4:-2], words[-2:]):
        assert memoized.normal_form(short) == memoized.normal_form(long)
    # every close hands split an element that is its own key, read off its
    # canonical word, so no element is closed under two spellings
    for name, key, letters in every:
        parent = memoized.gog.ctx(memoized.gog.graph.edges[name]).parent
        seg = Word(parent.alphabet, letters)
        assert parent.canonical(seg) == seg and parent.key(seg) == key, (name, key)
    # each pair is computed once, where the unmemoized scan first closes it
    assert [(name, key) for name, key, _ in misses] == list(
        dict.fromkeys((name, key) for name, key, _ in every))
    assert len(memoized._closes) == len(pairs)


# the HNN configs, whose stable letters switch vertex, and the three-vertex
# path tree, whose switches also take routes of two and three edges
SWITCH_CONFIGS = ("abelian_pairs.gog", "hnn_f2.gog", "hnn_z2.gog", "path_tree_hnn.gog")


def _switch_words(config):
    """Seeded words, plus s_f g s_f^-1 for short g, which backtracks exactly
    when g lies in the edge subgroup at f."""
    sys = shipped_system(config)
    rng = random.Random(15)
    words = [_random_word(rng, sys, 0, 16) for _ in range(120)]
    f = sys.alphabet.index("s_f")
    fi = sys.alphabet.inv[f]
    for g in all_words(sys.alphabet, 2):
        words.append(Word(sys.alphabet, (f,) + g.letters + (fi,)))
        words.append(Word(sys.alphabet, (fi,) + g.letters + (f,)))
    return words


@pytest.mark.parametrize("config", SWITCH_CONFIGS)
def test_warm_memos_give_the_fresh_normal_forms(config):
    """Normal forms read through warm memos (every word scanned once at
    every base) equal those of a fresh system per word."""
    words = _switch_words(config)
    warm = shipped_system(config)
    for w in words:
        for base in _bases(warm):
            warm.scan_word(w, base)
    assert any(type(slot) is tuple for row in warm._rows for slot in row), "no switch slot"
    for w in words:
        fresh = shipped_system(config)
        for base, fresh_base in zip(_bases(warm), _bases(fresh)):
            assert warm.scan_word(w, base).letters == fresh.scan_word(w, fresh_base).letters, (
                f"{config}: {w} at {base}")


@pytest.mark.parametrize("config", SWITCH_CONFIGS)
def test_scan_prepend_folds_to_the_scan(config):
    sys = shipped_system(config)
    for w in _switch_words(config):
        state = sys.scan_initial()
        for xl in reversed(w.letters):
            state = sys.scan_prepend(state, xl)
        assert state == sys._scan(sys.scan_initial(), reversed(w.letters)), f"{config}: {w}"
        for base in _bases(sys):
            assert sys.scan_word(w, base) == sys.scan_finalize(state, base), f"{config}: {w}"
    # a word of one vertex letter opens a segment and closes nothing: its
    # slot in the empty word's row is an id, never a switch, on a fresh
    # system and on the warm one
    for scanner in (shipped_system(config), sys):
        closes = []
        close_chain = scanner._close_chain
        scanner._close_chain = lambda *args: closes.append(args) or close_chain(*args)
        for xl, (_v, bl, _prepend) in scanner._scan_letters.items():
            if bl is not None:
                state = scanner._scan(scanner.scan_initial(), (xl,))
                assert type(scanner._rows[0][xl]) is int and state[0] == scanner._rows[0][xl]
        assert not closes


# --- the element table ----------------------------------------------------------

def _table_words(sys, seed):
    """Seeded words of up to 24 letters, every fifth one an earlier word
    with a cancelling pair inserted, so segments backtrack and equal
    elements come spelled two ways."""
    rng = random.Random(seed)
    words = []
    for i in range(90):
        if i % 5 == 4:
            w = words[rng.randrange(len(words))].letters
            x = rng.randrange(len(sys.alphabet))
            at = rng.randrange(len(w) + 1)
            words.append(Word(sys.alphabet, w[:at] + (x, sys.alphabet.inv[x]) + w[at:]))
        else:
            words.append(_random_word(rng, sys, 0, 25))
    return words


def _counted_system(config):
    """A fresh system that counts, in counts, the prepends its vertex
    backends make outside a backend's own append (an abelian append is a
    prepend), the appends and the scan's _open calls."""
    cfg = shipped_config(config)
    gog = cfg.gog()
    counts = {"prepends": 0, "appends": 0, "opens": 0}
    joining = [0]
    patched = set()
    for v in gog.graph.vertices:
        backend = gog.backend(v)
        if id(backend) in patched:  # vertices may share a group
            continue
        patched.add(id(backend))
        prepend, append = backend.prepend, backend.append

        def counted_prepend(x, elem, prepend=prepend):
            counts["prepends"] += not joining[0]
            return prepend(x, elem)

        def counted_append(elem, x, append=append):
            counts["appends"] += 1
            joining[0] += 1
            try:
                return append(elem, x)
            finally:
                joining[0] -= 1
        backend.prepend, backend.append = counted_prepend, counted_append
    sys = cfg.system()
    open_ = sys._open

    def counted_open(*args):
        counts["opens"] += 1
        return open_(*args)
    sys._open = counted_open
    return sys, counts


def _scan_logging_joins(sys, w, base, counts, joins):
    """sys.scan_word(w, base), read one letter at a time.  A letter read
    through a filled switch slot whose node below it pops (a backtrack)
    logs (the switch, the rep letters below, the _open calls and the
    appends that letter made)."""
    state = sys.scan_initial()
    for xl in reversed(w.letters):
        eid, tail = state
        slot = sys._rows[eid][xl]
        opens, appends = counts["opens"], counts["appends"]
        state = sys.scan_prepend(state, xl)
        if type(slot) is tuple and state[1] is tail[2]:
            joins.append((id(slot), tail[1], counts["opens"] - opens,
                          counts["appends"] - appends))
    return sys.scan_finalize(state, base)


# LAW_CONFIGS holds the three nf-batch configs of the benchmark
@pytest.mark.parametrize("config", LAW_CONFIGS)
def test_element_table_does_each_prepend_once(config):
    """Each (vertex, element) the scan meets has exactly one id, backend.prepend
    runs once per filled slot of a vertex letter, a backtrack through a
    switch joins each segment below it once, and the normal forms read
    through warm rows, in either word order, and on fresh systems equal the
    phase pipeline's."""
    oracle = shipped_system(config)
    words = _table_words(oracle, 24)
    bases = _bases(oracle)
    expected = {(w.letters, i): pipeline_normal_form(oracle, w, base)
                for w in words for i, base in enumerate(bases)}
    for order in (words, words[::-1]):
        sys, counts = _counted_system(config)
        joins = []
        for w in order:
            for i, base in enumerate(_bases(sys)):
                got = _scan_logging_joins(sys, w, base, counts, joins)
                assert got == expected[w.letters, i], f"{config}: {w}"
        assert sys._elems[0] == (None, None)
        assert sys._eids == {key: eid for eid, key in enumerate(sys._elems)}
        assert len(sys._rows) == len(sys._elems)
        for v, elem in sys._elems[1:]:
            backend = sys.gog.backend(v)
            # an element is its own key, so two spellings cannot get two ids
            assert backend.key(backend.element_word(elem)) == elem, (v, elem)
        vertex_letters = {xl for xl, (_v, bl, _p) in sys._scan_letters.items() if bl is not None}
        filled = sum(type(row[xl]) is int for row in sys._rows[1:] for xl in vertex_letters)
        assert counts["prepends"] == filled, f"{config}: {counts['prepends']} prepends, {filled} slots"
        # the first backtrack through a switch with given letters below
        # appends them and opens once; every later one reads its id
        seen = set()
        for slot, below, opens, appends in joins:
            first = (slot, below) not in seen
            seen.add((slot, below))
            assert (opens, appends) == ((1, len(below)) if first else (0, 0)), (config, below)
        assert len(joins) > len(seen), f"{config}: no segment is joined twice"
    # the second pass reads warm rows: no slot fills again, and no join
    # appends or opens
    joins = []
    for w in words:
        for i, base in enumerate(_bases(sys)):
            got = _scan_logging_joins(sys, w, base, counts, joins)
            assert got == expected[w.letters, i], f"{config}: {w}"
    assert counts["prepends"] == filled
    assert joins and all(opens == appends == 0 for _s, _b, opens, appends in joins), config
    for w in words[::9]:
        fresh = shipped_system(config)
        for i, base in enumerate(_bases(fresh)):
            assert fresh.scan_word(w, base) == expected[w.letters, i], f"{config}: {w}"


# --- membership and the automaton -------------------------------------------------

def test_membership_examples():
    base = ("group", "va")
    assert higgins_membership(TREFOIL, TREFOIL.word(""), base)
    assert higgins_membership(TREFOIL, TREFOIL.normal_form(TREFOIL.word("a b a b")), base)
    assert not higgins_membership(TREFOIL, TREFOIL.word("b b b"), base)  # = a^2 at base


def test_membership_rejects_pinchable_stable_pair():
    base = ("group", "v")
    assert not higgins_membership(HNN, HNN.word("s_f s_f^-1"), base)
    assert not higgins_membership(HNN, HNN.word("s_f x1 s_f^-1"), base)  # x1 in the edge group
    assert higgins_membership(HNN, HNN.word("s_f x2 s_f^-1"), base)


def test_higgins_automaton_group_language():
    for sys, n in ((ZZ, 5), (TREFOIL, 5)):
        base = ("group", sys.tree.root)
        dfa = sys.higgins_automaton(base)
        want = {w.letters for w in all_words(sys.alphabet, n)
                if higgins_membership(sys, w, base)}
        got = {w.letters for w in enumerate_language(dfa, n)}
        assert got == want


def test_higgins_automaton_coset_language():
    sys = TREFOIL
    e0 = sys.gog.graph.edges["e"]
    dfa = sys.higgins_automaton(("coset", e0))
    want = {w.letters for w in all_words(sys.alphabet, 5)
            if higgins_membership(sys, w, ("coset", e0))}
    got = {w.letters for w in enumerate_language(dfa, 5)}
    assert got == want


def test_higgins_automaton_hnn():
    sys = HNN
    e0 = sys.gog.graph.edges["f"]
    dfa = sys.higgins_automaton(("coset", e0))
    want = {w.letters for w in all_words(sys.alphabet, 4)
            if higgins_membership(sys, w, ("coset", e0))}
    got = {w.letters for w in enumerate_language(dfa, 4)}
    assert got == want


def test_zz_automaton_examples():
    dfa = ZZ.higgins_automaton(("group", "va"))
    assert dfa.accepts(ZZ.word("a b a b"))
    assert not dfa.accepts(ZZ.word("a a^-1"))


def test_automaton_single_vertex_no_edges():
    from higgins.backends import AbelianBackend
    from higgins.gog import DirectedGraph, GraphOfGroups
    from higgins.cascade import Pi1System
    G = AbelianBackend(1, names=["a"])
    g = DirectedGraph()
    g.add_vertex("v")
    gog = GraphOfGroups(g, {"v": G}, {}, {})
    sys = Pi1System(gog)
    dfa = sys.higgins_automaton(("group", "v"))
    got = [str(w) for w in enumerate_language(dfa, 2)]
    assert got == ["ε", "a", "a^-1", "a a", "a^-1 a^-1"]


# --- uniqueness against oracles ---------------------------------------------------

def test_trefoil_language_unique_elements():
    base = ("group", "va")
    dfa = TREFOIL.higgins_automaton(base)
    table = trefoil_letter_table(TREFOIL.alphabet)
    keys = {}
    for w in enumerate_language(dfa, 5):
        key = trefoil_key(w, table)
        assert key not in keys, f"duplicate element: {w} vs {keys[key]}"
        keys[key] = w


def test_hnn_coset_language_unique_cosets():
    sys = HNN
    e0 = sys.gog.graph.edges["f"]
    H = Pi1EdgeSubgroup(sys, e0)
    dfa = sys.higgins_automaton(("coset", e0))
    seen = {}
    for w in enumerate_language(dfa, 4):
        _, key = hnn_z2_key(w)  # cosets of <x1>: kill the central coordinate
        assert key not in seen, f"duplicate coset: {w} vs {seen[key]}"
        seen[key] = w
        # a coset's representative lies in H only for the trivial coset
        assert H.membership(w) == (len(w) == 0), w
    # H = <x1>, and x1 is central in Z x F2: w is in H exactly when w is
    # x1^k times a freely trivial word in x2 and s_f
    for w in all_words(sys.alphabet, 4):
        assert H.membership(w) == (hnn_z2_key(w)[1] == ()), w


# --- edge subgroup context over pi1 ------------------------------------------------

def test_pi1_edge_subgroup_context():
    e0 = TREFOIL.gog.graph.edges["e"]
    H = Pi1EdgeSubgroup(TREFOIL, e0)
    assert H.membership(TREFOIL.word("b b b"))
    assert H.membership(TREFOIL.word("a a a a"))
    assert not H.membership(TREFOIL.word("a"))
    h = H.h_express(TREFOIL.word("b b b"))
    assert str(h) == "y1"
    assert H.parent.key(H.expand(h)) == H.parent.key(TREFOIL.word("b b b"))


def test_parse_errors():
    # a path word based at vb cascades only at vb
    sys = TREFOIL
    iw = sys.alphabets.inflate(sys.word("b"), "vb")
    assert sys.cascade(iw, ("group", "vb")).output == iw
    with pytest.raises(ParseError, match="word is based at vb, cascade base is va"):
        sys.cascade(iw, ("group", "va"))
    with pytest.raises(ParseError):
        sys.cascade(iw, ("coset", sys.gog.graph.edges["e"]))  # e ends at va

"""The reverse edge isomorphism (config.derive_reverse_iso), read off the
split of the subgroup that the images generate, against a breadth-first
search over source words of at most ten letters
(oracles.reverse_iso_by_search): wherever the search finds an inverse, both
name the same elements.  Run on every edge of the law configs and on seeded
automorphisms of Z^2, Z^3, Z/n, S3 and Z x Z/4."""

import random

import pytest

from builders import LAW_CONFIGS, shipped_config
from oracles import generator_image, reverse_iso_by_search
from higgins.backends import AbelianBackend, FiniteBackend, subgroup_context
from higgins.cli import main
from higgins.config import ConfigError, derive_reverse_iso, parse_config
from higgins.words import invert

S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 2, 0, 5, 3, 4], [2, 0, 1, 4, 5, 3],
            [3, 4, 5, 0, 1, 2], [4, 5, 3, 2, 0, 1], [5, 3, 4, 1, 2, 0]]


def element(ctx, yword):
    return ctx.parent.key(ctx.expand(yword))


def check_inverse(src, dst, images):
    """Check the derived inverse of images against the search, and that it
    undoes the map on both sides; True when the search found an inverse."""
    derived = derive_reverse_iso(src, dst, images)
    assert derived is not None
    ys, yd = src.gen_alphabet, dst.gen_alphabet
    for g, word in zip(yd.generators, derived):
        assert element(dst, generator_image(ys, images, yd, word)) == element(dst, yd.letter(g))
    for g, word in zip(ys.generators, images):
        assert element(src, generator_image(yd, derived, ys, word)) == element(src, ys.letter(g))
    searched = reverse_iso_by_search(src, dst, images)
    if searched is None:
        return False
    assert [element(src, w) for w in derived] == [element(src, w) for w in searched]
    return True


def power_word(ctx, exponents):
    """y1^e1 y2^e2 ... over the context's generators."""
    return ctx.gen_alphabet.word(" ".join(
        (f"y{i + 1}" if e > 0 else f"y{i + 1}^-1")
        for i, e in enumerate(exponents) for _ in range(abs(e))))


# the words derive_reverse_iso gives for each edge of each law config with a
# reverse subgroup to map onto: the words the ten-letter search gave
LAW_REVERSE_WORDS = {
    "abelian_pairs.gog": {"f": ["y1^-1"], "f~": ["y1^-1"]},
    "finite_s3.gog": {"e": ["y1"], "e~": ["y1"]},
    "hnn_z2.gog": {"f": ["y1"], "f~": ["y1"]},
    "trefoil_amalgam.gog": {"e": ["y1"], "e~": ["y1"]},
    "artin_i2_5.gog": {"e": ["y1"], "e~": ["y1"]},
    "bs_1_2.gog": {"f": ["y1"], "f~": ["y1"]},
    "dependent_amalgam.gog": {"e": ["y1", "y2"], "e~": ["y1", "y2"]},
    "hnn_f2.gog": {"f": ["y1"], "f~": ["y1"]},
    "hnn_f2_stem.gog": {"f": ["y1"], "f~": ["y1"]},
    "klein_bottle.gog": {"f": ["y1^-1"], "f~": ["y1^-1"]},
    "path_tree_hnn.gog": {"e": ["y1"], "e~": ["y1"], "f": ["y1^-1"], "f~": ["y1^-1"],
                          "g": ["y1"], "g~": ["y1"]},
}


@pytest.mark.parametrize("config", LAW_CONFIGS)
def test_law_config_reverse_isos(config):
    gog = shipped_config(config).gog()
    words = {}
    for name, edge in sorted(gog.graph.edges.items()):
        src, dst = gog.ctx(edge), gog.ctx(edge.reverse)
        if not dst.gen_words:
            continue
        assert check_inverse(src, dst, gog.edge_iso[name])
        derived = derive_reverse_iso(src, dst, gog.edge_iso[name])
        assert gog.edge_iso[edge.reverse.name] == derived
        words[name] = [str(w) for w in derived]
    assert words == LAW_REVERSE_WORDS.get(config, {})


def unimodular(rng, n):
    """An n x n integer matrix of determinant +-1, entries of size 3 or less."""
    while True:
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n == 2:
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        else:
            det = sum(m[0][j] * (m[1][(j + 1) % 3] * m[2][(j + 2) % 3]
                                 - m[1][(j + 2) % 3] * m[2][(j + 1) % 3]) for j in range(3))
        if abs(det) == 1:
            return m


def test_free_abelian_automorphisms():
    # the search finds every inverse on Z^2 but few on Z^3, whose inverses
    # mostly take more than ten letters
    rng = random.Random(34)
    found = []
    for n, count in ((2, 24), (3, 16)):
        G = AbelianBackend(n)
        K = subgroup_context(G, [G.alphabet.word(f"x{i + 1}") for i in range(n)])
        found.append(sum(check_inverse(K, K, [power_word(K, row) for row in unimodular(rng, n)])
                         for _ in range(count)))
    assert found == [24, 6]


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def test_cyclic_automorphisms():
    found = 0
    for n in range(2, 10):
        groups = [AbelianBackend(0, [n])]
        if n <= 6:
            groups.append(FiniteBackend(cyclic_table(n), {"t": 1}))
        for G in groups:
            K = subgroup_context(G, [G.alphabet.word("t")])
            for k in range(1, n):
                if all(k * j % n for j in range(1, n)):
                    found += check_inverse(K, K, [power_word(K, [k])])
    assert found == 2 * (1 + 2 + 2 + 4 + 2) + 6 + 4 + 6


def test_s3_automorphisms():
    # every automorphism of S3 is inner: conjugation by each of its elements
    S = FiniteBackend(S3_TABLE, {"r": 1, "s": 3})
    K = subgroup_context(S, [S.alphabet.word("r"), S.alphabet.word("s")])
    for g in range(6):
        gw = S.element_word(g)
        images = [K.h_express(invert(gw) * x * gw) for x in K.gen_words]
        assert check_inverse(K, K, images)


def test_z_times_z4_automorphisms():
    # x1 -> x1^+-1 t^c and t -> t^u, u a unit mod 4
    G = AbelianBackend(1, [4])
    K = subgroup_context(G, [G.alphabet.word("x1"), G.alphabet.word("t")])
    for sign in (1, -1):
        for c in range(4):
            for u in (1, 3):
                assert check_inverse(K, K, [power_word(K, [sign, c]), power_word(K, [0, u])])


def test_letters_are_read_back_by_generator():
    # Z^2 onto Z/2 x Z, x1 to t and x2 to x1: not injective, and y1 is
    # self-inverse over the images but not over the source, so the letters of
    # the two generator alphabets do not line up index for index
    Z2, M = AbelianBackend(2), AbelianBackend(1, [2])
    src = subgroup_context(Z2, [Z2.alphabet.word("x1"), Z2.alphabet.word("x2")])
    dst = subgroup_context(M, [M.alphabet.word("t"), M.alphabet.word("x1")])
    images = [dst.gen_alphabet.word("y1"), dst.gen_alphabet.word("y2")]
    derived = derive_reverse_iso(src, dst, images)
    assert [str(w) for w in derived] == ["y1", "y2"]
    searched = reverse_iso_by_search(src, dst, images)
    assert [element(src, w) for w in derived] == [element(src, w) for w in searched]


SHEAR = """[group G] kind=abelian rank=2
[subgroup K in G]
generators=x1;x2
[graph]
vertices=v:G
edge f: v -> v subgroup=K reverse_subgroup=K iso=y1->y1; y2->{}y2
"""

# two images in a free group: Z over <x1, x1^2> onto <a> in F1
TWO_IMAGES = """[group F] kind=free rank=1
[group G] kind=abelian rank=1
[subgroup H in F]
generators=a
[subgroup K in G]
generators=x1; x1 x1
[graph]
vertices=u:G,v:F
edge f: v -> u subgroup=K reverse_subgroup=H iso=y1->y1; y2->y1 y1{}
"""


def validate(capsys, tmp_path, text):
    path = tmp_path / "edge.gog"
    path.write_text(text)
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shear_past_the_search_depth_is_inverted(capsys, tmp_path):
    # a shear by 11 of Z^2: its inverse takes 12 letters, past the old search
    text = SHEAR.format("y1 " * 11)
    assert validate(capsys, tmp_path, text) == (0, "valid\n", "")
    gog = parse_config(text).gog()
    assert [str(w) for w in gog.edge_iso["f~"]] == ["y1", " ".join(["y1^-1"] * 11 + ["y2"])]


def test_unreduced_free_image_is_inverted(capsys, tmp_path):
    text = ("[group F] kind=free rank=2\n[subgroup H in F]\ngenerators=a b\n[graph]\n"
            "vertices=v:F\nedge f: v -> v subgroup=H reverse_subgroup=H iso=y1->y1 y1^-1 y1^-1\n")
    assert validate(capsys, tmp_path, text) == (0, "valid\n", "")
    assert [str(w) for w in parse_config(text).gog().edge_iso["f~"]] == ["y1^-1"]


def test_two_images_in_a_free_group_need_a_declared_reverse_iso(capsys, tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config(TWO_IMAGES.format(""))
    assert str(exc.value) == ("line 9: edge f: iso is not onto the reverse subgroup, or has "
                              "several images in a free group; declare reverse_iso explicitly")
    declared = TWO_IMAGES.format(" reverse_iso=y1->y1")
    assert validate(capsys, tmp_path, declared) == (0, "valid\n", "")

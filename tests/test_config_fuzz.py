"""A seeded fuzzer over the shipped configs.  Mutated copies go through
`validate`, `nf`, `enum --max-len 2` and `certify --radius 2`; every run must
end with exit code 0, 1 or 2 and no traceback, whichever of the three it is.

    PYTHONPATH=src python -m pytest -q tests/test_config_fuzz.py
"""

import os
import random
import re
import shutil

import pytest

from builders import CONFIGS, SHIPPED_GRAPHS
from higgins.cli import main

# per shipped config: a word for nf and the coset system certify sweeps
RUNS = {
    "abelian_pairs.gog": ("x1 t", "axis"),
    "finite_s3.gog": ("r s", "s3-cosets"),
    "free_product_zz.gog": ("a b", "edge-cosets"),
    "hnn_z2.gog": ("x1 s_f", "edge-cosets"),
    "trefoil_amalgam.gog": ("a b", "edge-cosets"),
}
# what a mutation may put after an "=": small sizes and near-miss names only,
# so that every run stays cheap
VALUES = ("", "0", "1", "2", "3", "-1", "x", "1.5", "a", "a a", "t", "x1 x2",
          "y1", "y1->y1", "y1->y1^-1", "y2->y1", "y1->y1 y1", "v:G", "va:A,vb:B",
          "r:1,s:3", "r1", "s3.csv", "nope.csv", "sync", "async", "padded")
SEEDS = range(10)


def mutate(text: str, rng: random.Random) -> str:
    """One to three line edits: drop, duplicate, truncate, a new value after
    an "=", or a new digit."""
    lines = text.splitlines() or [""]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        op = rng.randrange(5)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[rng.randrange(len(lines))])
        elif op == 2:
            lines[i] = line[:rng.randrange(len(line) + 1)]
        elif op == 3:
            spans = [m.span(1) for m in re.finditer(r"=([^ =]*)", line)]
            if spans:
                a, b = rng.choice(spans)
                lines[i] = line[:a] + rng.choice(VALUES) + line[b:]
        else:
            digits = [m.start() for m in re.finditer(r"\d", line)]
            if digits:
                a = rng.choice(digits)
                lines[i] = line[:a] + str(rng.randrange(6)) + line[a + 1:]
    return "\n".join(lines) + "\n"


def mutants(name: str, seed: int):
    with open(os.path.join(CONFIGS, name)) as fh:
        text = fh.read() + SHIPPED_GRAPHS[name]
    rng = random.Random(f"{name}:{seed}")
    return [mutate(text, rng) for _ in range(3)]


def commands(path: str, name: str):
    word, system = RUNS[name]
    return [
        ["validate", path],
        ["nf", path, "--word", word],
        ["enum", path, "--max-len", "2"],
        ["certify", path, "--what", "coset", "--system", system, "--radius", "2"],
    ]


def run(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse
        return exc.code


@pytest.mark.parametrize("name", sorted(RUNS))
def test_mutated_configs_exit_cleanly(capsys, tmp_path, name):
    shutil.copy(os.path.join(CONFIGS, "s3.csv"), tmp_path)
    path = str(tmp_path / name)
    for seed in SEEDS:
        for text in mutants(name, seed):
            with open(path, "w") as fh:
                fh.write(text)
            for argv in commands(path, name):
                try:
                    code = run(argv)
                except Exception as exc:
                    pytest.fail(f"{' '.join(argv)} raised {exc!r} on\n{text}")
                err = capsys.readouterr().err
                assert code in (0, 1, 2) and "Traceback" not in err, (argv, text, err)

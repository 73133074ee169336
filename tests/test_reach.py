"""Every function, method and class of the package is reached from the
package itself, or is named below with the reason it stays.

A name is reached when some module of src/higgins loads it as a name or an
attribute, or spells it as a string constant (getattr(ctx, "coset_splitter")),
outside a definition of that name; so a function's recursive calls and its
own default arguments do not reach it.  The walk reads names only, not what
they are bound to, so a local variable or a method of another class that
shares a name reaches it too.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "higgins")

ALLOWED = {
    "scan_prepend": "the benchmark's tracer patches it; criteria 1 and 2 walk words with it",
    "check_maximal_crossover": "the benchmark's tracer patches it",
    "distance": "the benchmark's tracer wraps `CayleyBall.distance` and reads `_pair_cache`; "
                "`tests/oracles.py` measures grids with it",
    "trefoil_system": "the benchmark's nf-batch child builds the trefoil with it",
    "shortlex_cmp": "criterion 9 tests it",
    "union": "criterion 9 tests it",
    "complement": "criterion 9 tests it; L minus the projection of ROADMAP items 8 and 11 "
                  "needs it with intersect",
    "accepts": "Dfa.accepts: the tests read automata through it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk(node, inside, defined, reached):
    """Record the definitions under node and the names they reach; inside is
    the set of names whose definitions enclose node."""
    if isinstance(node, _DEFS):
        if not (node.name.startswith("__") and node.name.endswith("__")):
            defined.add(node.name)
        inside = inside | {node.name}
    name = None
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    if name is not None and name not in inside:
        reached.add(name)
    for child in ast.iter_child_nodes(node):
        _walk(child, inside, defined, reached)


def package_names():
    """(defined, reached): the non-dunder functions, methods and classes of
    src/higgins, and the names its modules reach."""
    defined, reached = set(), set()
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
                _walk(ast.parse(fh.read(), filename), frozenset(), defined, reached)
    return defined, reached


def test_every_unreached_name_is_allowed():
    defined, reached = package_names()
    assert sorted(defined - reached - set(ALLOWED)) == []


def test_every_allowed_name_is_defined_and_unreached():
    defined, reached = package_names()
    assert sorted(set(ALLOWED) - defined) == []
    assert sorted(set(ALLOWED) & reached) == []

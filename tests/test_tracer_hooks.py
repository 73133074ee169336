"""The benchmark's tracer (perfbench/tracing.py) wraps higgins functions by
name.  Check that every name it patches still exists where it looks, so a
rename in the package fails here instead of breaking a traced benchmark run.
The tracer is read from its source file; nothing is written next to it."""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module_name, owner_name, attr", [
    hook[:3] for hook in tracing._HOOKS], ids=lambda v: str(v))
def test_every_hook_resolves(module_name, owner_name, attr):
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else getattr(module, owner_name)
    # the tracer swaps owner.__dict__[attr], so it must be defined right there
    assert callable(owner.__dict__.get(attr))


@pytest.mark.parametrize("module_name, cls_name", tracing._REGISTERED)
def test_every_registered_class_resolves(module_name, cls_name):
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert isinstance(cls, type) and "__init__" in cls.__dict__


def test_install_and_uninstall_leave_no_wrapper():
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.uninstall()

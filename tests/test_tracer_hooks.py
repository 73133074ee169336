"""The benchmark's tracer (perfbench/tracing.py) wraps higgins functions by
name.  Check that every name it patches still exists where it looks, so a
rename in the package fails here instead of breaking a traced benchmark run,
and run each workload's calls at a tiny size under the tracer, so that the
per-layer metrics, which read attributes of the package's instances, are
all still produced.  The tracer is read from its source file; nothing is
written next to it."""

import importlib
import json
import random
import types
from pathlib import Path

import pytest

from higgins.cli import main
from higgins.config import load_config

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


# --- the per-layer metrics of each benchmark workload, at tiny sizes ------------

ROOT = TRACING.parent.parent
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
# perfbench/run.py adds these to layer_metrics' figures from the child's own timings
ADDED_BY_THE_RUNNER = {"config.import_s", "config.load_s", "trace.overhead"}


def cfg(name):
    return str(ROOT / "configs" / name)


# workload -> (focus, argv into cli.main or the configs of a normal-form batch,
# a metric that reads 0 unless the workload reached its layer)
WORKLOADS = {
    "ball-hnn": ("certify.ball", ["certify", cfg("hnn_z2.gog"), "--what", "coset", "--system",
                                  "edge-cosets", "--radius", "1"], "certify.ball.elements"),
    "fellow-padded": ("certify.fellow", ["certify", cfg("abelian_pairs.gog"), "--what", "coset",
                                         "--system", "axis-padded", "--radius", "3"],
                      "certify.fellow.calls"),
    "trefoil-crossover": ("experiments.coset_rep", ["experiment", "trefoil", "--radius", "2",
                                                    "--lambda-max", "1"], "experiments.cosets"),
    "nf-batch": ("cascade.normal_form", [cfg("trefoil_amalgam.gog"), cfg("hnn_z2.gog"),
                                         cfg("free_product_zz.gog")], "cascade.normal_form.calls"),
}


def _nf_batch(configs, rng):
    batch = []
    for path in configs:
        system = load_config(path).system()
        letters = [x for g in system.alphabet.generators for x in (g, g + "^-1")]
        for _ in range(5):
            text = " ".join(rng.choice(letters) for _ in range(rng.randint(4, 12)))
            batch.append((system, system.word(text)))
    return lambda: [system.normal_form(w) for system, w in batch]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_metrics_name_every_per_layer_metric(capsys, workload):
    focus, args, reached = WORKLOADS[workload]
    if workload == "nf-batch":
        work = _nf_batch(args, random.Random(5))
    else:
        def work():
            assert main(args) == 0
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.region():
            work()
    finally:
        assert tracer.uninstall()
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer, focus)
    assert set(metrics) | ADDED_BY_THE_RUNNER == PER_LAYER
    assert metrics[reached] > 0


def test_traced_trefoil_counts_each_crossover_pair_once(capsys):
    # one sweep at lambda 2 measures 16 coset words against 13 g; a sweep per
    # lambda measured the 5 g of lambda 1 again (288)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.region():
            assert main(["experiment", "trefoil", "--radius", "3", "--lambda-max", "2"]) == 0
    finally:
        assert tracer.uninstall()
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer, "experiments.coset_rep")
    assert metrics["cosets.crossover.calls"] == 1
    assert metrics["cosets.crossover.swept"] == 208

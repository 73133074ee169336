"""The higgins benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  Each measured run is one fresh `python3 perfbench/child.py` process
with one thread and no HIGGINS_JOBS in its environment, driven in a closed
loop by this single caller: the next run starts when the previous one has
ended, so at most one child competes for the cores.  The benchmark and its
children stay on one CPU.  Runs repeat until --seconds have passed (at least
MIN_REPS of them) and each end-to-end metric is the median over the runs:

    setup_s      spawn of the child to ready: interpreter start, import of
                 higgins, config load and system build
    verdict_s    time of the timed region: the call into higgins.cli.main,
                 or the batch of normal forms
    peak_rss_mb  peak resident set of the child's own memory (VmHWM)

Both times are wall times taken to the reference speed.  A shared host runs
the same code up to twice as slowly for seconds to minutes at a time, so
each child also times a fixed calibration kernel that does not touch higgins,
right after set-up and right after the region, and each wall time is
multiplied by CALIBRATION_REF_S / (the kernel's time next to it): setup_s by
the kernel time after set-up, verdict_s by the mean of the two.  A change to
higgins moves these times as it moves the wall times; a slower host does not.
The wall-time medians and the kernel times are kept in the info line.

With --trace 1 one more child runs the workload with the wrappers of
perfbench/tracing.py installed and the per-layer metrics are printed instead.
Every output is checked after its child has ended: stdout against the
expected files in perfbench/expected/, and, independently of the program, the
ball's sphere sizes against a breadth-first search of Z x F2 and every normal
form against the oracles of tests/oracles.py.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds run hygiene, sample counts and the nf-batch latency figures.  Full
results, trace spans included, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_REPS = 3
RUN_BUDGET_S = 170          # a whole invocation ends well within 180 s
CALIBRATION_REF_S = 0.065   # the calibration kernel's time at the reference speed
TRACE_SUM_TOLERANCE = 0.01  # self times + uncovered time vs the traced wall time
VARIANT_SHARE = 0.2         # nf-batch words that repeat an earlier element
NF_LENGTHS = (8, 40)        # nf-batch word lengths, uniform in this range


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "cli": argv into higgins.cli.main; "nf": normal forms
    focus: str                   # the wrapped call this workload exists to load
    setup: tuple                 # what the child loads before the timed region
    argv: tuple = ()
    check_ball: bool = False     # compare sphere sizes with a BFS of Z x F2
    nf_configs: tuple = ()       # (config, generator names, oracle name)
    words_per_config: int = 0


HNN = "configs/hnn_z2.gog"
PADDED = "configs/abelian_pairs.gog"
TREFOIL = "configs/trefoil_amalgam.gog"
ZZ = "configs/free_product_zz.gog"

# Why each workload exists, the layer it loads and the changes it is the
# control for are in perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "ball-hnn", "cli", "certify.ball",
        setup=({"load": "config", "config": HNN, "coset_system": "edge-cosets"},),
        argv=("certify", HNN, "--what", "coset", "--system", "edge-cosets",
              "--radius", "1"),
        check_ball=True),
    Workload(
        "fellow-padded", "cli", "certify.fellow",
        setup=({"load": "config", "config": PADDED, "coset_system": "axis-padded"},),
        argv=("certify", PADDED, "--what", "coset", "--system", "axis-padded",
              "--radius", "9")),
    Workload(
        "trefoil-crossover", "cli", "experiments.coset_rep",
        setup=({"load": "trefoil"},),
        argv=("experiment", "trefoil", "--radius", "3", "--lambda-max", "2")),
    Workload(
        "nf-batch", "nf", "cascade.normal_form",
        setup=tuple({"load": "config", "config": c} for c in (TREFOIL, HNN, ZZ)),
        nf_configs=((TREFOIL, ("a", "b"), "trefoil"),
                    (HNN, ("x1", "x2", "s_f"), "hnn"),
                    (ZZ, ("a", "b"), "zz")),
        words_per_config=1000),
)}


def load_bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def expected_stdout(workload: Workload) -> str:
    return (BENCH / "expected" / f"{workload.name}.txt").read_text()


# -- inputs ----------------------------------------------------------------------

def generate_words(workload: Workload, seed: int) -> list:
    """(config, word text) pairs, interleaved over the configs.  Lengths are
    uniform in NF_LENGTHS; a VARIANT_SHARE of the words are an earlier
    word of the same config with a cancelling pair inserted, so that equal
    elements with different spellings occur."""
    rng = random.Random(f"{workload.name}:{seed}")
    history = {config: [] for config, _g, _o in workload.nf_configs}
    out = []
    for _ in range(workload.words_per_config):
        for config, gens, _oracle in workload.nf_configs:
            letters = [n for g in gens for n in (g, g + "^-1")]
            earlier = [w for w in history[config][-50:] if len(w) + 2 <= NF_LENGTHS[1]]
            if earlier and rng.random() < VARIANT_SHARE:
                base = rng.choice(earlier)
                i = rng.randrange(len(letters))
                pos = rng.randint(0, len(base))
                word = base[:pos] + [letters[i], letters[i ^ 1]] + base[pos:]
            else:
                n = rng.randint(*NF_LENGTHS)
                word = [rng.choice(letters) for _ in range(n)]
            history[config].append(word)
            out.append((config, " ".join(word)))
    return out


def hash_seed(seed: int, workload: str, index: int, traced: bool) -> int:
    digest = hashlib.sha256(f"{seed}:{workload}:{index}:{int(traced)}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# -- references ------------------------------------------------------------------

def _oracle_module():
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles
    return oracles


def oracle_keys() -> dict:
    """Oracle name -> (alphabet, key function), built from tests/oracles.py."""
    o = _oracle_module()
    from higgins.words import Alphabet
    tref = Alphabet(["a", "b"])
    table = o.trefoil_letter_table(tref)
    zz = Alphabet(["a", "b"])
    zz_table = o.zz_vertex_table(zz)
    hnn = Alphabet(["x1", "x2", "s_f"])
    return {
        "trefoil": (tref, lambda w: o.trefoil_key(w, table)),
        "zz": (zz, lambda w: o.syllables(w, zz_table)),
        "hnn": (hnn, o.hnn_z2_key),
    }


def hnn_sphere_sizes(radius: int) -> list:
    """Sphere sizes of Z x F2 = HNN(Z^2, <x1>) by breadth-first search over
    the oracle key of tests/oracles.py."""
    o = _oracle_module()
    from higgins.words import Alphabet, Word
    alpha = Alphabet(["x1", "x2", "s_f"])
    seen = {o.hnn_z2_key(alpha.empty())}
    frontier = [()]
    sizes = [1]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for x in range(len(alpha)):
                w = u + (x,)
                k = o.hnn_z2_key(Word(alpha, w))
                if k not in seen:
                    seen.add(k)
                    nxt.append(w)
        frontier = nxt
        sizes.append(len(nxt))
    return sizes


class NfChecker:
    """Checks normal forms against the oracles: each normal form must have
    the key of its input word, and words with equal keys must get equal
    normal forms.  Oracle keys are memoized per word text."""

    def __init__(self, workload: Workload, words: list):
        self.keys = oracle_keys()
        self.oracle_of = {c: o for c, _g, o in workload.nf_configs}
        self.words = words
        self._memo = {}

    def key(self, config, text):
        hit = self._memo.get((config, text))
        if hit is None:
            alpha, fn = self.keys[self.oracle_of[config]]
            hit = self._memo[(config, text)] = fn(alpha.word(text))
        return hit

    def failures(self, nfs: list) -> int:
        if len(nfs) != len(self.words):
            return len(self.words)
        bad = 0
        nf_of_key = {}
        for (config, text), nf in zip(self.words, nfs):
            try:
                good = self.key(config, nf) == self.key(config, text)
            except Exception:   # an unparsable normal form is a wrong output
                good = False
            k = (config, self.key(config, text))
            if nf_of_key.setdefault(k, nf) != nf:
                good = False
            bad += not good
        return bad


# -- one child -------------------------------------------------------------------

def child_env(hashseed: int) -> dict:
    """The parent's environment without HIGGINS_JOBS, with the child's hash
    seed, and with bytecode caching on whatever the caller's setting."""
    drop = ("HIGGINS_JOBS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def pin_to_one_cpu():
    """Keep this process and the children it spawns on one CPU, so that a
    child and its calibration kernel run on the same one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def warm_bytecode_cache():
    """Compile the package once, untimed, so that every measured child finds
    its bytecode cached, as an installed package would."""
    subprocess.run([sys.executable, "-c", "import higgins.cli"], cwd=ROOT,
                   env=child_env(0), check=True, timeout=60)


def spawn(spec: dict, hashseed: int, timeout: float) -> dict:
    """Run one child to completion; a crash, a timeout or a nonzero exit is
    returned as an error."""
    spec = dict(spec)
    spec["t_spawn"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py")], cwd=ROOT, env=child_env(hashseed),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"child timed out after {timeout:.0f} s", "hashseed": hashseed}
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        result = {"error": f"child exited {proc.returncode}: {err[-2000:]}"}
    if proc.returncode != 0 and "error" not in result:
        result["error"] = f"child exited {proc.returncode}: {err[-2000:]}"
    result["hashseed"] = hashseed
    result["stderr"] = err
    return result


def to_reference_speed(rep: dict):
    """Add setup_s and verdict_s, the run's wall times taken to the
    reference speed, and the speed factor used for them."""
    before, after = rep["calibration_s"]
    rep["speed_factor"] = CALIBRATION_REF_S / ((before + after) / 2)
    rep["setup_s"] = rep["setup_wall_s"] * CALIBRATION_REF_S / before
    rep["verdict_s"] = rep["verdict_wall_s"] * rep["speed_factor"]


def child_spec(workload: Workload, words: list, trace: bool) -> dict:
    spec = {"kind": workload.kind, "setup": list(workload.setup), "trace": trace,
            "focus": workload.focus, "capture_balls": workload.check_ball}
    if workload.kind == "cli":
        spec["argv"] = list(workload.argv)
    else:
        spec["words"] = words
    return spec


# -- one invocation ----------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else None


def _output_of(rep):
    return rep.get("stdout", rep.get("nf"))


def machine_info() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "HIGGINS_JOBS": "unset in every child",
        "jobs": 1,
        "threads_per_child": 1,
        "loop": "closed, one caller",
    }


class Tally:
    """Outputs checked, outputs found wrong, and what was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, checked: int, wrong: int, problem: str):
        self.attempted += checked
        self.failed += wrong
        if wrong:
            self.problems.append(problem)


def check_runs(workload: Workload, words: list, runs: list, tally: Tally):
    """Compare every run's output with the independent references."""
    checker = NfChecker(workload, words) if workload.kind == "nf" else None
    expected = expected_stdout(workload) if workload.kind == "cli" else None
    spheres = {}
    for rep in runs:
        tag = f"hash seed {rep['hashseed']}"
        if "error" in rep:
            n = len(words) if checker else 1
            tally.add(n, n, f"{tag}: {rep['error']}")
            continue
        if checker:
            bad = checker.failures(rep["nf"])
            tally.add(len(words), bad, f"{tag}: {bad} wrong normal forms")
        else:
            bad = rep["stdout"] != expected or rep["exit_code"] != 0
            tally.add(1, bad, f"{tag}: stdout or exit code {rep['exit_code']} "
                              "differs from the reference")
        for ball in rep.get("balls", ()):
            r = ball["radius"]
            if r not in spheres:
                spheres[r] = hnn_sphere_sizes(r)
            tally.add(1, ball["spheres"] != spheres[r],
                      f"{tag}: ball spheres {ball['spheres']} != BFS {spheres[r]}")
    if workload.check_ball:
        tally.add(1, not any(rep.get("balls") for rep in runs), "no Cayley ball was built")


def nf_latency(words: list, ok: list, verdict_s: float) -> dict:
    """Latencies of single normal forms pooled over the runs, each taken to
    the reference speed with its run's factor."""
    pooled = [x * r["speed_factor"] for r in ok for x in r["latency_us"]]
    cuts = statistics.quantiles(pooled, n=100)
    return {
        "words": len(words),
        "words_per_s": len(words) / verdict_s,
        "nf_p50_us": cuts[49], "nf_p99_us": cuts[98],
        "latency_samples": len(pooled),
        "samples_beyond_p99": sum(1 for x in pooled if x > cuts[98]),
    }


def trace_layers(traced: dict, ok: list, verdict_s: float, tally: Tally):
    """Per-layer metrics of the traced run, after its integrity checks:
    same output as the untraced runs, self times that add up to the traced
    verdict_s, and no wrapper left behind."""
    if "error" in traced:
        return None, None
    tally.add(1, bool(ok) and _output_of(traced) != _output_of(ok[0]),
              "traced output differs from the untraced output")
    gap = abs(traced["self_time_sum_s"] - traced["verdict_wall_s"])
    tally.add(1, gap > TRACE_SUM_TOLERANCE * traced["verdict_wall_s"],
              f"self times miss the traced region's wall time by {gap:.6f} s")
    tally.add(1, not traced["wrappers_removed"], "tracing wrappers were left installed")
    layers = dict(traced["layers"])
    layers["config.import_s"] = traced["import_s"]
    layers["config.load_s"] = traced["load_s"]
    layers["trace.overhead"] = traced["verdict_s"] / verdict_s if verdict_s else 0.0
    info = {
        "verdict_s": traced["verdict_s"], "verdict_wall_s": traced["verdict_wall_s"],
        "untraced_verdict_s": verdict_s,
        "self_time_sum_s": traced["self_time_sum_s"],
        "tolerance": TRACE_SUM_TOLERANCE, "hash_seed": traced["hashseed"],
        "spans": len(traced["trace"]["spans"]),
    }
    return layers, info


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 min_reps: int = MIN_REPS) -> dict:
    """Measure one workload: the runs, their checks and the metrics."""
    t_start = time.monotonic()
    load_start = os.getloadavg()
    words = generate_words(workload, seed) if workload.kind == "nf" else []
    spec = child_spec(workload, words, trace=False)

    def budget():
        return max(10.0, RUN_BUDGET_S - (time.monotonic() - t_start))

    reps = []
    while len(reps) < min_reps or time.monotonic() - t_start < seconds:
        reps.append(spawn(spec, hash_seed(seed, workload.name, len(reps), False), budget()))
    traced = None
    if trace:
        traced = spawn(child_spec(workload, words, trace=True),
                       hash_seed(seed, workload.name, 0, True), budget())
    load_end = os.getloadavg()

    # every check runs here, after the children have ended
    tally = Tally()
    check_runs(workload, words, reps + ([traced] if traced else []), tally)
    ok = [rep for rep in reps if "error" not in rep]
    for rep in ok + ([traced] if traced and "error" not in traced else []):
        to_reference_speed(rep)
    metrics = {
        "setup_s": (_median([r["setup_s"] for r in ok]), "s"),
        "verdict_s": (_median([r["verdict_s"] for r in ok]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in ok]), "MB"),
    }
    info = {
        "workload": workload.name, "seed": seed, "runs": len(reps),
        "hash_seeds": [r["hashseed"] for r in reps],
        "samples": {"setup_s": len(ok), "verdict_s": len(ok), "peak_rss_mb": len(ok)},
        "wall_medians": {"setup_s": _median([r["setup_wall_s"] for r in ok]),
                         "verdict_s": _median([r["verdict_wall_s"] for r in ok])},
        "calibration_ref_s": CALIBRATION_REF_S,
        "calibration_s": [r["calibration_s"] for r in ok],
        "machine": machine_info(),
        "loadavg_start": load_start, "loadavg_end": load_end,
        "wall_s": time.monotonic() - t_start,
    }
    if workload.kind == "nf" and ok:
        info["nf"] = nf_latency(words, ok, metrics["verdict_s"][0])
    layers = None
    if traced is not None:
        layers, info["trace"] = trace_layers(traced, ok, metrics["verdict_s"][0], tally)
    info["fail_frac"] = tally.failed / tally.attempted
    info["problems"] = tally.problems[:20]
    return {"workload": workload, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "layers": layers, "info": info, "reps": reps,
            "traced": traced}


# -- output ------------------------------------------------------------------------

def result_metrics(result: dict, trace: bool, bench: dict) -> dict:
    """The metrics of the final line: every end-to-end metric, or with
    --trace 1 every per-layer metric."""
    if not trace:
        return {name: {"value": v, "unit": unit}
                for name, (v, unit) in result["metrics"].items() if v is not None}
    layers = result["layers"] or {}
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in bench["per_layer"] if m["name"] in layers}


def write_record(result: dict, seed: int, trace: bool):
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    record = {k: v for k, v in result.items() if k != "workload"}
    record["workload"] = result["workload"].name
    for rep in record["reps"]:
        rep.pop("nf", None)
        rep.pop("latency_us", None)
    path = out_dir / f"{record['workload']}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w") as fh:
        json.dump(record, fh)


def summary_lines(result: dict, metrics: dict) -> list:
    name = result["workload"].name
    lines = [f"{name} {m} {v['value']:.6g} {v['unit']}" for m, v in metrics.items()]
    nf = result["info"].get("nf")
    if nf:
        lines.append(f"{name} words_per_s {nf['words_per_s']:.6g} 1/s")
        lines.append(f"{name} nf_p50_us {nf['nf_p50_us']:.6g} us "
                     f"(of {nf['latency_samples']} samples)")
        lines.append(f"{name} nf_p99_us {nf['nf_p99_us']:.6g} us "
                     f"({nf['samples_beyond_p99']} samples beyond it)")
    lines.append(f"{name} fail_frac {result['info']['fail_frac']:.6g} ratio "
                 f"({result['failed']} of {result['attempted']} outputs)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/higgins/cli.py", "tests/oracles.py", "BENCHMARK.json",
                           "configs/hnn_z2.gog") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a higgins checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    warm_bytecode_cache()
    bench = load_bench_spec()
    trace = bool(args.trace)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    final = {}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
        write_record(result, args.seed, trace)
        metrics = result_metrics(result, trace, bench)
        for line in summary_lines(result, metrics):
            print(line)
        print(json.dumps({"info": result["info"]}))
        if not metrics:
            print(f"error: {name}: no run produced measurements", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        if len(names) == 1:
            final = metrics
        else:
            final.update({f"{name}.{m}": v for m, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

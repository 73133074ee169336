"""One measured run of a workload, in a fresh interpreter.

Reads a JSON spec on stdin, sets up (imports higgins, loads the workload's
config and builds its system), times the workload's region, and prints one
JSON object on stdout.  The program's own stdout is captured inside the child
and returned for checking; the parent compares outputs after this process
has ended, so no check runs inside the timed region.

Right after set-up and right after the region the child times a fixed
calibration kernel, which does not touch higgins; the parent uses the two
times to take out the host's speed drift (see run.py).

Spec keys: t_spawn (time.monotonic() just before the parent spawned us),
setup (what to load), kind ("cli" or "nf"), argv or words, trace, focus,
capture_balls.
"""

import contextlib
import gc
import io
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _setup(spec):
    """Import the package and load the workload's systems; returns
    (import seconds, load seconds, systems by config path)."""
    t0 = time.perf_counter()
    import higgins
    from higgins import cli  # noqa: F401  (imports every module the CLI uses)
    t1 = time.perf_counter()
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.abspath(higgins.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"higgins imported from {higgins.__file__}, not from {src}")
    from higgins.config import load_config
    from higgins.experiments import trefoil_system
    systems = {}
    for item in spec["setup"]:
        if item["load"] == "trefoil":
            trefoil_system()
        elif item.get("coset_system"):
            load_config(item["config"]).coset_system(item["coset_system"])
        else:
            systems[item["config"]] = load_config(item["config"]).system()
    return t1 - t0, time.perf_counter() - t1, systems


def _run_cli(argv):
    from higgins import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"stdout": buf.getvalue(), "exit_code": code}


def _run_nf(words):
    clock = time.perf_counter
    out = []
    lat = []
    for system, w in words:
        t = clock()
        nf = system.normal_form(w)
        lat.append(clock() - t)
        out.append(nf)
    return {"nf": [str(nf) for nf in out], "latency_us": [1e6 * x for x in lat]}


class _BallCapture:
    """Keeps the Cayley balls built in the region so that their sphere sizes
    can be checked afterwards; one extra call per ball built."""

    def __init__(self):
        from higgins.certify import CayleyBall
        self.cls = CayleyBall
        self.init = CayleyBall.__init__
        self.balls = []
        init, balls = self.init, self.balls

        def capture(ball, *args, **kwargs):
            balls.append(ball)
            return init(ball, *args, **kwargs)
        CayleyBall.__init__ = capture

    def close(self):
        self.cls.__init__ = self.init
        out = []
        for ball in self.balls:
            sizes = [0] * (ball.radius + 1)
            for d in ball.dist:
                sizes[d] += 1
            out.append({"radius": ball.radius, "spheres": sizes})
        self.balls.clear()
        return out


def _calibration_kernel():
    """Fixed interpreter work of the kind higgins does: tuple keys, dict
    probes and fresh small objects, about 20 MB of them."""
    table = {}
    out = []
    for i in range(60000):
        key = (i % 4099, (i * 7) % 61, i & 3)
        prev = table.get(key)
        if prev is None:
            table[key] = prev = [key, len(out)]
        out.append((prev[1], key[0] + key[1]))
    return len(table) + len(out)


def peak_rss_mb() -> float:
    """Peak resident set of this process's own memory (VmHWM).  Not
    ru_maxrss: Linux carries the spawning process's peak across exec into
    ru_maxrss, so it would report the benchmark's parent when that is larger."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def calibrate() -> float:
    """Seconds the calibration kernel takes, with the garbage collector off.
    It runs in a forked copy of this process, so its memory does not count
    in this process's peak."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            gc.disable()
            t = time.perf_counter()
            _calibration_kernel()
            os.write(write_end, repr(time.perf_counter() - t).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        seconds = float(fh.read())
    os.waitpid(pid, 0)
    return seconds


def main():
    spec = json.load(sys.stdin)
    result = {"pid": os.getpid()}
    try:
        import_s, load_s, systems = _setup(spec)
        words = [(systems[c], systems[c].word(text)) for c, text in spec.get("words", ())]
        result["setup_wall_s"] = time.monotonic() - spec["t_spawn"]
        result["import_s"] = import_s
        result["load_s"] = load_s
        calibration = [calibrate()]
        capture = _BallCapture() if spec.get("capture_balls") else None
        tracer = None
        if spec["trace"]:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        work = (lambda: _run_cli(spec["argv"])) if spec["kind"] == "cli" else (
            lambda: _run_nf(words))
        if tracer is None:
            t0 = time.perf_counter()
            out = work()
            result["verdict_wall_s"] = time.perf_counter() - t0
        else:
            with tracer.region():
                out = work()
            result["verdict_wall_s"] = tracer.region_s
        result["peak_rss_mb"] = peak_rss_mb()
        calibration.append(calibrate())
        result["calibration_s"] = calibration
        if tracer is not None:
            from tracing import layer_metrics, self_time_sum
            result["wrappers_removed"] = tracer.uninstall()
            result["self_time_sum_s"] = self_time_sum(tracer)
            result["layers"] = layer_metrics(tracer, spec["focus"])
            result["trace"] = tracer.dump()
        if capture is not None:
            result["balls"] = capture.close()
        result.update(out)
    except Exception:
        result["error"] = traceback.format_exc()
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

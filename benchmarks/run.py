#!/usr/bin/env python3
"""swfair benchmark: three closed-loop workloads with certified outputs.

    python3 benchmarks/run.py --workload large --seed 0 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all      # every workload, both runs

Each workload runs in its own process with one caller: the next operation
starts when the previous one returns.  Its models are drawn from --seed and
written as model files before any timing; the program sees only those
files.  Outputs are kept in memory and certified after the timed loop by
``certify.py``, which does not use swfair.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with --trace 0 and the per-layer metrics (spans from
``layers.py``) with --trace 1.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads.  On the 2-core machine the
# benchmark was tuned on, a second OpenBLAS thread made `large` no faster
# (1.26 against 1.27 s a solve over 8 models) but tied its timing to the
# load on the other core.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import certify  # noqa: E402
from layers import Tracer  # noqa: E402
from models import SPECS, WARM_UP_INDEX, draw, write  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PASSES = 7
# Seconds the calibration unit takes at the reference speed (see Clock).
REFERENCE_S = 0.0017


def import_program():
    """Import swfair from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        modules = {name: importlib.import_module("swfair." + name)
                   for name in ("cli", "setfn", "split")}
    except ImportError as e:
        raise SystemExit("error: cannot import swfair from %s: %s" % (src, e))
    found = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in found.parents:
        raise SystemExit("error: swfair was imported from %s, not %s"
                         % (found, src))
    return modules


class Clock:
    """Times work in reference seconds.

    The machine's speed drifts by about 20% over tens of seconds, and every
    operation slows with it.  Each piece of work is bracketed by a fixed
    calibration unit of interpreter, JSON and numpy work that runs no
    swfair code.  A piece's time is scaled by REFERENCE_S over the median of
    the two units before and the two after it, so that drift common to the
    program and the unit cancels.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.doc = json.dumps({"k%d" % i: list(rng.random(4))
                               for i in range(200)})
        self.cover = rng.random((96, 288)) < 0.02
        self.h = rng.random(288)
        self.gram = rng.random((24, 24)) + 24.0 * np.eye(24)
        self.units = [self.unit()]
        self.raw = []

    def unit(self) -> float:
        start = perf_counter()
        json.loads(self.doc)
        table = {}
        for i in range(2500):
            table[i % 97] = table.get(i % 97, 0) + i * i
        for _ in range(4):
            np.logical_or.accumulate(self.cover, axis=0) @ self.h
            np.linalg.solve(self.gram, self.h[:24])
        return perf_counter() - start

    def time(self, fn, *args):
        """fn(*args), timed as the next piece of work."""
        start = perf_counter()
        out = fn(*args)
        self.raw.append(perf_counter() - start)
        self.units.append(self.unit())
        return out

    def scaled(self) -> list[float]:
        """Every piece's time so far, in reference seconds."""
        return [took * REFERENCE_S
                / statistics.median(self.units[max(0, i - 1):i + 3])
                for i, took in enumerate(self.raw)]


def call_cli(cli, argv):
    """``swfair <argv>`` in-process: (exit code, standard output)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0 and err.getvalue():
        print("swfair %s: %s" % (argv[0], err.getvalue().strip()),
              file=sys.stderr)
    return code, out.getvalue()


def users_mask(users, model):
    members = set(users)
    return np.array([u in members for u in model.users])


def rates_of(doc, model):
    return np.array([doc["rates"][u] for u in model.users], dtype=float)


class Workload:
    """Models of one workload and the operation run on each of them."""

    def __init__(self, name, seed, workdir, program):
        self.spec = SPECS[name]
        self.program = program
        self.models = [draw(seed, self.spec, k) for k in range(self.spec.count)]
        self.files = [write(m, self.spec.kind, workdir, "m%03d" % k)
                      for k, m in enumerate(self.models)]
        warm = draw(seed, self.spec, WARM_UP_INDEX, n=self.spec.warm_up_n)
        self.warm = write(warm, self.spec.kind, workdir, "warm")
        self.sources = []

    def set_up(self):
        """Load every model through the program's loader, then warm up."""
        load = self.program["setfn"].load_source
        self.sources = [load(f.model) for f in self.files]
        self.run(self.warm, load(self.warm.model))

    def op(self, k):
        return self.run(self.files[k], self.sources[k])

    def run(self, files, source):
        raise NotImplementedError

    def failed(self, out) -> bool:
        raise NotImplementedError

    def check(self, k, out) -> str | None:
        raise NotImplementedError


class Large(Workload):
    """``swfair egalitarian model.json --weights w.json --json``."""

    def run(self, files, source):
        return call_cli(self.program["cli"], [
            "egalitarian", str(files.model), "--weights", str(files.weights),
            "--json"])

    def failed(self, out):
        return out[0] != 0

    def check(self, k, out):
        model = self.models[k]
        doc = json.loads(out[1])
        weights = np.array([doc["weights"][u] for u in model.users])
        if not np.array_equal(weights, model.w):
            return "egalitarian echoed other weights than the file's"
        return certify.egalitarian(model, rates_of(doc, model))


class Sweep(Workload):
    """``split(source, WeightVector.ones(ground))`` on a loaded model."""

    def run(self, files, source):
        setfn, split_module = self.program["setfn"], self.program["split"]
        rates, _tree = split_module.split(
            source, setfn.WeightVector.ones(source.ground))
        return rates.rates

    def failed(self, out):
        return False

    def check(self, k, out):
        return certify.egalitarian(self.models[k], out)


class Audit(Workload):
    """egalitarian --out, shapley, verify of those rates, decompose."""

    def run(self, files, source):
        cli = self.program["cli"]
        model, weights = str(files.model), str(files.weights)
        return (
            call_cli(cli, ["egalitarian", model, "--weights", weights,
                           "--json", "--out", str(files.rates)]),
            call_cli(cli, ["shapley", model, "--json"]),
            call_cli(cli, ["verify", model, str(files.rates), "--json"]),
            call_cli(cli, ["decompose", model, "--weights", weights,
                           "--json"]),
        )

    def failed(self, out):
        # verify exits 4 for a non-member: a verdict, certified below
        return (out[0][0] != 0 or out[1][0] != 0 or out[2][0] not in (0, 4)
                or out[3][0] != 0)

    def check(self, k, out):
        model = self.models[k]
        egal, shap, verdict, dec = (json.loads(stdout) for _, stdout in out)
        rates = rates_of(egal, model)
        reason = certify.egalitarian(model, rates)
        if reason:
            return "egalitarian: " + reason
        reason = certify.shapley(model, rates_of(shap, model))
        if reason:
            return "shapley: " + reason
        if not verdict["in_region"] or out[2][0] != 0:
            return "verify rejects certified rates"
        chain = [users_mask(s, model) for s in dec["chain"]]
        reason = certify.decomposition(model, rates, dec["critical_values"],
                                       chain)
        return "decompose: " + reason if reason else None


WORKLOADS = {"large": Large, "sweep": Sweep, "audit": Audit}


def attempt(workload, k):
    """One operation; its output, or None if it raised."""
    try:
        return workload.op(k)
    except Exception as e:  # a crash is a failed operation, not a lost run
        print("operation on model %d raised %r" % (k, e), file=sys.stderr)
        return None


def certify_all(workload, outputs):
    """(failed count, first certificate failure or None)."""
    failed, wrong = 0, None
    seen = {}
    for k, out in outputs:
        if out is None or workload.failed(out):
            failed += 1
            continue
        key = (k, out.tobytes() if isinstance(out, np.ndarray) else out)
        if key not in seen:
            seen[key] = workload.check(k, out)
        if seen[key] and wrong is None:
            wrong = "model %d: %s" % (k, seen[key])
    return failed, wrong


def set_up(workload, clock, tracer=None):
    """SETUP_PASSES timed set-ups; the load layer's seconds in each."""
    loads = []
    for _ in range(SETUP_PASSES):
        workload.sources = []
        gc.collect()        # every pass starts from the same heap
        before = tracer.self_time["setfn.load"] if tracer else 0.0
        clock.time(workload.set_up)
        if tracer:
            loads.append(tracer.self_time["setfn.load"] - before)
    return loads


def measure(workload, seconds):
    """The closed loop with tracing off; end-to-end metrics."""
    clock = Clock()
    set_up(workload, clock)
    outputs = []
    start = perf_counter()
    while perf_counter() - start < seconds:
        k = len(outputs) % workload.spec.count
        outputs.append((k, clock.time(attempt, workload, k)))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = clock.scaled()
    passes, times = scaled[:SETUP_PASSES], scaled[SETUP_PASSES:]
    raw = clock.raw[SETUP_PASSES:]
    metrics = {
        "setup_s": (statistics.median(passes), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    notes = ["set-up passes (reference s): "
             + " ".join("%.4f" % t for t in passes),
             "operations timed: %d over %.2f s, unscaled p50 %.6f s"
             % (len(raw), sum(raw), statistics.median(raw)),
             "calibration unit: median %.6f s over %d samples (reference "
             "%.6f s)" % (statistics.median(clock.units), len(clock.units),
                          REFERENCE_S)]
    if len(times) >= 100:
        notes.append("op_s.p90 (reference, no bound): %.6f s"
                     % float(np.quantile(times, 0.9)))
    return metrics, outputs, notes, None


def measure_traced(workload, seconds):
    """Rounds of one untraced and one traced operation on the same model.

    The layer metrics are per traced operation; the paired timings give the
    tracing overhead.
    """
    clock = Clock()
    tracer = Tracer()
    with tracer:
        loads = set_up(workload, clock, tracer)
    tracer = Tracer()
    outputs = []
    start = perf_counter()
    while perf_counter() - start < seconds:
        k = len(outputs) // 2 % workload.spec.count
        outputs.append((k, clock.time(attempt, workload, k)))
        with tracer:
            outputs.append((k, clock.time(attempt, workload, k)))
    scaled = clock.scaled()
    plain = scaled[SETUP_PASSES::2]
    traced = scaled[SETUP_PASSES + 1::2]
    ops = len(traced)
    # layer seconds are scaled like the operations that contain them
    speed = statistics.median(
        s / r for s, r in zip(traced, clock.raw[SETUP_PASSES + 1::2]))
    snap = tracer.snapshot()
    self_s, calls, counts = snap["self_s"], snap["calls"], snap["counts"]

    def metric(value, unit):
        return (value * (speed if unit == "s/op" else 1.0) / ops, unit)

    metrics = {
        "setfn.load.setup_s": (statistics.median(loads) * speed, "s"),
        "setfn.load.s": metric(self_s["setfn.load"], "s/op"),
        "setfn.views.s": metric(self_s["setfn.views"], "s/op"),
        "setfn.oracle_evals": metric(counts.get("setfn.oracle_evals", 0),
                                     "count/op"),
    }
    for span in ("setfn.prefix_values", "setfn.all_values", "setfn.value",
                 "sfm.affine_minimizer"):
        metrics[span + ".calls"] = metric(calls[span], "count/op")
        metrics[span + ".s"] = metric(self_s[span], "s/op")
    for solver in ("exhaustive", "min_norm_point"):
        key = "sfm.solves." + solver
        metrics[key] = metric(counts.get(key, 0), "count/op")
    for span in ("sfm.solve", "split", "split.decompose",
                 "fairness.shapley_exact", "fairness.verify_membership",
                 "cli.build_parser", "cli"):
        metrics[span + ".s"] = metric(self_s[span], "s/op")
    recursion = [workload.program["split"].recursion_metrics(t)
                 for t in tracer.trees]
    for key, field in (("nodes", "node_count"), ("sum_size", "sum_size"),
                       ("max_size", "max_size"), ("depth", "depth")):
        value = (statistics.mean(m[field] for m in recursion)
                 if recursion else 0.0)
        metrics["split." + key] = (value, "count/split")
    overhead = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
    metrics["trace.overhead"] = (100.0 * overhead, "%")
    metrics["trace.op_s.p50"] = (statistics.median(traced), "s")
    notes = ["traced operations: %d, untraced p50 %.6f s, traced p50 %.6f s "
             "(reference seconds)" % (ops, statistics.median(plain),
                                      statistics.median(traced)),
             "split trees traced: %d" % len(tracer.trees)]
    trace_doc = {"spans": snap, "traced_ops": ops, "untraced_s": plain,
                 "traced_s": traced, "recursion": recursion}
    return metrics, outputs, notes, trace_doc


def run_one(args) -> dict:
    program = import_program()
    workdir = HERE / ".work" / ("%s-seed%d-pid%d" % (args.workload, args.seed,
                                                     os.getpid()))
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.workload, args.seed, workdir,
                                            program)
        measure_fn = measure_traced if args.trace else measure
        metrics, outputs, notes, trace_doc = measure_fn(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed, wrong = certify_all(workload, outputs)
    spec = workload.spec
    print("workload %s: %d %s models of %d users, seed %d, trace %d"
          % (args.workload, spec.count, spec.kind, spec.n, args.seed,
             args.trace))
    for note in notes:
        print("  " + note)
    print("  operations: %d attempted, %d failed" % (len(outputs), failed))
    print("  outputs certified: %s" % ("yes" if wrong is None else
                                       "NO - " + wrong))
    for name, (value, unit) in metrics.items():
        print("  %-30s %14.6g %s" % (name, value, unit))
    if trace_doc is not None:
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        path = results / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps(trace_doc, indent=1))
        print("  spans written to %s" % path.relative_to(ROOT))
    return {
        "correct": wrong is None,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit("error: %s (trace %d) exited %d"
                                 % (name, trace, proc.returncode))
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"]["%s.%s" % (name, metric)] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

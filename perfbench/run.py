"""rfhlab benchmark: four seeded workloads, checked answers, outside-in trace.

Run from the root of a source checkout (the package is imported from
``./src``; nothing is installed or built):

    python3 perfbench/run.py --workload cli-batch --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --all [--quick]      # every workload, both modes

Workloads: ``gf2-ladder`` and ``cli-batch``, the two BENCHMARK.json lists,
and ``selftest`` and ``flow-ladder``, which run.py keeps for the index
engine's and the flows' end-to-end times and the criterion 3 counts but
which are too unsteady on a shared 2-core host to gate on (see
workloads.py and RECORD.json for what each runs and why).

One run: set-up (a fresh import of the package, model builds, input
generation, one warm-up op) builds the workload.  Passes over its batch
then repeat until the next one would end past ``--seconds`` (at least the
workload's ``min_passes``, which are also the passes whose op latencies
give the percentiles).  With ``--trace 0`` another set-up round, built and
thrown away, runs before each pass, so the set-up rounds sample the host
over the whole run as the passes do; ``setup_s`` is their median.  The
run reports end-to-end metrics.  With ``--trace 1`` it makes one untraced
pass, then traced passes, and reports per-layer metrics from the traced
ones (counts from the first, times as medians).  Spans of the first traced
pass are written to ``.perfbench/spans-<workload>-s<seed>.csv``.  A traced
full ``selftest`` run at seed 0 also checks criterion 3's counts against
``layers.SEED0_CRIT3``.

Every op's answer is checked; each failure is printed by op.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Exit code 0 when the run completed (whatever the answers), 2
when the checkout holds no rfhlab sources.
"""

import os

# BLAS pools pinned to one thread (<= nproc) before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from tracer import Tracer, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("rsindex", "model", "gradflow", "hybrid", "grading", "z2complex", "acceptance", "cli")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB"}


def import_lab(src):
    """Fresh import of every rfhlab module from ``src``."""
    for key in [k for k in sys.modules if k == "rfhlab" or k.startswith("rfhlab.")]:
        del sys.modules[key]
    lab = SimpleNamespace(**{m: importlib.import_module(f"rfhlab.{m}") for m in MODULES})
    origin = os.path.dirname(os.path.abspath(lab.rsindex.__file__))
    if os.path.commonpath([origin, src]) != src:
        raise ImportError(f"rfhlab was imported from {origin}, not from {src}")
    return lab


def tail(samples):
    """Highest order statistic with at least ten samples beyond it (the
    maximum when there are too few): value, percentile, samples, beyond."""
    xs = sorted(samples)
    n = len(xs)
    k = n - 10 if n >= 11 else n
    return xs[k - 1], 100.0 * k / n, n, n - k


class Run:
    def __init__(self, args, root):
        self.args = args
        self.src = os.path.join(root, "src")
        self.out_dir = os.path.join(root, ".perfbench")
        self.workdir = os.path.join(self.out_dir, f"work-{args.workload}-{os.getpid()}")
        self.ops = []       # OpResults of measured passes
        self.pass_ops = []  # the same, one list per pass
        self.wrong = False

    def setup(self, workdir):
        """One set-up round in a fresh ``workdir``: the workload and its time."""
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        lab = import_lab(self.src)
        os.makedirs(workdir)
        wl = WORKLOADS[self.args.workload](lab, self.args.seed, workdir, self.args.quick)
        warm = wl.warm_up()
        seconds = time.perf_counter() - t0
        self.report(warm, "setup")
        return wl, seconds

    def report(self, results, tag):
        for r in results:
            if not r.ok:
                kind = "wrong answer" if r.wrong else "failed"
                print(f"FAIL {self.args.workload} {tag} op {r.name}: {kind}: {r.detail}")
            self.wrong = self.wrong or r.wrong

    def passes(self, wl, budget, first_tag, min_passes=None, before=None):
        """Passes until the next would end past the budget; returns pass times.
        ``before`` runs ahead of each pass, outside its time."""
        walls = []
        t_start = time.perf_counter()
        while True:
            if before is not None:
                before()
            tag = f"{first_tag}{len(walls) + 1}"
            t0 = time.perf_counter()
            results = wl.run_pass()
            walls.append(time.perf_counter() - t0)
            self.report(results, tag)
            self.ops.extend(results)
            self.pass_ops.append(results)
            elapsed = time.perf_counter() - t_start
            if len(walls) >= (min_passes or self.min_passes) and elapsed + walls[-1] > budget:
                return walls

    def measure(self):
        wl, first = self.setup(self.workdir)
        self.min_passes = 2 if self.args.quick else wl.min_passes
        if self.args.trace:
            return self.traced(wl)
        setups = [first]
        spare = self.workdir + "-setup"
        try:
            walls = self.passes(wl, self.args.seconds, "pass",
                                before=lambda: setups.append(self.setup(spare)[1]))
        finally:
            shutil.rmtree(spare, ignore_errors=True)
        # latency percentiles over a fixed number of passes, so every run
        # (and every commit) ranks the same mix of ops
        lat = [r.seconds for ops in self.pass_ops[: self.min_passes] for r in ops]
        tail_v, tail_p, n, beyond = tail(lat)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"note setup_s: median of {len(setups)} set-up rounds; wall_s: median of {len(walls)} "
              f"passes; op latency over the {n} ops of the first {self.min_passes} passes; "
              f"op_tail_ms is p{tail_p:.1f} ({beyond} samples beyond it)")
        return {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
                "op_p50_ms": 1000 * statistics.median(lat), "op_tail_ms": 1000 * tail_v,
                "peak_rss_mb": peak}

    def traced(self, wl):
        untraced = self.passes(wl, 0, "untraced", min_passes=1)
        tracer = Tracer()
        per_pass, problems, walls = [], [], []
        first_spans = None
        budget = max(self.args.seconds - untraced[0], 0)
        tracer.install()
        try:
            t_start = time.perf_counter()
            while True:
                tag = f"traced{len(walls) + 1}"
                tracer.reset()
                wl.facts.clear()
                wl.op_hook = lambda name, tag=tag: setattr(tracer, "op", f"{tag}.{name}")
                t0 = time.perf_counter()
                results = wl.run_pass()
                walls.append(time.perf_counter() - t0)
                values, bad = layers.compute(tracer.spans, wl.facts, tracer.loose_gen)
                per_pass.append(values)
                problems.extend(bad)
                if first_spans is None:
                    first_spans = list(tracer.spans)
                self.report(results, tag)
                self.ops.extend(results)
                if len(walls) >= 2 and time.perf_counter() - t_start + walls[-1] > budget:
                    break
        finally:
            tracer.uninstall()
            wl.op_hook = None

        metrics = {}
        for name, unit, _ in layers.PER_LAYER:
            if name.startswith("trace."):
                continue
            vals = [p[name] for p in per_pass]
            if unit in layers.COUNT_UNITS:
                metrics[name] = vals[0]
                if any(v != vals[0] for v in vals):
                    problems.append(f"{name} differs between traced passes: {vals}")
            else:
                metrics[name] = statistics.median(vals)
        if self.args.workload == "selftest" and self.args.seed == 0 and not self.args.quick:
            for name, want in layers.SEED0_CRIT3.items():
                if metrics[name] != want:
                    problems.append(f"{name} is {metrics[name]} at seed 0, reference {want}")
        metrics["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(untraced)
        metrics["trace.spans"] = per_pass[0]["trace.spans"]
        metrics["trace.selfcheck_failures"] = len(problems)
        for msg in problems:
            print(f"SELFCHECK {self.args.workload}: {msg}")
        os.makedirs(self.out_dir, exist_ok=True)
        write_spans(os.path.join(self.out_dir, f"spans-{self.args.workload}-s{self.args.seed}.csv"),
                    first_spans)
        return metrics

    def result(self, metrics):
        units = layers.UNITS if self.args.trace else END_TO_END_UNITS
        for name, value in metrics.items():
            print(f"metric {self.args.workload} {name} = {value:.6g} {units[name]}")
        failed = sum(1 for r in self.ops if not r.ok)
        attempted = len(self.ops)
        print(f"note fail_ratio = {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
        return {
            "correct": not self.wrong,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                        if k not in layers.UNGATED},
        }


def run_one(args):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rfhlab", "__init__.py")):
        print(f"no rfhlab sources under {os.path.join(root, 'src')}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    run = Run(args, root)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}"
          f"{' quick' if args.quick else ''}")
    try:
        metrics = run.measure()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    out = run.result(metrics)
    print(json.dumps(out, sort_keys=True))
    return 0


def run_all(args):
    """Every workload in a fresh process, untraced then traced."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.quick:
                cmd.append("--quick")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"workload {name} trace {trace}: exit {proc.returncode}")
                status = 1
                continue
            res = json.loads(lines[-1])
            print(f"result {name} trace {trace}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, two passes")
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

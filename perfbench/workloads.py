"""The four benchmark workloads, each a batch of checked operations.

A workload is built from the benchmark seed alone (model builds and input
generation happen in the constructor), then ``run_pass`` executes its whole
batch once.  Every pass of one run replays the same inputs, so work counts
repeat exactly.  Each operation is timed around the call into rfhlab only;
its answer is then checked against an oracle that does not come from the
code path being timed (closed forms, planted values, identities, earlier
passes).

An op fails when it raises, exits with a code the CLI contract does not
give, or disagrees with its oracle; an op that cannot run because one it
depends on failed is counted as failed too, so ``attempted`` is the same
at every commit.  Every failure marks the run as incorrect, except a CLI
rejection case (an op the contract expects to exit nonzero) that exits
with another code: it counts in ``failed`` only.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class OpResult:
    name: str
    seconds: float
    ok: bool
    wrong: bool = False  # the failure makes the run incorrect
    detail: str = ""


class Batch:
    """Shared op runner: times the call, then checks the value.

    ``min_passes`` is the number of passes whose op latencies give the
    run's percentiles; ops differ in cost by orders of magnitude, so a
    fixed count keeps each percentile on the same ops in every run.
    """

    min_passes = 2

    def __init__(self):
        self.op_hook = None  # called with the op name before each op (tracer)
        self.facts = Counter()  # per-pass totals the workload measures itself (cli bytes)

    def run_op(self, results, name, fn, check=None):
        if self.op_hook is not None:
            self.op_hook(name)
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # an op that raises is a failed op, reported by name
            results.append(OpResult(name, time.perf_counter() - t0, False, True,
                                    f"raised {type(exc).__name__}: {exc}"))
            return None
        elapsed = time.perf_counter() - t0
        problem = check(value) if check is not None else None
        if problem is None:
            results.append(OpResult(name, elapsed, True))
        else:
            wrong, message = problem
            results.append(OpResult(name, elapsed, False, wrong, message))
        return value


def _wrong(message):
    return (True, message)


def _skipped(results, names, cause):
    for name in names:
        results.append(OpResult(name, 0.0, False, False, f"not run: {cause} failed"))


# -- selftest -------------------------------------------------------------------


class Selftest(Batch):
    """Warm passes of the acceptance gate, ``run_criteria(None, seed)``.

    The gate is one call; its criteria are the ops, each timed by the
    ``elapsed`` of its AcceptanceResult.
    """

    min_passes = 4

    def __init__(self, lab, seed, workdir, quick):
        super().__init__()
        self.acc = lab.acceptance
        self.seed = seed
        self.which = self.acc.QUICK_SET if quick else None
        self.expected = sorted(self.which) if quick else list(range(1, 10))

    def warm_up(self):
        results = []
        self.run_op(results, "run_criteria[1]", lambda: self.acc.run_criteria([1], self.seed),
                    lambda rs: None if all(r.passed for r in rs) else _wrong("criterion 1 failed"))
        return results

    def run_pass(self):
        try:
            crits = self.acc.run_criteria(self.which, self.seed)
        except Exception as exc:
            return [OpResult(f"criterion_{k}", 0.0, False, True,
                             f"run_criteria raised {type(exc).__name__}: {exc}")
                    for k in self.expected]
        results = [OpResult(f"criterion_{r.criterion}", r.elapsed, r.passed, not r.passed,
                            "" if r.passed else f"seed {self.seed}: {r.name}: {r.details}")
                   for r in crits]
        for k in sorted(set(self.expected) - {r.criterion for r in crits}):
            results.append(OpResult(f"criterion_{k}", 0.0, False, True, "criterion not run"))
        return results


# -- flow ladder -------------------------------------------------------------------


class FlowLadder(Batch):
    """Perturbed starts flowed to convergence, plus hybrid relaxations.

    Controls and stable cones are the ones criterion 7 uses: Fourier
    cutoff 1, stop at a gradient of 1e-6.  The gradient's rounding floor
    grows with the grid (near 3e-7 on the free-period orbit, and up to
    1.01e-7 on some extended-orbit starts at nt=16384), so the 1e-7 default
    can leave a run stepping forever; the step cap turns such a stall into
    a failed op.  (``IntegrateControls()`` itself, with cutoff 2, diverges
    from every orbit start.)
    """

    min_passes = 3

    def __init__(self, lab, seed, workdir, quick):
        super().__init__()
        self.gf, self.hy = lab.gradflow, lab.hybrid
        gf = self.gf
        rng = np.random.default_rng(seed)
        nts = (256,) if quick else (256, 4096, 16384)
        ns = (1,) if quick else (1, 3)
        self.models = {n: lab.model.make_model(n=n) for n in ns}
        self.specs = []  # ("flow" | "relax", spec), grouped by (nt, n)
        for nt in nts:
            for n in ns:
                sy = self.models[n]
                for flavor in ("extended", "rabinowitz"):
                    for start in ("orbit", "constants"):
                        base = self._base(sy, start, nt, rng)
                        if flavor == "extended":
                            base = gf.lift_loop(base, sigma=float(rng.uniform(-0.5, 0.5)))
                        fp_orbit = flavor == "rabinowitz" and start == "orbit"
                        cone = dict(kmax=1, amplitude=3e-6 if fp_orbit else (1e-5 if start == "orbit" else 1e-4),
                                    rate_min=0.5 if fp_orbit else 2.0)
                        controls = gf.IntegrateControls(freq_cutoff=1, eps_stop=1e-6, max_steps=2000)
                        target = "orbit+1" if start == "orbit" else "constants"
                        self.specs.append(("flow", (f"flow.nt{nt}.n{n}.{flavor}.{start}", sy, base,
                                                    cone, controls, int(rng.integers(2**32)), target)))
                for start in ("orbit", "constants"):
                    base = self._base(sy, start, nt, rng)
                    cone = dict(kmax=1, amplitude=3e-6 if start == "orbit" else 1e-4,
                                rate_min=0.5 if start == "orbit" else 2.0)
                    self.specs.append(("relax", (f"hybrid.nt{nt}.n{n}.{start}", sy, base, cone,
                                                 float(rng.uniform(-0.5, 0.5)), int(rng.integers(2**32)))))

    def _base(self, sy, start, nt, rng):
        u = rng.standard_normal(sy.dim)
        u /= np.linalg.norm(u)
        if start == "orbit":
            return self.gf.discrete_orbit_loop(sy, 1, nt, base=u)
        return self.gf.discrete_constant_loop(sy, point=u, nt=nt)

    def _flow(self, results, spec):
        name, sy, base, cone, controls, s, target = spec
        gf = self.gf

        def op():
            start = gf.stable_perturbation(sy, base, np.random.default_rng(s), **cone)
            return gf.integrate(sy, start, controls)

        def check(value):
            d = value[1]
            bad = []
            if not d.converged:
                bad.append(f"not converged ({d.stop_reason})")
            if d.target_component != target:
                bad.append(f"reached {d.target_component}, start lies on {target}")
            if not d.actions_non_increasing:
                bad.append("action increased")
            if d.energy_identity_residual > 1e-6:
                bad.append(f"energy identity {d.energy_identity_residual:.3e}")
            if d.max_eta_residual > 1e-6:
                bad.append(f"multiplier ODE residual {d.max_eta_residual:.3e}")
            if d.max_zeta_drift > 1e-10:
                bad.append(f"zeta drift {d.max_zeta_drift:.3e}")
            if not (d.lem1_always and d.contained_always):
                bad.append("threshold implication or containment violated")
            return _wrong("; ".join(bad)) if bad else None

        self.run_op(results, name, op, check)

    def _relax(self, results, spec):
        name, sy, base, cone, sigma, s = spec
        gf, hy = self.gf, self.hy

        def op():
            start = gf.stable_perturbation(sy, base, np.random.default_rng(s), **cone)
            return hy.hybrid_relax(sy, hy.initial_hybrid_state(sy, start, sigma=sigma))

        def check(value):
            d = value[1]
            bad = []
            if not d.converged:
                bad.append("not converged")
            if max(d.coupling_residual_loop, d.coupling_residual_eta) > 1e-12:
                bad.append(f"coupling residual {max(d.coupling_residual_loop, d.coupling_residual_eta):.3e}")
            if not d.action_chain_ok:
                bad.append("action chain broken")
            return _wrong("; ".join(bad)) if bad else None

        self.run_op(results, name, op, check)

    def warm_up(self):
        results = []
        self._flow(results, self.specs[0][1])
        return results

    def run_pass(self):
        results = []
        for kind, spec in self.specs:
            (self._flow if kind == "flow" else self._relax)(results, spec)
        return results


# -- GF(2) ladder -------------------------------------------------------------------


def _planted_rank_matrix(rng, n, rank):
    """n x n GF(2) matrix of exactly the given rank: L[:, :r] U[:r, :],
    with unit-triangular factors, under random row and column permutations."""
    low = np.tril((rng.random((n, n)) < 0.5).astype(float), -1) + np.eye(n)
    up = np.triu((rng.random((n, n)) < 0.5).astype(float), 1) + np.eye(n)
    # a float product is exact for these 0/1 sums and far cheaper than int64
    a = (low[:, :rank] @ up[:rank, :]) % 2
    return a[rng.permutation(n)][:, rng.permutation(n)].astype(np.uint8)


class Gf2Ladder(Batch):
    """Inversion, products and elimination over GF(2), plus homology and
    instance files.

    Each map is inverted twice: the inverse, and the inverse of the inverse,
    which must give the map back.  Eight passes then put sixteen n=512
    inversions at the top of the latency ranking, so ``op_tail_ms`` falls
    inside them: an inversion's cost hardly depends on the seed, while that
    of the next slowest op, ``random_filtered_complex.g256``, varies by
    about 20% from seed to seed with the length of its Neumann series.
    """

    min_passes = 8

    def __init__(self, lab, seed, workdir, quick):
        super().__init__()
        z2 = self.z2 = lab.z2complex
        rng = np.random.default_rng(seed)
        self.sizes = (64,) if quick else (64, 256, 512)
        self.tri_seeds = {n: int(rng.integers(2**32)) for n in self.sizes}
        self.rank_n = self.sizes[-1]
        self.rank = int(self.rank_n - rng.integers(8, self.rank_n // 4))
        self.rank_matrix = _planted_rank_matrix(rng, self.rank_n, self.rank)
        self.complexes = []
        for g in ((64,) if quick else (64, 128, 256)):
            extras, expected = self._cycles(z2, rng, f"z{g}_")
            self.complexes.append((g, int(rng.integers(2**32)), extras, expected))
        # instance file: a planted complex and a chain map on its generators
        base = z2.random_filtered_complex(np.random.default_rng(int(rng.integers(2**32))), 64)
        extras, _ = self._cycles(z2, rng, "w")
        gens = list(base.generators) + extras
        pairs = [(a.id, b.id) for a in gens for b in gens
                 if a.action > b.action + 1e-9 and rng.random() < 0.1]
        self.instance = (z2.FilteredZ2Complex(gens, list(base.pairs)), z2.ChainMapMatrix(gens, pairs))
        self.instance_path = os.path.join(workdir, "instance.txt")

    @staticmethod
    def _cycles(z2, rng, prefix):
        """Isolated generators: each adds one to the Betti number of its degree."""
        k = int(rng.integers(1, 6))
        degs = [int(rng.integers(0, 4)) for _ in range(k)]
        extras = [z2.Generator(f"{prefix}{i}", d, float(rng.uniform(0.5, 3.5)))
                  for i, d in enumerate(degs)]
        expected = {d: degs.count(d) for d in range(4)}
        return extras, expected

    def _chain(self, results, n):
        z2 = self.z2
        eye = np.eye(n, dtype=np.uint8)
        later = [f"phi_invert.n{n}", f"phi_invert.inverse.n{n}", f"phi_matrix.n{n}",
                 f"gf2_matmul.pq.n{n}", f"gf2_matmul.qp.n{n}"]
        m = self.run_op(results, f"random_triangular.n{n}",
                        lambda: z2.random_triangular(np.random.default_rng(self.tri_seeds[n]), n),
                        lambda v: None if len(v.generators) == n else _wrong("wrong size"))
        if m is None:
            return _skipped(results, later, f"random_triangular.n{n}")
        inv = self.run_op(results, later[0], lambda: z2.phi_invert(m))
        if inv is None:
            return _skipped(results, later[1:], later[0])
        self.run_op(results, later[1], lambda: z2.phi_invert(inv),
                    lambda v: None if v.off_diag == m.off_diag else _wrong("inverse of the inverse != map"))
        mats = self.run_op(results, later[2], lambda: (z2.phi_matrix(m), z2.phi_matrix(inv)),
                           lambda v: None if v[0][0] == v[1][0] else _wrong("orders differ"))
        if mats is None:
            return _skipped(results, later[3:], later[2])
        p, q = mats[0][1], mats[1][1]
        for tag, a, b in (("pq", p, q), ("qp", q, p)):
            self.run_op(results, f"gf2_matmul.{tag}.n{n}", lambda a=a, b=b: z2.gf2_matmul(a, b),
                        lambda v: None if np.array_equal(v, eye) else _wrong(f"{tag} != I"))

    def _homology(self, results, spec):
        g, s, extras, expected = spec
        z2 = self.z2
        c = self.run_op(results, f"random_filtered_complex.g{g}",
                        lambda: z2.random_filtered_complex(np.random.default_rng(s), g))
        if c is None:
            return _skipped(results, [f"homology.g{g}"], f"random_filtered_complex.g{g}")

        def check(betti):
            got = {k: betti.get(k, 0) for k in range(4)}
            extra_keys = set(betti) - set(range(4))
            if got != expected or any(betti[k] for k in extra_keys):
                return _wrong(f"Betti {betti}, planted {expected}")
            return None

        self.run_op(results, f"homology.g{g}",
                    lambda: z2.homology(z2.FilteredZ2Complex(list(c.generators) + extras, list(c.pairs))),
                    check)

    def _roundtrip(self, results):
        z2 = self.z2
        c, m = self.instance

        def same(loaded):
            c2, m2 = loaded
            key = sorted((g.id, g.degree, g.action) for g in c.generators)
            if sorted((g.id, g.degree, g.action) for g in c2.generators) != key:
                return _wrong("generators differ after round trip")
            if c2.pairs != c.pairs or m2 is None or m2.off_diag != m.off_diag:
                return _wrong("boundary or chain map differs after round trip")
            return None

        self.run_op(results, "save_instance", lambda: z2.save_instance(self.instance_path, c, m))
        self.run_op(results, "load_instance", lambda: z2.load_instance(self.instance_path), same)

    def warm_up(self):
        results = []
        self._chain(results, self.sizes[0])
        return results

    def run_pass(self):
        results = []
        for n in self.sizes:
            self._chain(results, n)
        self.run_op(results, f"gf2_rank.n{self.rank_n}", lambda: self.z2.gf2_rank(self.rank_matrix),
                    lambda r: None if r == self.rank else _wrong(f"rank {r}, planted {self.rank}"))
        for spec in self.complexes:
            self._homology(results, spec)
        self._roundtrip(results)
        return results


# -- CLI batch ---------------------------------------------------------------------


def rotation_index(m: int, angle: float) -> int:
    """Closed-form index of t -> exp(t angle J_m) when angle/2pi is not an
    integer: m (1 + 2 floor(|angle| / 2pi)) with the sign of angle."""
    return int(math.copysign(m * (1 + 2 * math.floor(abs(angle) / (2 * math.pi))), angle))


class CliBatch(Batch):
    """In-process ``cli.main`` over file inputs and outputs."""

    min_passes = 14

    def __init__(self, lab, seed, workdir, quick):
        super().__init__()
        self.lab = lab
        rsi, z2 = lab.rsindex, lab.z2complex
        rng = np.random.default_rng(seed)
        self.dir = workdir
        self.first_outputs: dict[str, bytes] = {}
        # rotation paths for index --csv, sampled finely enough for the
        # cubic interpolation of CSV-loaded paths to resolve every crossing;
        # each turns between 1.1 and 1.9 times, so every seed meets the same
        # number of crossings
        self.rotations = []
        for m in (1, 2, 3):
            angle = 2 * math.pi * float(rng.uniform(1.1, 1.9)) * float(rng.choice([-1, 1]))
            path = rsi.rotation_path(m, angle, n_samples=2049)
            self.rotations.append((m, angle, path, os.path.join(workdir, f"rot{2 * m}.csv"),
                                   rotation_index(m, angle), rsi.rs_index(path).twice_value))
        # index --theta, plain and perturbed
        self.theta = [f"tau={rng.uniform(-5, 5):.6f}", f"hp={rng.uniform(0.5, 2):.6f}",
                      f"hpp={rng.choice([-1, 1]) * rng.uniform(0.5, 2):.6f}"]
        self.delta = float(rng.choice([-1, 1]) * 1e-3)
        vals = {k.split("=")[0]: float(k.split("=")[1]) for k in self.theta}
        theta = rsi.theta_path(vals["tau"], vals["hp"], vals["hpp"])
        self.theta_mem = (rsi.rs_index(theta).twice_value,
                          rsi.rs_index(rsi.perturbed_path(theta, self.delta)).twice_value)
        # complex --instance with planted Betti numbers and an invertible map
        base = z2.random_filtered_complex(np.random.default_rng(int(rng.integers(2**32))), 32)
        extras, self.betti = Gf2Ladder._cycles(z2, rng, "z")
        gens = list(base.generators) + extras
        pairs = [(a.id, b.id) for a in gens for b in gens
                 if a.action > b.action + 1e-9 and rng.random() < 0.15]
        self.instance = os.path.join(workdir, "instance.txt")
        z2.save_instance(self.instance, z2.FilteredZ2Complex(gens, list(base.pairs)),
                         z2.ChainMapMatrix(gens, pairs))
        # a CSV path with one NaN sample
        self.nan_csv = os.path.join(workdir, "nan.csv")
        rsi.save_path_csv(self.rotations[0][2], self.nan_csv)
        with open(self.nan_csv) as fh:
            lines = fh.read().splitlines()
        row = int(rng.integers(2, len(lines)))
        cells = lines[row].split(",")
        cells[int(rng.integers(1, len(cells)))] = "nan"
        lines[row] = ",".join(cells)
        with open(self.nan_csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        self.cli_seed = str(int(rng.integers(0, 10**6)))
        self.seed = str(seed)
        self.flow_nt = "256" if quick else "4096"

    # -- harness --------------------------------------------------------------

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.lab.cli.main(argv)
            except SystemExit as exc:  # argparse rejections
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # what the console script would turn into exit 1
                code = 1
                err.write(f"uncaught {type(exc).__name__}: {exc}\n")
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _size(path):
        if os.path.isdir(path):
            return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
        return os.path.getsize(path) if os.path.exists(path) else 0

    def _read_outputs(self, paths):
        blobs = {}
        for p in paths:
            if os.path.isdir(p):
                for f in sorted(os.listdir(p)):
                    with open(os.path.join(p, f), "rb") as fh:
                        blobs[os.path.join(p, f)] = fh.read()
            elif os.path.exists(p):
                with open(p, "rb") as fh:
                    blobs[p] = fh.read()
        return blobs

    def _cli(self, results, name, argv, expect=0, inputs=(), outputs=(), answer=None):
        """One CLI op: exit code against the contract, then the answer,
        then byte identity of every output file with the first pass."""
        for p in outputs:
            if os.path.isdir(p):
                for f in os.listdir(p):
                    os.remove(os.path.join(p, f))
            elif os.path.exists(p):
                os.remove(p)
        self.facts["cli.bytes_read"] += sum(self._size(p) for p in inputs)

        def check(value):
            code, out, err = value
            self.facts["cli.bytes_written"] += sum(self._size(p) for p in outputs)
            if code != expect:
                self.facts["cli.exit_mismatch"] += 1
                tail = (err.strip().splitlines() or [""])[-1][:160]
                return (expect == 0, f"exit {code}, contract says {expect}: {tail}")
            if answer is not None:
                problem = answer(out)
                if problem:
                    return _wrong(problem)
            for p, blob in self._read_outputs(outputs).items():
                first = self.first_outputs.setdefault(p, blob)
                if blob != first:
                    return _wrong(f"{os.path.basename(p)} differs from the first pass")
            return None

        self.run_op(results, name, lambda: self._call(argv), check)

    # -- ops -----------------------------------------------------------------------

    def _index_csv(self, results):
        rsi = self.lab.rsindex
        for m, angle, path, csv, closed, mem in self.rotations:
            self.run_op(results, f"save_path_csv.dim{2 * m}", lambda p=path, f=csv: rsi.save_path_csv(p, f))

            def answer(out, closed=closed, mem=mem):
                want = f"mu_rs = {closed}"
                if out.strip() != want or mem != 2 * closed:
                    return f"printed {out.strip()!r}, closed form {closed}, in memory {mem / 2:g}"
                return None

            self._cli(results, f"index.csv.dim{2 * m}", ["index", "--csv", csv],
                      inputs=[csv], answer=answer)

    def _index_theta(self, results):
        def answer_for(twice_mem, closed):
            def answer(out):
                if out.strip() != f"mu_rs = {closed}" or twice_mem != 2 * closed:
                    return f"printed {out.strip()!r}, closed form {closed}, in memory {twice_mem / 2:g}"
                return None
            return answer

        self._cli(results, "index.theta", ["index", "--theta", *self.theta],
                  answer=answer_for(self.theta_mem[0], 0))
        shift = -int(math.copysign(1, self.delta))
        self._cli(results, "index.theta.delta",
                  ["index", "--theta", *self.theta, "--delta", repr(self.delta)],
                  answer=answer_for(self.theta_mem[1], shift))

    def _grade(self, results):
        out_csv = os.path.join(self.dir, "grade.csv")

        def answer(_):
            with open(out_csv) as fh:
                rows = [r.split(",") for r in fh.read().splitlines()[1:]]
            n = 3
            for ident, kind, _, dim_k, dim_l, mu_rs, mu_k, mu_l in rows:
                k = 0 if kind == "constants" else int(ident[len("orbit"):])
                if int(dim_k) != 2 * n - 1 or int(dim_l) != 2 * n or int(mu_l) != int(mu_k) - 1:
                    return f"row {ident}: dimensions or mu(Lambda) = mu(K) - 1 violated"
                if mu_rs != str(2 * k * (n - 1)):
                    return f"row {ident}: mu_rs {mu_rs}, closed form {2 * k * (n - 1)}"
                if kind == "constants" and int(mu_k) != 1 - n:
                    return f"constants mu_K {mu_k}, closed form {1 - n}"
            return None if len(rows) == 5 else f"{len(rows)} rows, expected 5"

        self._cli(results, "grade.n3", ["grade", "--n", "3", "--out", out_csv],
                  outputs=[out_csv], answer=answer)

    def _flow(self, results):
        snap = os.path.join(self.dir, "snapshot.json")
        diag = os.path.join(self.dir, "flow.csv")
        diag2 = os.path.join(self.dir, "flow_loop.csv")

        def converged(out):
            if "converged=True target=orbit+1" not in out:
                return f"flow did not reach orbit+1: {out.strip()!r}"
            return None

        # the step cap turns a flow stalled at its rounding floor into a failed op
        self._cli(results, "flow.nt" + self.flow_nt,
                  ["flow", "--nt", self.flow_nt, "--seed", self.cli_seed, "--steps", "2000",
                   "--snapshot", snap, "--out", diag], outputs=[snap, diag], answer=converged)
        self._cli(results, "flow.loop", ["flow", "--loop", snap, "--out", diag2],
                  inputs=[snap], outputs=[diag2], answer=converged)

    def _hybrid(self, results):
        out = os.path.join(self.dir, "hybrid.csv")
        self._cli(results, "hybrid", ["hybrid", "--amplitude", "3e-6", "--seed", self.cli_seed,
                                      "--out", out], outputs=[out],
                  answer=lambda o: None if "converged=True" in o else f"not converged: {o.strip()!r}")

    def _complex(self, results):
        out = os.path.join(self.dir, "complex.csv")

        def answer(_):
            with open(out) as fh:
                lines = fh.read().splitlines()
            got = {int(d): int(b) for d, b in (r.split(",") for r in lines[1:]) if d.isdigit()}
            if ({k: got.get(k, 0) for k in self.betti} != self.betti
                    or any(v for k, v in got.items() if k not in self.betti)):
                return f"Betti {got}, planted {self.betti}"
            if "phi_invertible,1" not in lines:
                return "chain map not reported invertible"
            return None

        self._cli(results, "complex", ["complex", "--instance", self.instance, "--out", out],
                  inputs=[self.instance], outputs=[out], answer=answer)

    def _selftest(self, results):
        out = os.path.join(self.dir, "selftest")
        os.makedirs(out, exist_ok=True)
        self._cli(results, "selftest.quick",
                  ["selftest", "--only", "1,2,4,5,6,9", "--seed", self.seed, "--out", out],
                  outputs=[out],
                  answer=lambda o: None if o.count("[PASS]") == 6 else f"not all passed: {o.strip()!r}")

    def _rejections(self, results):
        # every run is bounded by --steps; each must be refused with its documented code
        self._cli(results, "reject.nan_csv", ["index", "--csv", self.nan_csv, "--steps", "50"],
                  expect=2, inputs=[self.nan_csv])
        self._cli(results, "reject.flow_negative_tol", ["flow", "--tol", "-1", "--steps", "50"],
                  expect=2)
        self._cli(results, "reject.hybrid_escape", ["hybrid", "--amplitude", "1e-2", "--steps", "50"],
                  expect=3)

    def warm_up(self):
        results = []
        self._cli(results, "index.theta", ["index", "--theta", *self.theta])
        return results

    def run_pass(self):
        results = []
        self._index_csv(results)
        self._index_theta(results)
        self._grade(results)
        self._flow(results)
        self._hybrid(results)
        self._complex(results)
        self._selftest(results)
        self._rejections(results)
        return results


WORKLOADS = {
    "selftest": Selftest,
    "flow-ladder": FlowLadder,
    "gf2-ladder": Gf2Ladder,
    "cli-batch": CliBatch,
}

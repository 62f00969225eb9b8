"""Working-memory budgets of the ops that set a CLI batch's peak, and the
byte identity of the streamed writers and the part-block Hessian with the
one-batch versions they replaced, which stay here as reference oracles."""

import io
import json
import os
import tempfile
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfhlab import gradflow
from rfhlab.gradflow import (
    ExtendedLoop,
    RabinowitzLoop,
    discrete_orbit_loop,
    lift_loop,
    loop_to_json,
    reduced_hessian,
    second_variation,
)
from rfhlab.model import make_model
from rfhlab.rsindex import conjugate_path, perturbed_path, rotation_path, save_path_csv, theta_path
from symplectic_helpers import random_symplectic


def traced_peak_mib(fn) -> float:
    """tracemalloc's peak over one call of ``fn``, above what was traced
    when the call began, in MiB.  One untraced call first warms imports,
    caches and BLAS."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


# -- reference oracles: the versions that built everything at once ------------------


def ref_path_csv(path) -> str:
    """``save_path_csv``'s text as one string: every row, then one join."""
    d = path.dim
    header = ",".join(["t"] + [f"m{i}{j}" for i in range(d) for j in range(d)])
    rows = np.column_stack([path.ts, path.mats.reshape(len(path.ts), d * d)])
    template = ",".join(["%.17g"] * (d * d + 1))
    lines = [header] + [template % tuple(row.tolist()) for row in rows]
    return "\n".join(lines) + "\n"


def ref_loop_json(loop) -> str:
    """``loop_to_json``'s text as one ``json.dumps`` of the whole payload."""
    if isinstance(loop, RabinowitzLoop):
        payload = {"type": "rabinowitz", "x": loop.x.tolist(), "tau": loop.tau}
    else:
        payload = {"type": "extended", "x": loop.x.tolist(),
                   "eta": loop.eta.tolist(), "zeta": loop.zeta.tolist()}
    return json.dumps(payload, sort_keys=True) + "\n"


def ref_reduced_hessian(sys, loop, kmax):
    """B^T L B from one batch of every unit tangent."""
    basis = gradflow._fourier_basis(loop.nt, kmax)
    tangents = gradflow._unpack(loop, np.eye(gradflow._pack_dim(loop, kmax)), basis)
    cols = gradflow._pack(second_variation(sys, loop, tangents), basis)
    return 0.5 * (cols + cols.T)


def written(write, obj) -> tuple:
    """The texts ``write(obj, file)`` leaves in a file named by its path and
    in an open handle."""
    with tempfile.TemporaryDirectory() as tmp:
        name = os.path.join(tmp, "out")
        write(obj, name)
        with open(name, newline="") as fh:
            on_disk = fh.read()
    buf = io.StringIO()
    write(obj, buf)
    return on_disk, buf.getvalue()


# -- byte identity ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 3),
    n_samples=st.integers(2, 300),
    angle=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, n_samples=128, angle=2.5, seed=0)
@example(m=1, n_samples=129, angle=-2.5, seed=1)
@example(m=2, n_samples=256, angle=0.0, seed=2)
def test_path_csv_matches_the_one_string_writer(m, n_samples, angle, seed):
    # conjugating a rotation gives entries with every digit of %.17g in use
    # (turns up to 3 keep the coarsest grids within the path's own checks);
    # 128, 129 and 256 samples end exactly on, one past and two blocks in
    psi = random_symplectic(m, np.random.default_rng(seed))
    path = conjugate_path(rotation_path(m, angle, n_samples=n_samples), psi)
    want = ref_path_csv(path)
    assert written(save_path_csv, path) == (want, want)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["rabinowitz", "extended"]),
    n=st.integers(1, 3),
    nt=st.integers(1, 300),
    scale=st.sampled_from([1.0, 1e300, 1e-300, -0.0]),
    numpy_tau=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_loop_json_matches_one_dumps_of_the_payload(kind, n, nt, scale, numpy_tau, seed):
    # tau is a Python float from the discrete orbits and a numpy float64
    # from stable_perturbation; both must print the same
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((nt, 2 * n))
    if kind == "rabinowitz":
        tau = scale * float(rng.standard_normal())
        loop = RabinowitzLoop(x=x, tau=np.float64(tau) if numpy_tau else tau)
    else:
        loop = ExtendedLoop(x=x, eta=scale * rng.standard_normal(nt),
                            zeta=scale * rng.standard_normal(nt))
    want = ref_loop_json(loop)
    assert loop_to_json(loop) == want
    assert written(loop_to_json, loop) == (want, want)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["rabinowitz", "extended", "orbit", "lift", "constants"]),
    n=st.integers(1, 3),
    nt=st.integers(8, 64),
    kmax=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_reduced_hessian_matches_the_one_batch_assembly(kind, n, nt, kmax, seed):
    sy = make_model(n=n)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((nt, 2 * n))
    loop = {
        "rabinowitz": lambda: RabinowitzLoop(x=x, tau=float(rng.standard_normal())),
        "extended": lambda: ExtendedLoop(x=x, eta=rng.standard_normal(nt),
                                         zeta=rng.standard_normal(nt)),
        "orbit": lambda: discrete_orbit_loop(sy, int(rng.choice([-2, -1, 1, 2])), nt),
        "lift": lambda: lift_loop(discrete_orbit_loop(sy, 1, nt), float(rng.uniform(-1, 1))),
        "constants": lambda: gradflow.discrete_constant_loop(sy, nt=nt),
    }[kind]()
    want = ref_reduced_hessian(sy, loop, kmax)
    got = reduced_hessian(sy, loop, kmax)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.linalg.norm(want)


# -- budgets: the bracketed figure is the one-batch version's peak ---------------------


def test_reduced_hessian_memory_at_the_long_flow_start():
    # the start of `flow --nt 4096`: a lifted orbit at n 1, cutoff 1, so 12
    # reduced coordinates (4.44 MiB)
    sy = make_model(n=1)
    lift = lift_loop(discrete_orbit_loop(sy, 1, 4096))
    assert traced_peak_mib(lambda: reduced_hessian(sy, lift, kmax=1)) <= 1.5


def test_path_csv_memory(tmp_path):
    # the 2049-sample dim-6 path that a CLI batch writes and indexes (2.52 MiB)
    path = rotation_path(3, 7.0, n_samples=2049)
    name = str(tmp_path / "rot6.csv")
    assert traced_peak_mib(lambda: save_path_csv(path, name)) <= 0.5


def test_loop_json_memory(tmp_path):
    # the snapshot of `flow --nt 4096` (2.48 MiB)
    sy = make_model(n=1)
    lift = lift_loop(discrete_orbit_loop(sy, 1, 4096), sigma=0.3)
    name = str(tmp_path / "snapshot.json")
    assert traced_peak_mib(lambda: loop_to_json(lift, name)) <= 1.6


def test_perturbed_path_memory():
    # criterion 2's 2048-step build: at most four stacks of 2048 4 x 4
    # matrices at a time, 1 MiB (sequential build, with its stride-2 views
    # of one stack of 4097: 1.35 MiB)
    assert traced_peak_mib(lambda: perturbed_path(theta_path(2 * np.pi, 1.0, 1.0), 1e-3)) <= 1.2

import argparse
import contextlib
import copy
import filecmp
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfhlab import cli
from rfhlab.gradflow import discrete_orbit_loop, lift_loop, loop_to_json
from rfhlab.grading import components_to_json, model_components
from rfhlab.model import make_model, model_to_json
from rfhlab.rsindex import rotation_path, save_path_csv


def run(argv):
    return cli.main(argv)


def test_index_theta_prints_zero(capsys):
    assert run(["index", "--theta", "tau=1", "hp=1", "hpp=1"]) == 0
    assert "mu_rs = 0" in capsys.readouterr().out


def test_index_theta_perturbed(capsys):
    assert run(["index", "--theta", "tau=6.28", "hp=1", "hpp=1", "--delta", "1e-3"]) == 0
    assert "mu_rs = -1" in capsys.readouterr().out


def test_grade_constants_prints_one_minus_n(capsys):
    assert run(["grade", "--constants", "--n", "2"]) == 0
    assert "mu(K) = -1" in capsys.readouterr().out


def test_index_csv_input(tmp_path, capsys):
    path = rotation_path(1, 2 * np.pi, n_samples=257)
    csv = tmp_path / "rot.csv"
    save_path_csv(path, str(csv))
    assert run(["index", "--csv", str(csv)]) == 0
    assert "mu_rs = 2" in capsys.readouterr().out
    # a sampled path has no generator to perturb
    assert run(["index", "--csv", str(csv), "--delta", "1e-3"]) == 2
    assert "--delta" in capsys.readouterr().err


def test_config_errors_exit_two(capsys):
    assert run(["index", "--theta", "tau=1", "hp=1"]) == 2  # missing hpp
    assert run(["index"]) == 2  # neither source
    assert run(["grade", "--constants", "--n", "7"]) == 2  # unsupported dimension
    assert run(["complex", "--instance", "/nonexistent/file.txt"]) == 2
    capsys.readouterr()


def test_touching_path_through_csv_has_index_zero(tmp_path, capsys):
    # the angle 8 pi t (1 - t) touches 2 pi at t = 1/2 with a degenerate
    # crossing form and returns to 0: the path is homotopic to the identity
    # path with fixed endpoints, so its index is 0
    jmat = np.array([[0.0, -1.0], [1.0, 0.0]])

    def ev(t):
        th = 8 * np.pi * t * (1 - t)
        return np.cos(th) * np.eye(2) + np.sin(th) * jmat

    from rfhlab.rsindex import SymplecticPath

    ts = np.linspace(0, 1, 1025)
    p = SymplecticPath(ts, np.array([ev(t) for t in ts]), evaluator=ev)
    csv = tmp_path / "touch.csv"
    save_path_csv(p, str(csv))
    assert run(["index", "--csv", str(csv)]) == 0
    assert "mu_rs = 0" in capsys.readouterr().out


def test_hybrid_escape_exits_three(capsys):
    assert run(["hybrid", "--amplitude", "1e-2"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def _nan_csv(tmp_path):
    csv = tmp_path / "nan.csv"
    save_path_csv(rotation_path(1, 2 * np.pi, n_samples=9), str(csv))
    lines = csv.read_text().splitlines()
    cells = lines[4].split(",")
    cells[2] = "nan"
    lines[4] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    return str(csv)


def _loop_json(tmp_path):
    loop = tmp_path / "loop.json"
    loop_to_json(discrete_orbit_loop(make_model(n=1), 1, 16), str(loop))
    return str(loop)


def _short_loop_json(tmp_path):
    loop = tmp_path / "short.json"
    loop.write_text('{"type": "rabinowitz", "x": [[1, 0], [0, 1]], "tau": 1}')
    return str(loop)


@pytest.mark.parametrize("argv, named", [
    (["flow", "--tol", "-1", "--steps", "50"], "--tol"),
    (["flow", "--tol", "0"], "--tol"),
    (["flow", "--tol", "nan"], "--tol"),
    (["index", "--theta", "tau=1", "hp=1", "hpp=1", "--tol", "inf"], "--tol"),
    (["flow", "--steps", "0"], "--steps"),
    (["hybrid", "--steps", "-3"], "--steps"),
    (["flow", "--amplitude=-1e-5"], "--amplitude"),
    (["hybrid", "--amplitude", "nan"], "--amplitude"),
    (["hybrid", "--horizon", "0"], "--horizon"),
    (["hybrid", "--horizon", "-2"], "--horizon"),
    (["hybrid", "--horizon", "inf"], "--horizon"),
    (["index", "--csv", "NAN_CSV"], "data row 4, column 3"),
    (["flow", "--nt", "0"], "--nt"),
    (["flow", "--nt", "-4"], "--nt"),
    (["flow", "--nt", "3"], "--nt"),  # the orbit start would land on the constants
    (["flow", "--n", "0"], "--n must"),
    (["hybrid", "--n", "4"], "--n must"),
    (["flow", "--cutoff", "0"], "--cutoff"),
    (["hybrid", "--k", "2"], "--cutoff"),  # the orbit's own modes are cut off
    (["flow", "--sigma", "nan"], "--sigma"),
    (["hybrid", "--sigma", "inf"], "--sigma"),
    (["index", "--theta", "tau=1", "hp=1", "hpp=1", "--delta", "nan"], "--delta"),
    (["index", "--theta", "tau=nan", "hp=1", "hpp=1"], "tau"),
    # a --loop start is read as it is: the flags of a built start are refused
    (["flow", "--loop", "LOOP_JSON", "--nt", "8"], "--nt"),
    (["flow", "--loop", "LOOP_JSON", "--k", "2"], "--k"),
    (["flow", "--loop", "LOOP_JSON", "--start", "constants"], "--start"),
    (["flow", "--loop", "LOOP_JSON", "--flavor", "rabinowitz"], "--flavor"),
    (["flow", "--loop", "LOOP_JSON", "--sigma", "3"], "--sigma"),
    (["flow", "--loop", "LOOP_JSON", "--amplitude", "1e-2"], "--amplitude"),
    (["flow", "--loop", "LOOP_JSON", "--seed", "0"], "--seed"),
    (["flow", "--loop", "LOOP_JSON", "--n", "2"], "loop of dimension 2, but the model has --n 2"),
    # a loop's own grid meets the rule --nt meets: 2 cutoff + 2 samples
    (["flow", "--loop", "SHORT_LOOP_JSON", "--n", "1"], "N_t = 2 samples, but --cutoff 1"),
    (["flow", "--loop", "LOOP_JSON", "--cutoff", "8"], "N_t = 16 samples, but --cutoff 8"),
])
def test_bad_numbers_exit_two_naming_the_flag(tmp_path, capsys, argv, named):
    files = {"NAN_CSV": _nan_csv, "LOOP_JSON": _loop_json, "SHORT_LOOP_JSON": _short_loop_json}
    argv = [files[a](tmp_path) if a in files else a for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err


@pytest.mark.parametrize("payload, named", [
    ('{"x": [[1, 0], [0, 1]]}', "field 'type'"),
    ('{"type": "fixed", "x": [[1, 0], [0, 1]]}', "field 'type'"),
    ('{"type": "rabinowitz", "x": [[1, 0], [0, 1]]}', "field 'tau'"),
    ("[1]", "JSON object"),
    ('{"type": "rabinowitz", "x": [[1, 0], [0, 1]], "tau": [1]}', "field 'tau'"),
    ('{"type": "rabinowitz", "x": [[1, 0], [0]], "tau": 1}', "field 'x'"),
    ('{"type": "rabinowitz", "x": [1, 0], "tau": 1}', "field 'x'"),
    ('{"type": "extended", "x": [[1, 0], [0, 1]], "zeta": [0, 0]}', "field 'eta'"),
    ('{"type": "extended", "x": [[1, 0], [0, 1]], "eta": [0], "zeta": [0, 0]}', "field 'eta'"),
    ('{"type": "extended", "x": [[1, 0], [0, 1]], "eta": [0, 0], "zeta": "a"}', "field 'zeta'"),
])
def test_malformed_loop_file_exits_two_naming_the_field(tmp_path, capsys, payload, named):
    loop = tmp_path / "loop.json"
    loop.write_text(payload)
    assert run(["flow", "--loop", str(loop), "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err


def test_loop_file_named_like_json_text_is_read_as_a_file(tmp_path, monkeypatch, capsys):
    # a file name that starts with "[" is a path all the same, not JSON text
    monkeypatch.chdir(tmp_path)
    plain = _loop_json(tmp_path)
    (tmp_path / "[a].json").write_text((tmp_path / "loop.json").read_text())
    assert run(["flow", "--loop", plain, "--n", "1"]) == 0
    want = capsys.readouterr().out
    assert run(["flow", "--loop", "[a].json", "--n", "1"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("argv", [["grade", "--model"], ["grade", "--components"],
                                  ["flow", "--n", "1", "--loop"], ["complex", "--instance"],
                                  ["index", "--csv"]], ids=lambda argv: argv[-1])
def test_directory_as_input_file_exits_two_naming_it(tmp_path, capsys, argv):
    assert run([*argv, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(tmp_path) in err


def test_index_arithmetic_error_exits_four(tmp_path, capsys):
    # twice_mu_rs = 3 with dim_k = 3: mu(K) and mu(Lambda) would be half-integers
    table = tmp_path / "components.json"
    table.write_text('[{"id": "a", "kind": "orbit", "action": 1.0, "dim_k": 3, "n": 2, '
                     '"twice_mu_rs": 3}]')
    assert run(["grade", "--components", str(table)]) == 4
    assert "IndexArithmeticError" in capsys.readouterr().err


def test_invariant_violation_exits_four(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("gen a degree 1 action 1\ngen b degree 0 action 2\nbnd a b\n")
    assert run(["complex", "--instance", str(bad)]) == 4
    err = capsys.readouterr().err
    assert "invariant violated" in err and "Filtration" in err


def test_complex_subcommand_reports_homology(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text(
        "gen a degree 2 action 3\ngen b degree 1 action 2\n"
        "gen c degree 1 action 1.5\ngen d degree 0 action 1\n"
        "gen e degree 1 action 1.2\n"
        "bnd a b\nbnd a c\nbnd b d\nbnd c d\n"
    )
    out = tmp_path / "report.csv"
    assert run(["complex", "--instance", str(inst), "--out", str(out)]) == 0
    text = out.read_text()
    assert "degree,betti" in text
    assert "1,1" in text


def test_flow_subcommand_writes_diagnostics(tmp_path):
    out = tmp_path / "diag.csv"
    snap = tmp_path / "loop.json"
    code = run(["flow", "--start", "orbit", "--amplitude", "1e-5", "--seed", "4",
                "--out", str(out), "--snapshot", str(snap)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == ("step,s,action,grad_norm,energy_cum,eta_avg_residual,"
                      "zeta_drift,max_abs_H,containment")
    assert snap.exists()


def test_flow_outputs_are_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"diag_{tag}.csv"
        assert run(["flow", "--start", "orbit", "--amplitude", "1e-5",
                    "--seed", "11", "--out", str(out)]) == 0
        outs.append(str(out))
    assert filecmp.cmp(outs[0], outs[1], shallow=False)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_flow_rabinowitz_orbit_start_converges_with_its_defaults(tmp_path, capsys, seed):
    # a rabinowitz orbit start defaults to --amplitude 3e-6 and --tol 1e-6
    default, spelled = tmp_path / "default.csv", tmp_path / "spelled.csv"
    argv = ["flow", "--flavor", "rabinowitz", "--seed", str(seed)]
    assert run(argv + ["--out", str(default)]) == 0
    assert "flow: converged=True target=orbit+1" in capsys.readouterr().out
    assert run(argv + ["--amplitude", "3e-6", "--tol", "1e-6", "--out", str(spelled)]) == 0
    assert filecmp.cmp(default, spelled, shallow=False)
    if seed == 0:  # explicit flags still win: the extended defaults diverge here
        assert run(argv + ["--amplitude", "1e-5", "--tol", "1e-7", "--out", str(spelled)]) == 3
        assert "flow diverged" in capsys.readouterr().err


def test_flow_step_budget_exhausted_exits_three(tmp_path, capsys):
    out = tmp_path / "diag.csv"
    snap = tmp_path / "loop.json"
    assert run(["flow", "--steps", "5", "--out", str(out), "--snapshot", str(snap)]) == 3
    captured = capsys.readouterr()
    assert "flow: converged=False" in captured.out
    assert captured.err.startswith("numerical failure: step budget exhausted")
    assert len(out.read_text().splitlines()) == 1 + 6  # header, start row, 5 steps
    assert snap.exists()


def test_hybrid_not_converged_exits_three(tmp_path, capsys):
    out = tmp_path / "hyb.csv"
    assert run(["hybrid", "--amplitude", "3e-6", "--horizon", "0.05", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "hybrid: converged=False" in captured.out
    assert captured.err.startswith("numerical failure: plus end gradient")
    assert out.read_text().startswith("side,step,s,action,grad_norm")


@pytest.mark.parametrize("argv", [
    ["hybrid", "--amplitude", "3e-6", "--steps", "1"],
    ["hybrid", "--amplitude", "1e-2", "--steps", "50"],  # an escaping start
])
def test_hybrid_step_budget_exhausted_exits_three(tmp_path, capsys, argv):
    out = tmp_path / "hyb.csv"
    assert run(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    # a longer horizon would repeat the same steps, so the first sweep is the last
    assert "hybrid: converged=False sweeps=1" in captured.out
    assert "step budget of --steps" in captured.err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for side in ("minus", "plus"):
        assert max(int(r[1]) for r in rows if r[0] == side) <= int(argv[-1])


def test_hybrid_subcommand(tmp_path):
    out = tmp_path / "hyb.csv"
    assert run(["hybrid", "--start", "orbit", "--amplitude", "3e-6",
                "--sigma", "0.5", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("side,step,s,action,grad_norm")


def test_selftest_quick_subset(tmp_path, capsys):
    out = tmp_path / "st"
    assert run(["selftest", "--only", "1,2", "--seed", "0", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count("[PASS]") == 2
    assert (out / "selftest_report.csv").exists()
    assert (out / "selftest_details.json").exists()


def test_selftest_rejects_unknown_criterion(capsys):
    assert run(["selftest", "--only", "42"]) == 2
    capsys.readouterr()


def test_grade_component_table_roundtrip(tmp_path):
    from rfhlab.grading import components_to_json, model_components
    from rfhlab.model import make_model

    comps = model_components(make_model(n=2), ks=(1,))
    table = tmp_path / "table.json"
    table.write_text(components_to_json(comps))
    out = tmp_path / "report.csv"
    assert run(["grade", "--components", str(table), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("id,kind,action")
    assert any(line.startswith("orbit+1,") for line in lines)


def test_each_subcommand_declares_only_the_flags_it_reads():
    choices = cli.build_parser()._subparsers._group_actions[0].choices
    surface = {
        name: {a.option_strings[0] if a.option_strings else a.dest
               for a in p._actions if not isinstance(a, argparse._HelpAction)}
        for name, p in choices.items()
    }
    io_flags = {"--seed", "--out", "--format"}
    model = {"--model", "--n"}
    assert surface == {
        # index keeps --steps, unread, so that existing command lines still parse
        "index": io_flags | {"--tol", "--steps", "--theta", "--csv", "--form", "--delta",
                             "params"},
        "grade": io_flags | model | {"--constants", "--components", "--ks"},
        "flow": io_flags | model | {"--nt", "--tol", "--steps", "--loop", "--start", "--flavor",
                                    "--k", "--sigma", "--amplitude", "--cutoff", "--snapshot"},
        "hybrid": io_flags | model | {"--nt", "--steps", "--start", "--k", "--sigma",
                                      "--amplitude", "--cutoff", "--horizon"},
        "complex": io_flags | {"--instance"},
        "selftest": {"--seed", "--out", "--only"},
    }
    assert sum(len(flags) for flags in surface.values()) == 54


def test_the_parser_is_built_once_and_fresh_parsers_agree(tmp_path, capsys):
    argvs = [
        ["flow", "--nt", "64", "--seed", "2", "--format", "json"],
        ["index", "--theta", "tau=6.28", "hp=1", "hpp=1", "--delta", "1e-3"],
        ["flow", "--flavor", "rabinowitz", "--nt", "64"],
        ["flow", "--start", "constants", "--nt", "32", "--steps", "3"],
        ["grade", "--n", "2", "--format", "json"],
        ["flow", "--tol", "-1"],
        ["hybrid", "--nt", "32", "--amplitude", "3e-6"],
        ["index", "--theta", "tau=1", "hp=1", "hpp=1"],
    ]

    def outcomes(fresh):
        seen = []
        for i, argv in enumerate(argvs):
            if fresh:
                cli.build_parser.cache_clear()
            out = tmp_path / f"{fresh}-{i}.out"
            code = cli.main(argv + ["--out", str(out)])
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err,
                         out.read_text() if out.exists() else None))
        return seen

    cli.build_parser.cache_clear()
    once = outcomes(fresh=False)
    assert cli.build_parser.cache_info().misses == 1
    assert once == outcomes(fresh=True)
    assert [code for code, *_ in once] == [0, 0, 0, 3, 0, 2, 0, 0]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Input files the fuzzed command lines name by placeholder."""
    d = tmp_path_factory.mktemp("cli_fuzz")
    files = {name: str(d / name) for name in
             ("rot.csv", "nan.csv", "model.json", "loop.json", "inst.txt", "bad.txt")}
    save_path_csv(rotation_path(1, 2 * np.pi, n_samples=65), files["rot.csv"])
    save_path_csv(rotation_path(1, 2 * np.pi, n_samples=9), files["nan.csv"])
    with open(files["nan.csv"]) as fh:
        text = fh.read()
    with open(files["nan.csv"], "w") as fh:
        fh.write(text.replace("\n1,", "\nnan,", 1))
    sy = make_model(n=1)
    model_to_json(sy, files["model.json"])
    loop_to_json(discrete_orbit_loop(sy, 1, 16), files["loop.json"])
    with open(files["inst.txt"], "w") as fh:
        fh.write("gen a degree 1 action 2\ngen b degree 0 action 1\nbnd a b\n")
    with open(files["bad.txt"], "w") as fh:
        fh.write("gen a degree 1 action 1\ngen b degree 0 action 2\nbnd a b\n")
    files["missing.txt"] = str(d / "missing.txt")
    return files


INTS = ("0", "-1")
FLOATS = ("0", "-1", "nan", "inf")


def _command(name, *required, **optional):
    """Strategy for one subcommand's argv: each required strategy drawn, each
    optional flag absent or set to one of its values."""
    parts = list(required) + [
        st.one_of(st.just([]), st.sampled_from(values).map(lambda v, f=flag: [f"--{f}={v}"]))
        for flag, values in optional.items()
    ]
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


def _either(flag, values):
    return st.sampled_from([[f"--{flag}={v}"] for v in values])


_theta = st.tuples(*(st.sampled_from(FLOATS + ("1", "2")).map(lambda v, k=k: f"{k}={v}")
                     for k in ("tau", "hp", "hpp"))).map(lambda ps: ["--theta", *ps])
# flows and relaxations always get a small grid and step budget
_nt = _either("nt", INTS + ("3", "8", "64"))
_steps = _either("steps", INTS + ("1", "5", "50"))

ARGV = st.one_of(
    _command("index", _theta, tol=FLOATS + ("1e-6",), steps=("50",),
             delta=FLOATS + ("1e-3",), format=("csv", "json")),
    _command("index", _either("csv", ("rot.csv", "nan.csv", "missing.txt")),
             tol=FLOATS + ("1e-6",), delta=("1e-3",)),
    _command("grade", st.sampled_from([[], ["--constants"]]), n=INTS + ("1", "2"),
             model=("model.json",), ks=("1", "-1,2"), format=("csv", "json")),
    _command("flow", _nt, _steps, n=INTS + ("1", "2"), k=INTS + ("1", "2"),
             cutoff=INTS + ("1", "2"), sigma=FLOATS + ("0.3",), amplitude=FLOATS + ("1e-5",),
             tol=FLOATS + ("1e-6",), start=("orbit", "constants"),
             flavor=("extended", "rabinowitz"), loop=("loop.json",), format=("csv", "json")),
    _command("hybrid", _nt, _steps, n=INTS + ("1", "2"), k=INTS + ("1", "2"),
             cutoff=INTS + ("1", "2"), sigma=FLOATS + ("0.3",), amplitude=FLOATS + ("3e-6",),
             horizon=FLOATS + ("0.5",), start=("orbit", "constants"), format=("csv", "json")),
    _command("complex", _either("instance", ("inst.txt", "bad.txt", "missing.txt")),
             format=("csv", "json")),
)


@settings(max_examples=300, deadline=None)
@given(argv=ARGV)
@example(argv=["flow", "--nt=0", "--steps=5"])
def test_fuzzed_command_lines_exit_with_a_documented_code(cli_files, argv):
    # file placeholders name the module's input files
    argv = [f"{flag}={cli_files[value]}" if value in cli_files else f"{flag}{eq}{value}"
            for flag, eq, value in (a.partition("=") for a in argv)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), argv


# -- malformed input files -----------------------------------------------------------

_SY1 = make_model(n=1)
_LOOP1 = discrete_orbit_loop(_SY1, 1, 8)
# per file-reading flag: the command that reads it, the file kind its
# messages name, and valid file contents to start from
INPUT_FILES = {
    "--model": (["grade"], "model file", [json.loads(model_to_json(_SY1))]),
    "--components": (["grade"], "components file",
                     [json.loads(components_to_json(model_components(_SY1, ks=(1,))))]),
    "--loop": (["flow", "--n", "1"], "loop file",
               [json.loads(loop_to_json(_LOOP1)), json.loads(loop_to_json(lift_loop(_LOOP1)))]),
}
_NAN = float("nan")
# values of another type than each field's: a non-integral float is one for an integer
_INTEGER = ("1", [1], None, True, 1.5, _NAN)
_NUMBER = ("1", [1], None, True, _NAN, float("inf"))
_STRING = (1, ["orbit"], None, True)
_ARRAY = ("1", None, True, 1.5, _NAN, [1])
RETYPES = {"n": _INTEGER, "dim_k": _INTEGER, "twice_mu_rs": _INTEGER,
           "r0": _NUMBER, "r_plateau": _NUMBER, "h_thr": _NUMBER, "action": _NUMBER,
           "tau": _NUMBER, "id": _STRING, "kind": _STRING, "type": _STRING,
           "x": _ARRAY, "eta": _ARRAY, "zeta": _ARRAY}


@st.composite
def malformed_inputs(draw):
    """(flag, file contents, what stderr names): a valid file with one key
    dropped, one value retyped, or the top level wrapped in a list."""
    flag = draw(st.sampled_from(sorted(INPUT_FILES)))
    _, kind, valid = INPUT_FILES[flag]
    payload = copy.deepcopy(draw(st.sampled_from(valid)))
    how = draw(st.sampled_from(("drop", "retype", "wrap")))
    if how == "wrap":
        return flag, [payload], kind
    rows = payload if isinstance(payload, list) else [payload]
    record = rows[draw(st.integers(0, len(rows) - 1))]
    key = draw(st.sampled_from(sorted(record)))
    if how == "drop":
        del record[key]
    else:
        record[key] = draw(st.sampled_from(RETYPES[key]))
    return flag, payload, repr(key)


_MODEL, _ROWS, _LOOP = (INPUT_FILES[flag][2][0] for flag in ("--model", "--components", "--loop"))


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@settings(max_examples=200, deadline=None)
@given(case=malformed_inputs())
@example(case=("--model", {"n": 1}, "'r0'"))
@example(case=("--model", dict(_MODEL, n=1.7), "'n'"))
@example(case=("--components", [{k: v for k, v in _ROWS[0].items() if k != "twice_mu_rs"}],
               "'twice_mu_rs'"))
@example(case=("--components", [dict(_ROWS[1], twice_mu_rs=2.5)], "'twice_mu_rs'"))
@example(case=("--model", dict(_MODEL, r0=10**400), "'r0'"))  # no float holds it
# numpy reads a bool among numbers as a number
@example(case=("--loop", dict(_LOOP, x=[[1, 0], [0, True], [1, 0], [0, 1]]), "'x'"))
@example(case=("--loop", dict(_LOOP, x=[[1.5, 0], [0, False], [1, 0], [0, 1]]), "'x'"))
def test_malformed_input_file_exits_two_or_four_naming_it(input_dir, case):
    flag, payload, named = case
    path = input_dir / "input.json"
    path.write_text(json.dumps(payload))
    command, _, _ = INPUT_FILES[flag]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*command, flag, str(path)])
    assert code in (2, 4) and named in err.getvalue(), (code, err.getvalue())


def test_json_nested_past_the_parser_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    assert run(["grade", "--model", str(deep)]) == 2
    assert "nested too deeply" in capsys.readouterr().err

"""Source hygiene checks that need only the standard library."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rfhlab"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(os.sep, tau)\n") == [
        "line 2: pi"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _dotted(node) -> str:
    """``np.linalg.norm`` for the expression np.linalg.norm, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def wasteful_calls(source: str, per_sample: bool, gf2: bool = False) -> list[str]:
    """Calls that do wasted work on every call.

    Anywhere: ``einsum`` told to search a contraction path (optimize=True or
    a strategy name), a search repeated on every call, and ``einsum`` on
    three or more array operands, which contracts them in one naive loop
    where chained ``@`` products run on BLAS.  In the per-sample
    kernels (``per_sample``): ``np.roll``, two copies where slices do, and
    ``np.linalg.norm`` over an axis, a general reduction where
    ``model.radius`` gives the same floats.  In the GF(2) kernels (``gf2``):
    ``astype(np.float64)`` and ``astype(np.int64)``, twice the bytes of the
    float32 and int32 that hold 0/1 sums exactly below 2**24.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        keywords = {k.arg: k.value for k in node.keywords}
        optimize = keywords.get("optimize")
        if (name.split(".")[-1] == "einsum" and isinstance(optimize, ast.Constant)
                and (optimize.value is True or isinstance(optimize.value, str))):
            found.append(f"line {node.lineno}: {name}(..., optimize={optimize.value!r})")
        operands = [a for a in node.args if not isinstance(a, (ast.Constant, ast.List, ast.Tuple))]
        if name.split(".")[-1] == "einsum" and len(operands) >= 3:
            found.append(f"line {node.lineno}: {name} on {len(operands)} operands")
        if per_sample and name == "np.roll":
            found.append(f"line {node.lineno}: np.roll")
        if per_sample and name == "np.linalg.norm" and ("axis" in keywords or len(node.args) >= 3):
            found.append(f"line {node.lineno}: np.linalg.norm over an axis")
        cast = isinstance(node.func, ast.Attribute) and node.func.attr == "astype" and node.args
        if gf2 and cast and _dotted(node.args[0]) in ("np.float64", "np.int64"):
            found.append(f"line {node.lineno}: astype({_dotted(node.args[0])})")
    return found


PER_SAMPLE = ("gradflow.py", "model.py", "hybrid.py")


def test_wasteful_calls_are_found():
    source = ("a = np.roll(x, 1, axis=0)\nr = np.linalg.norm(x, axis=1)\n"
              "s = np.linalg.norm(x, None, -1)\nt = np.linalg.norm(x)\n"
              "f = np.einsum('ij,jk', a, b, optimize=True)\n"
              "g = einsum('ij,jk', a, b, optimize='greedy')\n"
              "h = np.einsum('ij,jk', a, b, optimize=['einsum_path', (0, 1)])\n")
    assert wasteful_calls(source, per_sample=True) == [
        "line 1: np.roll", "line 2: np.linalg.norm over an axis",
        "line 3: np.linalg.norm over an axis", "line 5: np.einsum(..., optimize=True)",
        "line 6: einsum(..., optimize='greedy')"]
    assert wasteful_calls(source, per_sample=False) == [
        "line 5: np.einsum(..., optimize=True)", "line 6: einsum(..., optimize='greedy')"]
    casts = ("p = (a.astype(np.float64) @ b).astype(np.int64) & 1\n"
             "q = a.astype(np.float32).astype(np.int32)\nr = np.float64(a)\n")
    assert wasteful_calls(casts, per_sample=False, gf2=True) == [
        "line 1: astype(np.int64)", "line 1: astype(np.float64)"]
    assert wasteful_calls(casts, per_sample=False) == []
    chains = ("u = np.einsum('nji,jk,nkl->nil', p, f, p)\nv = np.einsum('ij,jk', a, b)\n"
              "w = einsum(a, [0, 1], b, [1, 2], c, [2, 3])\nx = a.transpose(0, 2, 1) @ f @ a\n")
    assert wasteful_calls(chains, per_sample=False) == [
        "line 1: np.einsum on 3 operands", "line 3: einsum on 3 operands"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_wasteful_calls(path):
    assert wasteful_calls(path.read_text(), per_sample=path.name in PER_SAMPLE,
                          gf2=path.name == "z2complex.py") == []


# the calls that open a file themselves: ``open`` and numpy's file readers and writers
OPENERS = {"open", "loadtxt", "genfromtxt", "savetxt", "fromfile"}


def open_calls(source: str) -> list[str]:
    """Calls of ``open`` (bare, or as an attribute such as ``io.open`` or
    ``path.open``) and of ``np.loadtxt``, ``np.genfromtxt``, ``np.savetxt``
    and ``np.fromfile``, which open a path themselves: files are opened in
    ``_files.py`` alone, so that every writer keeps its path-or-handle-or-None
    rule and its chunked writes, and every reader its path-or-handle rule."""
    def name(func):
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")

    calls = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and name(node.func) in OPENERS]
    return [f"line {node.lineno}: {_dotted(node.func) or name(node.func)}("
            for node in sorted(calls, key=lambda node: node.lineno)]


def test_open_call_is_found():
    source = ("with open(p, 'w') as fh:\n    fh.write(t)\nf = io.open(p)\n"
              "g = pathlib.Path(p).open()\nh = opener(p)\nk = reopen(p)\n")
    assert open_calls(source) == ["line 1: open(", "line 3: io.open(", "line 4: open("]


def test_numpy_file_calls_are_found():
    source = ("a = np.loadtxt(p, delimiter=',')\nb = numpy.genfromtxt(p)\nnp.savetxt(p, a)\n"
              "c = np.fromfile(p)\nd = loadtxt(p)\ne = np.load_text(p)\nf = np.frombuffer(b)\n"
              "g = fh.loadtxt_rows(p)\n")
    assert open_calls(source) == ["line 1: np.loadtxt(", "line 2: numpy.genfromtxt(",
                                  "line 3: np.savetxt(", "line 4: np.fromfile(", "line 5: loadtxt("]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "_files.py"),
                         ids=lambda p: p.name)
def test_files_are_opened_in_files_module_alone(path):
    assert open_calls(path.read_text()) == []


def json_parse_calls(source: str) -> list[str]:
    """Calls of ``json.load`` and ``json.loads``: JSON is parsed in ``_files.py``
    alone, by ``read_json``, so that every JSON input takes its fields through
    ``read_record`` and one way to read files holds for JSON too."""
    calls = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and _dotted(node.func) in ("json.load", "json.loads")]
    return [f"line {node.lineno}: {_dotted(node.func)}("
            for node in sorted(calls, key=lambda node: node.lineno)]


def test_json_parse_call_is_found():
    source = ("a = json.loads(text)\nb = json.load(fh)\nc = json.dumps(a)\n"
              "d = pickle.loads(b)\ne = read_json(p)\nf = np.load(p)\n")
    assert json_parse_calls(source) == ["line 1: json.loads(", "line 2: json.load("]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "_files.py"),
                         ids=lambda p: p.name)
def test_json_is_parsed_in_files_module_alone(path):
    assert json_parse_calls(path.read_text()) == []


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; the package runs on numpy alone
    probe = "import sys, rfhlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def evaluator_keywords(source: str) -> list[str]:
    """Calls that pass ``evaluator=``, outside the class ``SymplecticPath``:
    a path built by rfhlab takes its off-sample values from its generator or
    its samples alone, and the closed-form evaluator is a seam for tests."""
    tree = ast.parse(source)
    own = {id(node) for cls in ast.walk(tree)
           if isinstance(cls, ast.ClassDef) and cls.name == "SymplecticPath" for node in ast.walk(cls)}
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.keyword) and node.arg == "evaluator" and id(node) not in own]
    return [f"line {node.lineno}: evaluator=" for node in sorted(found, key=lambda n: n.lineno)]


def test_evaluator_keyword_is_found():
    source = ("class SymplecticPath:\n    def copy(self):\n"
              "        return SymplecticPath(self.ts, self.mats, evaluator=self.evaluator)\n"
              "p = SymplecticPath(ts, mats, evaluator=f)\nq = SymplecticPath(ts, mats, generator=g)\n"
              "def build(evaluator=None):\n    return make(evaluator)\nr = build(evaluator=None)\n")
    assert evaluator_keywords(source) == ["line 4: evaluator=", "line 8: evaluator="]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_constructor_passes_an_evaluator(path):
    assert evaluator_keywords(path.read_text()) == []


ROOT = SRC.parents[1]
READERS = sorted(p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return _dotted(target).split(".")[-1] == "dataclass"


def read_names(source: str) -> set[str]:
    """The attribute names a module loads, and the strings it passes to calls
    (as in ``getattr(x, "name")``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Call):
            names.update(a.value for a in node.args
                         if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return names


def unread_fields(source: str, readers: list[str]) -> list[str]:
    """Dataclass fields declared in ``source`` that none of ``readers`` reads:
    a field that is written and never read is state that does nothing."""
    read = set().union(*map(read_names, readers))
    found = []
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list)):
            found += [f"line {node.lineno}: {cls.name}.{node.target.id}" for node in cls.body
                      if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                      and node.target.id not in read]
    return found


def test_unread_field_is_found():
    source = ("@dataclass\nclass Run:\n    s: list\n    frozen_from: float = 0.0\n    tag: str = ''\n"
              "@dataclasses.dataclass(frozen=True)\nclass Step:\n    ds: float\n    unused: int\n"
              "class Plain:\n    ignored: int = 0\n"
              "run.frozen_from = 1.0\nprint(run.s, getattr(step, 'ds'))\n")
    assert unread_fields(source, [source, "label = run.tag\n"]) == [
        "line 4: Run.frozen_from", "line 9: Step.unused"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_dataclass_field_is_read(path):
    assert unread_fields(path.read_text(), [p.read_text() for p in READERS]) == []

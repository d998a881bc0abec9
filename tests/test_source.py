"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "koopmpc"


def test_no_module_has_an_assert_statement():
    """Every check raises a typed error, so ``python -O``, which strips asserts, keeps them all."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


MUTABLE_BUILDERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"}


def _is_mutable_container(node):
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in MUTABLE_BUILDERS
    return False


def _targets(node):
    return {ast.unparse(t) for t in (node.targets if isinstance(node, ast.Assign) else [node.target])}


def _module_level_containers(name, allowed=frozenset()):
    """``file:line`` of each module-level assignment of a mutable container to a name not in ``allowed``."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    return [
        f"{name}:{node.lineno}"
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and node.value is not None
        and _is_mutable_container(node.value)
        and not _targets(node) <= allowed
    ]


def test_the_solver_layer_keeps_no_module_level_container():
    """``numerics`` stays free of caches: a table of solved problems belongs to its caller's scope."""
    found = _module_level_containers("numerics.py")
    assert not found, f"module-level containers in numerics.py: {found}"


# config.py's key lists are constants by use.
@pytest.mark.parametrize(
    "name",
    ["benchmark.py", "cli.py", "dynamics.py", "errors.py", "io.py", "observables.py", "sysid.py", "transfer.py"],
)
def test_the_model_layers_keep_no_module_level_container(name):
    """Plants, liftings, fits, chains, the benchmark, the CLI, errors and file io keep no state between calls either."""
    found = _module_level_containers(name)
    assert not found, f"module-level containers in {name}: {found}"


def test_the_condensation_memo_is_the_one_module_level_container_of_mpc():
    """``mpc.condensed`` keeps the last few condensations in ``_condensations``; nothing else in mpc.py is process-wide."""
    found = _module_level_containers("mpc.py", allowed={"_condensations"})
    assert not found, f"module-level containers in mpc.py: {found}"


def test_the_container_check_sees_each_form():
    for source in ("a = {}", "a = []", "a = {1}", "a: dict = dict()", "a = {k: 1 for k in b}",
                   "a = collections.OrderedDict()", "a = [x for x in b]", "a = set()"):
        (node,) = ast.parse(source).body
        assert _is_mutable_container(node.value), source
    for source in ("a = ()", "a = 1e-10", "a = frozenset()", "a = (1, 2)"):
        (node,) = ast.parse(source).body
        assert not _is_mutable_container(node.value), source
    for source, names in (("a = b = {}", {"a", "b"}), ("a: dict = {}", {"a"}), ("a.b = {}", {"a.b"})):
        (node,) = ast.parse(source).body
        assert _targets(node) == names, source


SEEDING_CALLS = {"SeedSequence", "default_rng", "Generator", "PCG64"}
SEEDING_FUNCTIONS = {("dynamics.py", "_index_streams"), ("benchmark.py", "derive_seed")}


def _seeding_calls(path):
    """``(file, function, line)`` of each call of a :data:`SEEDING_CALLS` name in ``path``.

    ``function`` is the outermost function the call sits in, or None at module level.
    """
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in SEEDING_CALLS:
                    found.append((path.name, function, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            visit(child, function or inner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def test_only_the_stream_helper_and_derive_seed_seed_generators():
    """Per-index streams are seeded in one pass by ``dynamics._index_streams``; no loop builds its own."""
    calls = [call for path in sorted(SRC.glob("*.py")) for call in _seeding_calls(path)]
    assert calls
    stray = [f"{name}:{line} in {function}" for name, function, line in calls if (name, function) not in SEEDING_FUNCTIONS]
    assert not stray, f"generators or seed sequences built outside the stream helper: {stray}"


def test_the_seeding_check_sees_each_form(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "g = np.random.default_rng(0)\n"
        "def f(seed):\n"
        "    def inner(i):\n"
        "        return default_rng(np.random.SeedSequence([seed, i]))\n"
        "    return inner\n"
        "class C:\n"
        "    def m(self):\n"
        "        return np.random.Generator(np.random.PCG64(1))\n",
        encoding="utf-8",
    )
    assert sorted(_seeding_calls(source), key=lambda c: c[2]) == [
        ("m.py", None, 3), ("m.py", "f", 6), ("m.py", "f", 6), ("m.py", "m", 10), ("m.py", "m", 10),
    ]


def _power_calls(source):
    """Line of each ``**``, ``**=``, ``pow(`` and ``power(`` (as ``np.power``) in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            found.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in {"pow", "power"}:
                found.append(node.lineno)
    return sorted(found)


def test_the_dictionary_lift_raises_no_power():
    """Powers are repeated products: numpy's pow picks its loop by shape, and its loops round differently."""
    assert _power_calls((SRC / "observables.py").read_text(encoding="utf-8")) == []


def test_the_power_check_sees_each_form():
    source = "import numpy as np\na = x ** 2\na **= 3\nb = np.power(x, 2)\nc = pow(x, 2)\nd = x * x\n"
    assert _power_calls(source) == [2, 3, 4, 5]

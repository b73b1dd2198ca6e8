import ast
import builtins
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from thetabsde.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SHIPPED = sorted(ROOT.glob("configs/*.cfg")) + sorted(
    ROOT.glob("perfbench/workloads/*.cfg"))


def test_every_traced_boundary_is_a_library_function():
    # the benchmark tracer wraps these by name; a renamed one would only
    # surface in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    for layer, name in tracer.FUNCTIONS:
        module = importlib.import_module(f"thetabsde.{layer}")
        assert callable(getattr(module, name, None)), f"{layer}.{name}"


@pytest.mark.parametrize("path", SHIPPED,
                         ids=[f"{p.parent.name}/{p.name}" for p in SHIPPED])
def test_shipped_configs_validate(tmp_path, capsys, path):
    # the benchmark fills its workloads' seed placeholder before a run
    cfg = tmp_path / path.name
    cfg.write_text(path.read_text().replace("$seed", "7"))
    assert main(["validate", str(cfg)]) == 0, capsys.readouterr().err


def test_validating_shipped_configs_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs about 20 ms on first import; building a config's
    # objects, point clouds included, must not need it
    paths = []
    for path in SHIPPED:
        cfg = tmp_path / f"{path.parent.name}_{path.name}"
        cfg.write_text(path.read_text().replace("$seed", "7"))
        paths.append(str(cfg))
    script = ("import sys\n"
              "from thetabsde.cli import main\n"
              "assert all(main(['validate', p]) == 0 for p in sys.argv[1:])\n"
              "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script, *paths], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_only_the_cli_imports_the_config_parser():
    # the library's checks live with the values they check; config maps
    # a file onto them, so no library module may depend on it
    importers = []
    for path in sorted((ROOT / "src" / "thetabsde").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                module = ".".join(filter(None, (
                    "thetabsde" if node.level else "", node.module)))
                names = {module} | {f"{module}.{a.name}" for a in node.names}
            elif isinstance(node, ast.Import):
                names = {a.name for a in node.names}
            else:
                continue
            if "thetabsde.config" in names:
                importers.append(path.name)
    assert importers == ["cli.py"]


def test_readme_config_example_validates(tmp_path, capsys):
    # a key that nothing reads is a config error, so the example may only
    # show keys that some builder reads
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(example)
    assert main(["validate", str(cfg)]) == 0, capsys.readouterr().err


# what ``quoted_signature`` returns for a name that names nothing
NAMES_NOTHING = object()
LIBRARY = [importlib.import_module(f"thetabsde.{p.stem}")
           for p in sorted((ROOT / "src" / "thetabsde").glob("[!_]*.py"))]
# `name(params)` in inline code, the name optionally dotted
QUOTED_CALL = re.compile(r"`((?:[A-Za-z_]\w*\.)*[A-Za-z_]\w*)\(([^`]*)\)`")


def quoted_signature(dotted):
    """The signature that a quote of ``dotted`` must match: a thetabsde
    function's or method's without ``self``, or a thetabsde class's
    constructor's (``engine.backward_sweep``, ``_Basis.measure``,
    ``TimeGrid``). None for a name outside the library, such as a builtin
    or a numpy name under ``np``; ``NAMES_NOTHING`` when no such name
    exists."""
    head, *rest = dotted.split(".")
    owner, obj = None, vars(builtins).get(head, NAMES_NOTHING)
    for module in LIBRARY:
        if module.__name__ == f"thetabsde.{head}":
            obj = module
        elif hasattr(module, head):
            owner, obj = module, getattr(module, head)
        else:
            continue
        break
    for name in rest:
        owner, obj = obj, getattr(obj, name, NAMES_NOTHING)
    if obj is NAMES_NOTHING:
        return obj
    if not ((inspect.isroutine(obj) or inspect.isclass(obj))
            and getattr(obj, "__module__", "").startswith("thetabsde")):
        return None
    sig = inspect.signature(obj)
    if inspect.isclass(owner) and inspect.isfunction(
            inspect.getattr_static(owner, rest[-1])):
        sig = sig.replace(parameters=list(sig.parameters.values())[1:])
    return sig


def signature_problems(text):
    """The library calls quoted in ``text``, and how each quote differs
    from the real signature. A quote names every parameter in order, a
    defaulted one as ``name=default``; ``...`` stands for parameters left
    out, or for a default not shown. A quoted name that names nothing is a
    problem too."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)  # fenced blocks
    checked, problems = [], []
    for dotted, params in QUOTED_CALL.findall(text):
        sig = quoted_signature(dotted)
        if sig is None:
            continue
        quote = f"{dotted}({params})"
        checked.append(dotted)
        if sig is NAMES_NOTHING:
            problems.append(f"{quote}: nothing is named {dotted}")
            continue
        call = ast.parse(f"f({params})", mode="eval").body
        elided = any(isinstance(a, ast.Constant) and a.value is Ellipsis
                     for a in call.args)
        named = [(a.id, None) for a in call.args if isinstance(a, ast.Name)]
        named += [(k.arg, k.value) for k in call.keywords]
        real = sig.parameters
        names = [name for name, _ in named]
        if names != ([p for p in real if p in names] if elided else list(real)):
            problems.append(f"{quote}: the real parameters are {sig}")
            continue
        for name, value in named:
            if isinstance(value, ast.Constant) and value.value is Ellipsis:
                continue  # a default not shown
            shown = (inspect.Parameter.empty if value is None
                     else ast.literal_eval(value))
            if shown != real[name].default:
                problems.append(
                    f"{quote}: {name} defaults to {real[name].default!r}")
    return checked, problems


def test_readme_signatures_are_the_library_ones():
    checked, problems = signature_problems(
        (ROOT / "README.md").read_text(encoding="utf-8"))
    assert not problems, problems
    assert "engine.backward_sweep" in checked and len(checked) >= 5, checked


@pytest.mark.parametrize("quote", [
    "engine.backward_sweep(scenarios, paths, terminal_values=None, keep=())",
    "engine.backward_sweep(scenarios, paths, terminal_values, records)",
    "engine.backward_sweep(scenarios, paths, records=True, "
    "terminal_values=None)",
    "_Basis.measure(X_i, degree)",
    "solve_theta_bsde(..., records=...)",
    "eos_demo(scenario, gap_threshold=0.1)",
    "EulerScheme(sde, gird)",
    "TimeGrid(t0, T, steps)",
    "PathEnsemble.forward_replay()",
    "engine.design_matrix(X)",
], ids=["stale_name", "defaults_not_shown", "out_of_order", "renamed",
        "elided_unknown", "wrong_default", "class_gone",
        "class_parameter_renamed", "method_gone", "module_name_gone"])
def test_a_stale_signature_is_named(quote):
    checked, problems = signature_problems(f"see `{quote}` here")
    assert len(checked) == 1 and problems, problems
    assert all(p.startswith(quote) for p in problems)


def unread_names(sources):
    """The names defined in ``sources`` (module name -> text) that no code
    in them reads outside their own definition: as a name, or as an
    attribute such as ``engine._swap`` or ``_Basis.measure``. Reported are
    the ``_``-prefixed module-level functions, classes and constants, the
    public module-level functions and classes, and the public methods (as
    ``module.Class.method``). Dunder names are left out, since code outside
    the package reads them."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined += [(module, t.id, node) for t in targets
                            if isinstance(t, ast.Name)
                            and t.id.startswith("_")]
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}", n.name, n)
                            for n in node.body
                            if isinstance(n, ast.FunctionDef)
                            and not n.name.startswith("_")]
    reads = [(n.id, id(n)) if isinstance(n, ast.Name) else (n.attr, id(n))
             for tree in trees.values() for n in ast.walk(tree)
             if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
             or isinstance(n, ast.Attribute)]
    unread = []
    for owner, name, definition in defined:
        if name.endswith("__"):
            continue
        own = {id(n) for n in ast.walk(definition)}
        if not any(read == name and at not in own for read, at in reads):
            unread.append(f"{owner}.{name}")
    return unread


def unread_private_names(sources):
    """The ``_``-prefixed names of ``unread_names``."""
    return [name for name in unread_names(sources)
            if name.rsplit(".", 1)[1].startswith("_")]


def test_every_private_name_has_a_reader():
    # a private helper that nothing reads is dead code: its public
    # callers are gone, and no caller outside the package may reach it
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "thetabsde").glob("*.py"))}
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_named():
    sources = {
        "sets": "def _copy_rows(dst, src, rows):\n    return _copy_rows\n"
                "_LIMIT = 4\n_USED = 5\n__all__ = []\n"
                "class _Box:\n    pass\n",
        "engine": "from .sets import _copy_rows, _USED\n"
                  "def _step(x):\n    return x + _USED\n"
                  "y = _step(1) + sets._LIMIT\n",
    }
    assert unread_private_names(sources) == ["sets._copy_rows", "sets._Box"]


def names_unquoted(names, text):
    """Those of ``names`` (dotted, as ``unread_names`` gives them) whose
    last part is no word of an inline code span of ``text``."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)  # fenced blocks
    quoted = {word for span in re.findall(r"`([^`]+)`", text)
              for word in re.findall(r"\w+", span)}
    return [name for name in names if name.rsplit(".", 1)[1] not in quoted]


def test_every_public_name_has_a_reader_or_a_readme_quote():
    # a public name that no library code reads is either an entry point
    # the README documents or a helper only tests call, which belongs in
    # the test tree
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "thetabsde").glob("*.py"))}
    public = [name for name in unread_names(sources)
              if not name.rsplit(".", 1)[1].startswith("_")]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert names_unquoted(public, readme) == []


def test_an_unread_public_name_is_named():
    sources = {
        "sets": "class Box:\n    def project(self, p):\n        return p\n"
                "    def grid(self):\n        return self.grid()\n"
                "    def _lo(self):\n        pass\n"
                "def cover(box):\n    return box.project(0)\n"
                "LIMIT = 4\n",
        "engine": "from .sets import Box\n"
                  "def solve():\n    return Box()\n",
    }
    unread = unread_names(sources)
    assert unread == ["sets.Box.grid", "sets.cover", "engine.solve"]
    assert names_unquoted(unread, "`solve()` and `Box.grid` run\n"
                          "```\ncover(box)\n```\n") == ["sets.cover"]

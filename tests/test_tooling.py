import ast
import importlib
import importlib.util
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

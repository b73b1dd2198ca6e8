import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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

"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Runs reduced-size copies of every workload through the real worker
processes and checks that each declared metric is emitted with its unit,
that trace counts repeat exactly, and the counts known at the seed commit.
The full-size gate is also run once per workload on the held-out seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

REDUCED = {
    "solve_d3": {"mc.n_paths": 2000, "grid.n_steps": 20},
    "sweep_1d": {"mc.n_paths": 2000, "grid.n_steps": 20},
    "eos_union": {"mc.n_paths": 300, "grid.n_steps": 20},
    "fk_1d": {"mc.n_paths": 2000, "grid.n_steps": 20, "pde.n_x": 100},
}


@pytest.fixture(scope="module")
def reduced_runs():
    """name -> trace flag -> (result line, measure record), computed once."""
    out = {}
    for name, overrides in REDUCED.items():
        text = run.config_text(name, 3, overrides)
        out[name] = {}
        for trace in (False, True):
            rec = run.measure(name, text, 0, trace, None,
                              f"selftest.{name}.trace{int(trace)}")
            out[name][trace] = (run.reduce_runs(name, rec, trace)[0], rec)
    return out


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert set(_declared("per_layer")) == set(LAYER_METRICS) | {"trace.overhead_frac"}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_emitted_with_its_unit(reduced_runs, name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = reduced_runs[name][trace]
        assert result["correct"] and result["failed"] == 0, result
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        assert got == _declared(section)
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_trace_counts_repeat_exactly(reduced_runs, name):
    _, rec = reduced_runs[name][True]
    traced = [r["layers"] for r in rec["runs"] if r["traced"]]
    assert len(traced) >= 2
    counts = [m for m, (_, kind) in LAYER_METRICS.items() if kind == "count"]
    for layers in traced[1:]:
        assert {m: layers[m] for m in counts} == {m: traced[0][m] for m in counts}


def test_known_seed_counts(reduced_runs):
    sweep = reduced_runs["sweep_1d"][True][0]["metrics"]
    assert sweep["engine.solves"]["value"] == 5
    assert sweep["engine.forward.calls"]["value"] == 1
    fk = reduced_runs["fk_1d"][True][0]["metrics"]
    assert fk["pde.solve_pde.calls"]["value"] == 2
    d3 = reduced_runs["solve_d3"][True][0]["metrics"]
    # one maximizer per node plus two Picard passes through effective_driver
    n = REDUCED["solve_d3"]["grid.n_steps"]
    assert d3["drivers.maximizer.calls"]["value"] == 3 * n + 1
    eos = reduced_runs["eos_union"][True][0]["metrics"]
    assert eos["sets.cloud_pairs"]["value"] > 0
    assert sweep["sets.cloud_pairs"]["value"] == 0


def test_gate_rejects_a_shifted_headline():
    ref = run.load_reference()
    head = ref["workloads"]["solve_d3"]["headlines"]["y0"]
    s = {"y0": head["value"], "stderr": 0.01}
    assert run.check_summary("solve_d3", s, ref) == []
    s["y0"] += 6 * ref["k_se"] * 0.01
    assert run.check_summary("solve_d3", s, ref)
    s["y0"] = float("nan")
    assert run.check_summary("solve_d3", s, ref)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_gate_passes_on_held_out_seed(name, capsys):
    seed = run.load_reference()["held_out_seed"]
    out = run.run_one(name, seed, 0, False)
    assert out["correct"] and out["failed"] == 0, capsys.readouterr().out


def test_fails_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_d3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""thetabsde benchmark: named scenario workloads run through
``experiments.run_scenario``, with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``WORKLOADS`` (or ``all``). The workload's config comes from
``perfbench/workloads/NAME.cfg`` with ``mc.seed`` set to N; the library sees
only that config. The loop is closed and sequential: one run at a time,
each in a fresh ``worker.py`` process, until S seconds have passed. The
first run is a warm-up: it is checked like every other run but not timed.

Every run is checked: the process must exit 0 with ``ok`` true, its
summary must hold only finite numbers, its headline values must agree with
the seed-commit reference (``reference.json``) within ``k_se`` standard
errors, the workload's own checks must hold, and its artifacts must be
byte-identical to those of the first run. A run that fails any check
counts in ``failed`` and is left out of the timings.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the timed runs). With ``--trace 1`` traced and untraced runs
alternate after the warm-up, and the last line reports the per-layer
metrics (medians over traced runs for times; counts must repeat exactly)
plus ``trace.overhead_frac``. A full record with the environment and every
sample goes to ``.bench_out/results/``.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import string
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("solve_d3", "sweep_1d", "eos_union", "fk_1d")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_TIMED = 2          # timed runs per mode, after the warm-up
WORKER_TIMEOUT_S = 120
RUN_BUDGET_S = 165     # start no run that could end past this
# One BLAS thread: the solver's regressions are no faster with two on this
# problem size, and a second thread makes each timing hostage to whatever
# else runs on the other core. The worker records the count it ran with.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


class BenchError(RuntimeError):
    pass


# inputs ---------------------------------------------------------------------

def config_text(name, seed, overrides=None):
    """The workload's config with ``mc.seed = seed``; ``overrides`` maps
    dotted keys to replacement values (used for reduced-size copies)."""
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    template = (HERE / "workloads" / f"{name}.cfg").read_text(encoding="utf-8")
    text = string.Template(template).substitute(seed=int(seed))
    for key, value in (overrides or {}).items():
        text, n = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}",
                          text, flags=re.M)
        if n != 1:
            raise BenchError(f"{name}: override key {key!r} not in template")
    return text


def load_reference():
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


# output checks --------------------------------------------------------------

# headline -> (summary key or function, summary key of the run's own
# standard error, or None when the reference's across-seed sd stands in)
HEADLINES = {
    "solve_d3": {"y0": ("y0", "stderr")},
    "sweep_1d": {"y0_ref": ("y0", None), "fitted_slope": ("fitted_slope", None)},
    "eos_union": {"medial_hit_fraction": ("medial_hit_fraction", None),
                  "box_occupancy": (lambda s: s["member_occupancy"][0], None)},
    "fk_1d": {"u0": ("u0", "stderr")},
}


def _non_finite(obj, path="summary"):
    """Paths of null (non-finite when written) or non-finite numbers."""
    if obj is None:
        return [path]
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{path}[{i}]")]
    return []


def own_checks(name, s):
    """The workload's own acceptance checks, as in the library's tests."""
    problems = []
    if name == "sweep_1d" and not 0.4 <= s["fitted_slope"] <= 1.3:
        problems.append(f"fitted_slope {s['fitted_slope']} outside [0.4, 1.3]")
    if name == "eos_union" and abs(sum(s["member_occupancy"]) - 1.0) > 1e-12:
        problems.append("member occupancy does not sum to 1")
    if name == "fk_1d" and not s["abs_err"] <= max(0.02, 3.0 * s["stderr"]):
        problems.append(f"abs_err {s['abs_err']} > max(0.02, 3 stderr)")
    return problems


def check_summary(name, s, reference):
    """Problems with one run's summary; empty when the run is correct.
    ``reference`` None skips the seed-commit comparison (reduced sizes)."""
    bad = _non_finite({k: v for k, v in s.items() if k != "config"})
    if bad:
        return [f"non-finite output at {', '.join(bad)}"]
    problems = own_checks(name, s)
    if reference is None:
        return problems
    k = reference["k_se"]
    ref = reference["workloads"][name]["headlines"]
    for key, (get, se_key) in HEADLINES[name].items():
        x = get(s) if callable(get) else s[get]
        want = ref[key]["value"]
        tol = k * math.hypot(s[se_key] if se_key else ref[key]["sd"], ref[key]["se"])
        if not abs(x - want) <= tol:
            problems.append(f"{key} = {x} differs from the reference {want} "
                            f"by more than {k} se ({tol:.3g})")
    return problems


def digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


# runs -----------------------------------------------------------------------

def run_worker(cfg_path, out_dir, trace):
    """One fresh-process run; returns its record (``error`` set on failure)."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(cfg_path),
           "--out", str(out_dir)] + (["--trace"] if trace else [])
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=WORKER_ENV, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {WORKER_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"error": "worker printed no result"}
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec.pop("ready_at") - spawned
    return rec


def check_run(name, rec, out_dir, reference):
    if "error" in rec:
        return [rec["error"]], None
    if not rec["ok"]:
        return ["run_scenario returned ok = False"], None
    summaries = list(Path(out_dir).glob("*.summary.json"))
    if len(summaries) != 1:
        return [f"expected one summary file, found {len(summaries)}"], None
    summary = json.loads(summaries[0].read_text(encoding="utf-8"))
    return check_summary(name, summary, reference), summary


def measure(name, text, seconds, trace, reference, tag):
    """Run workers for ``seconds``; return the record of the whole run."""
    work = OUT / tag
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "config.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    out_dir = work / "artifacts"
    per_mode = 2 if trace else 1
    min_runs = 1 + MIN_TIMED * per_mode

    runs, first_digest, summary = [], None, None
    start = time.perf_counter()
    longest = 0.0
    while True:
        k = len(runs)
        # with tracing: warm-up, then untraced and traced runs in turn
        traced = trace and k > 0 and k % 2 == 0
        t0 = time.perf_counter()
        rec = run_worker(cfg_path, out_dir, traced)
        longest = max(longest, time.perf_counter() - t0)
        problems, s = check_run(name, rec, out_dir, reference)
        if s is not None:
            d = digests(out_dir)
            if first_digest is None:
                first_digest = d
            elif d != first_digest:
                problems.append("artifacts differ from the first run's")
            summary = summary or s
        if out_dir.exists():
            shutil.rmtree(out_dir)
        rec.update(traced=traced, warmup=k == 0, problems=problems)
        runs.append(rec)
        elapsed = time.perf_counter() - start
        if elapsed + longest > RUN_BUDGET_S:
            break
        if k + 1 >= min_runs and elapsed >= seconds:
            break
    shutil.rmtree(work)
    return {"runs": runs, "summary": summary, "digests": first_digest}


def reduce_runs(name, result, trace):
    """Metrics, correctness and a readable report from a run's records."""
    runs = result["runs"]
    failed = [r for r in runs if r["problems"]]
    good = [r for r in runs if not r["problems"]]
    timed = [r for r in good if not r["warmup"] and not r["traced"]]
    if not timed:
        raise BenchError(f"{name}: no successful timed run; "
                         + "; ".join(p for r in failed for p in r["problems"]))
    lines = []
    correct = not failed
    if not trace:
        metrics = {m: {"value": statistics.median([r[m] for r in timed]), "unit": u}
                   for m, u in END_TO_END.items()}
        for m, u in END_TO_END.items():
            vals = sorted(r[m] for r in timed)
            lines.append(f"{m:<12} {metrics[m]['value']:.6g} {u}  (median of "
                         f"{len(vals)} timed runs; min {vals[0]:.6g}, max {vals[-1]:.6g})")
    else:
        traced = [r for r in good if r["traced"]]
        if len(traced) < 2:
            raise BenchError(f"{name}: fewer than two successful traced runs")
        metrics = {}
        for m, (u, kind) in LAYER_METRICS.items():
            vals = [r["layers"][m] for r in traced]
            if kind == "count" and len(set(vals)) != 1:
                correct = False
                lines.append(f"count {m} differs between traced runs: {vals}")
            metrics[m] = {"value": statistics.median(vals) if kind == "time" else vals[0],
                          "unit": u}
        # each traced run against the untraced run just before it, so that
        # both see the same machine load
        ratios = [b["wall_s"] / a["wall_s"] for a, b in zip(runs, runs[1:])
                  if b["traced"] and not a["traced"] and not a["warmup"]
                  and not a["problems"] and not b["problems"]]
        if not ratios:
            raise BenchError(f"{name}: no adjacent untraced/traced pair succeeded")
        metrics["trace.overhead_frac"] = {"value": statistics.median(ratios) - 1.0,
                                          "unit": "ratio"}
        for m, v in metrics.items():
            lines.append(f"{m:<31} {v['value']:.6g} {v['unit']}")
        lines.append(f"(layer times are medians of {len(traced)} traced runs; "
                     f"overhead is the median of {len(ratios)} traced/untraced pairs)")
    lines.append(f"failed_frac  {len(failed) / len(runs):.6g} ratio  "
                 f"({len(failed)} failed of {len(runs)} attempted)")
    for r in failed:
        lines.append(f"  failed run: {'; '.join(r['problems'])}")
    if name == "fk_1d" and result["summary"] is not None:
        lines.append(f"y0_abs_err   {result['summary']['abs_err']:.6g} 1  "
                     f"(|Y0_mc - u0_pde|, dimensionless; deterministic for a seed)")
    return {"correct": correct, "attempted": len(runs), "failed": len(failed),
            "metrics": metrics}, lines


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_one(name, seed, seconds, trace):
    reference = load_reference()
    tag = f"{name}.seed{seed}.trace{int(trace)}"
    result = measure(name, config_text(name, seed), seconds, trace, reference, tag)
    out, lines = reduce_runs(name, result, trace)
    env = next((r["env"] for r in result["runs"] if "env" in r), {})
    env["git_sha"] = git_sha()
    print(f"workload {name}  seed {seed}  trace {int(trace)}  seconds {seconds}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    record = dict(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  env=env, result=out, runs=result["runs"],
                  artifact_sha256=result["digests"])
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1),
                                                 encoding="utf-8")
    print(json.dumps(out), flush=True)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "thetabsde" / "__init__.py").is_file():
        print(f"error: no thetabsde source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            run_one(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

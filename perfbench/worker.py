"""One benchmark run of thetabsde in a fresh process.

    python3 perfbench/worker.py --config FILE --out DIR [--trace]

Imports thetabsde from the checkout's ``src/``, parses and validates the
config, calls ``experiments.run_scenario`` once and prints one JSON object:
the monotonic-clock instant the config was ready (the parent subtracts its
spawn instant to get the set-up time), the wall time of the call, the
``ok`` flag, peak RSS of this process and the environment. With
``--trace`` the library's public boundaries are wrapped first and the
per-layer figures are added. Artifacts go to DIR only; no timing is
written there, so DIR can be compared byte for byte between runs.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library():
    sys.path.insert(0, str(SRC))
    import thetabsde
    if Path(thetabsde.__file__).resolve().parent != SRC / "thetabsde":
        raise ImportError(f"thetabsde imported from {thetabsde.__file__}, not {SRC}")
    from thetabsde import config, experiments
    return thetabsde, config, experiments


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({ln.split()[-1] for ln in f
                           if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    thetabsde, config, experiments = _import_library()
    tracer = None
    if args.trace:
        from tracer import Tracer  # the script's own directory is on sys.path
        tracer = Tracer()
        tracer.install(thetabsde)
    with open(args.config, encoding="utf-8") as f:
        cfg = config.parse_config(f.read())
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own
    # instant taken just before spawning this process
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)

    start = time.perf_counter()
    _, ok = experiments.run_scenario(cfg, args.out)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy as np
    record = {"ready_at": ready_at, "wall_s": wall, "ok": bool(ok),
              "peak_rss_mb": peak_rss_mb, "env": environment(np)}
    if tracer is not None:
        layers = tracer.metrics()
        layers["experiments.artifact_bytes"] = dir_bytes(args.out)
        record["layers"] = layers
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Named, reproducible experiment runners and their artifact writers.

Outputs are deterministic: floats are serialized with 17 significant
digits, files carry no timestamps, and re-running with the same config and
seed is byte-identical.
"""

import math
import os
from dataclasses import replace

import numpy as np

from . import __version__
from .ambient import as_number, row_sq
from .drivers import (GLimitDriver, GRegularizedDriver,
                      RegularizedProjectionDriver, is_convex)
from .engine import (KEEPABLE, axiom_check, backward_sweep,
                     simulate_forward, solve_theta_bsde)
from .pde import feynman_kac_compare, solve_pde
from .sets import UnionSet
from .theta import integrate_theta_qv, simulate_theta_bm, verify_theta_martingale


class ExperimentError(ValueError):
    pass


# serialization -------------------------------------------------------------

# float format of every artifact: 17 significant digits, enough to round-trip
FLOAT_FORMAT = "%.17g"


def fmt(x):
    return FLOAT_FORMAT % float(x)


def dump_json(obj, indent=0):
    """Deterministic JSON text; non-finite floats become null."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return fmt(x) if math.isfinite(x) else "null"
    if isinstance(obj, str):
        import json
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {dump_json(str(k))}: {dump_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [dump_json(v, indent + 1) for v in seq]
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(pad + "  " + s for s in items) + "\n" + pad + "]"
    raise ExperimentError(f"cannot serialize {type(obj).__name__}")


# The float kernel (Dekker 1971; Steele & White 1990). A finite
# |v| = m * 2**e (np.frexp) lies between 10**kb and 10**(kb + 2),
# kb = floor((e - 1) log10 2), so its decimal exponent k is kb, or kb + 1
# exactly when |v| is at least the least double >= 10**(kb + 1). Then
# S = |v| * 10**(16 - k) lies in [1e16, 1e17). With 10**(16 - k) held as
# the double-double hi + lo, a Veltkamp split and Dekker's product give
# |v| * hi = ph + pl exactly; ph is above 2**53, so an integer, and
# r = pl + |v| * lo is S - ph to within 2**-47. Unless r lies within
# _MARGIN of a half-integer, ph + rint(r) is S rounded to the nearest
# integer, the 17 digits %.17g prints. They are laid out in %g's fixed or
# exponent form, trailing zeros stripped, in four little-endian words per
# value: ',', the sign and any "0.000" ending with the leading digit; the
# other 16 digits with the point inserted; the digit pushed out by the
# point, and the exponent.
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_MARGIN = 2.0 ** -40
# the decimal exponents of the fast path: there every split half and lo
# is a normal double and no product overflows
_K_FAST = (-280, 280)
_E0 = 1073  # np.frexp's least exponent is -1073
_X0 = 324  # the least decimal exponent, -324, indexes the exponent rows


def _low_bytes(n):
    """A word with its ``n`` (0..8) low bytes set."""
    return (1 << 8 * min(max(n, 0), 8)) - 1


def _decimal_ratio(p):
    """10**p as a ratio of Python integers."""
    return (10 ** p, 1) if p >= 0 else (1, 10 ** -p)


class _FloatTables:
    """The lookup tables of ``_format_fields``, made for each CSV. The row
    of each kb (the threshold of 10**(kb + 1) and the pairs of
    10**(16 - kb) and 10**(15 - kb)) is built from Python integers, whose
    ``/`` rounds correctly, the first time a value needs it."""

    def __init__(self):
        # kb + _X0 per frexp exponent e, a negative e from the end;
        # (e - 1) log10 2 is irrational for e != 1 and at least 4e-4 from
        # an integer on this range
        e = np.arange(-_E0, 1025)
        self.row = np.zeros(4096, dtype=np.intp)
        self.row[e] = np.floor((e - 1) * math.log10(2.0)) + _X0
        n = _X0 + 310
        self.built = np.zeros(n, dtype=bool)
        self.threshold = np.zeros(n)
        self.pair = np.zeros((2 * n, 4))  # hi, hi's split halves, lo
        # per decimal exponent X (row X + _X0): the point after that many
        # tail digits (16: none), the integer digits, the head's row and
        # the exponent text, after the byte of a pushed-out digit
        X = np.arange(n) - _X0
        fixed = (X >= -4) & (X <= 16)
        self.by_exponent = np.stack([
            np.where(X >= 0, X, 16) * fixed,
            np.where(fixed & (X >= 0), X + 1, 1),
            np.where(fixed & (X < 0), -10 * X, 0),
            np.array([b"" if f else b"\0e%+03d" % x
                      for x, f in zip(X.tolist(), fixed.tolist())],
                     "S8").view("<i8")], -1)
        # the head: ',', the sign, "0." and zeros for -4 <= X < 0, ending
        # in the leading digit; row digit + 10 * zeros + 50 * sign
        self.head = np.array([int.from_bytes(
            ("," + "-" * s + ("0." + "0" * (c - 1) if c else "")).encode()
            .rjust(7, b"\0") + b"%d" % d, "little")
            for s in (0, 1) for c in range(5) for d in range(10)], "<u8")
        # per 4-digit group, its ASCII digits (the first in the low byte)
        # and its trailing zeros; built without a temporary as large as a
        # table, since they are made at the end of a run
        digits4 = np.uint64(0x30303030)
        for shift in (0, 8, 16, 24):
            digits4 = np.add.outer(
                digits4, np.arange(10, dtype="<u8") << np.uint64(shift))
        self.digits4 = digits4.reshape(-1)
        self.zeros4 = np.zeros(10000, dtype=np.int8)
        for z in (1, 2, 3):
            self.zeros4[::10 ** z] = z
        self.zeros4[0] = 4
        # per kept digit count, the tail digits kept in each word; per
        # point position q, the digits after it and the point, in each word
        self.keep = np.array([[_low_bytes(kd - 1), _low_bytes(kd - 9)]
                              for kd in range(18)], "<u8")
        self.by_point = np.array(
            [[~_low_bytes(q) % 2 ** 64, ~_low_bytes(q - 8) % 2 ** 64,
              46 << 8 * q if q < 8 else 0,
              46 << 8 * (q - 8) if 8 <= q < 16 else 0] for q in range(17)],
            "<u8")

    def build(self, rows):
        for r in rows.tolist():
            kb = r - _X0
            num, den = _decimal_ratio(kb + 1)
            t = num / den
            a, b = t.as_integer_ratio()
            self.threshold[r] = t if a * den >= num * b else math.nextafter(t, math.inf)
            for j in (0, 1):
                if _K_FAST[0] <= kb + j <= _K_FAST[1]:
                    num, den = _decimal_ratio(16 - kb - j)
                    hi = num / den
                    a, b = hi.as_integer_ratio()
                    c = hi * _SPLIT
                    high = c - (c - hi)
                    self.pair[2 * r + j] = (hi, high, hi - high,
                                            (num * b - a * den) / (den * b))
                else:  # lo = nan sends the value to FLOAT_FORMAT %
                    self.pair[2 * r + j] = 0.0, 0.0, 0.0, np.nan
            self.built[r] = True


def _columns(table, index):
    """The columns of the rows ``index`` of a 2-d table, each gathered on
    its own: the passes that read them run faster on contiguous arrays."""
    return [table[:, i][index] for i in range(table.shape[1])]


def _format_fields(x, out, tab):
    """Fill ``out[..., :]``, 4 little-endian words per value of the float
    array ``x``, with the 32 bytes ``"," + FLOAT_FORMAT % v`` padded by NUL,
    from the ``_FloatTables`` ``tab``. Returns the number of values ``%``
    formatted."""
    with np.errstate(invalid="ignore", over="ignore"):
        a = np.abs(x)
        row = tab.row.take(np.frexp(a)[1], mode="wrap")
        if not tab.built[row].all():
            need = np.zeros_like(tab.built)
            need[row] = True
            tab.build(np.flatnonzero(need & ~tab.built))
        j = a >= tab.threshold[row]
        key = row + row
        key += j
        hi, high, low, lo = _columns(tab.pair, key)
        ph = a * hi
        c = a * _SPLIT
        ah = c - (c - a)
        al = a - ah
        r = ((ah * high - ph) + ah * low + al * high) + al * low
        r += a * lo
        rr = np.rint(r)
        # near-ties, and nan from a non-finite value or lo = nan
        slow = ~(np.abs(r - rr) <= 0.5 - _MARGIN)
        N = ph.astype(np.int64)
        N += rr.astype(np.int64)
    N[slow] = 0
    X = key - row  # the decimal exponent, as its row kb + j + _X0
    carry = N == 10 ** 17
    if carry.any():
        N[carry] = 10 ** 16
        X += carry
    # zero has X = -1, the exponent of its frexp binade [0.5, 1), and
    # prints as the integer 0
    X += N == 0
    high8 = N // 10 ** 8
    low8 = N - high8 * 10 ** 8
    lead = high8 // 10 ** 8
    high8 -= lead * 10 ** 8
    g1 = high8 // 10 ** 4
    g2 = high8 - g1 * 10 ** 4
    g3 = low8 // 10 ** 4
    g4 = low8 - g3 * 10 ** 4
    z = tab.zeros4
    trailing = z[g1]  # the tail's trailing zeros, group by group
    for g in (g2, g3, g4):
        trailing *= g == 0
        trailing += z[g]
    point, int_digits, head, exponent = _columns(tab.by_exponent, X)
    # the digits printed: the significant ones, or the integer part
    kept = np.maximum(17 - trailing, int_digits)
    q = np.where(kept > point + 1, point, 16)
    w1 = tab.digits4[g2] << np.uint64(32)
    w1 |= tab.digits4[g1]
    w2 = tab.digits4[g4] << np.uint64(32)
    w2 |= tab.digits4[g3]
    keep1, keep2 = _columns(tab.keep, kept)
    w1 &= keep1
    w2 &= keep2
    # the digits after the point move up one byte, past the point
    after1, after2, dot1, dot2 = _columns(tab.by_point, q)
    s1, s2 = w1 & after1, w2 & after2
    w1 ^= s1
    w1 |= s1 << np.uint64(8)
    w1 |= dot1
    w2 ^= s2
    w2 |= s2 << np.uint64(8)
    w2 |= s1 >> np.uint64(56)
    w2 |= dot2
    head += lead
    head += np.signbit(x) * 50
    out[..., 0] = tab.head[head]
    out[..., 1] = w1
    out[..., 2] = w2
    out[..., 3] = (s2 >> np.uint64(56)) | exponent.view("<u8")
    if not slow.any():
        return 0
    idx = np.nonzero(slow)
    for i in zip(*idx):
        text = ("," + FLOAT_FORMAT % x[i]).encode().ljust(32, b"\0")
        out[i] = np.frombuffer(text, "<u8")
    return len(idx[0])


def _text_words(texts):
    """The texts as rows of little-endian words, NUL-padded."""
    data = [t.encode() for t in texts]
    width = 8 * -(-max(map(len, data), default=0) // 8)
    return np.frombuffer(b"".join(d.ljust(width, b"\0") for d in data),
                         "<u8").reshape(len(data), width // 8)


_CHUNK = 4096  # values formatted and written at once


def _write_rows(f, chunk, keys, tab):
    """Format and write the rows of the (lead, first key, values) pieces."""
    n = sum(len(v) for _, _, v in chunk)
    k = chunk[0][2].shape[1]
    wl, wk = max(len(lead) for lead, _, _ in chunk), keys.shape[1]
    buf = np.zeros((n, wl + wk + 4 * k + (k == 0)), dtype="<u8")
    values = np.empty((n, k))
    r = 0
    for lead, i, v in chunk:
        m = len(v)
        buf[r:r + m, :len(lead)] = lead
        buf[r:r + m, wl:wl + wk] = keys[i:i + m]
        values[r:r + m] = v
        r += m
    _format_fields(values, buf[:, wl + wk:wl + wk + 4 * k].reshape(n, k, 4),
                   tab)
    buf[:, -1] |= np.uint64(10 << 56)  # the newline, in the last byte
    text = buf.view(np.uint8)
    f.write(text[text != 0])


def write_csv(path, header, keys, blocks):
    """Stream a CSV: the header, then for each block ``(lead, values)`` as
    it comes, one row ``lead..., keys[j], values[j]...`` per key, every
    value (integers included) in ``FLOAT_FORMAT``. Keys are formatted once
    per file and a block's lead once per block, by ``fmt``. The values go
    through ``_format_fields``, which gives the bytes of ``FLOAT_FORMAT %
    v`` in numpy passes and runs ``%`` only on a value it cannot decide:
    nan, ±inf, a magnitude outside [1e-280, 1e281), or a scaled fraction
    within 2**-40 of a rounding tie. Rows are gathered across blocks into
    chunks of at most ``_CHUNK`` values (one row if a row holds more),
    each formatted and written at once, so memory does not grow with the
    file."""
    keys = _text_words([fmt(k) for k in keys])
    tab = _FloatTables()
    chunk, n = [], 0  # the pending pieces and their rows
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        for lead, values in blocks:
            k = values.shape[1]
            if len(values) != len(keys) or len(lead) + 1 + k != len(header):
                raise ExperimentError(
                    f"block of {len(lead)} lead and {values.shape} values "
                    f"does not fit {len(keys)} keys and header {header}")
            if chunk and chunk[0][2].shape[1] != k:
                _write_rows(f, chunk, keys, tab)
                chunk, n = [], 0
            rows = max(1, _CHUNK // max(k, 1))
            lead = _text_words(["".join(fmt(v) + "," for v in lead)])[0]
            i = 0
            while i < len(values):
                m = min(rows - n, len(values) - i)
                chunk.append((lead, i, values[i:i + m]))
                n, i = n + m, i + m
                if n == rows:
                    _write_rows(f, chunk, keys, tab)
                    chunk, n = [], 0
        if chunk:
            _write_rows(f, chunk, keys, tab)


# epsilon sweep -------------------------------------------------------------

def check_sweep(scenario, epsilons, a0):
    """Preconditions of ``epsilon_sweep``; returns the epsilons as floats."""
    if not is_convex(scenario.uset):
        raise ExperimentError("epsilon sweep requires a convex set (box/ball)")
    eps = [as_number(ExperimentError, e, "epsilons") for e in epsilons]
    if len(eps) < 2 or not all(eps[i] > eps[i + 1] > 0 for i in range(len(eps) - 1)):
        raise ExperimentError("epsilons must be strictly decreasing and positive")
    if scenario.terminal.clamp is None:
        raise ExperimentError("sweep requires a bounded (clamped) terminal")
    # the check of every driver the sweep builds
    GRegularizedDriver(eps[0], a0).check(scenario.uset, scenario.sde.dim_x,
                                         scenario.sde.dim_b)
    return eps


def epsilon_sweep(scenario, epsilons, a0):
    """The regularized runs' convergence to the support-function reference
    on common paths, as a summary dict; ``scenario.driver`` is not used.

    The reference and the runs share one backward sweep, which holds only
    the node it has reached: each run's errors against the reference are
    folded node by node into (n_steps + 1,) rows, the RMS of dY, the
    cross-path sd of |dY| and the path mean of |dZ|^2, and no run's ``Y``
    or ``Z`` is kept for every node."""
    eps = check_sweep(scenario, epsilons, a0)
    # both driver variants vanish at z = 0, so the clamp bounds are
    # super/subsolutions and Y may be clipped to them
    base = replace(scenario, y_clip=scenario.terminal.clamp)
    ens = simulate_forward(base.sde, base.grid, base.n_paths, base.seed)
    drivers = [GLimitDriver()] + [GRegularizedDriver(eps=e, a0=a0) for e in eps]
    n = base.grid.n_steps
    rms, sd, z_sq = (np.zeros((len(eps), n + 1)) for _ in range(3))
    for i, _, _, (ref, *runs) in backward_sweep(
            [replace(base, driver=d) for d in drivers], ens):
        for k, run in enumerate(runs):
            dY = run.y - ref.y
            rms[k, i] = np.sqrt(np.mean(dY ** 2))
            sd[k, i] = np.std(np.abs(dY))
            z_sq[k, i] = np.mean(row_sq(run.z - ref.z))

    # each run's node of largest RMS
    worst = np.arange(len(eps)), np.argmax(rms, axis=1)
    slope = np.polyfit(np.log(eps), np.log(np.maximum(rms[worst], 1e-300)), 1)
    return {"epsilons": eps, "sup_y_err": rms[worst].tolist(),
            "z_err_l2": np.sqrt(np.sum(base.grid.dt * z_sq, axis=1)).tolist(),
            "stderrs": (sd[worst] / np.sqrt(base.n_paths)).tolist(),
            "fitted_slope": float(slope[0]),
            "y0": float(np.mean(ref.y))}  # of the g_limit reference


# union-set maximizer demo --------------------------------------------------

def check_eos(scenario, gap_threshold=None):
    """Preconditions of ``eos_demo``; returns the gap threshold as a float,
    or None for the default."""
    uset, driver = scenario.uset, scenario.driver
    if not isinstance(uset, UnionSet) or len(uset.members) < 2:
        raise ExperimentError("demo requires a union of at least two members")
    if not isinstance(driver, RegularizedProjectionDriver) or driver.eps == 0:
        raise ExperimentError("demo requires the regularized projection driver")
    if gap_threshold is not None:
        gap_threshold = as_number(ExperimentError, gap_threshold,
                                  "gap_threshold", least=0.0)
    return gap_threshold


def eos_demo(scenario, gap_threshold=None):
    """Pathwise uniqueness empirics, as a summary dict: how often the query
    lands near the medial region between union members. A fold over one
    backward sweep with records: each node's member index, medial gap and
    argmax are those of the solver's own maximizer projection. A given
    ``gap_threshold`` is counted node by node; the default one is known
    only after the last node, so then the gaps are held for every node."""
    gap_threshold = check_eos(scenario, gap_threshold)
    sc, uset = scenario, scenario.uset
    ens = simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
    n, times = sc.grid.n_steps, sc.grid.times
    counts = np.zeros(len(uset.members), dtype=np.int64)
    gaps = np.empty((n + 1, sc.n_paths)) if gap_threshold is None else None
    hits, min_gap = 0, np.inf
    a_mean, a_std = np.empty((2, n + 1, uset.dim))
    # largest one-step move of the query, driver.query(t_i, X_i, Y_i, Z_i)
    # at Y_i after any clip
    step, prev = 0.0, None
    for i, x, _, (t,) in backward_sweep([sc], ens, records=True):
        rec = t.rec
        gap = rec.medial_gap
        counts += np.bincount(rec.member_index, minlength=len(counts))
        # the smallest finite gap, without a copy of the finite ones
        min_gap = min(min_gap, np.min(gap, where=np.isfinite(gap),
                                      initial=np.inf))
        # over the path axis numpy sums a column-major array pairwise and
        # a C-ordered one row by row: the statistics reduce the latter
        point = np.ascontiguousarray(rec.point)
        a_mean[i] = point.mean(axis=0)
        a_std[i] = point.std(axis=0)
        if gaps is None:
            hits += np.count_nonzero(gap < gap_threshold)
        else:
            gaps[i] = gap
            K = sc.driver.query(times[i], x, t.y, t.z)
            if prev is not None:
                step = max(step, float(np.sqrt(row_sq(K - prev)).max()))
            prev = K

    occupancy = counts / counts.sum()
    if gaps is not None:
        gap_threshold = 2.0 * step
        hits = np.count_nonzero(gaps < gap_threshold)
    # a count over the node count, as np.mean of the hits would divide
    hit = int(hits) / ((n + 1) * sc.n_paths)
    return {"member_occupancy": occupancy.tolist(),
            "min_medial_gap": float(min_gap), "medial_hit_fraction": hit,
            "gap_threshold": gap_threshold,
            # (n_steps + 1, dim_a) moments of the argmax over paths
            "a_path_mean": a_mean, "a_path_std": a_std}


# dispatch ------------------------------------------------------------------

def _write_paths(path, sol):
    """One block per time node: t, path id, Y, Z and (if recorded) A."""
    parts = [sol.Z] if sol.A is None else [sol.Z, sol.A]
    header = ["t", "path_id", "Y"] + [f"{p}{k}" for p, a in zip("ZA", parts)
                                      for k in range(a.shape[2])]
    write_csv(path, header, np.arange(len(sol.Y)), (
        ((t,), np.column_stack([sol.Y[:, i]] + [a[:, i] for a in parts]))
        for i, t in enumerate(sol.grid.times)))


def run_scenario(cfg, out_dir, paths_dump=False):
    """Dispatch a validated config, write artifacts, return (summary, ok)."""
    os.makedirs(out_dir, exist_ok=True)
    kind = cfg.kind
    out = os.path.join(out_dir, cfg.name)  # artifact path without suffix
    summary = {"kind": kind, "name": cfg.name, "seed": cfg.scenario.seed,
               "versions": {"package": __version__, "numpy": np.__version__}}
    ok = True
    sc, params = cfg.scenario, cfg.params

    if kind == "solve":
        sol = solve_theta_bsde(sc, keep=KEEPABLE if paths_dump else ())
        summary.update(y0=sol.Y0, stderr=sol.stderr,
                       diagnostics=sol.diagnostics)
        if paths_dump:
            _write_paths(f"{out}.paths.csv", sol)

    elif kind == "fk_check":
        surface = solve_pde(sc.driver, sc.uset, sc.sde, sc.terminal,
                            params["pde_grid"])
        rep = feynman_kac_compare(sc, surface)
        summary.update(rep)
        summary["y0"] = rep["y0_mc"]
        grid = surface.grid
        write_csv(f"{out}.surface.csv", ["t", "x", "u"], grid.xs,
                  (((t,), u[:, None]) for t, u in zip(grid.ts, surface.u)))
        ok = rep["abs_err"] <= max(0.02, 3.0 * rep["stderr"])

    elif kind == "epsilon_sweep":
        res = epsilon_sweep(sc, **params)
        summary.update(res)
        write_csv(f"{out}.sweep.csv", ["epsilon", "sup_y_err", "z_err_l2"],
                  res["epsilons"],
                  [((), np.column_stack([res["sup_y_err"], res["z_err_l2"]]))])

    elif kind == "eos_demo":
        res = eos_demo(sc, **params)
        summary.update(res)
        ok = abs(sum(res["member_occupancy"]) - 1.0) <= 1e-12

    elif kind == "theta_bm":
        b = simulate_theta_bm(sc.driver, sc.uset, sc.grid, sc.n_paths,
                              sc.seed).states[:, :, 0]
        realized_qv = np.sum(np.diff(b, axis=1) ** 2, axis=1)
        summary.update(final_mean=float(np.mean(b[:, -1])),
                       final_var=float(np.var(b[:, -1])),
                       realized_qv_mean=float(np.mean(realized_qv)))

    elif kind == "theta_qv":
        ens = simulate_forward(sc.sde, sc.grid, sc.n_paths, sc.seed)
        qv = integrate_theta_qv(sc.driver, sc.uset, sc.grid,
                                ens.all_states())
        summary.update(qv_final_mean=float(np.mean(qv.qv[:, -1])),
                       monotone=bool(np.all(qv.monotone)))

    elif kind == "axiom_check":
        rep = axiom_check(sc, **params)
        summary.update(rep)
        ok = bool(rep["passed"])

    elif kind == "martingale_check":
        summary.update(verify_theta_martingale(sc, **params))

    else:
        raise ExperimentError(f"unknown kind {kind!r}")

    summary["config"] = cfg.data
    with open(f"{out}.summary.json", "w", encoding="utf-8", newline="\n") as f:
        f.write(dump_json(summary) + "\n")
    return summary, ok

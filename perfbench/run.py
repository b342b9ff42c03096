"""Benchmark for cxpoisson: seeded workloads in a single-threaded closed loop.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 35 --trace 0

One caller runs the operations of a workload back to back; each starts when
the previous one returns, and each is checked against its known answer.
Human-readable summary lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` a separate traced run reports the per-layer ones.  See
README.md in this directory for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import traceback
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# distinct cycles generated per run; the loop wraps around after the last
CYCLES = {"symbolic": 24, "pointwise": 10, "cli_batch": 20}
# cycles run traced (and untraced, for the overhead ratio) with --trace 1;
# a fixed amount of work, so per-op counts repeat exactly for a seed
TRACE_CYCLES = 2
SETUP_REPEATS = 5
# The host's speed drifts by up to 1.8x over tens of seconds (other tenants
# share the cores), and process CPU time drifts with it.  Every timed span is
# therefore bracketed by a fixed reference loop, and its wall time is
# rescaled to a host on which that loop takes REF_NOMINAL_S.  The loop
# multiplies Fractions read from scattered places of a list of several MB, so
# that, like the workloads, it misses the caches: a loop that stays in cache
# slowed about 1.4x where the workloads slowed 2.1-2.3x when the other core
# was busy, while this one slowed as much as they did.  Raw wall figures are printed
# next to the rescaled ones.
REF_DATA = [Fraction((i * 7919) % 1009 - 504, 1 + (i * 31) % 97) for i in range(60_000)]
REF_STEPS = 500
REF_NOMINAL_S = 2.0e-3

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; "<span>.calls" and "<span>.self_ms" are per op
PER_LAYER = {
    "scalars.gauss_new": "count/op",
    "scalars.max_bits": "bits",
    "poly.mul.calls": "count/op",
    "poly.mul.self_ms": "ms/op",
    "poly.max_terms": "terms",
    "poly.eval.self_ms": "ms/op",
    "fields.wedge.calls": "count/op",
    "fields.wedge.self_ms": "ms/op",
    "fields.schouten.calls": "count/op",
    "fields.schouten.self_ms": "ms/op",
    "bivector.jacobi_residual.self_ms": "ms/op",
    "bivector.pair_conditions.self_ms": "ms/op",
    "bivector.jacobi_pde_residuals.self_ms": "ms/op",
    "bivector.cotangent_bracket.self_ms": "ms/op",
    "linalg.rref.calls": "count/op",
    "linalg.rref.pivots": "count/op",
    "linalg.rref.self_ms": "ms/op",
    "lagrangian.hat.self_ms": "ms/op",
    "lagrangian.check.self_ms": "ms/op",
    "lagrangian.tilde.self_ms": "ms/op",
    "lagrangian.products.self_ms": "ms/op",
    "lagrangian.indices.self_ms": "ms/op",
    "lagrangian.images.self_ms": "ms/op",
    "pointwise.rank_profile.self_ms": "ms/op",
    "pointwise.gcs_matrix.self_ms": "ms/op",
    "pointwise.theorem_7_18_check.self_ms": "ms/op",
    "normal_form.mixed_check.self_ms": "ms/op",
    "normal_form.splitting_check.self_ms": "ms/op",
    "grammar.parse_poly.calls": "count/op",
    "grammar.parse_poly.self_ms": "ms/op",
    "problem.parse_problem.self_ms": "ms/op",
    "cli.parse_ms": "ms/op",
    "cli.build_ms": "ms/op",
    "cli.compute_ms": "ms/op",
    "cli.render_ms": "ms/op",
    "host.ref_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
SPAN_ALIAS = {"poly.eval": "poly.poly_eval"}


# -- set-up ----------------------------------------------------------------------


def load_package() -> types.SimpleNamespace:
    """Import cxpoisson afresh from src/ and return its modules by short name."""
    for name in [m for m in sys.modules if m == "cxpoisson" or m.startswith("cxpoisson.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cxpoisson")
    cx = types.SimpleNamespace(package=pkg)
    for short in tracing.MODULES:
        setattr(cx, short, importlib.import_module(f"cxpoisson.{short}"))
    return cx


def setup(name: str, seed: int, workdir: Path):
    """Import plus input generation, repeated; returns the median time and
    the package and cycles of the last repetition."""
    times = []
    for _ in range(SETUP_REPEATS):
        ref_before = ref_loop()
        t0 = perf_counter()
        cx = load_package()
        cycles = workloads.generate(cx, name, seed, CYCLES[name], workdir)
        times.append(corrected(perf_counter() - t0, ref_before, ref_loop()))
    return statistics.median(times), cx, cycles


def ref_loop() -> float:
    """Seconds taken by the fixed reference loop."""
    t0 = perf_counter()
    data, n = REF_DATA, len(REF_DATA)
    acc = Fraction(0)
    j = 0
    for _ in range(REF_STEPS):
        j = (j + 7919) % n
        acc += data[j] * data[j * 13 % n]
    return perf_counter() - t0


def host_ref_ms() -> float:
    """Median time of the reference loop, in ms, to show host drift."""
    return statistics.median(ref_loop() for _ in range(25)) * 1e3


def corrected(wall: float, ref_before: float, ref_after: float) -> float:
    """Wall time rescaled to a host whose reference loop takes REF_NOMINAL_S."""
    return wall * REF_NOMINAL_S * 2 / (ref_before + ref_after)


# -- the closed loop -------------------------------------------------------------


def run_op(op) -> Tuple[bool, object]:
    try:
        return op.run()
    except Exception:  # an exception is a failed op; report it and go on
        print(f"op {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return False, None


def timed_ops(ops, call=run_op):
    """Run ops back to back, each between two reference loops; yields
    (ok, outputs, wall seconds, host-corrected seconds, reference seconds)."""
    ref_prev = ref_loop()
    for op in ops:
        t0 = perf_counter()
        ok, outputs = call(op)
        wall = perf_counter() - t0
        ref = ref_loop()
        yield ok, outputs, wall, corrected(wall, ref_prev, ref), ref
        ref_prev = ref


def measure(cycles, seconds: float) -> Dict:
    """Run cycles back to back for the given time, at least one whole cycle.

    Latencies come from whole cycles only, so every sample has the same mix
    of operations; a cycle cut by the deadline still counts in attempted and
    failed.
    """
    wall: List[float] = []
    host: List[float] = []
    refs: List[float] = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    k = 0
    while True:
        cycle = cycles[k % len(cycles)]
        k += 1
        times = []
        for ok, _, w, h, ref in timed_ops(cycle):
            times.append((w, h))
            refs.append(ref)
            attempted += 1
            failed += not ok
            if perf_counter() >= deadline and k > 1:
                break
        if len(times) == len(cycle):
            wall += [w for w, _ in times]
            host += [h for _, h in times]
        if perf_counter() >= deadline:
            break
    return {"wall": wall, "host": host, "refs": refs, "cycles": len(wall) // len(cycles[0]),
            "attempted": attempted, "failed": failed}


def max_bits(obj) -> int:
    """Largest numerator or denominator bit length found in obj."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, Fraction):
        return max(abs(obj.numerator).bit_length(), obj.denominator.bit_length())
    if isinstance(obj, dict):
        return max((max_bits(v) for v in obj.values()), default=0)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return max((max_bits(v) for v in obj), default=0)
    fields = list(getattr(obj, "__dict__", {}).values())
    for cls in type(obj).__mro__:
        fields += [getattr(obj, s) for s in getattr(cls, "__slots__", ()) if hasattr(obj, s)]
    return max((max_bits(v) for v in fields), default=0)


def traced_run(cx, cycles, seconds: float) -> Tuple[Dict[str, float], tracing.Tracer, Dict]:
    """Per-layer metrics from a fixed set of cycles run under the tracer, and
    the tracing overhead against the same cycles run untraced."""
    work = [op for cycle in cycles for op in cycle]
    t_start = perf_counter()
    failed = 0

    def untraced_rate() -> float:
        nonlocal failed
        host = 0.0
        for ok, _, _, h, _ in timed_ops(work):
            failed += not ok
            host += h
        return len(work) / host

    base_rates = [untraced_rate()]
    pass_s = perf_counter() - t_start
    tracer = tracing.Tracer()
    bits = 0
    host = 0.0
    refs: List[float] = []
    op_ids = iter(range(1, len(work) + 1))
    tracer.install(cx)
    try:
        traced = timed_ops(work, lambda op: tracer.run_op(next(op_ids), lambda: run_op(op)))
        for ok, outputs, _, h, ref in traced:
            failed += not ok
            bits = max(bits, max_bits(outputs))
            host += h
            refs.append(ref)
    finally:
        tracer.uninstall()
    # more untraced passes for the rest of the time, none that would end late
    while perf_counter() - t_start + pass_s < seconds:
        base_rates.append(untraced_rate())

    ops = len(work)
    # span times are wall times; rescale them like the end-to-end ones
    ms = 1e3 * REF_NOMINAL_S / statistics.median(refs) / ops
    calls, total, self_t = tracer.calls, tracer.total, tracer.self_time

    def span_metric(metric: str) -> float:
        span, _, kind = metric.rpartition(".")
        span = SPAN_ALIAS.get(span, span)
        if kind == "calls":
            return calls.get(span, 0) / ops
        return self_t.get(span, 0.0) * ms

    build = sum(t for s, t in total.items() if s.startswith("cli.build_"))
    cmd = sum(t for s, t in total.items() if s.startswith("cli.cmd_"))
    metrics = {m: span_metric(m) for m in PER_LAYER if m.endswith((".calls", ".self_ms"))}
    metrics.update({
        "scalars.gauss_new": tracer.gauss_new / ops,
        "scalars.max_bits": bits,
        "poly.max_terms": tracer.mul_max_terms,
        "linalg.rref.pivots": tracer.rref_pivots / ops,
        "cli.parse_ms": total.get("problem.parse_problem", 0.0) * ms,
        "cli.build_ms": build * ms,
        "cli.compute_ms": (cmd - build) * ms,
        "cli.render_ms": total.get("cli.render", 0.0) * ms,
        "host.ref_ms": statistics.median(refs) * 1e3,
        "trace.overhead_ratio": ops / host / statistics.median(base_rates),
    })
    info = {"ops": ops, "attempted": ops * (len(base_rates) + 1), "failed": failed,
            "traced_rate": ops / host, "base_rates": base_rates}
    return metrics, tracer, info


# -- one workload ----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    workdir = OUT / f"work-{name}-{seed}"
    ref_start = host_ref_ms()
    setup_s, cx, cycles = setup(name, seed, workdir)
    try:
        if trace:
            metrics, tracer, info = traced_run(cx, cycles[: TRACE_CYCLES], seconds)
            spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans_path)
            attempted, failed = info["attempted"], info["failed"]
        else:
            res = measure(cycles, seconds)
            attempted, failed = res["attempted"], res["failed"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref_end = host_ref_ms()

    if trace:
        units = PER_LAYER
        print(f"{name}: traced {info['ops']} ops ({TRACE_CYCLES} cycles) at "
              f"{info['traced_rate']:.4g} ops/s against {statistics.median(info['base_rates']):.4g} "
              f"untraced (median of {len(info['base_rates'])} passes); spans in "
              f"{spans_path.relative_to(ROOT)}")
        for m, v in metrics.items():
            print(f"  {m} = {v:.6g} {units[m]}")
    else:
        units = END_TO_END
        host_ms = [t * 1e3 for t in res["host"]]
        wall_ms = [t * 1e3 for t in res["wall"]]
        metrics = {
            "ops_per_s": len(host_ms) * 1e3 / sum(host_ms),
            "op_ms_p50": statistics.median(host_ms),
            "op_ms_p90": statistics.quantiles(host_ms, n=10)[8],
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"{name}: ops_per_s {metrics['ops_per_s']:.4g} 1/s | op_ms_p50 "
              f"{metrics['op_ms_p50']:.4g} ms | op_ms_p90 {metrics['op_ms_p90']:.4g} ms "
              f"(n={len(host_ms)} ops in {res['cycles']} cycles) | fail_ratio "
              f"{failed / attempted:.4g} ({failed}/{attempted}) | setup_s {setup_s:.4g} s "
              f"(median of {SETUP_REPEATS}) | peak_rss_mb {metrics['peak_rss_mb']:.4g} MB")
        print(f"{name}: wall clock: ops_per_s {len(wall_ms) * 1e3 / sum(wall_ms):.4g} 1/s | "
              f"op_ms_p50 {statistics.median(wall_ms):.4g} ms | op_ms_p90 "
              f"{statistics.quantiles(wall_ms, n=10)[8]:.4g} ms")
        print(f"{name}: host.ref_ms {statistics.median(res['refs']) * 1e3:.4g} ms during the run")
    print(f"{name}: host.ref_ms {ref_start:.4g} ms at start, {ref_end:.4g} ms at end "
          f"(nominal {REF_NOMINAL_S * 1e3:.4g} ms)")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cxpoisson" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

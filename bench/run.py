"""qident benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload suite_default --seed 0 --seconds 45 --trace 0

With --trace 0 it runs passes of the workload from the given seed and
reports setup_s, norm_wall_s and peak_rss_mb; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics.  The
last line of standard output is one JSON object; the lines above it print
each metric by name with its unit, and the failed share of the trials.
Exit codes: 0 all trials passed, 1 a trial failed, 2 the benchmark could not
run (for example, no qident sources in this checkout).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median

import harness
from tracer import Tracer

SETUP_BATCH = 3  # `qident list` processes timed before each pass and after the last
MIN_PASSES = 2


def measure_setup(expected_lines: int, times: list[float]) -> bool:
    """Time SETUP_BATCH fresh `python -m qident list` processes into `times`,
    in reference seconds (see `harness.norm_wall_s`) against a reference
    sample taken right after them; return whether each listed every
    registered identity."""
    env = dict(os.environ, PYTHONPATH=str(harness.SRC))
    batch, ok = [], True
    for _ in range(SETUP_BATCH):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qident", "list"],
            env=env,
            cwd=harness.ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        batch.append(time.perf_counter() - t0)
        ok = ok and proc.returncode == 0 and len(proc.stdout.splitlines()) == expected_lines
    ref_s = harness.reference_sample()
    times.extend(t * harness.REF_S / ref_s for t in batch)
    return ok


def run_untraced(qi, checks, workload, seed, seconds, expected_lines):
    """Run passes at master seeds `pass_seed(seed, k)` until `seconds` have
    passed (at least MIN_PASSES of them), with a batch of set-up timings
    before each pass and after the last, so that they sample the whole run."""
    passes, setup_times, setup_ok = [], [], True
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        setup_ok &= measure_setup(expected_lines, setup_times)
        gc.collect()
        master = harness.pass_seed(seed, len(passes))
        passes.append(harness.run_pass(qi, checks, workload.trials, master, reference=True))
    setup_ok &= measure_setup(expected_lines, setup_times)
    return passes, median(setup_times), setup_ok


def run_traced(qi, checks, workload, seed, seconds):
    """Alternate untraced and traced passes, all at master seed `seed` so that
    counts repeat exactly; reduce each trace as it ends."""
    bits = harness.bits_labels(qi)
    untraced, traced, layer = [], [], []
    t_start = time.perf_counter()
    while True:
        gc.collect()
        untraced.append(harness.run_pass(qi, checks, workload.trials, seed))
        gc.collect()
        tracer = Tracer(bits)
        traced.append(harness.run_pass(qi, checks, workload.trials, seed, tracer=tracer))
        layer.append(harness.traced_metrics(traced[-1], tracer))
        del tracer  # spans are reduced; free them before the next pass
        if time.perf_counter() - t_start >= seconds:
            return untraced, traced, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        harness.compile_sources()
        qi = harness.load_qident()
    except (harness.MissingProgram, ImportError, subprocess.CalledProcessError) as exc:
        print(f"bench: cannot load qident: {exc}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS[args.workload]
    checks = harness.plan(qi, workload)
    registry_ids = [c.id for c in qi.identities.REGISTRY]

    metrics: dict[str, tuple[float, str]] = {}
    setup_ok = True
    if args.trace == 0:
        passes, setup_s, setup_ok = run_untraced(
            qi, checks, workload, args.seed, args.seconds, len(registry_ids)
        )
        metrics["setup_s"] = (setup_s, "s")
        metrics["norm_wall_s"] = (harness.norm_wall_s(passes), "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
    else:
        untraced, traced, layer = run_traced(qi, checks, workload, args.seed, args.seconds)
        passes = untraced + traced
        values = {name: median([m[name] for m in layer]) for name in layer[0]}
        for check_id in registry_ids:
            values[f"identities.{check_id}.s"] = median(
                [p.check_s.get(check_id, 0.0) for p in untraced]
            )
        values["trace.overhead_s"] = median([p.wall_s for p in traced]) - median(
            [p.wall_s for p in untraced]
        )
        for name, unit in harness.layer_metric_units(registry_ids).items():
            metrics[name] = (values[name], unit)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = setup_ok and failed == 0
    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{len(passes)} passes, {attempted} trials attempted, {failed} failed"
    )
    print("pass wall times (s): " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    if args.trace == 0:
        ref_s = median(r for p in passes for r in p.ref_s)
        print(f"reference sample median {ref_s:.6g} s; REF_S {harness.REF_S} s")
    for p in passes:
        for err in p.errors:
            print(f"error: {err}")
        for check_id, n in p.check_failures.items():
            if n:
                print(f"FAIL {check_id} at master seed {p.seed}: {n} of {workload.trials} trials")
    if not setup_ok:
        print("error: `qident list` did not list every registered identity")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {failed / attempted:.6g} ratio ({failed}/{attempted} trials)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

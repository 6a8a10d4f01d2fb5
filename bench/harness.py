"""Workloads, the correctness gate and timed passes for the qident benchmark.

A workload is a fixed list of identity checks with a trial count and size
overrides.  One pass of a workload makes one public ``run_check`` call per
identity, exactly the loop ``qident verify`` runs, and times each call from
outside.  The benchmark's seed is passed to ``run_check`` as the master seed,
so the first pass of ``suite_default`` at seed S runs the same trials as
``qident verify --all --trials 20 --seed S``.  The cost of a trial depends on
the heights of its sampled point, so the untraced passes of one run each take
their own master seed (see ``pass_seed``) and the run covers more points.

The machine's speed wanders: on a shared 2-core host the same computation
can take a third longer for minutes at a time.  So an untraced pass also
times a fixed reference computation before the first call and after each
one, and ``norm_wall_s`` expresses the workload's time in units of it.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median

from tracer import LAYERS, FunctionStats, Patches, Tracer, public_functions

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no qident sources to benchmark."""


def compile_sources() -> None:
    """Write qident's bytecode before anything imports it.

    Without cached bytecode every import compiles the sources, which adds
    about 40 ms to each `qident list` process and 3.7 MB to this process's
    peak memory, and whether the cache exists depends on the environment
    (PYTHONDONTWRITEBYTECODE, a fresh checkout).  `compileall` writes it even
    when PYTHONDONTWRITEBYTECODE is set.
    """
    if not (SRC / "qident" / "__init__.py").is_file():
        raise MissingProgram(f"no qident sources under {SRC}")
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "qident")],
        check=True,
        capture_output=True,
        timeout=120,
    )


def load_qident():
    """Import qident from this checkout's `src`, never from anywhere else."""
    if not (SRC / "qident" / "__init__.py").is_file():
        raise MissingProgram(f"no qident sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("qident")
    if Path(pkg.__file__).resolve().parent != (SRC / "qident").resolve():
        raise MissingProgram(f"qident imported from {pkg.__file__}, not from {SRC}")
    for layer in LAYERS:
        importlib.import_module(f"qident.{layer}")
    return pkg


@dataclass(frozen=True)
class Workload:
    name: str
    ids: tuple[str, ...] | None  # None: every registered identity, in order
    trials: int
    n_max: int | None = None
    m_max: int | None = None


LINALG_LARGE_IDS = (
    "gram_det",
    "gram_to_bordered",
    "little_qjacobi_hankel",
    "mehta_wang_det",
    "even_order_det",
    "pfaffian_eval",
    "pfaffian_integer_exp",
    "gamma_pfaffian",
)

WORKLOADS = {
    w.name: w
    for w in (
        # `qident verify --all --trials 20`: the command users run.
        Workload("suite_default", None, trials=20),
        # Determinant and Pfaffian engines on operands of thousands of bits.
        # bordered_det is left out: its capped cofactor oracle dominates at
        # n_max >= 8 and would hide the engines.
        Workload("linalg_large", LINALG_LARGE_IDS, trials=4, n_max=10, m_max=5),
    )
}


def plan(qi, workload: Workload):
    """(check, sizes) per identity, with sizes resolved as the CLI resolves them."""
    from qident.cli import SuiteConfig, resolve_sizes

    ids = workload.ids or tuple(c.id for c in qi.identities.REGISTRY)
    config = SuiteConfig(
        ids=ids,
        trials=workload.trials,
        n_max=workload.n_max,
        m_max=workload.m_max,
    )
    checks = qi.identities.CHECKS_BY_ID
    return [(checks[i], resolve_sizes(checks[i].defaults, config)) for i in ids]


@dataclass
class Gate:
    """Per-trial outcome counts seen through a wrapper on `run_trial`."""

    residuals: int = 0
    empty_trials: int = 0
    completed_trials: int = 0

    def wrap(self, run_trial):
        @functools.wraps(run_trial)
        def gated(check, trial_seed, sizes):
            residuals, pt = run_trial(check, trial_seed, sizes)
            self.completed_trials += 1
            self.residuals += len(residuals)
            if not residuals:
                self.empty_trials += 1
            return residuals, pt

        return gated


@dataclass
class PassResult:
    seed: int
    wall_s: float
    check_s: dict[str, float]
    check_failures: dict[str, int]
    attempted: int
    failed: int
    gate: Gate
    errors: list[str]
    # reference samples (seconds): one before the first call and one after each
    ref_s: list[float] = field(default_factory=list)


def _reference_work() -> Fraction:
    q, a, acc = Fraction(3, 7), Fraction(-5, 11), Fraction(1)
    for k in range(120):
        acc *= 1 - a * q**k
    return acc


REF_REPEAT = 10
# Median reference sample on a quiet host (2-core Intel Xeon, Python 3.11.7).
REF_S = 0.035


def reference_sample() -> float:
    """Seconds that a fixed computation with stdlib Fractions takes.

    It uses no qident code, so no change to qident can make it faster or
    slower; it shows only how fast the machine is at that moment.  The
    collector is off while it runs, so that objects left alive by qident
    cannot slow it down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REF_REPEAT):
            _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_pass(
    qi, checks, trials: int, seed: int, tracer: Tracer | None = None, reference: bool = False
) -> PassResult:
    """One timed pass: a `run_check` call per identity, under the gate.

    A trial fails on a nonzero residual, on an empty residual list (a vacuous
    pass) or, for every trial of the call, on any exception.
    """
    ident = qi.identities
    gate = Gate()
    check_s: dict[str, float] = {}
    check_failures: dict[str, int] = {}
    errors: list[str] = []
    # The tracer is entered first and left last, so its wrappers are restored
    # only after the gate's wrapper on top of them is gone.
    with tracer if tracer is not None else contextlib.nullcontext(), Patches() as patches:
        patches.replace(ident.run_trial, gate.wrap(ident.run_trial))
        run_check = ident.run_check
        ref_s = [reference_sample()] if reference else []
        t_pass = time.perf_counter()
        for check, sizes in checks:
            empty_before = gate.empty_trials
            t0 = time.perf_counter()
            try:
                report = run_check(check, trials, seed, sizes)
            except Exception as exc:  # a crash is a failed verdict, not a benchmark crash
                errors.append(f"{check.id} at master seed {seed}: {type(exc).__name__}: {exc}")
                check_failures[check.id] = trials
            else:
                check_failures[check.id] = report.failures + gate.empty_trials - empty_before
            check_s[check.id] = time.perf_counter() - t0
            if reference:
                ref_s.append(reference_sample())
        wall_s = time.perf_counter() - t_pass - sum(ref_s[1:])
    return PassResult(
        seed=seed,
        wall_s=wall_s,
        check_s=check_s,
        check_failures=check_failures,
        attempted=trials * len(checks),
        failed=sum(check_failures.values()),
        gate=gate,
        errors=errors,
        ref_s=ref_s,
    )


PASS_SEED_STRIDE = 1_000_000


def pass_seed(seed: int, k: int) -> int:
    """Master seed of the k-th untraced pass of a run; pass 0 uses `seed` itself."""
    return seed + k * PASS_SEED_STRIDE


def norm_wall_s(passes: list[PassResult]) -> float:
    """Time to a verdict for the workload in reference seconds.

    Each identity's call time is divided by the mean of the reference samples
    taken just before and just after it, the median of that ratio over the
    passes is summed over the identities, and the sum is scaled by REF_S.
    """
    total = 0.0
    for i, check_id in enumerate(passes[0].check_s):
        total += median(
            p.check_s[check_id] / ((p.ref_s[i] + p.ref_s[i + 1]) / 2) for p in passes
        )
    return total * REF_S


# Per-function figures reported from the traced run, by "layer.function".
TRACED_FUNCTIONS = {
    "scalar.sample_point": ("calls", "self_s"),
    "scalar.qpoch": ("calls", "self_s"),
    "scalar.qpoch_multi": ("self_s",),
    "askey_wilson.aw_moment": ("calls", "self_s"),
    "askey_wilson.moment_functional": ("self_s",),
    "askey_wilson.aw_poly": ("self_s",),
    "askey_wilson.newton_lattice_coeffs": ("self_s",),
    "askey_wilson.connection_u": ("self_s",),
    "series.phi_series": ("calls", "self_s", "max_bits"),
    "series.series_mul": ("calls", "self_s", "max_bits"),
    "series.series_linear_combine": ("self_s",),
    "series.phi_terminating": ("self_s",),
    "series.phi_term": ("calls",),
    "linalg.det_fraction_free": ("calls", "self_s", "max_bits"),
    "linalg.pfaffian_expansion": ("calls", "self_s", "max_bits"),
    "linalg.det_cofactor": ("self_s",),
    "linalg.det_condensation": ("self_s",),
    "linalg.pfaffian_matchings": ("self_s",),
    "identities.run_trial": ("self_s",),
}

_CLOSED_FORM_EXTRA = frozenset(
    ("det_prefactor", "gram_prefactor", "six_term_parts", "six_term_g", "six_term_xi")
)


def function_group(label: str) -> str | None:
    """The identities group ('build' or 'closed_form') a traced function belongs to."""
    layer, _, name = label.partition(".")
    if layer != "identities":
        return None
    if name.startswith("build_"):
        return "build"
    if name.startswith("rhs_") or name in _CLOSED_FORM_EXTRA:
        return "closed_form"
    return None


def bits_labels(qi) -> frozenset[str]:
    """Traced functions whose results are measured for operand bit size."""
    labels = {f for f, kinds in TRACED_FUNCTIONS.items() if "max_bits" in kinds}
    labels.update(
        f"identities.{name}"
        for name in public_functions(qi.identities)
        if function_group(f"identities.{name}")
    )
    return frozenset(labels)


def layer_metric_units(check_ids) -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"calls": "count", "self_s": "s", "max_bits": "bits"}
    out: dict[str, str] = {}
    for label, kinds in TRACED_FUNCTIONS.items():
        for kind in kinds:
            out[f"{label}.{kind}"] = units[kind]
        if label == "scalar.sample_point":
            out["scalar.sample_point.useful_ratio"] = "ratio"
    for check_id in check_ids:
        out[f"identities.{check_id}.s"] = "s"
    for group in ("build", "closed_form"):
        out[f"identities.{group}.self_s"] = "s"
        out[f"identities.{group}.max_bits"] = "bits"
    out["identities.residuals.count"] = "count"
    out["identities.residuals.empty_trials"] = "count"
    out["trace.overhead_s"] = "s"
    return out


def traced_metrics(traced: PassResult, tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass (everything but per-identity times)."""
    stats = tracer.stats()
    out: dict[str, float] = {}
    for label, kinds in TRACED_FUNCTIONS.items():
        s = stats.get(label, FunctionStats())
        for kind in kinds:
            out[f"{label}.{kind}"] = getattr(s, kind)
    sample_calls = out["scalar.sample_point.calls"]
    out["scalar.sample_point.useful_ratio"] = (
        traced.gate.completed_trials / sample_calls if sample_calls else 0.0
    )
    for group in ("build", "closed_form"):
        members = [s for label, s in stats.items() if function_group(label) == group]
        out[f"identities.{group}.self_s"] = sum(s.self_s for s in members)
        out[f"identities.{group}.max_bits"] = max((s.max_bits for s in members), default=0)
    out["identities.residuals.count"] = traced.gate.residuals
    out["identities.residuals.empty_trials"] = traced.gate.empty_trials
    return out


"""Digests of every check's attempts over one table of runs, compared between
two source trees or with the golden file.

    python tools/attempt_diff.py [--nmax N] [--mmax M] [--order K] OLD_ROOT NEW_ROOT [CHECK_ID ...]
    python tools/attempt_diff.py --write-golden | --check-golden

TABLE holds every run the repository gates on: a new gate run is a row of it,
not a CI step.  A row runs each of its checks (every check where it names
none) at each of its heights, its trials at seed SEED, with its Sizes fields
over the check's defaults.  Its label is the `qident verify` flags besides
--identity, --height and --seed that replay it, or `defaults` for none, and
each check and height of it is named `<check> at height <h> with <label>`,
without ` with defaults`.

A worker, a subprocess with one tree's `src` alone on the path, runs rows
through that tree's identities.run_trial.  Per check and height, digest()
counts the attempts, resampled or not, and those that raised, and hashes each
attempt's seed and either its exception's type and message or its residuals'
zero pattern: alone into `outcomes`, and with each residual's value (_value,
which no integer pair that holds the value changes) into `sha256`.  A change
of the counts or of outcomes is an outcome change; one of sha256 alone, as
from a port from Q to residues mod p, is a values change.

Both modes print `outcomes changed: <name>` or `values changed: <name>` per
change, then one summary line.  OLD_ROOT NEW_ROOT runs the defaults row, or
its CHECK_IDs, under the size flags in both trees' workers at once, names
each `<check> at height <h>` whatever the flags, and exits 1 only if some
outcome changed.  --check-golden recomputes every row of
tests/golden/attempts.json, which holds each row's definition and digests, on
two workers, and exits 1 on either kind of change or on a failed trial,
which prints `failed: <name>`; it needs no pytest.  A trial fails, as in
`qident verify`, where its residuals are not all zero or, in a row outside
SWEEPS, where it exhausted its draws (SamplingExhausted).  --write-golden
rewrites the file, unless a trial failed: then it prints the same lines,
writes nothing and exits 1.

Bad input prints one line on stderr and exits 2: arguments that fit neither
usage, an unknown CHECK_ID, sizes that identities.validate_run rejects, a
root with no src/qident/__init__.py, a crashed worker (after its traceback)
and, in the golden modes, a trial that compared nothing or raised past
PoleError, DegenerateLattice, DuplicateNodes and SamplingExhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

SEED = 0
TRIALS = 20  # `qident verify`'s default
HEIGHTS = (2, 3, 40)
SIZE_FLAGS = {"nmax": "n_max", "mmax": "m_max", "order": "order"}  # flag -> Sizes field
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "attempts.json"


class Row(NamedTuple):
    """One run of the table: each of `ids` (every check where empty) at each
    of `heights`, `trials` trials, with `sizes` over each check's defaults."""

    ids: tuple[str, ...]
    trials: int
    heights: tuple[int, ...]
    sizes: dict[str, int]  # Sizes fields

    @property
    def label(self) -> str:
        flags = [] if self.trials == TRIALS else [f"--trials {self.trials}"]
        flags += [f"--{flag} {self.sizes[f]}" for flag, f in SIZE_FLAGS.items() if f in self.sizes]
        return " ".join(flags) or "defaults"


MATRIX = (
    "gram_det", "gram_to_bordered", "little_qjacobi_hankel", "mehta_wang_det", "even_order_det",
    "pfaffian_eval", "pfaffian_integer_exp", "gamma_pfaffian", "bordered_det",
)
MOMENTS = ("basis_moments", "moment_double_sum", "moment_symmetry")
SERIES = ("main_quadratic", "quadratic_specialization", "contiguous_relation")
# The two size sets: every check, and the checks that --nmax 10 --mmax 5
# changes (the other ten read only `order` or clamp n_max or m_max below
# these), at heights 2, 3 and 40.  At heights 2 and 3 a few of their trials
# exhaust their draws, which these rows pin; every other row fails on it,
# as `qident verify` does.
SWEEPS = (
    Row((), TRIALS, HEIGHTS, {}),
    Row(
        (*MATRIX, "six_term_sums", "six_term_pairs", "six_term_factorization", "aw_quadratic",
         "andrews_qwatson", *MOMENTS),
        TRIALS, HEIGHTS, {"n_max": 10, "m_max": 5},
    ),
)
# A row names only checks whose attempts no other row runs: a check that
# ignores or clamps a size the row sets would repeat another row's attempts.
TABLE = (
    *SWEEPS,
    # builders, engines, oracles, closed forms and Gram elimination mod a
    # per-trial prime; pfaffian_eval's matrix, the top-order plain Hankel
    # closed form and pfaffian_eval's top-order closed form stay exact
    Row(MATRIX, 2, (40,), {"n_max": 15, "m_max": 8}),
    # degenerate entries: the builders and closed forms mod p must raise
    # exactly where the exact ones would
    Row(MATRIX, TRIALS, (2, 3), {"n_max": 8, "m_max": 4}),
    # Bareiss, the condensation oracle (its interior minors inverted mod p)
    # and the cofactor oracle up to its cap; the moment functional mod p,
    # where exact weight sums would grow to tens of thousands of bits
    Row(("bordered_det", *MOMENTS), 2, (40,), {"n_max": 20}),
    # products, differences and the basis peel of polynomials of degree 12,
    # and p_n up to degree 12 from the 4phi3
    Row((*MOMENTS, "aw_quadratic", "bordered_det", "gram_det"), 2, (40,), {"n_max": 12}),
    # duplicate nodes and lattice collisions for every reader of the
    # node-difference table; height 4 exhausts newton_interpolation's draws
    Row(("newton_interpolation", "connection_coeffs"), TRIALS, (5,), {}),
    # the series residuals at larger orders, mod p at order 60, where their
    # integers stay below p^2
    Row(SERIES, 2, (40,), {"order": 12}),
    Row(SERIES, 2, (40,), {"order": 60}),
    # every (r, s) shape read from one base per point where poles are
    # frequent; at order 0 the contiguous prefactor is the one value that can raise
    Row(SERIES, TRIALS, (2, 3), {"order": 0}),
)


class BadRun(Exception):
    """Bad input, or a worker that crashed: the tool exits 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are BadRun, one line, not argparse's
    usage and exit."""

    def error(self, message):
        raise BadRun(message)


def _residue_value(num: int, den: int, p: int) -> str:
    """N/D mod p as N D^-1 mod p, or the marker */0 where D ≡ 0 mod p."""
    if den % p == 0:
        return f"*/0 mod {p}"
    return f"{num * pow(den, -1, p) % p} mod {p}"


def _value(r) -> str | list[str]:
    """A residual's value, the same for every integer pair that holds it: an
    int or a Fraction in lowest terms as its str, a Residue through
    _residue_value, and a SeriesResidue or TruncatedSeries as the list of
    its coefficients' values."""
    p, nums = getattr(r, "p", None), getattr(r, "nums", None)
    if nums is not None:
        return [str(Fraction(n, r.den)) if p is None else _residue_value(n, r.den, p) for n in nums]
    return str(r) if p is None else _residue_value(r.num, r.den, p)


def digest(records: list[dict]) -> dict:
    """The attempts, raised, outcomes and sha256 of one check at one height
    from its attempt records in order, as the module docstring defines them."""
    outcomes, values = hashlib.sha256(), hashlib.sha256()
    for record in records:
        if "raised" in record:
            outcome = value = ["raised", record["raised"]]
        else:
            zeros = [r["zero"] for r in record["residuals"]]
            outcome = ["residuals", zeros]
            value = ["residuals", zeros, [r["value"] for r in record["residuals"]]]
        outcomes.update((json.dumps([record["seed"], outcome]) + "\n").encode())
        values.update((json.dumps([record["seed"], value]) + "\n").encode())
    raised = sum("raised" in record for record in records)
    hexes = {"outcomes": outcomes.hexdigest(), "sha256": values.hexdigest()}
    return {"attempts": len(records), "raised": raised, **hexes}


def _check_records(check, sizes, trials: int) -> tuple[list[dict], list[str]]:
    """The record of every attempt of one check's `trials` trials at `sizes`,
    and each trial's verdict: passed, failed, exhausted (SamplingExhausted),
    compared nothing, or what it raised past the resample errors."""
    from qident import identities

    records, verdicts = [], []

    def run(pt, sizes):
        record = {"seed": pt.seed}
        records.append(record)
        try:
            residuals = check.run(pt, sizes)
        except Exception as exc:
            record["raised"] = f"{type(exc).__name__}: {exc}"
            raise
        record["residuals"] = [
            {"zero": bool(identities._is_zero(r)), "value": _value(r)} for r in residuals
        ]
        return residuals

    recorded = replace(check, run=run)
    for trial in range(trials):
        try:
            identities.run_trial(recorded, identities._trial_seed(check.id, SEED, trial), sizes)
        except identities.SamplingExhausted:
            verdicts.append("exhausted")
        except Exception as exc:
            verdicts.append(f"raised {type(exc).__name__}: {exc}")
        else:
            zeros = [r["zero"] for r in records[-1]["residuals"]]
            verdict = "passed" if zeros else "compared nothing"
            verdicts.append(verdict if all(zeros) else "failed")
    return records, verdicts


def _worker(root: str, rows: list[dict], part: int, parts: int) -> int:
    """Print [row index, '<check> at height <h>', digest, verdicts] for every
    parts-th check and height of `rows` from the part-th on, in the tree on
    the path, or on bad input {"error": message} and return 2."""
    from qident import identities

    try:
        plan = [
            (index, check, replace(check.defaults, height=h, **row["sizes"]), row["trials"])
            for index, row in enumerate(rows)
            for check in [identities.CHECKS_BY_ID[i] for i in row["ids"]] or identities.REGISTRY
            for h in row["heights"]
        ]
        for *_, sizes, trials in plan:
            identities.validate_run(trials, sizes)
    except (KeyError, identities.DomainError) as exc:
        unknown = isinstance(exc, KeyError)
        print(json.dumps({"error": f"unknown check id {exc} in {root}" if unknown else str(exc)}))
        return 2
    results = []
    for index, check, sizes, trials in plan[part::parts]:
        records, verdicts = _check_records(check, sizes, trials)
        results.append([index, f"{check.id} at height {sizes.height}", digest(records), verdicts])
    print(json.dumps(results))
    return 0


def _results(rows, roots: list[Path], parts: int) -> list[list]:
    """The results of one worker per root over `rows`, all run at once, the
    k-th taking part k % parts of `parts`; BadRun for a root with no package,
    or a worker with bad input or a crash."""
    for root in roots:
        if not (root / "src" / "qident" / "__init__.py").is_file():
            raise BadRun(f"{root} has no src/qident/__init__.py")
    worker = [sys.executable, __file__, "--worker"]
    definitions = json.dumps([row._asdict() for row in rows])
    runs = [
        subprocess.Popen(
            [*worker, str(root), definitions, str(k % parts), str(parts)],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            stdout=subprocess.PIPE,
            text=True,
        )
        for k, root in enumerate(roots)
    ]
    results = [json.loads(run.communicate()[0] or "{}") for run in runs]
    for root, run, result in zip(roots, runs, results):
        if run.returncode:
            raise BadRun(result.get("error", f"the worker of {root} exited with {run.returncode}"))
    return results


def _name(key: str, label: str) -> str:
    return key if label == "defaults" else f"{key} with {label}"


def _named(rows: list[dict]) -> dict[str, dict]:
    """Every row's digests by name."""
    return {_name(key, row["label"]): d for row in rows for key, d in row["digests"].items()}


def table_rows(root: Path, rows) -> tuple[list[dict], list[str]]:
    """The golden file's rows of `root` over `rows`, each row's label,
    definition and digests, from two workers that each take every second
    check and height, and 'failed: <name>' for each with a trial whose
    residuals are not all zero, or, outside SWEEPS, that exhausted its draws;
    BadRun for a trial that compared nothing or raised past the resample
    errors."""
    shares = _results(rows, [root, root], 2)
    results = [None] * sum(map(len, shares))
    results[0::2], results[1::2] = shares
    out = [{"label": row.label, **row._asdict(), "digests": {}} for row in rows]
    failed = []
    for index, key, digest_, verdicts in results:
        out[index]["digests"][key] = digest_
        name = _name(key, rows[index].label)
        for trial, verdict in enumerate(verdicts):
            if verdict not in ("passed", "failed", "exhausted"):
                raise BadRun(f"{name}: trial {trial} {verdict}")
        failing = {"failed"} if rows[index] in SWEEPS else {"failed", "exhausted"}
        failed += [f"failed: {name}"] if failing & set(verdicts) else []
    return json.loads(json.dumps(out)), failed  # with the file's lists for tuples


def changes(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """'outcomes changed: <name>', or else 'values changed: <name>', per name
    whose digests differ between the two tables."""
    lines = []
    for name in {**old, **new}:
        a, b = old.get(name, {}), new.get(name, {})
        if any(a.get(field) != b.get(field) for field in ("attempts", "raised", "outcomes")):
            lines.append(f"outcomes changed: {name}")
        elif a.get("sha256") != b.get("sha256"):
            lines.append(f"values changed: {name}")
    return lines


def _two_trees(argv: list[str]) -> list[dict[str, dict]]:
    """The digests of OLD_ROOT and NEW_ROOT by `<check> at height <h>` over the
    defaults row at the sizes argv gives."""
    parser = _Parser(usage=__doc__.splitlines()[3].strip())
    for flag in SIZE_FLAGS:
        parser.add_argument(f"--{flag}", type=int)
    # one positional each: argparse cannot name a missing one of a tuple metavar
    parser.add_argument("old_root", type=Path, metavar="OLD_ROOT")
    parser.add_argument("new_root", type=Path, metavar="NEW_ROOT")
    # given a default, argparse never counts it among the missing arguments
    parser.add_argument("check_ids", nargs="*", default=[])
    args = parser.parse_args(argv)
    sizes = {f: v for flag, f in SIZE_FLAGS.items() if (v := getattr(args, flag)) is not None}
    rows = [TABLE[0]._replace(ids=tuple(args.check_ids), sizes=sizes)]
    results = _results(rows, [args.old_root, args.new_root], 1)
    return [{key: d for _, key, d, _ in result} for result in results]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        return _worker(argv[1], json.loads(argv[2]), int(argv[3]), int(argv[4]))
    golden, failed = argv == ["--check-golden"], []
    try:
        if {"--write-golden", "--check-golden"} & set(argv) and len(argv) > 1:
            raise BadRun("--write-golden and --check-golden each take no other argument")
        if argv == ["--write-golden"]:
            rows, failed = table_rows(ROOT, TABLE)
            if failed:
                print(*failed, sep="\n")
                return 1
            GOLDEN.write_text(json.dumps({"seed": SEED, "rows": rows}, indent=1) + "\n")
            return 0
        if golden:
            old = _named(json.loads(GOLDEN.read_text())["rows"])
            rows, failed = table_rows(ROOT, TABLE)
            new = _named(rows)
        else:
            old, new = _two_trees(argv)
    except (BadRun, OSError) as exc:  # OSError: no golden file to read
        print(f"attempt_diff: {exc}", file=sys.stderr)
        return 2
    lines = changes(old, new)
    outcome_changes = sum(line.startswith("outcomes") for line in lines)
    counts = [sum(row[k] for row in t.values()) for t in (old, new) for k in ("attempts", "raised")]
    print(
        *lines,
        *failed,
        "{} check-heights compared; old {} attempts, {} raised; new {} attempts, {} raised; "
        "{} outcomes changed, {} values changed".format(
            len({**old, **new}), *counts, outcome_changes, len(lines) - outcome_changes
        ),
        sep="\n",
    )
    return 1 if outcome_changes or failed or (golden and lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

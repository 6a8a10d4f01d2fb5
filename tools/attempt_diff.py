"""Digests of every check's attempts, compared between two source trees or
with the golden file.

    python tools/attempt_diff.py [--nmax N] [--mmax M] [--order K] OLD_ROOT NEW_ROOT [CHECK_ID ...]
    python tools/attempt_diff.py --write-golden | --check-golden

A worker, a subprocess with one tree's `src` alone on the path, runs every
check (or each CHECK_ID) through that tree's identities.run_trial at seed
SEED, TRIALS trials and each height of HEIGHTS, at the check's default sizes
under --nmax, --mmax and --order.  Per check and height, digest() counts the
attempts, resampled or not, and those that raised, and hashes each attempt's
seed and either its exception's type and message or its residuals' zero
pattern: alone into `outcomes`, and with each residual's value (_value, which
no integer pair that holds the value changes) into `sha256`.  A change of the
counts or of outcomes is an outcome change; one of sha256 alone, as from a
port from Q to residues mod p, is a values change.

Both modes print `outcomes changed: <check> at height <h>` or `values changed:
...` per change, then one summary line.  OLD_ROOT NEW_ROOT runs both trees'
workers at once and exits 1 only if some outcome changed.  --check-golden
recomputes tests/golden/attempts.json, this tree's digests at each size set of
SIZE_SETS, and exits 1 on either kind of change; it needs no pytest.
--write-golden rewrites the file.  Bad input (arguments that fit neither
usage, an unknown CHECK_ID, sizes that identities.validate_run rejects, a root
with no src/qident/__init__.py) prints one line on stderr and exits 2, as does
a crashed worker after its traceback: exit 1 means only that something
changed.
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

SEED = 0
TRIALS = 20
HEIGHTS = (2, 3, 40)
SIZE_FLAGS = {"nmax": "n_max", "mmax": "m_max", "order": "order"}  # flag -> Sizes field
SIZE_SETS = {"defaults": {}, "--nmax 10 --mmax 5": {"n_max": 10, "m_max": 5}}
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "attempts.json"


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


def _check_records(check, sizes) -> list[dict]:
    """The record of every attempt of one check's TRIALS trials at `sizes`."""
    from qident import identities

    records = []

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
    for trial in range(TRIALS):
        try:
            identities.run_trial(recorded, identities._trial_seed(check.id, SEED, trial), sizes)
        except Exception:
            pass  # raised by the last attempt, or the resample cap's SamplingExhausted
    return records


def _worker(root: str, overrides: dict[str, int], check_ids: list[str]) -> int:
    """Print {"<check> at height <h>": digest} of the tree on the path, with
    the Sizes fields in `overrides` over each check's defaults, or on bad
    input {"error": message} and return 2."""
    from qident import identities

    try:
        checks = [identities.CHECKS_BY_ID[i] for i in check_ids] or identities.REGISTRY
        plan = [(c, replace(c.defaults, height=h, **overrides)) for c in checks for h in HEIGHTS]
        for _, sizes in plan:
            identities.validate_run(TRIALS, sizes)
    except (KeyError, identities.DomainError) as exc:
        unknown = isinstance(exc, KeyError)
        print(json.dumps({"error": f"unknown check id {exc} in {root}" if unknown else str(exc)}))
        return 2
    table = {f"{c.id} at height {s.height}": digest(_check_records(c, s)) for c, s in plan}
    print(json.dumps(table))
    return 0


def _tables(roots: list[Path], size_sets: list[dict[str, int]], check_ids=()) -> list[dict]:
    """The digests of one worker per root and size set, all run at once;
    BadRun for a root with no package, or a worker with bad input or a crash."""
    for root in roots:
        if not (root / "src" / "qident" / "__init__.py").is_file():
            raise BadRun(f"{root} has no src/qident/__init__.py")
    runs = [
        subprocess.Popen(
            [sys.executable, __file__, "--worker", str(root), json.dumps(sizes), *check_ids],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            stdout=subprocess.PIPE,
            text=True,
        )
        for root, sizes in zip(roots, size_sets)
    ]
    tables = [json.loads(run.communicate()[0] or "{}") for run in runs]
    for root, run, table in zip(roots, runs, tables):
        if run.returncode:
            raise BadRun(table.get("error", f"the worker of {root} exited with {run.returncode}"))
    return tables


def _named(golden: dict[str, dict]) -> dict[str, dict]:
    """All size sets' digests by name; names past the defaults end " with <size set>"."""
    return {
        name + (f" with {label}" if SIZE_SETS[label] else ""): row
        for label, table in golden.items()
        for name, row in table.items()
    }


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


def golden_digests() -> dict[str, dict]:
    """{size set: {"<check> at height <h>": digest}} of this tree."""
    return dict(zip(SIZE_SETS, _tables([ROOT] * len(SIZE_SETS), list(SIZE_SETS.values()))))


def _two_trees(argv: list[str]) -> list[dict[str, dict]]:
    """The named digests of OLD_ROOT and NEW_ROOT at the sizes argv gives."""
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
    return _tables([args.old_root, args.new_root], [sizes, sizes], args.check_ids)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        return _worker(argv[1], json.loads(argv[2]), argv[3:])
    golden = argv == ["--check-golden"]
    try:
        if {"--write-golden", "--check-golden"} & set(argv) and len(argv) > 1:
            raise BadRun("--write-golden and --check-golden each take no other argument")
        if argv == ["--write-golden"]:
            header = {"seed": SEED, "trials": TRIALS, "heights": list(HEIGHTS)}
            GOLDEN.write_text(json.dumps({**header, "digests": golden_digests()}, indent=1) + "\n")
            return 0
        if golden:
            old, new = _named(json.loads(GOLDEN.read_text())["digests"]), _named(golden_digests())
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
        "{} check-heights compared; old {} attempts, {} raised; new {} attempts, {} raised; "
        "{} outcomes changed, {} values changed".format(
            len({**old, **new}), *counts, outcome_changes, len(lines) - outcome_changes
        ),
        sep="\n",
    )
    return 1 if outcome_changes or (golden and lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Per-attempt differential of the registry between two source trees.

    python tools/attempt_diff.py [--nmax N] [--mmax M] [--order K] OLD_ROOT NEW_ROOT [CHECK_ID ...]

Each tree runs in a subprocess of its own, with only its `src` on the path.
There every check (or each CHECK_ID given) runs its trials through that
tree's own identities.run_trial, at master seed SEED, TRIALS trials and each
height of HEIGHTS, at the check's default sizes with n_max, m_max and order
replaced by --nmax, --mmax and --order where given, and every attempt,
resampled or not, is recorded: the seed of its point, and either the
exception it raised or its residuals.  The
attempts of the two trees are then matched one by one, and for each check
the script prints how many

  raised  raised the same exception type and message at the same seed;
  same    returned residuals with identical reprs at the same seed;
  values  returned the same zero pattern at the same seed, and every
          residual whose repr differs is a Residue or SeriesResidue equal as
          a value to the other tree's: N D' - N' D ≡ 0 mod p against its
          N'/D', a residue mod the same p or a Fraction, so a residual
          ported from ℚ to its residue mod p counts here;
  differ  did anything else: another seed, exception or zero pattern, or an
          attempt only one tree made.

A refactor that must leave every residual unchanged shows 0 in `differ`.
The exit code is 1 when some attempt differs, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

SEED = 0
TRIALS = 20
HEIGHTS = (2, 3, 40)
KINDS = ("raised", "same", "values", "differ")
SIZE_FLAGS = {"nmax": "n_max", "mmax": "m_max", "order": "order"}  # flag -> Sizes field


def _residual(r, is_zero) -> dict:
    """A residual's repr digest, whether it reads zero, for a residue mod p
    its numerators, denominator and p, and for a Fraction its numerator and
    denominator, with no p."""
    out = {"repr": hashlib.sha256(repr(r).encode()).hexdigest(), "zero": bool(is_zero(r))}
    if hasattr(r, "p") and hasattr(r, "den"):
        out["mod"] = [list(r.nums) if hasattr(r, "nums") else [r.num], r.den, r.p]
    elif isinstance(r, Fraction):
        out["exact"] = [[r.numerator], r.denominator, None]
    return out


def _worker(root: str, overrides: dict[str, int], check_ids: list[str]) -> None:
    """Print one JSON record per attempt of the tree that is on the path,
    with the Sizes fields in `overrides` replacing each check's defaults."""
    from dataclasses import replace

    import qident
    from qident import identities

    if not Path(qident.__file__).resolve().is_relative_to(Path(root).resolve()):
        raise SystemExit(f"qident imported from {qident.__file__}, not from {root}")
    checks = [identities.CHECKS_BY_ID[i] for i in check_ids] or identities.REGISTRY
    for check in checks:
        for height in HEIGHTS:
            sizes = replace(check.defaults, height=height, **overrides)
            for trial in range(TRIALS):
                records = []

                def run(pt, sizes, check=check):
                    record = {"seed": pt.seed}
                    records.append(record)
                    try:
                        residuals = check.run(pt, sizes)
                    except Exception as exc:
                        record["raised"] = f"{type(exc).__name__}: {exc}"
                        raise
                    record["residuals"] = [_residual(r, identities._is_zero) for r in residuals]
                    return residuals

                trial_seed = identities._trial_seed(check.id, SEED, trial)
                try:
                    identities.run_trial(replace(check, run=run), trial_seed, sizes)
                except Exception:
                    pass  # raised by the last attempt, or the resample cap's SamplingExhausted
                for attempt, record in enumerate(records):
                    key = [check.id, height, trial, attempt]
                    print(json.dumps({"key": key, **record}))


def _equal_as_values(a: dict, b: dict) -> bool:
    """Whether two residues mod the same p, or a residue mod p and a Fraction,
    hold the same value: N D' - N' D ≡ 0 mod p for N/D and N'/D'."""
    values = [r.get("mod") or r.get("exact") for r in (a, b)]
    if None in values:
        return False
    (nums, den, p), (nums2, den2, p2) = values
    primes = {p, p2} - {None}
    if len(primes) != 1 or len(nums) != len(nums2):
        return False
    [p] = primes
    return all((x * den2 - y * den) % p == 0 for x, y in zip(nums, nums2))


def classify(old: dict | None, new: dict | None) -> str:
    """The kind of one attempt, as the module docstring defines it."""
    if old is None or new is None or old["seed"] != new["seed"]:
        return "differ"
    if "raised" in old or "raised" in new:
        return "raised" if old.get("raised") == new.get("raised") else "differ"
    pairs = list(zip(old["residuals"], new["residuals"]))
    if len(old["residuals"]) != len(new["residuals"]) or any(
        a["zero"] != b["zero"] for a, b in pairs
    ):
        return "differ"
    if all(a["repr"] == b["repr"] for a, b in pairs):
        return "same"
    if all(a["repr"] == b["repr"] or _equal_as_values(a, b) for a, b in pairs):
        return "values"
    return "differ"


def _attempts(root: Path, check_ids: list[str], overrides: dict[str, int]) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.Popen(
        [sys.executable, __file__, "--worker", str(root), json.dumps(overrides), *check_ids],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def compare(
    old_root: Path,
    new_root: Path,
    check_ids: list[str] = (),
    overrides: dict[str, int] | None = None,
) -> dict[str, dict]:
    """{check id: {kind: count}} over every attempt of either tree, at the
    sizes `overrides` (Sizes fields) set over each check's defaults."""
    runs = [
        _attempts(Path(root), list(check_ids), overrides or {}) for root in (old_root, new_root)
    ]
    trees = []
    for run in runs:
        out, _ = run.communicate()
        if run.returncode:
            raise RuntimeError(f"a worker exited with {run.returncode}")
        records = [json.loads(line) for line in out.splitlines()]
        trees.append({tuple(r["key"]): r for r in records})
    old, new = trees
    counts: dict[str, dict] = {}
    for key in list(old) + [key for key in new if key not in old]:
        row = counts.setdefault(key[0], dict.fromkeys(KINDS, 0))
        row[classify(old.get(key), new.get(key))] += 1
    return counts


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        _worker(argv[1], json.loads(argv[2]), argv[3:])
        return 0
    parser = argparse.ArgumentParser(usage=__doc__.splitlines()[2].strip())
    for flag in SIZE_FLAGS:
        parser.add_argument(f"--{flag}", type=int)
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("check_ids", nargs="*")
    args = parser.parse_args(argv)
    overrides = {
        field: getattr(args, flag)
        for flag, field in SIZE_FLAGS.items()
        if getattr(args, flag) is not None
    }
    counts = compare(args.old_root, args.new_root, args.check_ids, overrides)
    print(f"{'check':<24}{'attempts':>9}" + "".join(f"{k:>8}" for k in KINDS))
    total = dict.fromkeys(KINDS, 0)
    for check_id, row in counts.items():
        print(f"{check_id:<24}{sum(row.values()):>9}" + "".join(f"{row[k]:>8}" for k in KINDS))
        for k in KINDS:
            total[k] += row[k]
    print(f"{'total':<24}{sum(total.values()):>9}" + "".join(f"{total[k]:>8}" for k in KINDS))
    return 1 if total["differ"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

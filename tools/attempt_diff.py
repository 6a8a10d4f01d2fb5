"""Per-attempt differential of the registry between two source trees.

    python tools/attempt_diff.py [--nmax N] [--mmax M] [--order K] OLD_ROOT NEW_ROOT [CHECK_ID ...]
    python tools/attempt_diff.py --write-golden | --check-golden

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

The golden digests, tests/golden/attempts.json, pin the attempts of this
tree at its default sizes: for each check and height, the attempt count,
the raised count and a SHA-256 over the attempts in order, each its seed
and either its exception's type and message or its residuals' zero pattern
and values.  A value does not depend on the integer pair that holds it (see
_value), so a change of unreduced pair keeps the digest and a change of
value does not.  --write-golden rewrites the file from this tree.
--check-golden recomputes the digests, prints each check and height whose
digest changed, and exits 1 if there is one, 0 otherwise; it needs no
pytest.  A change that alters outcomes by design rewrites the file.
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
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "attempts.json"


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
    p = getattr(r, "p", None)
    if hasattr(r, "nums"):
        if p is None:
            return [str(Fraction(n, r.den)) for n in r.nums]
        return [_residue_value(n, r.den, p) for n in r.nums]
    if p is not None:
        return _residue_value(r.num, r.den, p)
    return str(r)


def _residual(r, is_zero) -> dict:
    """A residual's repr digest, whether it reads zero, its _value, for a
    residue mod p its numerators, denominator and p, and for a Fraction its
    numerator and denominator, with no p."""
    out = {
        "repr": hashlib.sha256(repr(r).encode()).hexdigest(),
        "zero": bool(is_zero(r)),
        "value": _value(r),
    }
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


def _records(run: subprocess.Popen) -> list[dict]:
    """The attempt records a worker printed."""
    out, _ = run.communicate()
    if run.returncode:
        raise RuntimeError(f"a worker exited with {run.returncode}")
    return [json.loads(line) for line in out.splitlines()]


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
    old, new = [{tuple(r["key"]): r for r in _records(run)} for run in runs]
    counts: dict[str, dict] = {}
    for key in list(old) + [key for key in new if key not in old]:
        row = counts.setdefault(key[0], dict.fromkeys(KINDS, 0))
        row[classify(old.get(key), new.get(key))] += 1
    return counts


def golden_digests() -> dict[str, dict[str, dict]]:
    """{check id: {height: {"attempts", "raised", "sha256"}}} of this tree at
    its default sizes, as the module docstring defines them."""
    digests: dict[str, dict[str, dict]] = {}
    hashes = {}
    for record in _records(_attempts(ROOT, [], {})):
        check_id, height = record["key"][0], str(record["key"][1])
        row = digests.setdefault(check_id, {}).setdefault(height, {"attempts": 0, "raised": 0})
        row["attempts"] += 1
        if "raised" in record:
            row["raised"] += 1
            outcome = ["raised", record["raised"]]
        else:
            residuals = record["residuals"]
            outcome = ["residuals", [r["zero"] for r in residuals], [r["value"] for r in residuals]]
        line = json.dumps([record["seed"], outcome]) + "\n"
        hashes.setdefault((check_id, height), hashlib.sha256()).update(line.encode())
    for (check_id, height), digest in hashes.items():
        digests[check_id][height]["sha256"] = digest.hexdigest()
    return digests


def check_golden() -> list[str]:
    """'check at height h' for each digest of golden_digests() that differs
    from the file GOLDEN, or is in only one of them."""
    want, got = json.loads(GOLDEN.read_text())["digests"], golden_digests()
    keys = {(c, h) for digests in (want, got) for c, rows in digests.items() for h in rows}
    return [
        f"{c} at height {h}"
        for c, h in sorted(keys, key=lambda key: (key[0], int(key[1])))
        if want.get(c, {}).get(h) != got.get(c, {}).get(h)
    ]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        _worker(argv[1], json.loads(argv[2]), argv[3:])
        return 0
    if argv == ["--write-golden"]:
        header = {"seed": SEED, "trials": TRIALS, "heights": list(HEIGHTS)}
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps({**header, "digests": golden_digests()}, indent=1) + "\n")
        return 0
    if argv == ["--check-golden"]:
        changed = check_golden()
        for name in changed:
            print(f"digest changed: {name}")
        return 1 if changed else 0
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

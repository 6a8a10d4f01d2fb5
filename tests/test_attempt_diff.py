"""The attempt digests of tools/attempt_diff.py: digest() on synthetic
records, the two-tree mode on the repository and on edited copies, bad input,
and the golden attempt digests of tests/golden/attempts.json."""

import importlib.util
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from qident.identities import CHECKS_BY_ID, REGISTRY, Sizes, _is_zero
from qident.scalar import Residue
from qident.series import SeriesResidue, TruncatedSeries

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "attempt_diff.py"
_spec = importlib.util.spec_from_file_location("attempt_diff", TOOL)
attempt_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(attempt_diff)


def record(seed, *residuals):
    """One attempt's record, as the worker makes it, of residual objects."""
    out = [{"zero": bool(_is_zero(r)), "value": attempt_diff._value(r)} for r in residuals]
    return {"seed": seed, "residuals": out}


def outcomes(*records):
    return attempt_diff.digest(list(records))["outcomes"]


def sha256(*records):
    return attempt_diff.digest(list(records))["sha256"]


def tree(tmp_path, appended):
    """A copy of the repository's src with `appended` added to identities.py."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "qident" / "identities.py", "a") as f:
        f.write(appended)
    return tmp_path


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, timeout=60
    )


def test_the_repository_against_itself_on_one_check(capsys):
    # at height 2 some points of contiguous_relation hit poles and resample
    t0 = time.perf_counter()
    assert attempt_diff.main([str(ROOT), str(ROOT), "contiguous_relation"]) == 0
    assert time.perf_counter() - t0 < 1
    [summary] = capsys.readouterr().out.splitlines()
    head, old, new, tail = summary.split("; ")
    assert head == "3 check-heights compared"
    assert old.replace("old", "new") == new and tail == "0 outcomes changed, 0 values changed"
    attempts, raised = (int(word) for word in old.split() if word.isdigit())
    assert raised > 0 and attempts - raised == attempt_diff.TRIALS * len(attempt_diff.HEIGHTS)


def test_a_zero_fraction_and_its_zero_residue_share_outcomes_not_values():
    exact, modular = record(1, Fraction(0)), record(1, Residue(0, 5, 7))
    assert outcomes(exact) == outcomes(modular)
    assert sha256(exact) != sha256(modular)


def test_a_residue_held_as_another_pair_keeps_both_digests():
    # 3/5 and 6/10 mod 7 are one value; so are the series 3/10, 6/10 and 6/20, 12/20
    for one, other in (
        (Residue(3, 5, 7), Residue(6, 10, 7)),
        (Residue(3, 7, 7), Residue(4, 14, 7)),
        (SeriesResidue([3, 6], 10, 7), SeriesResidue([6, 12], 20, 7)),
    ):
        assert attempt_diff.digest([record(1, one)]) == attempt_diff.digest([record(1, other)])
    assert sha256(record(1, Residue(3, 5, 7))) != sha256(record(1, Residue(3, 6, 7)))


def test_each_outcome_field_changes_the_outcome_digest():
    raised = {"seed": 1, "raised": "PoleError: (abcd;q)_n vanishes"}
    returned = record(1, Fraction(0), Fraction(1, 3))
    base = outcomes(raised, returned)
    for changed in (
        [{**raised, "seed": 2}, returned],
        [{**raised, "raised": "PoleError: (abcd;q)_n is zero"}, returned],
        [raised, record(1, Fraction(1), Fraction(1, 3))],  # a zero flag
        [raised, record(1, Fraction(0))],  # the residual count
        [raised, record(1, Fraction(0), Fraction(1, 3), Fraction(0))],
        [raised],  # the attempt count
        [raised, raised, returned],
    ):
        assert outcomes(*changed) != base
    assert outcomes(raised, record(1, Fraction(0), Fraction(2, 3))) == base
    digest = attempt_diff.digest([raised, returned])
    assert (digest["attempts"], digest["raised"]) == (2, 1)


def test_two_trees_whose_outcomes_differ_exit_1_naming_each_check_and_height(tmp_path):
    # no residual reads zero in the new tree, so every pattern that had one changes
    new = tree(tmp_path, "\n\ndef _is_zero(residual):\n    return False\n")
    done = run_tool(ROOT, new, "contiguous_relation")
    assert done.returncode == 1, done.stderr
    *lines, summary = done.stdout.splitlines()
    assert lines == [f"outcomes changed: contiguous_relation at height {h}" for h in (2, 3, 40)]
    assert summary.endswith("; 3 outcomes changed, 0 values changed")


@pytest.mark.parametrize(
    "args, error",
    [
        ((ROOT, ROOT, "no_such_check"), f"unknown check id 'no_such_check' in {ROOT}"),
        (("--mmax", -1, ROOT, ROOT, "even_order_det"), "m_max must be at least 0, got -1"),
        (
            (ROOT, ROOT / "tests", "even_order_det"),
            f"{ROOT / 'tests'} has no src/qident/__init__.py",
        ),
        ((), "the following arguments are required: OLD_ROOT, NEW_ROOT"),
        ((ROOT,), "the following arguments are required: NEW_ROOT"),
        (
            ("--check-golden", "--nmax", 3),
            "--write-golden and --check-golden each take no other argument",
        ),
        (
            ("--write-golden", "--check-golden"),
            "--write-golden and --check-golden each take no other argument",
        ),
    ],
    ids=[
        "unknown_check_id",
        "rejected_sizes",
        "no_package",
        "no_argument",
        "one_root",
        "check_golden_with_sizes",
        "both_golden_modes",
    ],
)
def test_bad_input_exits_2_with_one_line_on_stderr(args, error):
    done = run_tool(*args)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"attempt_diff: {error}\n")


def test_a_crashed_worker_exits_2(tmp_path):
    done = run_tool(ROOT, tree(tmp_path, "\nraise RuntimeError('crash')\n"), "contiguous_relation")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines()[-1] == f"attempt_diff: the worker of {tmp_path} exited with 1"


def test_size_overrides_reach_every_attempt():
    # even_order_det compares one determinant per order m = 1..m_max, and
    # with no pole at height 40 no attempt resamples
    check = CHECKS_BY_ID["even_order_det"]
    for overrides, count in (({}, 3), ({"m_max": 2}, 2), ({"m_max": 5, "n_max": 1}, 5)):
        sizes = replace(check.defaults, height=40, **overrides)
        records = attempt_diff._check_records(check, sizes)
        assert len(records) == attempt_diff.TRIALS
        assert all(len(r["residuals"]) == count for r in records)
        [worker] = attempt_diff._tables([ROOT], [overrides], ["even_order_det"])
        assert worker["even_order_det at height 40"] == attempt_diff.digest(records)


def test_size_flags_name_the_sizes_fields(capsys):
    assert attempt_diff.main(["--mmax", "1", str(ROOT), str(ROOT), "even_order_det"]) == 0
    assert capsys.readouterr().out.startswith("3 check-heights compared; old 60 attempts")
    assert set(attempt_diff.SIZE_FLAGS.values()) <= set(Sizes.__dataclass_fields__)
    for sizes in attempt_diff.SIZE_SETS.values():
        assert set(sizes) <= set(attempt_diff.SIZE_FLAGS.values())


def test_values_do_not_depend_on_the_pair_that_holds_them():
    value = attempt_diff._value
    # 3/5 and 6/10 mod 7 are 3 * 5^-1 = 3 * 3 = 2 mod 7
    assert value(Residue(3, 5, 7)) == value(Residue(6, 10, 7)) == "2 mod 7"
    assert value(Residue(3, 7, 7)) == value(Residue(4, 14, 7)) == "*/0 mod 7"
    assert value(Residue(3, 5, 11)) != value(Residue(3, 5, 7))
    assert value(Fraction(6, 10)) == "3/5" and value(3) == value(Fraction(3)) == "3"
    # 10^-1 = 5 mod 7
    assert value(SeriesResidue([3, 6, 7], 10, 7)) == ["1 mod 7", "2 mod 7", "0 mod 7"]
    assert value(TruncatedSeries.from_integers([3, 6], 9)) == ["1/3", "2/3"]


@pytest.fixture(scope="module")
def digests():
    return attempt_diff.golden_digests()


def test_golden_attempt_digests(digests):
    # every check at heights 2, 3 and 40 (seed 0, 20 trials) at each size set
    # makes the attempts the file pins; a change that alters outcomes or
    # values by design rewrites it with `python tools/attempt_diff.py --write-golden`
    golden = json.loads(attempt_diff.GOLDEN.read_text())
    assert (golden["seed"], golden["trials"]) == (attempt_diff.SEED, attempt_diff.TRIALS)
    assert golden["heights"] == list(attempt_diff.HEIGHTS)
    names = [f"{check.id} at height {h}" for check in REGISTRY for h in attempt_diff.HEIGHTS]
    assert list(digests) == list(attempt_diff.SIZE_SETS)
    assert all(list(table) == names for table in digests.values())
    assert digests == golden["digests"]


def test_check_golden_names_each_changed_digest(digests, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(attempt_diff, "golden_digests", lambda: digests)
    assert attempt_diff.main(["--check-golden"]) == 0
    assert "0 outcomes changed, 0 values changed" in capsys.readouterr().out
    # --write-golden writes the committed file again, byte for byte
    committed = attempt_diff.GOLDEN.read_text()
    monkeypatch.setattr(attempt_diff, "GOLDEN", tmp_path / "attempts.json")
    assert attempt_diff.main(["--write-golden"]) == 0
    assert attempt_diff.GOLDEN.read_text() == committed
    golden = json.loads(committed)
    defaults, gate = golden["digests"].values()
    # --check-golden exits 1 on a change of values alone, unlike the two-tree mode
    defaults["orthogonality at height 3"]["sha256"] = "0" * 64
    attempt_diff.GOLDEN.write_text(json.dumps(golden))
    assert attempt_diff.main(["--check-golden"]) == 1
    *lines, summary = capsys.readouterr().out.splitlines()
    assert lines == ["values changed: orthogonality at height 3"]
    gate["gram_det at height 40"]["outcomes"] = "0" * 64
    attempt_diff.GOLDEN.write_text(json.dumps(golden))
    assert attempt_diff.main(["--check-golden"]) == 1
    *lines, summary = capsys.readouterr().out.splitlines()
    assert lines == [
        "values changed: orthogonality at height 3",
        "outcomes changed: gram_det at height 40 with --nmax 10 --mmax 5",
    ]
    assert summary.endswith("; 1 outcomes changed, 1 values changed")
    # a golden file that cannot be read is bad input
    monkeypatch.setattr(attempt_diff, "GOLDEN", tmp_path / "missing.json")
    assert attempt_diff.main(["--check-golden"]) == 2
    assert capsys.readouterr().err.startswith("attempt_diff: [Errno 2]")

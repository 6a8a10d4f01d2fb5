"""The per-attempt differential in tools/attempt_diff.py: the repository
against itself, the classification of single attempts, and the golden
attempt digests of tests/golden/attempts.json."""

import importlib.util
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qident.identities import REGISTRY, Sizes
from qident.scalar import Residue
from qident.series import SeriesResidue, TruncatedSeries

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("attempt_diff", ROOT / "tools" / "attempt_diff.py")
attempt_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(attempt_diff)


def test_the_repository_against_itself_on_one_check():
    # at height 2 some points of contiguous_relation hit poles and resample
    t0 = time.perf_counter()
    counts = attempt_diff.compare(ROOT, ROOT, ["contiguous_relation"])
    assert time.perf_counter() - t0 < 1
    [(check_id, row)] = counts.items()
    assert check_id == "contiguous_relation"
    assert row["raised"] > 0 and row["same"] == attempt_diff.TRIALS * len(attempt_diff.HEIGHTS)
    assert row["values"] == row["differ"] == 0


def residual(repr_, zero, mod=None, exact=None):
    out = {"repr": repr_, "zero": zero}
    if mod:
        out["mod"] = mod
    if exact:
        out["exact"] = [*exact, None]
    return out


def test_attempts_are_classified_by_seed_exception_zeros_and_value():
    classify = attempt_diff.classify
    raised = {"seed": 1, "raised": "PoleError: (abcd;q)_n vanishes"}
    assert classify(raised, dict(raised)) == "raised"
    assert classify(raised, {**raised, "raised": "PoleError: term 2"}) == "differ"
    assert classify(raised, {**raised, "seed": 2}) == "differ"
    assert classify(raised, None) == "differ"
    # 3/5 and 6/10 mod 7 are one value held as two pairs
    old = {"seed": 1, "residuals": [residual("a", True), residual("b", False, [[3], 5, 7])]}
    assert classify(old, old) == "same"
    new = {"seed": 1, "residuals": [residual("a", True), residual("c", False, [[6], 10, 7])]}
    assert classify(old, new) == "values"
    new["residuals"][1] = residual("c", False, [[6], 11, 7])
    assert classify(old, new) == "differ"
    new["residuals"][1] = residual("b", True, [[3], 5, 7])
    assert classify(old, new) == "differ"  # another zero pattern
    assert classify(old, raised) == "differ"


def test_a_fraction_ported_to_its_residue_counts_as_values():
    classify = attempt_diff.classify
    # the exact residual 3/5 and its residue mod 7 held as 6/10: 3*10 - 6*5 = 0
    old = {"seed": 1, "residuals": [residual("a", True), residual("b", False, exact=[[3], 5])]}
    new = {"seed": 1, "residuals": [residual("a", True), residual("c", False, [[6], 10, 7])]}
    assert classify(old, new) == classify(new, old) == "values"
    new["residuals"][1] = residual("c", False, [[6], 11, 7])  # 3*11 - 6*5 = 3
    assert classify(old, new) == "differ"
    # two Fractions with different reprs are different values
    other = [residual("a", True), residual("c", False, exact=[[6], 11])]
    assert classify(old, {**old, "residuals": other}) == "differ"
    # the record of a run holds a Fraction's numerator and denominator
    assert attempt_diff._residual(Fraction(-3, 5), lambda r: r == 0)["exact"] == [[-3], 5, None]


def _records(overrides, check_id):
    run = attempt_diff._attempts(ROOT, [check_id], overrides)
    out, _ = run.communicate()
    assert run.returncode == 0
    return [json.loads(line) for line in out.splitlines()]


def test_size_overrides_reach_every_attempt():
    # even_order_det compares one determinant per order m = 1..m_max, and
    # with no pole at height 40 no attempt resamples
    for overrides, count in (({}, 3), ({"m_max": 2}, 2), ({"m_max": 5, "n_max": 1}, 5)):
        records = [r for r in _records(overrides, "even_order_det") if r["key"][1] == 40]
        assert len(records) == attempt_diff.TRIALS
        assert all(len(r["residuals"]) == count for r in records)


def test_size_flags_name_the_sizes_fields(capsys):
    assert attempt_diff.main(["--mmax", "1", str(ROOT), str(ROOT), "even_order_det"]) == 0
    assert "even_order_det" in capsys.readouterr().out
    assert set(attempt_diff.SIZE_FLAGS.values()) <= set(Sizes.__dataclass_fields__)


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
    # every check at heights 2, 3 and 40 (seed 0, 20 trials, default sizes)
    # makes the attempts the file pins; a change that alters outcomes by
    # design rewrites it with `python tools/attempt_diff.py --write-golden`
    golden = json.loads(attempt_diff.GOLDEN.read_text())
    assert (golden["seed"], golden["trials"]) == (attempt_diff.SEED, attempt_diff.TRIALS)
    assert golden["heights"] == list(attempt_diff.HEIGHTS)
    assert list(digests) == [check.id for check in REGISTRY]
    assert digests == golden["digests"]


def test_check_golden_names_each_changed_digest(digests, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(attempt_diff, "golden_digests", lambda: digests)
    assert attempt_diff.main(["--check-golden"]) == 0
    assert capsys.readouterr().out == ""
    # --write-golden writes the committed file again, byte for byte
    committed = attempt_diff.GOLDEN.read_text()
    monkeypatch.setattr(attempt_diff, "GOLDEN", tmp_path / "golden" / "attempts.json")
    assert attempt_diff.main(["--write-golden"]) == 0
    assert attempt_diff.GOLDEN.read_text() == committed
    golden = json.loads(committed)
    golden["digests"]["orthogonality"]["3"]["sha256"] = "0" * 64
    attempt_diff.GOLDEN.write_text(json.dumps(golden))
    assert attempt_diff.main(["--check-golden"]) == 1
    assert capsys.readouterr().out == "digest changed: orthogonality at height 3\n"

import json
import re
import subprocess
import sys

import pytest

from qident.cli import SuiteConfig, main
from qident.identities import CHECKS_BY_ID, REGISTRY, IdentityCheck, Sizes
from qident.scalar import DomainError, PoleError

from test_identities import MUTATED


def strip_millis(text: str) -> str:
    return re.sub(r'"millis": \d+', '"millis": 0', text)


def test_list_contains_all_ids(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "main_quadratic" in out
    assert "gram_det" in out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) >= 18
    for check in REGISTRY:
        assert check.id in out


def test_verify_single_identity(capsys):
    rc = main(["verify", "--identity", "desnanot_jacobi", "--trials", "5", "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "desnanot_jacobi" in out
    assert "failures=0" in out


def test_verify_all_one_trial(tmp_path, capsys):
    report_path = tmp_path / "all.json"
    rc = main(["verify", "--all", "--trials", "1", "--seed", "0", "--json", str(report_path)])
    assert rc == 0
    capsys.readouterr()
    document = json.loads(report_path.read_text())
    assert document["suite"] == "all"
    assert document["seed"] == 0
    ids = [entry["id"] for entry in document["results"]]
    assert ids == [check.id for check in REGISTRY]
    for entry in document["results"]:
        assert set(entry) == {
            "id",
            "paper_anchor",
            "trials",
            "failures",
            "witness_seeds",
            "millis",
        }
        assert entry["trials"] == 1
        assert entry["failures"] == 0
        assert entry["witness_seeds"] == []


def test_verify_json_report(tmp_path, capsys):
    out = tmp_path / "out.json"
    rc = main(
        [
            "verify",
            "--identity",
            "main_quadratic",
            "--trials",
            "3",
            "--seed",
            "1",
            "--order",
            "8",
            "--json",
            str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    document = json.loads(out.read_text())
    (entry,) = document["results"]
    assert entry["id"] == "main_quadratic"
    assert entry["trials"] == 3
    assert entry["failures"] == 0


def test_verify_repeatable_identity_flag(tmp_path, capsys):
    out = tmp_path / "two.json"
    rc = main(
        [
            "verify",
            "--identity", "three_term_kernel",
            "--identity", "connection_coeffs",
            "--trials", "2",
            "--json", str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    document = json.loads(out.read_text())
    assert [e["id"] for e in document["results"]] == [
        "three_term_kernel",
        "connection_coeffs",
    ]
    assert document["suite"] == "three_term_kernel,connection_coeffs"


def test_suite_is_all_only_for_the_registry_in_order():
    ids = tuple([check.id for check in REGISTRY])
    assert SuiteConfig(ids).suite_name == "all"
    # as many ids as the registry holds, but repeated or reordered
    for other in ((ids[0],) * len(ids), ids[::-1], ids[1:] + ids[:1]):
        assert len(other) == len(REGISTRY)
        assert SuiteConfig(other).suite_name == ",".join(other)


def test_report_deterministic_modulo_millis(tmp_path, capsys):
    paths = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        rc = main(
            [
                "verify",
                "--identity", "bordered_det",
                "--identity", "andrews_qwatson",
                "--trials", "4",
                "--seed", "42",
                "--json", str(path),
            ]
        )
        assert rc == 0
        paths.append(path)
    capsys.readouterr()
    r1, r2 = (strip_millis(p.read_text()) for p in paths)
    assert r1 == r2


def test_unknown_identity_is_config_error(capsys):
    rc = main(["verify", "--identity", "not_a_thing"])
    assert rc == 2
    assert "unknown identity" in capsys.readouterr().err


def test_unknown_identity_rejected_before_any_check_runs(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("qident.cli.run_check", lambda *args: calls.append(args))
    rc = main(["verify", "--identity", "orthogonality", "--identity", "bogus"])
    assert rc == 2
    assert "unknown identity: bogus" in capsys.readouterr().err
    assert calls == []


def test_no_selection_is_config_error(capsys):
    rc = main(["verify"])
    assert rc == 2


def test_all_plus_identity_is_config_error(capsys):
    rc = main(["verify", "--all", "--identity", "gram_det"])
    assert rc == 2


def test_negative_trials_is_config_error(capsys):
    rc = main(["verify", "--all", "--trials", "-1"])
    assert rc == 2


def test_zero_trials_is_config_error(capsys):
    rc = main(["verify", "--identity", "gram_det", "--trials", "0"])
    assert rc == 2
    assert capsys.readouterr().err == "configuration error: trials must be at least 1\n"


def test_bordered_det_past_the_cofactor_cap(capsys):
    # order 9 exceeds the cofactor oracle's cap; the other engines still run
    rc = main(["verify", "--identity", "bordered_det", "--nmax", "9", "--trials", "1"])
    assert rc == 0, capsys.readouterr().err


@pytest.mark.parametrize("height", ["0", "1"])
def test_height_below_two_is_config_error(height, capsys):
    rc = main(["verify", "--identity", "three_term_kernel", "--height", height])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: height must be at least 2, got {height}\n"


@pytest.mark.parametrize(
    "flag, size", [("--nmax", "n_max"), ("--mmax", "m_max"), ("--order", "order")]
)
def test_negative_size_exits_2_before_any_trial(flag, size, monkeypatch, capsys):
    trials = []
    monkeypatch.setattr("qident.identities.run_trial", lambda *args: trials.append(args))
    rc = main(["verify", "--all", flag, "-1", "--trials", "1"])
    assert rc == 2
    assert capsys.readouterr().err == f"configuration error: {size} must be at least 0, got -1\n"
    assert trials == []


def test_domain_error_inside_a_trial_exits_3(monkeypatch, capsys):
    def out_of_domain(pt, sizes):
        raise DomainError("degree must be nonnegative")

    check = IdentityCheck("out_of_domain", "test", ("q",), Sizes(), out_of_domain)
    monkeypatch.setitem(CHECKS_BY_ID, check.id, check)
    rc = main(["verify", "--identity", check.id, "--trials", "1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "internal error: out_of_domain: DomainError: degree must be nonnegative\n"


def test_sampling_exhausted_exits_2(monkeypatch, capsys):
    def always_pole(pt, sizes):
        raise PoleError("every point is a pole")

    check = IdentityCheck("always_pole", "test", ("q",), Sizes(), always_pole)
    monkeypatch.setitem(CHECKS_BY_ID, check.id, check)
    rc = main(["verify", "--identity", check.id, "--trials", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("sampling exhausted: always_pole")
    assert len(err.strip().splitlines()) == 1


def test_parse_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus-flag"])
    assert exc.value.code == 2


def test_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(CHECKS_BY_ID, MUTATED.id, MUTATED)
    rc = main(["verify", "--identity", MUTATED.id, "--trials", "2", "--seed", "0"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "witnesses=" in out


def test_exit_code_zero_iff_no_failures(monkeypatch, capsys):
    monkeypatch.setitem(CHECKS_BY_ID, MUTATED.id, MUTATED)
    rc = main(
        ["verify", "--identity", "three_term_kernel", "--identity", MUTATED.id, "--trials", "1"]
    )
    assert rc == 1
    capsys.readouterr()


def test_size_overrides_reach_checks(tmp_path, capsys):
    out = tmp_path / "sized.json"
    rc = main(
        [
            "verify",
            "--identity", "pfaffian_eval",
            "--trials", "1",
            "--mmax", "2",
            "--height", "10",
            "--nmax", "3",
            "--json", str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["results"][0]["failures"] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qident", "verify", "--identity", "three_term_kernel", "--trials", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "three_term_kernel" in proc.stdout


def test_sizes_leaving_no_residual_exit_2(capsys):
    rc = main(["verify", "--all", "--nmax", "0", "--mmax", "0", "--trials", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("vacuous check: bordered_det ")
    assert "n_max=0, m_max=0" in err
    assert len(err.strip().splitlines()) == 1


# a division by zero is a bug in the check, not a pole: it is not resampled
@pytest.mark.parametrize("error", [RuntimeError, ZeroDivisionError], ids=lambda e: e.__name__)
def test_unexpected_exception_in_check_exits_3(monkeypatch, capsys, error):
    def crash(pt, sizes):
        raise error("boom")

    check = IdentityCheck("crashes", "test", ("q",), Sizes(), crash)
    monkeypatch.setitem(CHECKS_BY_ID, check.id, check)
    rc = main(["verify", "--identity", check.id, "--trials", "1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == f"internal error: crashes: {error.__name__}: boom\n"


def test_unwritable_json_path_exits_2(tmp_path, capsys):
    # rejected before the first check runs: no check output
    path = tmp_path / "missing_dir" / "report.json"
    rc = main(["verify", "--identity", "three_term_kernel", "--trials", "1", "--json", str(path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"cannot write report: [Errno 2] No such file or directory: '{path}'\n"
    assert captured.out == ""


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_crash_leaves_no_report_behind(existing, tmp_path, monkeypatch, capsys):
    def crash(pt, sizes):
        raise RuntimeError("boom")

    check = IdentityCheck("crashes", "test", ("q",), Sizes(), crash)
    monkeypatch.setitem(CHECKS_BY_ID, check.id, check)
    path = tmp_path / "report.json"
    if existing:
        path.write_text("an earlier report\n")
    rc = main(["verify", "--identity", check.id, "--trials", "1", "--json", str(path)])
    assert rc == 3
    capsys.readouterr()
    if existing:
        assert path.read_text() == "an earlier report\n"
    else:
        assert not path.exists()

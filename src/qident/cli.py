"""Command-line front end: list identities, run verification suites.

Exit codes:
  0  every selected identity passed;
  1  at least one identity failed (a nonzero residual);
  2  configuration error, no pole-free sample point found, sizes that
     leave a check no residual to compare, or an unwritable --json path;
  3  internal error: a check raised an unexpected exception.
Reports are deterministic in (config, seed); only the per-identity
millisecond timings vary between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

from .identities import (
    CHECKS_BY_ID,
    REGISTRY,
    CheckReport,
    EmptyResiduals,
    Sizes,
    run_check,
    validate_run,
)
from .scalar import DomainError, SamplingExhausted


@dataclass(frozen=True)
class SuiteConfig:
    ids: tuple[str, ...]
    trials: int = 20
    seed: int = 0
    n_max: int | None = None
    m_max: int | None = None
    order: int | None = None
    height: int | None = None
    json_path: str | None = None

    @property
    def suite_name(self) -> str:
        if self.ids == tuple(CHECKS_BY_ID):  # the registry's ids, in its order
            return "all"
        return ",".join(self.ids)


class ConfigError(ValueError):
    pass


class CheckCrashed(RuntimeError):
    """A check raised an exception that is neither a verdict nor bad input."""

    def __init__(self, check_id: str, exc: Exception):
        super().__init__(f"{check_id}: {type(exc).__name__}: {exc}")


def resolve_sizes(check_defaults: Sizes, config: SuiteConfig) -> Sizes:
    overrides = {
        k: v
        for k, v in (
            ("n_max", config.n_max),
            ("m_max", config.m_max),
            ("order", config.order),
            ("height", config.height),
        )
        if v is not None
    }
    return replace(check_defaults, **overrides)


def run_suite(config: SuiteConfig) -> tuple[list[CheckReport], dict]:
    for check_id in config.ids:  # bad ids and sizes raise before the first check runs
        if check_id not in CHECKS_BY_ID:
            raise ConfigError(f"unknown identity: {check_id}")
    plan = [(CHECKS_BY_ID[i], resolve_sizes(CHECKS_BY_ID[i].defaults, config)) for i in config.ids]
    for _, sizes in plan:
        validate_run(config.trials, sizes)
    reports = []
    for check, sizes in plan:
        try:
            reports.append(run_check(check, config.trials, config.seed, sizes))
        except (EmptyResiduals, SamplingExhausted):
            raise
        except Exception as exc:
            raise CheckCrashed(check.id, exc) from exc
    document = {
        "suite": config.suite_name,
        "seed": config.seed,
        "results": [
            {
                "id": r.id,
                "paper_anchor": r.anchor,
                "trials": r.trials,
                "failures": r.failures,
                "witness_seeds": list(r.witness_seeds),
                "millis": r.millis,
            }
            for r in reports
        ],
    }
    return reports, document


def cmd_list(out=None) -> int:
    out = out if out is not None else sys.stdout
    for check in REGISTRY:
        sizes = check.defaults
        size_str = f"n_max={sizes.n_max} m_max={sizes.m_max} order={sizes.order}"
        line = f"{check.id:28} {check.anchor:42} {size_str}"
        if check.note:
            line += f"  [{check.note}]"
        print(line, file=out)
    return 0


def _claim_report_path(path: str) -> bool:
    """Open `path` for appending, which raises the OSError that writing the
    report would, without truncating a file already there; return whether
    this created the file."""
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    return not existed


def cmd_verify(config: SuiteConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    # an unwritable report path exits before the first check runs, and a
    # report file made for this run is removed again if no report follows
    created = bool(config.json_path) and _claim_report_path(config.json_path)
    try:
        reports, document = run_suite(config)
    except BaseException:
        if created:
            os.remove(config.json_path)
        raise
    for r in reports:
        status = "PASS" if r.failures == 0 else "FAIL"
        line = f"{r.id:28} trials={r.trials} failures={r.failures} {r.millis}ms {status}"
        if r.witness_seeds:
            line += f" witnesses={list(r.witness_seeds)}"
        print(line, file=out)
    total_failures = sum(r.failures for r in reports)
    print(
        f"{len(reports)} identities, {sum(r.trials for r in reports)} trials, "
        f"{total_failures} failures",
        file=out,
    )
    if config.json_path:
        with open(config.json_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return 0 if total_failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident",
        description="Exact verification of q-series and Askey-Wilson identities "
        "at random rational points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered identities and default sizes")
    v = sub.add_parser("verify", help="run identity checks and report residual failures")
    v.add_argument(
        "--identity",
        action="append",
        default=None,
        metavar="ID",
        help="identity to check (repeatable; see `qident list`)",
    )
    v.add_argument("--all", action="store_true", help="check every registered identity")
    v.add_argument("--trials", type=int, default=20, help="random points per identity")
    v.add_argument("--seed", type=int, default=0, help="master seed")
    v.add_argument("--nmax", type=int, default=None, help="override degree/order cap n")
    v.add_argument("--mmax", type=int, default=None, help="override Pfaffian size cap m")
    v.add_argument("--order", type=int, default=None, help="override series truncation order")
    v.add_argument("--height", type=int, default=None, help="override sampling height bound")
    v.add_argument("--json", default=None, metavar="PATH", help="write the JSON report here")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.all:
        if args.identity:
            print("use either --all or --identity, not both", file=sys.stderr)
            return 2
        ids = tuple(check.id for check in REGISTRY)
    elif args.identity:
        ids = tuple(args.identity)
    else:
        print("select identities with --identity or --all", file=sys.stderr)
        return 2
    config = SuiteConfig(
        ids=ids,
        trials=args.trials,
        seed=args.seed,
        n_max=args.nmax,
        m_max=args.mmax,
        order=args.order,
        height=args.height,
        json_path=args.json,
    )
    try:
        return cmd_verify(config)
    except (ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SamplingExhausted as exc:
        print(f"sampling exhausted: {exc}", file=sys.stderr)
        return 2
    except EmptyResiduals as exc:
        print(f"vacuous check: {exc}", file=sys.stderr)
        return 2
    except CheckCrashed as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

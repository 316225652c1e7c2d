"""Command-line interface.

Subcommands: order, radical, member, verify. Groups are given either as a
path to a group definition JSON file or as a catalog name (S5, PSL2_7,
PSU3_3, ...). Reports are written to --out when given; order and radical
--method oracle write none and refuse --out. An operand that a subcommand
would not read is a usage error rather than ignored: a name after verify
corpus, --list outside verify cvl, --cap or --pair-cap to order, --pair-cap
to radical --method oracle. A negative --cap or --pair-cap is a usage error
too. member lists the element's conjugacy class only for the report's class
size, so it does so only with --out, and refuses --out when |G| exceeds
--cap. Human-readable summaries always go to stdout and timings never enter
report files.

Exit codes: 0 all checks verified, 1 counterexample found, 2 usage or parse
error, 3 out-of-desk-scale or capped.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import catalog
from .criteria import DEFAULT_PAIR_CAP, METHOD_COMBINED, METHOD_TWO_ELEMENT
from .errors import CapExceededError, PreconditionError, RadlabError
from .group import DEFAULT_ENUMERATION_CAP, PermutationGroup
from .perm import Perm, format_cycles, parse_cycles
from .structure import solvable_radical
from .verify import (
    MEMBER_FNS,
    STATUS_CAPPED,
    STATUS_COUNTEREXAMPLE,
    STATUS_OUT_OF_SCALE,
    STATUS_VERIFIED,
    CheckResult,
    VerificationReport,
    radical_by_method,
    reports_to_json,
    verify_corpus,
    verify_cvl,
    verify_equivalence,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_SCALE = 3


@dataclass
class RunConfig:
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    pair_cap: int = DEFAULT_PAIR_CAP
    output_path: str | None = None


def _load_target(target: str) -> PermutationGroup:
    path = Path(target)
    if path.exists():
        return catalog.load_group_file(path).group
    if target in catalog.known_names():
        return catalog.build_named(target)
    raise RadlabError(
        f"{target!r} is neither a group file nor a known catalog name"
    )


def _write_reports(cfg: RunConfig, reports: list) -> None:
    if cfg.output_path:
        Path(cfg.output_path).write_text(reports_to_json(reports), encoding="utf-8")


def _refuse(args, what: str, *dests: str) -> None:
    """A shared flag among dests given to what, which never reads it, is a
    usage error (the flags default to SUPPRESS, so only a given one is set)."""
    for dest in dests:
        if hasattr(args, dest):
            raise PreconditionError(f"{what} reads no --{dest.replace('_', '-')}")


def _cap_value(text: str) -> int:
    """The value of --cap or --pair-cap: an integer, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def _exit_for(reports: list) -> int:
    statuses = {r.status for r in reports}
    if STATUS_COUNTEREXAMPLE in statuses:
        return EXIT_COUNTEREXAMPLE
    if STATUS_OUT_OF_SCALE in statuses or STATUS_CAPPED in statuses:
        return EXIT_SCALE
    return EXIT_OK


def _cmd_order(args, cfg: RunConfig) -> int:
    _refuse(args, "order", "cap", "pair_cap", "out")
    g = _load_target(args.group)
    print(f"{g.name or args.group}: order {g.order}, degree {g.degree}, "
          f"base length {len(g.base)}")
    return EXIT_OK


def _cmd_radical(args, cfg: RunConfig) -> int:
    method = args.method
    if method == METHOD_TWO_ELEMENT:
        raise PreconditionError(
            "the two-element criterion applies only to x of odd order, "
            "so it cannot generate R(G) by itself; use oracle, b1, odd-p or combined"
        )
    if method == "oracle":
        _refuse(args, "radical --method oracle", "pair_cap", "out")
    g = _load_target(args.group)
    name = g.name or args.group
    t0 = time.perf_counter()
    report = None
    if method == "oracle":
        rad = solvable_radical(g, cap=cfg.enumeration_cap)
    else:
        rad, report = radical_by_method(g, method, name, cfg.enumeration_cap, cfg.pair_cap)
    elapsed = int((time.perf_counter() - t0) * 1000)
    gens = ", ".join(format_cycles(p.t, g.degree) for p in rad.generators) or "()"
    print(f"{name}: radical order {rad.order} ({elapsed} ms)")
    print(f"generators: {gens}")
    if report is not None:
        report.elapsed_ms = elapsed
        _write_reports(cfg, [report])
    return EXIT_OK


def _cmd_member(args, cfg: RunConfig) -> int:
    g = _load_target(args.group)
    name = g.name or args.group
    x = Perm(g.degree, parse_cycles(args.element, g.degree))
    if cfg.output_path and g.order > cfg.enumeration_cap:
        # the report's class size lists the class of x, up to |G| elements
        raise CapExceededError(
            f"group order {g.order} exceeds enumeration cap {cfg.enumeration_cap}; "
            "the --out report lists the class of x"
        )
    method = args.method
    v = MEMBER_FNS[method](g, x, cfg.pair_cap, cfg.enumeration_cap)
    if v.member:
        print(f"{args.element} is in the solvable radical of {name} "
              f"({method}, {v.pairs_tested} pairs tested)")
    else:
        w = v.witness
        print(f"{args.element} is NOT in the solvable radical of {name} "
              f"({method}, {v.pairs_tested} pairs tested)")
        print(f"witness: x = {format_cycles(w.x.t, g.degree)}, "
              f"y = {format_cycles(w.y.t, g.degree)}, p = {w.prime}, "
              f"|<x,y>| = {w.subgroup_order}")
    if cfg.output_path:
        _, size = g.conjugacy_class_tables(x.t)
        report = VerificationReport(name, "method", method, STATUS_VERIFIED)
        report.checks = [CheckResult(format_cycles(x.t, g.degree), x.order(), size,
                                     v.member, v.witness, True)]
        _write_reports(cfg, [report])
    return EXIT_OK


def _cmd_verify(args, cfg: RunConfig) -> int:
    if args.list and args.target != "cvl":
        raise PreconditionError(f"--list applies to verify cvl, not verify {args.target}")
    if args.name and args.target == "corpus":
        raise PreconditionError(f"verify corpus takes no group name, got {args.name!r}")
    kw = dict(cap=cfg.enumeration_cap, pair_cap=cfg.pair_cap)
    if args.target == "corpus":
        reports = verify_corpus(**kw)
    elif args.target == "equivalence":
        if not args.name:
            raise PreconditionError("verify equivalence needs a group file or name")
        g = _load_target(args.name)
        reports = [verify_equivalence(g, g.name or args.name, **kw)]
    else:  # cvl: argparse allows only the three targets
        if not args.name:
            raise PreconditionError("verify cvl needs a group name, 'runnable', or 'all'")
        reports = []
        if args.name in ("all", "runnable"):
            for ln in [args.list] if args.list else sorted(catalog.CVL_LISTS):
                for e in catalog.CVL_LISTS[ln].entries:
                    if args.name == "runnable" and not e.fits(cfg.enumeration_cap):
                        continue
                    reports.append(verify_cvl(e.socle, ln, **kw))
        else:
            lists = [args.list] if args.list else catalog.cvl_lists_for(args.name)
            if not lists:
                raise PreconditionError(f"{args.name!r} is not on any list")
            for ln in lists:
                reports.append(verify_cvl(args.name, ln, **kw))
    for r in reports:
        label = f"{r.group} [{r.kind}]"
        print(f"{label}: {r.status} ({len(r.checks)} checks, {r.elapsed_ms} ms)")
    _write_reports(cfg, reports)
    return _exit_for(reports)


def build_parser() -> argparse.ArgumentParser:
    # shared flags use SUPPRESS so a subcommand parse never clobbers a value
    # given before the subcommand; defaults are applied in main
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=_cap_value, default=argparse.SUPPRESS,
                        help="largest group order that will be enumerated "
                             f"(default {DEFAULT_ENUMERATION_CAP})")
    common.add_argument("--pair-cap", type=_cap_value, default=argparse.SUPPRESS,
                        help="solvability tests allowed per criterion call "
                             f"(default {DEFAULT_PAIR_CAP})")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the JSON report here (radical with a "
                             "criterion method, member, verify)")

    ap = argparse.ArgumentParser(
        prog="radlab",
        description="Solvable-radical membership criteria, verification "
                    "harnesses, and a catalog of named permutation groups.",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", parents=[common],
                       help="print order, degree, and base length")
    p.add_argument("group", help="group file or catalog name")

    p = sub.add_parser("radical", parents=[common],
                       help="compute the solvable radical")
    p.add_argument("group")
    p.add_argument("--method", default="oracle",
                   choices=["oracle", *MEMBER_FNS])

    p = sub.add_parser("member", parents=[common],
                       help="decide membership in the solvable radical")
    p.add_argument("group")
    p.add_argument("element", help="element in cycle notation, e.g. '(1 2 3)'")
    p.add_argument("--method", default=METHOD_COMBINED,
                   choices=list(MEMBER_FNS))

    p = sub.add_parser("verify", parents=[common],
                       help="run a verification harness")
    p.add_argument("target", choices=["equivalence", "cvl", "corpus"])
    p.add_argument("name", nargs="?", default=None,
                   help="group file/name (equivalence) or list member name, "
                        "'runnable', or 'all' (cvl)")
    p.add_argument("--list", default=None, choices=["CVL1", "CVL2", "CVL3"],
                   help="restrict a cvl check to one list")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    cfg = RunConfig(
        enumeration_cap=getattr(args, "cap", DEFAULT_ENUMERATION_CAP),
        pair_cap=getattr(args, "pair_cap", DEFAULT_PAIR_CAP),
        output_path=getattr(args, "out", None),
    )
    handler = {
        "order": _cmd_order,
        "radical": _cmd_radical,
        "member": _cmd_member,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args, cfg)
    except CapExceededError as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return EXIT_SCALE
    except (RadlabError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

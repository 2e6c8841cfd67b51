"""Command-line surface.

`modequiv check <kind> <inputs...>` runs one decision on module files or
fixture references (`wild6.M1`-style).  `modequiv verify` runs the claim
suite over the configured fields.  Exit codes: 0 yes/pass, 1 no, 2
undecided, 3 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .algebra import DEFAULT_BUDGET, enumerate_proper_subalgebras
from .equiv import (
    EquivVerdict,
    r_decomposable,
    r_distinct,
    r_isomorphic,
    restriction_function,
    rt_isomorphic,
    t_isomorphic,
    t_orbit,
)
from .errors import ModEquivError, SchemaError, UndecidedError
from .families import FIXTURE_NAMES, fixture
from .modrep import Module, Verdict, decompose, is_indecomposable, is_isomorphic
from .serialize import module_from_dict
from .verify import RunConfig, run_verification

CHECK_KINDS = (
    "iso",
    "indec",
    "decompose",
    "riso",
    "rdistinct",
    "rdecomp",
    "tiso",
    "rtiso",
    "torbit",
    "resfn",
)

_FIXTURE_REF = re.compile(r"^(\w+)\.M(\d+)$")

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNDECIDED = 2
EXIT_ERROR = 3


def parse_inputs(paths: list[str], field: int) -> list[Module]:
    """Load modules from JSON files or fixture references like wild6.M2."""
    modules = []
    for spec in paths:
        ref = _FIXTURE_REF.match(spec)
        if ref and not Path(spec).exists() and ref.group(1) in FIXTURE_NAMES:
            _, mods = fixture(ref.group(1), field)
            idx = int(ref.group(2)) - 1
            if not 0 <= idx < len(mods):
                raise SchemaError(f"fixture {ref.group(1)} has {len(mods)} modules, no M{ref.group(2)}")
            modules.append(mods[idx])
            continue
        path = Path(spec)
        if not path.exists():
            raise SchemaError(f"no such file or fixture reference: {spec}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{spec}: invalid JSON: {exc}") from exc
        modules.append(module_from_dict(data))
    return modules


def _verdict_exit(verdict: Verdict) -> int:
    return {Verdict.YES: EXIT_YES, Verdict.NO: EXIT_NO, Verdict.UNDECIDED: EXIT_UNDECIDED}[verdict]


def _equiv_payload(res: EquivVerdict) -> dict:
    out = {"verdict": res.verdict.value, "checked": res.checked}
    if res.note:
        out["note"] = res.note
    if res.verdict.is_no and isinstance(res.witness, tuple) and len(res.witness) == 3:
        idx, sub, _ = res.witness
        out["witness"] = {"subalgebra_index": idx, "subalgebra": sub.label()}
    if res.verdict.is_yes and isinstance(res.witness, tuple) and len(res.witness) == 2:
        f, phi = res.witness
        out["witness"] = {
            "automorphism": f.describe(),
            "intertwiner": [list(row) for row in phi.to_lists()],
        }
    return out


def _emit(payload: dict, structured: bool):
    if structured:
        print(json.dumps(payload, sort_keys=True))
        return
    bits = [payload["verdict"].upper()]
    if payload.get("note"):
        bits.append(payload["note"])
    print("  ".join(bits))
    for key, value in payload.items():
        if key in ("verdict", "note"):
            continue
        print(f"{key}: {json.dumps(value, sort_keys=True)}")


def cmd_check(args) -> int:
    inputs = list(args.inputs)
    if args.fixture:
        if inputs:
            raise SchemaError("--fixture replaces the positional inputs; give one or the other")
        _, fixture_mods = fixture(args.fixture, args.field)
        inputs = [f"{args.fixture}.M{i + 1}" for i in range(len(fixture_mods))]
    mods = parse_inputs(inputs, args.field)
    structured = args.report == "structured"
    try:
        return _run_check(args.kind, mods, args, structured)
    except UndecidedError as exc:
        # decompose, torbit and resfn raise it for an undecided comparison inside
        _emit({"verdict": "undecided", "note": str(exc)}, structured)
        return EXIT_UNDECIDED


def _run_check(kind: str, mods: list[Module], args, structured: bool) -> int:
    budget = args.budget

    def need(count: int):
        if len(mods) != count:
            raise SchemaError(f"{kind} needs exactly {count} module input(s), got {len(mods)}")

    if kind == "iso":
        need(2)
        res = is_isomorphic(mods[0], mods[1], budget)
        payload = {"verdict": res.verdict.value, "note": res.note}
        if res.witness is not None:
            payload["witness"] = res.witness.to_lists()
        _emit(payload, structured)
        return _verdict_exit(res.verdict)
    if kind == "indec":
        need(1)
        res = is_indecomposable(mods[0], budget)
        payload = {"verdict": res.verdict.value, "note": res.note}
        if res.idempotent is not None:
            payload["witness"] = res.idempotent.to_lists()
        _emit(payload, structured)
        return _verdict_exit(res.verdict)
    if kind == "decompose":
        need(1)
        parts = decompose(mods[0], budget)
        payload = {
            "verdict": "yes",
            "summand_dims": [part.dim for part in parts],
            "summands": [part.actions.tolist() for part in parts],
        }
        _emit(payload, structured)
        return EXIT_YES
    if kind in ("riso", "rdistinct", "rtiso"):
        need(2)
        if kind == "riso":
            res = r_isomorphic(mods[0], mods[1], args.scope, budget)
        elif kind == "rdistinct":
            res = r_distinct(mods[0], mods[1], args.scope, budget)
        else:
            res = rt_isomorphic(mods[0], mods[1], budget)
        _emit(_equiv_payload(res), structured)
        return _verdict_exit(res.verdict)
    if kind == "rdecomp":
        need(1)
        res = r_decomposable(mods[0], budget)
        _emit(_equiv_payload(res), structured)
        return _verdict_exit(res.verdict)
    if kind == "tiso":
        need(2)
        res = t_isomorphic(mods[0], mods[1], budget)
        _emit(_equiv_payload(res), structured)
        return _verdict_exit(res.verdict)
    if kind == "torbit":
        if len(mods) < 1:
            raise SchemaError("torbit needs at least one module input")
        res = t_orbit(mods[0], mods[1:], budget)
        payload = {
            "verdict": "yes",
            "classes": [list(cls) for cls in res.partition.classes],
            "orbit_closed": res.closed,
            "orbit_reps": len(res.orbit_reps),
        }
        _emit(payload, structured)
        return EXIT_YES
    if kind == "resfn":
        need(1)
        part = restriction_function(mods[0], args.scope, budget)
        subs = enumerate_proper_subalgebras(mods[0].algebra, args.scope)
        payload = {
            "verdict": "yes",
            "classes": [list(cls) for cls in part.classes],
            "subalgebras": {f"s{i}": s.label() for i, s in enumerate(subs)},
        }
        _emit(payload, structured)
        return EXIT_YES
    raise SchemaError(f"unknown check kind {kind!r}")


def cmd_verify(args) -> int:
    cfg = RunConfig(
        fields=tuple(args.fields),
        budget=args.budget,
        seed=args.seed,
        report=args.report,
        timing=args.timing,
    )
    report = run_verification(cfg)
    if cfg.report == "structured":
        sys.stdout.write(report.to_structured())
    else:
        print(report.to_text())
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modequiv",
        description="Exact restriction/twist equivalence decisions for modules "
        "over small algebras over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run one decision on module files or fixture refs")
    check.add_argument("kind", choices=CHECK_KINDS)
    check.add_argument(
        "inputs",
        nargs="*",
        help="module JSON files or fixture references like wild6.M1 "
        f"(fixtures: {', '.join(FIXTURE_NAMES)})",
    )
    check.add_argument(
        "--fixture",
        choices=FIXTURE_NAMES,
        help="use all modules of a named fixture as the inputs",
    )
    check.add_argument("--field", type=int, default=2, help="prime field for fixture refs")
    check.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    check.add_argument("--scope", choices=("all", "maximal"), default="maximal")
    check.add_argument("--report", choices=("text", "structured"), default="text")
    check.set_defaults(func=cmd_check)

    verify = sub.add_parser("verify", help="run the full claim-verification suite")
    verify.add_argument("--fields", type=int, nargs="+", default=[2, 3, 5])
    verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    verify.add_argument("--seed", type=int, default=0, help="seeds the algebra-laws corpus only")
    verify.add_argument("--report", choices=("text", "structured"), default="text")
    verify.add_argument(
        "--timing",
        action="store_true",
        help="include elapsed_ms in structured output (off keeps it byte-reproducible)",
    )
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ModEquivError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

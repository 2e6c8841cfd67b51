"""Command-line surface.

`modequiv check <kind> <inputs...>` runs one decision on module files or
fixture references (`wild6.M1`-style) and prints the fields of its result:
the verdict, a note, and a witness where there is one.  An Undecided
relation names the first subalgebra (or, for `tiso`, automorphism) left
undecided as its witness and the reason as its note.  `modequiv verify`
runs the claim suite over the configured fields.  Exit codes: 0 yes/pass,
1 no, 2 undecided, 3 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .algebra import DEFAULT_BUDGET, Automorphism, enumerate_proper_subalgebras
from .equiv import (
    EquivVerdict,
    Partition,
    TOrbitResult,
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
from .modrep import IsoResult, Module, decompose, is_indecomposable, is_isomorphic
from .serialize import module_from_dict

# kind -> (number of module inputs, None for one or more; the decision on
# the inputs m and the parsed arguments a)
_CHECKS = {
    "iso": (2, lambda m, a: is_isomorphic(m[0], m[1], a.budget)),
    "indec": (1, lambda m, a: is_indecomposable(m[0], a.budget)),
    "decompose": (1, lambda m, a: decompose(m[0], a.budget)),
    "riso": (2, lambda m, a: r_isomorphic(m[0], m[1], a.scope, a.budget)),
    "rdistinct": (2, lambda m, a: r_distinct(m[0], m[1], a.scope, a.budget)),
    "rdecomp": (1, lambda m, a: r_decomposable(m[0], a.budget)),
    "tiso": (2, lambda m, a: t_isomorphic(m[0], m[1], a.budget)),
    "rtiso": (2, lambda m, a: rt_isomorphic(m[0], m[1], a.budget)),
    "torbit": (None, lambda m, a: t_orbit(m[0], m[1:], a.budget)),
    "resfn": (1, lambda m, a: restriction_function(m[0], a.scope, a.budget)),
}
CHECK_KINDS = tuple(_CHECKS)

_FIXTURE_REF = re.compile(r"^(\w+)\.M(\d+)$")

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNDECIDED = 2
EXIT_ERROR = 3
_EXITS = {"yes": EXIT_YES, "no": EXIT_NO, "undecided": EXIT_UNDECIDED}


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


def _witness(res: EquivVerdict) -> dict:
    """The printed witness of a relation: the (automorphism, intertwiner)
    of a twisted Yes, else the item of a No or Undecided scan, a subalgebra
    by index and label or an automorphism."""
    if res.is_yes:
        f, phi = res.witness
        return {"automorphism": f.describe(), "intertwiner": [list(row) for row in phi.to_lists()]}
    idx, item, _ = res.witness
    if isinstance(item, Automorphism):
        return {"automorphism": item.describe()}
    return {"subalgebra_index": idx, "subalgebra": item.label()}


def _payload(res, mods: list[Module], args) -> dict:
    """The printed fields of a decision result, by its type."""
    if isinstance(res, list):
        return {
            "verdict": "yes",
            "summand_dims": [part.dim for part in res],
            "summands": [part.actions.tolist() for part in res],
        }
    if isinstance(res, TOrbitResult):
        return {
            "verdict": "yes",
            "classes": [list(cls) for cls in res.partition.classes],
            "orbit_closed": res.closed,
            "orbit_reps": len(res.orbit_reps),
        }
    if isinstance(res, Partition):
        subs = enumerate_proper_subalgebras(mods[0].algebra, args.scope)
        return {
            "verdict": "yes",
            "classes": [list(cls) for cls in res.classes],
            "subalgebras": {f"s{i}": s.label() for i, s in enumerate(subs)},
        }
    if isinstance(res, EquivVerdict):
        out = {"verdict": res.verdict.value, "checked": res.checked}
        if res.note:
            out["note"] = res.note
        if res.witness is not None:
            out["witness"] = _witness(res)
        return out
    out = {"verdict": res.verdict.value, "note": res.note}
    witness = res.witness if isinstance(res, IsoResult) else res.idempotent
    if witness is not None:
        out["witness"] = witness.to_lists()
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
    count, decide = _CHECKS[args.kind]
    if len(mods) != count if count else not mods:
        need = f"exactly {count}" if count else "at least one"
        raise SchemaError(f"{args.kind} needs {need} module input(s), got {len(mods)}")
    try:
        payload = _payload(decide(mods, args), mods, args)
    except UndecidedError as exc:
        # decompose, torbit and resfn raise it for an undecided comparison inside
        payload = {"verdict": "undecided", "note": str(exc)}
    _emit(payload, args.report == "structured")
    return _EXITS[payload["verdict"]]


def cmd_verify(args) -> int:
    from .verify import RunConfig, run_verification  # `check` never loads the claim suite

    cfg = RunConfig(
        fields=tuple(args.fields),
        budget=args.budget,
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

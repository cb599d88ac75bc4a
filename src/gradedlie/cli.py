"""Command-line front end.

Subcommands:
    check FILE                      d^2 = 0, by structure-equation family
    decompose FILE --weight i       W-bases and dimensions
    rep FILE --weight i             superconnection components + flatness cascade
    cohomology FILE --weight i [--cap d]   Betti numbers
    example NAME [-o FILE]          emit a spec file

Every subcommand accepts --format json for machine-readable output.
Exit codes: 0 success, 1 verification failure (including rep and cohomology
of a spec with d^2 != 0), 2 parse, usage or file error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Dict, List, Optional

from . import constructions
from .algebra import CoefficientSizeError, Element, monomial_str
from .algebroid import AlgebroidSpec, SpecError, check_structure_equations
from .cohomology import CapClosureError, betti, build_complex
from .dsl import DslError, document_from_spec, parse, print_document, to_algebroid_spec
from .superconnection import extract_components, flatness_cascade
from .weight_modules import BasisSizeError, Monomials


class CliError(Exception):
    pass


def _load(path: str) -> AlgebroidSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not valid UTF-8 "
                       f"({exc.reason} at byte {exc.start})")
    try:
        return to_algebroid_spec(parse(text))
    except DslError as exc:
        raise CliError(f"{path}: {exc}")


def _emit(args, payload: Dict, lines: List[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_check(args) -> int:
    spec = _load(args.file)
    # the families are read off spec.homological, so they pass iff d^2 = 0
    structure = check_structure_equations(spec)
    residuals = {label: str(r)
                 for family in structure.residuals.values()
                 for label, r in family.items()}
    for label, r in spec.homological.residuals.items():
        residuals[f"d^2 {label}"] = str(r)
    ok = structure.passed
    payload = {"status": "ok" if ok else "fail", "residuals": residuals}
    lines = [f"check {args.file}: {'PASS' if ok else 'FAIL'}"]
    for label, r in sorted(residuals.items()):
        lines.append(f"  residual {label}: {r}")
    _emit(args, payload, lines)
    return 0 if ok else 1


def _positive_weight(args, spec: AlgebroidSpec) -> int:
    """The --weight of a command that needs a positive-weight module."""
    if spec.degree < 1:
        raise CliError(f"{args.file} has degree 0; {args.command} needs a spec "
                       f"of degree >= 1")
    if not 1 <= args.weight <= spec.degree:
        raise CliError(f"--weight must be in 1..{spec.degree} for this spec")
    return args.weight


def _reported_d_squared(args, spec: AlgebroidSpec, i: int) -> bool:
    """Report a spec whose d^2 is not zero, with its d^2 residuals, as
    `rep` and `cohomology` refuse it; False when d^2 = 0."""
    homological = spec.homological
    if homological.ok:
        return False
    residuals = {f"d^2 {label}": str(r) for label, r in homological.residuals.items()}
    lines = [f"{args.command} {args.file} weight {i}: FAIL (d^2 != 0)"]
    lines += [f"  residual {label}: {r}" for label, r in sorted(residuals.items())]
    _emit(args, {"status": "fail", "residuals": residuals}, lines)
    return True


def _no_cap_closes(spec: AlgebroidSpec, i: int) -> Optional[str]:
    """Why no base degree cap closes the weight-i complex, or None: the
    first D_0 entry m -> term, in `rep`'s order, whose term has a
    base-variable coefficient.  D_0 terms have no y factor and every term
    of d(x) has one, so for every base monomial b nothing in d(b*m) cancels
    b*term, and b*m at base degree cap leaves every cap."""
    if not i:
        return None
    table = spec.table
    base_cut = table.zero_cuts[0]
    comp = extract_components(spec, i)
    for label, key in sorted((monomial_str(table, k), k) for k in comp.basis_keys):
        value = comp.component(0, key)
        for term in value.sorted_keys():
            even = term[0]
            if even and even[0][0] < base_cut:
                return (f"no base degree cap closes the complex: the D_0 entry {label} -> "
                        f"{Element(table, {term: value.terms[term]})} has a base-variable "
                        f"coefficient and no y factor, so d leaves the cap on {label} "
                        f"times every base monomial of degree cap")
    return None


def _cmd_decompose(args) -> int:
    spec = _load(args.file)
    i = _positive_weight(args, spec)
    dims = {}
    lines = [f"decompose {args.file} weight {i}:"]
    monomials = Monomials(spec, i, positive=True)
    for j in range(i + 1):
        basis = monomials.basis(j)
        n = len(basis)
        dims[f"({i},{j})"] = n
        labels = ", ".join(monomial_str(spec.table, k) for k in basis) or "-"
        lines.append(f"  W^({i},{j}) dim {n}: {labels}")
    payload = {"status": "ok", "dims": dims}
    _emit(args, payload, lines)
    return 0


def _cmd_rep(args) -> int:
    spec = _load(args.file)
    i = _positive_weight(args, spec)
    if _reported_d_squared(args, spec, i):
        return 1
    comp = extract_components(spec, i)
    report = flatness_cascade(comp)
    components = {}
    for p in comp.degrees():
        blk = {monomial_str(spec.table, k): str(v)
               for k, v in sorted(comp.blocks.get(p, {}).items())
               if not v.is_zero()}
        components[str(p)] = blk
    residuals = {f"level {p} on {label}": str(r)
                 for p, level in report.residuals.items()
                 for label, r in level.items()}
    payload = {"status": "ok" if report.passed else "fail",
               "residuals": residuals, "components": components}
    lines = [f"rep {args.file} weight {i}: cascade "
             f"{'PASS' if report.passed else 'FAIL'}"]
    for p in comp.degrees():
        lines.append(f"  D_{p}:")
        for label, value in sorted(components[str(p)].items()):
            lines.append(f"    {label} -> {value}")
    for label, r in sorted(residuals.items()):
        lines.append(f"  residual {label}: {r}")
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _cmd_cohomology(args) -> int:
    spec = _load(args.file)
    i = args.weight
    if not 0 <= i <= spec.degree:
        raise CliError(f"--weight must be in 0..{spec.degree} for this spec")
    if args.cap < 0:
        raise CliError(f"--cap must be >= 0, got {args.cap}")
    if _reported_d_squared(args, spec, i):
        return 1
    try:
        # both reuse the d^2 report evaluated above
        complex_ = build_complex(spec, i, args.cap)
        numbers = betti(complex_)
    except CapClosureError as exc:
        # diagnosed only once a cap has failed, so no other request pays
        raise CliError(_no_cap_closes(spec, i) or str(exc))
    truncated = complex_.cap is not None
    payload = {"status": "ok", "betti": numbers, "truncated": truncated}
    tag = f" (truncated at base degree {complex_.cap})" if truncated else " (exact)"
    lines = [f"cohomology {args.file} weight {i}{tag}:",
             f"  betti {numbers}"]
    _emit(args, payload, lines)
    return 0


def _cmd_example(args) -> int:
    maker = constructions.EXAMPLES.get(args.name)
    if maker is None:
        known = ", ".join(sorted(constructions.EXAMPLES))
        raise CliError(f"unknown example {args.name!r} (known: {known})")
    spec = maker()
    text = print_document(document_from_spec(args.name.replace("-", "_"), spec))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc.strerror}")
        payload = {"status": "ok", "path": args.output}
        lines = [f"wrote {args.output}"]
    else:
        payload = {"status": "ok", "path": None}
        lines = [text.rstrip("\n")]
    _emit(args, payload, lines)
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls."""
    parser = argparse.ArgumentParser(
        prog="gradedlie",
        description="Exact symbolic checks for weighted Lie algebroid specs.")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("check", help="structure equations and d^2 = 0")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="weight-module bases and dimensions")
    p.add_argument("file")
    p.add_argument("--weight", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("rep", help="superconnection components and flatness")
    p.add_argument("file")
    p.add_argument("--weight", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_rep)

    p = sub.add_parser("cohomology", help="Betti numbers of a weight sector")
    p.add_argument("file")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--cap", type=int, default=4)
    common(p)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("example", help="emit a shipped example spec file")
    p.add_argument("name")
    p.add_argument("-o", "--output", default=None)
    common(p)
    p.set_defaults(func=_cmd_example)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (CliError, SpecError, DslError, CapClosureError, BasisSizeError,
            CoefficientSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`).  Point stdout at
        # devnull, so that the flush at interpreter exit cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()

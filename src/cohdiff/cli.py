"""Batch front-end: check, diff, reduce, eval, laws, theorems.

Exit codes: 0 success, 1 type or program-parse error, 2 a resource bound
was reached: reduction fuel, or the degree cap of 16, 3 model validation
error, 4 law or theorem violation, 5 usage error (also an input file that
cannot be read, or a COHDIFF_FUEL that is not a positive integer).
Reports are deterministic for fixed inputs and seed, and all rationals are
printed in reduced p/q form.
"""

from __future__ import annotations

import argparse
import os
import sys

from .ccdc import LawConfig, check_axioms
from .gen import (
    DEFAULT_CONTEXT,
    default_pcs_model,
    default_poly_model,
    generate_typed_terms,
    law_generators,
)
from .objects import space_str, web
from .parser import ParseError, parse_program
from .pcs import (
    PcsInstance,
    _parse_atom,
    _parse_rational,
    build_symbol_matrix,
    corrupted_sigma_instance,
    membership,
    parse_model_file,
)
from .polymap import DegreeCapError
from .rewrite import DEFAULT_FUEL, FuelExhausted, normalize
from .semantics import (
    Model,
    ModelError,
    check_diff_theorem,
    check_invariance,
    interp_term,
    interp_type,
)
from .syntax import (
    TypeCheckError,
    d_type,
    differentiate,
    term_str,
    type_str,
    typecheck,
)

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_BOUND = 2
EXIT_MODEL = 3
EXIT_VIOLATION = 4
EXIT_USAGE = 5


def _default_fuel() -> int:
    """COHDIFF_FUEL, else DEFAULT_FUEL; ValueError unless a positive int."""
    raw = os.environ.get("COHDIFF_FUEL")
    if raw is None:
        return DEFAULT_FUEL
    try:
        fuel = int(raw)
    except ValueError:
        raise ValueError(f"COHDIFF_FUEL must be an integer, got {raw!r}") from None
    if fuel < 1:
        raise ValueError("COHDIFF_FUEL must be >= 1")
    return fuel


def _read_text(path: str) -> str:
    """A file's text as text-mode open reads it; a byte that is not UTF-8 is
    a ParseError at its line and column."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        col = exc.start - raw.rfind(b"\n", 0, exc.start)
        raise ParseError(
            f"{path} is not UTF-8 text ({exc.reason})", line, col
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _named_term(program, name: str):
    if name not in program.terms:
        raise KeyError(name)
    return program.terms[name]


def cmd_check(args, out) -> int:
    program = parse_program(_read_text(args.file))
    for name, (ctx, t) in program.terms.items():
        ty = typecheck(program.signature, ctx, t)
        print(f"term {name} : {type_str(ty)}", file=out)
    return EXIT_OK


def cmd_diff(args, out) -> int:
    program = parse_program(_read_text(args.file))
    ctx, t = _named_term(program, args.term)
    if all(v != args.var for v, _ in ctx):
        print(f"error: variable {args.var!r} not in the context of {args.term!r}",
              file=out)
        return EXIT_TYPE
    typecheck(program.signature, ctx, t)
    dt = differentiate(t, args.var)
    dctx = tuple(
        (v, d_type(ty) if v == args.var else ty) for v, ty in ctx
    )
    ty = typecheck(program.signature, dctx, dt)
    print(f"d {args.term} / d {args.var} = {term_str(dt)}", file=out)
    print(f"type : {type_str(ty)}", file=out)
    return EXIT_OK


def cmd_reduce(args, out) -> int:
    program = parse_program(_read_text(args.file))
    ctx, t = _named_term(program, args.term)
    typecheck(program.signature, ctx, t)
    try:
        final, trace = normalize(t, args.fuel)
    except FuelExhausted as exc:
        if args.trace:
            for line in exc.trace.render_lines():
                print(line, file=out)
        print(f"fuel exhausted after {len(exc.trace.steps)} steps", file=out)
        return EXIT_BOUND
    print(f"start : {trace.initial.render()}", file=out)
    if args.trace:
        for line in trace.render_lines():
            print(line, file=out)
    print(f"normal : {final.render()} ({len(trace.steps)} steps)", file=out)
    return EXIT_OK


def _build_model_from_files(program, model_path: str) -> Model:
    try:
        text = _read_text(model_path)
    except ParseError as exc:
        raise ModelError(str(exc)) from None
    parsed = parse_model_file(text)
    for name, ((line, col), _) in parsed.where.items():
        if name not in program.signature:
            raise ModelError(f"{line}:{col}: interp {name!r} names no declared fn")
    inst = PcsInstance()
    symbols = {}
    for name, ftype in program.signature.decls.items():
        if name not in parsed.interps:
            raise ModelError(f"symbol {name!r} has no interp block")
        slots = [interp_type(parsed.spaces, a) for a in ftype.args]
        cod = interp_type(parsed.spaces, ftype.result)
        symbols[name] = build_symbol_matrix(
            inst, slots, cod, parsed.interps[name], name, parsed.where[name]
        )
    return Model(inst, dict(parsed.spaces), program.signature, symbols)


def _parse_point(text: str, known: set) -> dict:
    """The point atom=p/q,...; each atom once, only atoms of known, and
    no negative coordinate."""
    point = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        path, eq, value = piece.partition("=")
        path = path.strip()
        if not eq or not path:
            raise ModelError(f"bad point entry {piece!r}, want atom=p/q")
        atom = _parse_atom(path)
        coeff = _parse_rational(value)
        if atom not in known:
            raise ModelError(f"point atom outside the context web: {atom}")
        if atom in point:
            raise ModelError(f"point gives {atom} twice")
        point[atom] = coeff
    for atom, coeff in point.items():
        if coeff < 0:
            raise ModelError(f"negative coordinate at {atom}")
    return point


def cmd_eval(args, out) -> int:
    program = parse_program(_read_text(args.file))
    model = _build_model_from_files(program, args.model)
    ctx, t = _named_term(program, args.term)
    ty = typecheck(program.signature, ctx, t)
    matrix = interp_term(model, ctx, t)
    if args.at is not None:  # a faulty point fails before any output
        point = _parse_point(args.at, set(web(matrix.dom)))
        inside = membership(matrix.dom, point)
    print(f"term {args.term} : {type_str(ty)}", file=out)
    print(f"domain : {space_str(matrix.dom)}", file=out)
    print(matrix.render(), file=out)
    if args.at is not None:
        if not inside:
            print("warning: point is outside the domain space", file=out)
        value = matrix.eval(point)
        if value:
            for atom in sorted(value):
                print(f"value {atom} = {value[atom]}", file=out)
        else:
            print("value = 0", file=out)
    return EXIT_OK


def _make_backend(name: str):
    if name == "pcs":
        model = default_pcs_model()
    elif name == "poly":
        model = default_poly_model()
    elif name == "pcs-corrupt-sigma":
        from .gen import _build_model, truncated_nat

        model = _build_model(corrupted_sigma_instance(), truncated_nat())
    else:
        raise ValueError(name)
    return model


def cmd_laws(args, out) -> int:
    model = _make_backend(args.backend)
    gens, multis, objs = law_generators(model, seed=args.seed)
    report = check_axioms(
        model.inst, gens, multis, objs, LawConfig(args.seed, args.cases)
    )
    for line in report.render_lines():
        print(line, file=out)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_theorems(args, out) -> int:
    backends = ["pcs", "poly"] if args.backend == "both" else [args.backend]
    models = {name: _make_backend(name) for name in backends}
    names = [v for v, _ in DEFAULT_CONTEXT]
    ok = True
    exhausted = 0
    for i, (ctx, t, _) in enumerate(
        generate_typed_terms(args.cases, seed=args.seed)
    ):
        x = names[i % len(names)]
        for name in backends:
            verdict = check_diff_theorem(models[name], ctx, t, x)
            if not verdict.holds or args.verbose:
                print(f"[{name}] {verdict.render()}", file=out)
            ok = ok and verdict.holds
        if "pcs" in models:
            verdict = check_invariance(models["pcs"], ctx, t, args.fuel)
            if not verdict.holds or verdict.fuel_exhausted or args.verbose:
                print(f"[pcs] {verdict.render()}", file=out)
            ok = ok and verdict.holds
            exhausted += verdict.fuel_exhausted
    if not ok:
        summary, code = "violations found", EXIT_VIOLATION
    elif exhausted:
        summary, code = f"reduction fuel exhausted on {exhausted}", EXIT_BOUND
    else:
        summary, code = "all theorems hold", EXIT_OK
    print(f"checked {args.cases} terms: {summary}", file=out)
    return code


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohdiff",
        description="Coherent differentiation: typecheck, differentiate, "
        "reduce, evaluate, and verify the axioms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and typecheck a program file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("diff", help="differentiate a named term")
    p.add_argument("file")
    p.add_argument("--term", required=True)
    p.add_argument("--var", required=True)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("reduce", help="normalize a named term")
    p.add_argument("file")
    p.add_argument("--term", required=True)
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("eval", help="interpret a term against a PCS model")
    p.add_argument("file")
    p.add_argument("--model", required=True)
    p.add_argument("--term", required=True)
    p.add_argument("--at", default=None, help="point, e.g. 'L.0=1/2,R.1=1/3'")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("laws", help="run the axiom suite on a backend")
    p.add_argument(
        "--backend",
        choices=["pcs", "poly", "pcs-corrupt-sigma"],
        default="pcs",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser(
        "theorems", help="differential and invariance theorems on random terms"
    )
    p.add_argument("--backend", choices=["pcs", "poly", "both"], default="both")
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_theorems)

    return parser


def _run(argv, out) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "fuel", None) is not None and args.fuel < 1:
        print("error: fuel must be >= 1", file=out)
        return EXIT_USAGE
    if hasattr(args, "fuel") and args.fuel is None:
        try:
            args.fuel = _default_fuel()
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return EXIT_USAGE
    if getattr(args, "cases", None) is not None and args.cases < 1:
        print("error: case count must be >= 1", file=out)
        return EXIT_USAGE
    try:
        return args.func(args, out)
    except RecursionError:
        print("error: input nested too deeply to process", file=out)
        return EXIT_TYPE
    except ParseError as exc:
        print(f"parse error: {exc}", file=out)
        return EXIT_TYPE
    except TypeCheckError as exc:
        print(f"type error: {exc}", file=out)
        return EXIT_TYPE
    except ModelError as exc:
        print(f"model error: {exc}", file=out)
        return EXIT_MODEL
    except DegreeCapError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_BOUND
    except KeyError as exc:
        print(f"error: no term named {exc.args[0]!r}", file=out)
        return EXIT_USAGE
    except OSError as exc:  # a closed pipe fails again here or at the flush
        print(f"error: {exc}", file=out)
        return EXIT_USAGE


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        code = _run(argv, out)
        out.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Nothing more goes to stdout; /dev/null takes the flush at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output pipe closed", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

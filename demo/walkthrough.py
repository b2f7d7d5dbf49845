"""A guided tour of the library API, mirroring the README.

Run with: python demo/walkthrough.py
"""

from fractions import Fraction

from cohdiff import (
    check_diff_theorem,
    check_invariance,
    differentiate,
    interp_term,
    normalize,
    parse_program,
    term_str,
    type_str,
    typecheck,
)
from cohdiff.ccdc import LawConfig, check_axioms
from cohdiff.gen import default_pcs_model, law_generators

PROGRAM = """
# bil is the if-zero style symbol of the default model.
fn bil : (N, N & N) -> N;

term branch [u: N, p: N & N] = bil(u, p);
term probe  [x: N] = pi1(theta_1(iota0(iota0(x))));
"""


def main() -> None:
    program = parse_program(PROGRAM)
    model = default_pcs_model()

    # 1. Typecheck and differentiate a term syntactically.
    ctx, branch = program.terms["branch"]
    ty = typecheck(program.signature, ctx, branch)
    print(f"branch : {type_str(ty)}")
    d_branch = differentiate(branch, "u")
    print(f"d branch / d u = {term_str(d_branch)}")

    # 2. Reduce a term to a multiset, with the trace.
    _, probe = program.terms["probe"]
    final, trace = normalize(probe, fuel=50)
    for line in trace.render_lines():
        print(line)
    print(f"normal form: {final.render()}")

    # 3. Interpret into the probabilistic model and evaluate exactly.
    sem_ctx = (("u", ctx[0][1]), ("p", ctx[1][1]))
    matrix = interp_term(model, sem_ctx, branch)
    point = {"L.0": Fraction(1), "R.L.1": Fraction(1, 2)}
    print(f"branch at a point: {matrix.eval(point)}")

    # 4. The two theorems, checked exactly on this term.
    print(check_diff_theorem(model, sem_ctx, branch, "u").render())
    print(check_invariance(model, (("x", ctx[0][1]),), probe, 50).render())

    # 5. A few axiom checks on the backing category.
    gens, multis, objs = law_generators(model)
    report = check_axioms(
        model.inst, gens, multis, objs, LawConfig(seed=0, cases=5)
    )
    for line in report.render_lines()[:6]:
        print(line)
    print(f"all {len(report.results)} laws pass: {report.passed}")


if __name__ == "__main__":
    main()

import io
from fractions import Fraction
from pathlib import Path

import pytest

from cohdiff import polymap as pm
from cohdiff.ccdc import LawConfig, check_axioms, strength
from cohdiff.cli import main
from cohdiff.gen import (
    _build_model,
    default_pcs_model,
    default_poly_model,
    law_generators,
    truncated_nat,
)
from cohdiff.objects import Ground, d_space, product
from cohdiff.pcs import PcsInstance, corrupted_sigma_instance

GOLDEN = Path(__file__).resolve().parent / "golden"
F = Fraction
ONE = Ground("one", ("*",), ((F(1),),))


def run_suite(model, cases=12, seed=3):
    gens, multis, objs = law_generators(model)
    return check_axioms(model.inst, gens, multis, objs, LawConfig(seed, cases))


def test_pcs_suite_passes():
    report = run_suite(default_pcs_model())
    failed = [r.name for r in report.results if not r.passed]
    assert not failed, failed


def test_poly_suite_passes():
    report = run_suite(default_poly_model())
    failed = [r.name for r in report.results if not r.passed]
    assert not failed, failed


def test_corrupted_sigma_fails_d_zero_with_counterexample():
    inst = corrupted_sigma_instance()
    model = _build_model(inst, truncated_nat())
    report = run_suite(model, cases=4)
    result = report.result("D-zero")
    assert not result.passed
    assert result.counterexample
    assert not report.passed


def test_report_rendering_format():
    report = run_suite(default_pcs_model(), cases=2)
    lines = report.render_lines()
    assert any(line.startswith("LAW D-Schwarz PASS cases=") for line in lines)
    assert all(" PASS " in line or " FAIL " in line or line.startswith("  ") for line in lines)


def test_derived_morphisms_built_from_witnesses():
    inst = PcsInstance()
    dx, ddx = d_space(ONE), d_space(d_space(ONE))
    assert inst.inj(0, ONE) == pm.pair_witness_matrix(
        pm.identity(ONE), pm.zero(ONE, ONE)
    )
    assert inst.inj(1, ONE).cod == dx
    assert (inst.theta(ONE).dom, inst.theta(ONE).cod) == (ddx, dx)
    assert (inst.lift(ONE).dom, inst.lift(ONE).cod) == (dx, ddx)
    assert (inst.swap(ONE).dom, inst.swap(ONE).cod) == (ddx, ddx)
    # sigma = pi0 + pi1, with witness the identity.
    w = inst.pair_witness(pm.proj(0, ONE), pm.proj(1, ONE))
    assert w == pm.identity(d_space(ONE))
    assert pm.compose(inst.sigma(ONE), w) == inst.sigma(ONE)


def test_pair_witness_rejects_mismatched_shapes():
    inst = PcsInstance()
    with pytest.raises(pm.ShapeError):
        inst.pair_witness(pm.identity(ONE), pm.identity(d_space(ONE)))


def test_witness_uniqueness_on_representation():
    # pi0 h = pi0 h' and pi1 h = pi1 h' force h = h' for witness matrices.
    inst = PcsInstance()
    f0 = pm.scale(pm.identity(ONE), F(1, 3))
    f1 = pm.scale(pm.identity(ONE), F(1, 2))
    h1 = inst.pair_witness(f0, f1)
    h2 = pm.pair_witness_matrix(f0, f1)
    assert h1 == h2
    c0, c1 = (pm.compose(pm.proj(i, ONE), h1) for i in (0, 1))
    assert (c0, c1) == (f0, f1)


def test_strength_formula():
    x, y = ONE, truncated_nat(1)
    phi0 = strength([x, y], 0)
    dx = d_space(x)
    lhs = pm.compose(pm.proj(0, product(x, y)), phi0)
    assert lhs == pm.with_map(pm.proj(0, x), pm.identity(y))
    rhs = pm.compose(pm.proj(1, product(x, y)), phi0)
    assert rhs == pm.with_map(pm.proj(1, x), pm.zero(y, y))


def test_theta_requires_left_summability():
    inst = corrupted_sigma_instance()
    # With sigma corrupted the inner sum pi1 pi0 + pi0 pi1 is computed via
    # sigma . witness and no longer matches; theta itself still certifies,
    # so derived construction succeeds but the monad laws fail in the suite.
    model = _build_model(inst, truncated_nat())
    report = run_suite(model, cases=4)
    assert not report.passed


@pytest.mark.parametrize("seed", [0, 404])
def test_corrupted_sigma_report_matches_golden(seed):
    # Recorded before the law contract changed from returning to raising.
    out = io.StringIO()
    code = main(
        ["laws", "--backend", "pcs-corrupt-sigma", "--cases", "10",
         "--seed", str(seed)],
        out=out,
    )
    assert code == 4
    golden = GOLDEN / f"laws_pcs_corrupt_sigma_seed{seed}.txt"
    assert out.getvalue() == golden.read_text()


class _RefusingInstance(PcsInstance):
    """Certifies nothing, so every law that needs a sum fails."""

    name = "pcs-refusing"

    def certify(self, candidate):
        return False


def test_family_sum_keeps_a_total_equal_to_expected_without_certify():
    inst = _RefusingInstance()
    f = pm.PolyMap(ONE, ONE, {(("*",), "*"): F(1, 2)})
    g = pm.PolyMap(ONE, ONE, {((), "*"): F(1, 3)})
    total = pm.add(f, g)
    assert inst.family_sum([f, g], ONE, ONE, expected=total) == total
    assert inst.family_sum([f, g], ONE, ONE, expected=f) is None
    assert inst.family_sum([f, g], ONE, ONE) is None
    zero = pm.zero(ONE, ONE)
    assert inst.family_sum([], ONE, ONE, expected=zero) == zero


def test_refused_summability_report_matches_golden():
    # The pool is built on the plain instance: the generators need iota_0.
    gens, multis, objs = law_generators(default_pcs_model(), seed=404)
    report = check_axioms(
        _RefusingInstance(), gens, multis, objs, LawConfig(404, 5)
    )
    lines = report.render_lines()
    golden = GOLDEN / "laws_refusing_certify.txt"
    assert "\n".join(lines) + "\n" == golden.read_text()

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cohdiff import pcs
from cohdiff import polymap as pm
from cohdiff.gen import default_pcs_model, law_generators, truncated_nat
from cohdiff.objects import (
    DPair,
    Ground,
    Prod,
    d_space,
    embed_slot,
    prodn,
    product,
    untag_d,
    web,
)
from cohdiff.pcs import (
    ModelError,
    PcsInstance,
    build_symbol_matrix,
    functionals,
    membership,
    parse_model_file,
    probe_points,
    space_sup,
    sup_norm,
    validate_space,
)
from cohdiff.polymap import is_multilinear

F = Fraction

ONE = Ground("one", ("*",), ((F(1),),))


@pytest.fixture
def inst():
    return PcsInstance()


def test_membership_on_the_unit_interval():
    assert membership(ONE, {"*": F(1, 2)})
    assert membership(ONE, {"*": F(1)})
    assert not membership(ONE, {"*": F(3, 2)})


def test_membership_terminal():
    top = prodn([])
    assert web(top) == ()
    assert membership(top, {})
    validate_space(top)


def test_membership_d_space_sums_projections():
    d1 = d_space(ONE)
    assert web(d1) == ("0.*", "1.*")
    # Same predual as duplicating (1,) onto both tags: z0 + z1 <= 1.
    assert membership(d1, {"0.*": F(1, 2), "1.*": F(1, 2)})
    assert not membership(d1, {"0.*": F(3, 4), "1.*": F(1, 2)})


def test_membership_product_is_componentwise():
    both = product(ONE, ONE)
    assert membership(both, {"L.*": F(1), "R.*": F(1)})
    assert not membership(both, {"L.*": F(5, 4)})


def test_validate_space_rejects_bad_preduals():
    with pytest.raises(ModelError):
        validate_space(Ground("bad", ("a",), ()))
    with pytest.raises(ModelError):
        validate_space(Ground("bad", ("a", "b"), ((F(1),),)))
    with pytest.raises(ModelError):
        validate_space(Ground("bad", ("a", "b"), ((F(1), F(0)),)))


def test_sup_norm_exact():
    n = truncated_nat(2)
    assert sup_norm(n, {"0": F(1, 2), "2": F(1, 2)}) == F(1)
    assert sup_norm(n, {"0": F(2, 3), "2": F(1, 2)}) == F(7, 6)


SQUARE = Ground("sq", ("a", "b"), ((F(1), F(0)), (F(0), F(1))))
TWO_ROW = Ground("tr", ("p", "q", "r"), ((F(1), F(1), F(0)), (F(0), F(1, 2), F(2))))


def test_functionals_structural_rows():
    assert functionals(SQUARE) == ({"a": F(1)}, {"b": F(1)})
    assert functionals(product(ONE, SQUARE)) == (
        {"L.*": F(1)}, {"R.a": F(1)}, {"R.b": F(1)}
    )
    assert functionals(d_space(ONE)) == ({"0.*": F(1), "1.*": F(1)},)


def test_space_sup_per_construction():
    assert space_sup(SQUARE, {"a": F(2), "b": F(3)}) == F(5)
    # x + u lies in the square: every unit of it takes the larger weight.
    assert space_sup(d_space(SQUARE), {"0.a": F(2), "1.a": F(3)}) == F(3)
    assert space_sup(product(ONE, TWO_ROW), {"L.*": F(1), "R.q": F(1)}) == F(2)


def _reference_sup(space, v):
    """space_sup by recursion over the space: a ground space's max over its
    vertices, the sum of a product's two sides' sups, and a D-space's inner
    sup of the coordinatewise max over its two D tags."""
    if isinstance(space, Ground):
        return max(
            sum((c * v[a] for a, c in x.items() if a in v), F(0))
            for x in pcs._vertices(space)
        )
    if isinstance(space, Prod):
        total = F(0)
        for side, part in enumerate((space.left, space.right)):
            p = embed_slot(side, 2, "")
            sub = {a.removeprefix(p): c for a, c in v.items() if a.startswith(p)}
            total += _reference_sup(part, sub)
        return total
    folded = {}
    for a, c in v.items():
        _, inner = untag_d(a)
        if c > folded.get(inner, F(0)):
            folded[inner] = c
    return _reference_sup(space.inner, folded)


def _d_depth(space):
    if isinstance(space, Ground):
        return 0
    if isinstance(space, Prod):
        return max(_d_depth(space.left), _d_depth(space.right))
    return 1 + _d_depth(space.inner)


_NESTED = st.recursive(
    st.sampled_from([ONE, SQUARE, TWO_ROW, prodn([])]),
    lambda kids: st.builds(product, kids, kids) | kids.map(DPair),
    max_leaves=4,
).filter(lambda space: _d_depth(space) <= 2)
_WEIGHT = st.integers(0, 4) | st.fractions(0, 4, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(_NESTED, st.data())
def test_flat_sup_matches_the_recursive_sup(space, data):
    v = {a: data.draw(_WEIGHT) for a in web(space) if data.draw(st.booleans())}
    assert space_sup(space, v) == _reference_sup(space, v)


def test_unit_square_sum_escapes(inst):
    # The probes never reach the vertex (1, 1), where 5/9 a + 5/9 b is 10/9.
    f = pm.PolyMap(SQUARE, ONE, {(("a",), "*"): F(5, 9), (("b",), "*"): F(5, 9)})
    assert all(membership(ONE, f.eval(x)) for x in probe_points(SQUARE))
    assert not inst.certify(f)
    assert inst.certify(pm.scale(f, F(9, 10)))


@pytest.mark.parametrize("kind", [int, F])
def test_int_predual_keeps_exact_vertices(inst, kind):
    # An int predual once reached Gauss-Jordan's "/" and gave the float
    # 0.25000000000000006 for the vertex (1/4, 1/4), which then failed its
    # own <= 1 test: the sup of a + b read 1/3, not 1/2, and 5/2 a + 5/2 b
    # (5/4 at that vertex) was certified.
    rows = ((3, 1), (1, 3))
    g = Ground("g", ("a", "b"), tuple(tuple(map(kind, row)) for row in rows))
    assert all(type(c) is F for row in g.predual for c in row)
    assert g == Ground("g", ("a", "b"), rows)
    assert hash(g) == hash(("g", ("a", "b"), rows))
    _clear_caches()  # int and Fraction spaces share cache entries
    vertices = {tuple(sorted(v.items())) for v in pcs._vertices(g)}
    assert vertices == {
        (), (("a", F(1, 3)),), (("b", F(1, 3)),), (("a", F(1, 4)), ("b", F(1, 4)))
    }
    assert space_sup(g, {"a": 1, "b": 1}) == F(1, 2)
    f = pm.PolyMap(g, ONE, {(("a",), "*"): F(5, 2), (("b",), "*"): F(5, 2)})
    assert not inst.certify(f)
    assert inst.certify(pm.PolyMap(g, ONE, {(("a",), "*"): 2, (("b",), "*"): 2}))
    # Certification holds integral values as ints, and never a float.
    for rows in (rows, ((1, 1),), ((2, 1), (1, 2))):
        g = Ground("g", ("a", "b"), tuple(tuple(map(kind, row)) for row in rows))
        _clear_caches()
        spaces = [g, d_space(g), product(g, d_space(d_space(g)))]
        values = [c for s in spaces for row in functionals(s) for c in row.values()]
        values += [c for v in pcs._vertices(g) for c in v.values()]
        values += [c for v in pcs._block_vertices("L.", 2, g) for c in v.values()]
        values += [pcs.coord_sup(s, a) for s in spaces for a in web(s)]
        values += [c for s in spaces for x in probe_points(s) for c in x.values()]
        assert all(_exact(c) for c in values)
        for s in spaces:
            a = web(s)[0]
            square = pm.PolyMap(s, s, {((a, a), a): 3, ((a,), a): F(1, 2)})
            for f in (pm.identity(s), square):
                rows, den = pcs.pulled_rows(f)
                assert type(den) is int
                assert all(type(w) is int for q in rows for w in q.values())
        int_vertices = all(type(c) is int for v in pcs._vertices(g) for c in v.values())
        for s in spaces:
            for weight in (1, 3, F(1, 2), F(4, 2)):
                sup = space_sup(s, {a: weight for a in web(s)})
                assert type(sup) in (int, F)
                if type(weight) is int and int_vertices:
                    assert type(sup) is int


def _clear_caches():
    for cached in (
        pcs._vertices, pcs._layout, pcs._block_vertices, functionals,
        pcs._int_functionals, probe_points,
    ):
        cached.cache_clear()
    pcs._SCALED_PROBES.clear()


def _exact(c):
    """An int, or a Fraction with a real denominator: never a float, and
    never an integral Fraction."""
    return type(c) is int or (type(c) is F and c.denominator != 1)


def test_equal_grounds_share_one_predual():
    # Grounds are interned: two built apart are one object, predual included,
    # so comparing them never compares Fractions.
    a, b = truncated_nat(), truncated_nat()
    assert a is b and a.predual is b.predual


def _solve(rows, rhs):
    """Exact Gauss-Jordan solution of a square system, or None if singular."""
    k = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(k):
            if r != col:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][k] / aug[i][i] for i in range(k)]


def _flat_vertices(space):
    """Every vertex of {x >= 0, <x, row> <= 1 for row in functionals(space)}
    over the whole web at once: n tight constraints out of rows and x >= 0."""
    atoms = web(space)
    n = len(atoms)
    cons = [[row.get(a, F(0)) for a in atoms] for row in functionals(space)]
    cons += [[F(-1) if j == i else F(0) for j in range(n)] for i in range(n)]
    rhs = [F(1)] * len(functionals(space)) + [F(0)] * n
    found = []
    for pick in combinations(range(len(cons)), n):
        x = _solve([cons[i] for i in pick], [rhs[i] for i in pick])
        if x is None:
            continue
        if all(sum(c * v for c, v in zip(row, x)) <= b for row, b in zip(cons, rhs)):
            found.append({a: v for a, v in zip(atoms, x) if v})
    return found


_flat_vertices_once = lru_cache(maxsize=None)(_flat_vertices)


def _random_affine(rng, dom, cod):
    entries = {}
    for b in web(cod):
        for m in [()] + [(a,) for a in web(dom)]:
            if rng.random() < 0.45:
                entries[(m, b)] = F(rng.randint(1, 4), rng.randint(3, 9))
    return pm.PolyMap(dom, cod, entries)


ORACLE_DOMS = [
    SQUARE,
    TWO_ROW,
    product(ONE, SQUARE),
    d_space(TWO_ROW),
    DPair(product(ONE, SQUARE)),
]


@pytest.mark.parametrize(
    "dom", ORACLE_DOMS, ids=["square", "two-row", "prod", "D", "D-of-prod"]
)
def test_affine_certify_matches_flat_vertex_oracle(inst, dom):
    rng = random.Random(f"affine-{web(dom)}")
    vertices = _flat_vertices(dom)
    verdicts = set()
    for trial in range(40):
        cod = [ONE, SQUARE, d_space(ONE)][trial % 3]
        f = _random_affine(rng, dom, cod)
        expected = all(membership(cod, f.eval(x)) for x in vertices)
        assert inst.certify(f) == expected, f.render()
        if expected:
            for x in probe_points(dom):
                assert membership(cod, f.eval(x))
        verdicts.add(expected)
    assert verdicts == {True, False}


NAT = truncated_nat()
BLOCK_DOMS = ORACLE_DOMS + [
    product(NAT, NAT),
    product(NAT, d_space(NAT)),
    product(TWO_ROW, d_space(SQUARE)),
]


def _random_block_multilinear(rng, dom, cod):
    """A non-negative map whose monomials read each block, the atoms under
    one L/R path, at most once."""
    blocks: dict = {}
    for a in web(dom):
        blocks.setdefault(re.match(r"(?:[LR]\.)*", a).group(), []).append(a)
    entries = {}
    for b in web(cod):
        for _ in range(rng.randint(1, 3)):
            m = pm.mono(rng.choice(atoms) for atoms in blocks.values() if rng.random() < 0.7)
            entries[(m, b)] = F(rng.randint(1, 4), rng.randint(2, 7))
    return pm.PolyMap(dom, cod, entries)


@pytest.mark.parametrize(
    "dom",
    BLOCK_DOMS,
    ids=["square", "two-row", "prod", "D", "D-of-prod", "N&N", "N&DN", "two-row&DSQ"],
)
def test_block_multilinear_certify_matches_flat_vertex_oracle(inst, dom, monkeypatch):
    # A block-multilinear map is affine in each block, so it peaks at a
    # vertex of the domain; certify decides it with no probe.
    def no_probes(space):
        raise AssertionError("probed")

    monkeypatch.setattr(pcs, "probe_points", no_probes)
    rng = random.Random(f"block-{web(dom)}")
    vertices = _flat_vertices(dom)
    verdicts = set()
    for trial in range(40):
        cod = [ONE, SQUARE, d_space(ONE)][trial % 3]
        f = _random_block_multilinear(rng, dom, cod)
        expected = all(membership(cod, f.eval(x)) for x in vertices)
        assert inst.certify(f) == expected, f.render()
        verdicts.add(expected)
    assert verdicts == {True, False}


_COEFF = st.integers(1, 3) | st.fractions(F(1, 9), 3, max_denominator=9)


@st.composite
def _candidates(draw):
    """A non-negative map of degree 0 to 3 with int and Fraction coefficients."""
    dom = draw(st.sampled_from(BLOCK_DOMS + [d_space(NAT)]))
    cod = draw(st.sampled_from([ONE, SQUARE, TWO_ROW, d_space(ONE)]))
    entries = {}
    for _ in range(draw(st.integers(1, 4))):
        m = pm.mono(draw(st.lists(st.sampled_from(web(dom)), max_size=3)))
        entries[(m, draw(st.sampled_from(web(cod))))] = draw(_COEFF)
    return pm.PolyMap(dom, cod, entries)


@settings(max_examples=200, deadline=None)
@given(_candidates(), st.booleans())
def test_pulled_rows_decide_points_like_membership(f, at_vertices):
    # The point check reads f off the codomain rows pulled back once, in int
    # arithmetic; it must agree with f's image tested row by row, also at
    # the fractional probe points and exactly on the boundary.
    points = _flat_vertices_once(f.dom) if at_vertices else probe_points(f.dom)
    peak = max(sup_norm(f.cod, f.eval(x)) for x in points)
    maps = [f, pm.scale(f, 1 / F(peak)), pm.scale(f, 2 / F(peak))] if peak else [f]
    verdicts = set()
    for g in maps:
        expected = all(membership(g.cod, g.eval(x)) for x in points)
        assert pcs.maps_points_into(g, map(pcs._scaled, points)) == expected
        if g.max_degree() >= 2:  # certify's vertex path, handed these points
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pcs, "vertex_points", lambda _: points)
                assert PcsInstance().certify(g) == expected
        verdicts.add(expected)
    assert verdicts == ({True, False} if peak else {True})


def _random_sparse(rng, dom, cod, degree):
    """A non-negative map with one to three entries, one of them of the
    given degree."""
    atoms = web(dom)
    entries = {}
    for k in range(rng.randint(1, 3)):
        size = degree if k == 0 else rng.randint(0, degree)
        m = pm.mono(rng.choice(atoms) for _ in range(size))
        entries[(m, rng.choice(web(cod)))] = F(rng.randint(1, 3), rng.randint(2, 5))
    return pm.PolyMap(dom, cod, entries)


def test_pair_witness_certifies_like_the_pointwise_sum(inst, monkeypatch):
    # For non-negative maps the witness <f0, f1> : X -> DY is a morphism
    # exactly when f0 + f1 : X -> Y is one, on every certification path.
    paths = []
    affine, vertex, probes = pcs.affine_morphism, pcs.vertex_points, pcs.probe_points

    def vertex_points(f):
        points = vertex(f)
        if points is not None:
            paths.append("vertex")
        return points

    monkeypatch.setattr(pcs, "affine_morphism",
                        lambda f: paths.append("exact") or affine(f))
    monkeypatch.setattr(pcs, "vertex_points", vertex_points)
    monkeypatch.setattr(pcs, "probe_points",
                        lambda space: paths.append("probe") or probes(space))
    def sparse(degree):
        return lambda rng, dom, cod: _random_sparse(rng, dom, cod, degree)

    cases = [("pair-1", dom, sparse(1)) for dom in ORACLE_DOMS]
    cases += [("pair-2", dom, sparse(2)) for dom in (NAT, d_space(NAT))]
    cases += [("pair-block", dom, _random_block_multilinear) for dom in BLOCK_DOMS[5:]]
    verdicts = {"exact": set(), "vertex": set(), "probe": set()}
    for seed, dom, make in cases:
        rng = random.Random(f"{seed}-{web(dom)}")
        for trial in range(30):
            cod = [ONE, SQUARE, d_space(ONE), NAT][trial % 4]
            f0 = make(rng, dom, cod)
            f1 = make(rng, dom, cod)
            old = inst.certify(pm.add(f0, f1))
            paths.clear()
            assert (inst.pair_witness(f0, f1) is not None) == old
            (path,) = paths
            verdicts[path].add(old)
    assert verdicts == {
        "exact": {True, False}, "vertex": {True, False}, "probe": {True, False}
    }
    # Neither map of a pair whose coefficients cancel in the sum is a
    # morphism, so the pair is refused although the sum, id, is one.
    f0 = pm.PolyMap(ONE, ONE, {(("*",), "*"): F(1), ((), "*"): F(-1, 2)})
    f1 = pm.PolyMap(ONE, ONE, {((), "*"): F(1, 2)})
    assert pm.add(f0, f1) == pm.identity(ONE)
    assert inst.pair_witness(f0, f1) is None


def test_large_ground_keeps_the_probe_path(inst):
    # C(16, 8) candidate bases is past the enumeration cap.
    atoms = tuple(str(i) for i in range(8))
    rows = tuple(tuple(F(int(i == j)) for j in range(8)) for i in range(8))
    big = Ground("big", atoms, rows)
    assert pcs._vertices(big) is None
    assert inst.certify(pm.identity(big))
    assert not inst.certify(pm.scale(pm.identity(big), F(2)))


def test_probe_points_deterministic_and_valid():
    pts1 = probe_points(ONE)
    pts2 = probe_points(ONE)
    assert pts1 == pts2
    assert {"*": F(1)} in pts1  # the coordinate supremum
    for p in pts1:
        assert membership(ONE, p)


def test_pair_witness_identity_with_zero(inst):
    one = pm.identity(ONE)
    zero = pm.zero(ONE, ONE)
    w = inst.pair_witness(one, zero)
    assert w is not None
    assert pm.compose(inst.sigma(ONE), w) == one


def test_pair_witness_refuses_double_identity(inst):
    # 2x on [0,1] escapes at the probe x = 1.
    one = pm.identity(ONE)
    assert inst.pair_witness(one, one) is None


def test_pair_witness_halves_of_constant_one(inst):
    half = pm.PolyMap(ONE, ONE, {((), "*"): F(1, 2)})
    w = inst.pair_witness(half, half)
    assert w is not None
    total = pm.compose(inst.sigma(ONE), w)
    assert total == pm.PolyMap(ONE, ONE, {((), "*"): F(1)})


def test_family_sum_scaled_identities_with_partitions(inst):
    # id/2 + id/4 + id/4 = id, independent of order and grouping.
    ident = pm.identity(ONE)
    family = [pm.scale(ident, F(1, 2)), pm.scale(ident, F(1, 4)), pm.scale(ident, F(1, 4))]
    total = inst.family_sum(family, ONE, ONE)
    assert total == ident
    reordered = inst.family_sum(family[::-1], ONE, ONE)
    assert reordered == ident
    tail = inst.family_sum(family[1:], ONE, ONE)
    grouped = inst.sum2(family[0], tail)
    assert grouped == ident
    assert inst.family_sum([], ONE, ONE) == pm.zero(ONE, ONE)
    assert inst.family_sum([family[0]], ONE, ONE) == family[0]


def test_eval_ifzero_at_dirac_zero():
    model = default_pcs_model()
    h = model.symbols["bil"]
    # u = dirac at 0, x and y arbitrary: h(u, (x, y)) = x.
    x = {"0": F(1, 4), "1": F(1, 8)}
    point = {"L.0": F(1)}
    for a, c in x.items():
        point["R.L." + a] = c
    point["R.R.2"] = F(1, 3)  # y is dropped since u has no mass > 0
    assert h.eval(point) == x


def test_monotone_derivative_bound():
    # f(x) + df(x, u) <= f(x + u) pointwise, exact rationals.
    model = default_pcs_model()
    rng = random.Random(12)
    base = model.grounds["N"]
    gens, _, _ = law_generators(model, seed=2)
    candidates = [f for f in gens if f.max_degree() >= 1]
    checked = 0
    for f in candidates:
        for _ in range(4):
            raw1 = {a: F(rng.randint(0, 3), 7) for a in web(f.dom)}
            raw2 = {a: F(rng.randint(0, 2), 9) for a in web(f.dom)}
            total = {a: raw1.get(a, F(0)) + raw2.get(a, F(0)) for a in web(f.dom)}
            norm = sup_norm(f.dom, total)
            scale = max(norm, F(1))
            x = {a: c / scale for a, c in raw1.items() if c}
            u = {a: c / scale for a, c in raw2.items() if c}
            fx = f.eval(x)
            fxu = f.eval({a: x.get(a, F(0)) + u.get(a, F(0)) for a in web(f.dom)})
            df = pm.compose(pm.proj(1, f.cod), pm.differential(f))
            point = {}
            for a, c in x.items():
                point[_tag0(a)] = c
            for a, c in u.items():
                point[_tag1(a)] = c
            dfx = df.eval(point)
            for b in web(f.cod):
                lhs = fx.get(b, F(0)) + dfx.get(b, F(0))
                assert lhs <= fxu.get(b, F(0))
            checked += 1
    assert checked >= 20


def _tag0(a):
    from cohdiff.objects import tag_d

    return tag_d(0, a)


def is_linear(f: pm.PolyMap) -> bool:
    """Support shape: every monomial is a single atom."""
    return all(len(m) == 1 for m, _ in f.entries)


def _tag1(a):
    from cohdiff.objects import tag_d

    return tag_d(1, a)


def test_is_linear_shapes():
    assert is_linear(pm.identity(ONE))
    sq = pm.PolyMap(ONE, ONE, {(("*", "*"), "*"): F(1)})
    assert not is_linear(sq)


def test_is_multilinear_on_default_symbols():
    model = default_pcs_model()
    assert is_multilinear(model.symbols["lin"], 1)
    assert is_multilinear(model.symbols["bil"], 2)
    assert is_multilinear(model.symbols["tri"], 3)


def test_is_multilinear_rejects_wrong_shapes():
    model = default_pcs_model()
    base = model.grounds["N"]
    nn = product(base, base)
    diag = pm.PolyMap(
        nn, base, {(pm.mono(["L.0", "L.1"]), "0"): F(1, 2)}
    )
    assert not is_multilinear(diag, 2)
    with pytest.raises(Exception):
        is_multilinear(pm.identity(base), 2)


def test_linearity_coincides_with_differential_characterization():
    # Support shape linear <=> d f = f . pi1 and the additivity equations.
    model = default_pcs_model()
    gens, _, _ = law_generators(model, seed=5)
    for f in gens:
        shape = is_linear(f)
        df = pm.compose(pm.proj(1, f.cod), pm.differential(f))
        char = df == pm.compose(f, pm.proj(1, f.dom))
        assert shape == char, f.render(limit=6)


def test_structural_theta_acts_on_witness_vectors():
    inst = PcsInstance()
    theta = inst.theta(ONE)
    x, u, v, w = F(1, 8), F(1, 8), F(1, 4), F(1, 8)
    z = {
        "0.0.*": x,
        "0.1.*": u,
        "1.0.*": v,
        "1.1.*": w,
    }
    assert theta.eval(z) == {"0.*": x, "1.*": u + v}


def test_structural_swap_is_involutive():
    inst = PcsInstance()
    c = inst.swap(ONE)
    assert pm.compose(c, c) == pm.identity(d_space(d_space(ONE)))


def test_structural_sigma_on_d_one():
    inst = PcsInstance()
    assert inst.sigma(ONE).entries == {
        (("0.*",), "*"): F(1),
        (("1.*",), "*"): F(1),
    }


MODEL_TEXT = """
# a tiny model
object N { web = [0, 1, 2]; predual = [[1, 1, 1]]; }
object unit { web = [star]; predual = [[1]]; }
interp k { entry (1) -> 0 : 1; entry (2) -> 1 : 1; }
interp h {
  entry (0, L.0) -> 0 : 1;
  entry (1, R.0) -> 0 : 1/2;
}
"""


def test_parse_model_file():
    model = parse_model_file(MODEL_TEXT)
    assert set(model.spaces) == {"N", "unit"}
    assert model.spaces["N"].web == ("0", "1", "2")
    assert len(model.interps["k"]) == 2
    assert model.interps["h"][1][2] == F(1, 2)
    # Integral coefficients are ints, p/q with q | p included; preduals are
    # Fraction whatever they were written as.
    assert [type(c) for _, _, c in model.interps["h"]] == [int, F]
    assert pcs._parse_rational("4/2") == 2 and type(pcs._parse_rational("4/2")) is int
    assert all(type(c) is F for c in model.spaces["N"].predual[0])


def test_build_symbol_matrix_multilinear():
    inst = PcsInstance()
    parsed = parse_model_file(MODEL_TEXT)
    n = parsed.spaces["N"]
    k = build_symbol_matrix(
        inst, [n], n, parsed.interps["k"], "k", parsed.where["k"]
    )
    assert is_linear(k)
    nn = product(n, n)
    h = build_symbol_matrix(
        inst, [n, nn], n, parsed.interps["h"], "h", parsed.where["h"]
    )
    assert is_multilinear(h, 2)


def test_build_symbol_matrix_rejects_bad_entries():
    inst = PcsInstance()
    parsed = parse_model_file(MODEL_TEXT)
    n = parsed.spaces["N"]
    with pytest.raises(ModelError):
        build_symbol_matrix(
            inst, [n, n], n, parsed.interps["k"], "k", parsed.where["k"]
        )  # wrong arity
    with pytest.raises(ModelError):
        build_symbol_matrix(
            inst, [n], n, [(("9",), "0", F(1))], "bad", ((1, 1), [(2, 3)])
        )  # atom outside web
    with pytest.raises(ModelError):
        build_symbol_matrix(
            inst, [n], n, [(("0",), "0", F(3))], "heavy", ((1, 1), [(2, 3)])
        )  # escapes on a probe


def test_parse_model_file_errors():
    with pytest.raises(ModelError):
        parse_model_file("object X { web = [a]; }")
    with pytest.raises(ModelError):
        parse_model_file("garbage")
    obj = "object N { web = [a]; predual = [[1]]; }\n"
    for text, prefix in [
        (obj + obj, "2:8: object 'N' declared twice"),
        (
            obj + "interp f { entry (a) -> a : 1/2; }\n"
            "interp f { entry (a) -> a : 1; }",
            "3:8: interp 'f' declared twice",
        ),
        ("object N { web = [a b, c]; predual = [[1, 1]]; }", "1:21: "),
        ("object N { web = [L.0, c]; predual = [[1, 1]]; }", "1:20: "),
        # A dotted web name would make an atom such as "L.a.b" ambiguous.
        ("object S { web = [a.b]; predual = [[1]]; }",
         "1:20: expected ']', found '.'"),
        ("object N { web = [a]; predual = [[1]]; stray }", "1:40: "),
        ("object N { web = [a]; predual = [[1/0]]; }",
         "1:35: zero denominator in '1/0'"),
        (
            "object N { web = [a];\n web = [b]; predual = [[1]]; }",
            "2:2: object 'N' has a second web",
        ),
    ]:
        with pytest.raises(ModelError) as err:
            parse_model_file(text)
        assert str(err.value).startswith(prefix)


def test_parse_model_file_demo_literal():
    demo = Path(__file__).resolve().parent.parent / "demo" / "nat.pcsmodel"
    model = parse_model_file(demo.read_text())
    assert model.spaces == {
        "N": Ground("N", ("0", "1", "2"), ((F(1), F(1), F(1)),))
    }
    assert model.interps == {
        "succ": [(("1",), "0", F(1)), (("2",), "1", F(1))],
        "ifz": [
            (("0", "L.0"), "0", F(1)),
            (("0", "L.1"), "1", F(1)),
            (("0", "L.2"), "2", F(1)),
            (("1", "R.0"), "0", F(1)),
            (("1", "R.1"), "1", F(1)),
            (("1", "R.2"), "2", F(1)),
            (("2", "R.0"), "0", F(1)),
            (("2", "R.1"), "1", F(1)),
            (("2", "R.2"), "2", F(1)),
        ],
    }


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_embed_slot_round_trip(arity):
    # Slot atoms carry L/R/0/1 tags of their own, so in slot 0 an R can
    # follow the slot's own L tags; the prefix still names one slot.
    prefixes = [embed_slot(j, arity, "") for j in range(arity)]
    a = Ground("a", ("x", "y"), ((F(1), F(1)),))
    kinds = [product(product(a, a), a), d_space(a), product(d_space(a), a), a]
    slots = [kinds[i % len(kinds)] for i in range(arity)]
    embedded = []
    for i, s in enumerate(slots):
        for atom in web(s):
            e = embed_slot(i, arity, atom)
            assert [j for j, p in enumerate(prefixes) if e.startswith(p)] == [i]
            embedded.append(e)
    assert sorted(embedded) == list(web(prodn(slots)))

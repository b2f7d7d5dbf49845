import random
from fractions import Fraction

import pytest

from cohdiff import polymap as pm
from cohdiff.objects import Atom, Ground, embed_slot, product, untag_d, web
from cohdiff.poly import PolyInstance

F = Fraction


@pytest.fixture
def inst():
    return PolyInstance()


X1 = Ground("X", ("x0",), ())
X2 = Ground("Y", ("x0", "x1"), ())


def lit(poly):
    """The map X1 -> X1 given as {monomial: coefficient} in x0."""
    return pm.PolyMap(X1, X1, {(m, "x0"): F(c) for m, c in poly.items()})


def test_d_combinator_of_square():
    sq = lit({("x0", "x0"): 1})
    d = d_combinator(sq)
    # d f (x, u) = 2 x u: base point in the left factor.
    key = (pm.mono(["L.x0", "R.x0"]), "x0")
    assert d.entries == {key: F(2)}


def test_d_combinator_of_projection_is_axiom_one():
    pr0 = pm.prod_proj(0, X1, X2)
    lhs = d_combinator(pr0)
    dom = product(X1, X2)
    rhs = pm.compose(pr0, pm.prod_proj(1, dom, dom))
    assert lhs == rhs
    pr1 = pm.prod_proj(1, X1, X2)
    assert d_combinator(pr1) == pm.compose(
        pr1, pm.prod_proj(1, dom, dom)
    )


def test_d_combinator_of_constant_is_zero():
    const = lit({(): F(3, 4)})
    assert d_combinator(const) == pm.zero(product(X1, X1), X1)


def random_poly_map(rng, dom, cod, max_degree=3):
    entries = {}
    for _ in range(rng.randint(1, 5)):
        degree = rng.randint(0, max_degree)
        m = pm.mono([rng.choice(web(dom)) for _ in range(degree)])
        b = rng.choice(web(cod))
        c = F(rng.randint(-4, 4), rng.randint(1, 5))
        if c:
            entries[(m, b)] = entries.get((m, b), F(0)) + c
    return pm.PolyMap(dom, cod, entries)


def test_six_cdc_axioms_symbolically():
    rng = random.Random(9)
    spaces = [X1, X2]
    for _ in range(25):
        dom = rng.choice(spaces)
        mid = rng.choice(spaces)
        cod = rng.choice(spaces)
        f = random_poly_map(rng, dom, mid, max_degree=2)
        g = random_poly_map(rng, mid, cod, max_degree=2)

        dd = product(dom, dom)
        pr0 = pm.prod_proj(0, dom, dom)
        pr1 = pm.prod_proj(1, dom, dom)

        # (2) d is additive in the map.
        f2 = random_poly_map(rng, dom, mid, max_degree=2)
        assert d_combinator(pm.add(f, f2)) == pm.add(
            d_combinator(f), d_combinator(f2)
        )
        assert d_combinator(pm.zero(dom, mid)) == pm.zero(dd, mid)

        # (3) d id = pr1 and the chain rule.
        assert d_combinator(pm.identity(dom)) == pr1
        chain = d_combinator(pm.compose(g, f))
        expected = pm.compose(
            d_combinator(g),
            pm.prod_pair(pm.compose(f, pr0), d_combinator(f)),
        )
        assert chain == expected

        # (4) additivity in the direction argument, symbolically: compose
        # with <<x, 0>> and <<x, u + v>> built from projections off dom^3.
        triple = product(product(dom, dom), dom)
        x = pm.compose(pr0, pm.prod_proj(0, product(dom, dom), dom))
        u = pm.compose(pr1, pm.prod_proj(0, product(dom, dom), dom))
        v = pm.prod_proj(1, product(dom, dom), dom)
        df = d_combinator(f)
        zero_dir = pm.compose(df, pm.prod_pair(x, pm.zero(triple, dom)))
        assert zero_dir == pm.zero(triple, mid)
        both = pm.compose(df, pm.prod_pair(x, pm.add(u, v)))
        split = pm.add(
            pm.compose(df, pm.prod_pair(x, u)),
            pm.compose(df, pm.prod_pair(x, v)),
        )
        assert both == split

        # (5) and (6) via generic projections off (dom & dom) & (dom & dom).
        quad = product(dd, dd)
        q_outer = [pm.prod_proj(i, dd, dd) for i in (0, 1)]
        coords = [
            pm.compose(pm.prod_proj(i, dom, dom), q_outer[j])
            for j in (0, 1)
            for i in (0, 1)
        ]
        xq, uq, vq, wq = coords
        ddf = d_combinator(df)
        lin = pm.compose(
            ddf,
            pm.prod_pair(
                pm.prod_pair(xq, pm.zero(quad, dom)),
                pm.prod_pair(pm.zero(quad, dom), uq),
            ),
        )
        assert lin == pm.compose(df, pm.prod_pair(xq, uq))
        sym_l = pm.compose(
            ddf, pm.prod_pair(pm.prod_pair(xq, uq), pm.prod_pair(vq, wq))
        )
        sym_r = pm.compose(
            ddf, pm.prod_pair(pm.prod_pair(xq, vq), pm.prod_pair(uq, wq))
        )
        assert sym_l == sym_r


def test_totality_of_summability(inst):
    rng = random.Random(20)
    for _ in range(100):
        f = random_poly_map(rng, X2, X1)
        g = random_poly_map(rng, X2, X1)
        w = inst.pair_witness(f, g)
        assert w is not None
        assert pm.compose(inst.sigma(X1), w) == pm.add(f, g)


def test_additive_versus_linear_gap():
    sq = lit({("x0", "x0"): 1})
    affine = lit({("x0",): 1, (): 1})
    triple = lit({("x0",): 3})
    assert not is_additive(sq)
    assert not is_linear(sq)
    assert not is_additive(affine)  # fails h . 0 = 0
    assert not is_linear(affine)
    assert is_additive(triple)
    assert is_linear(triple)


def _retag_d_to_prod(a: Atom) -> Atom:
    """Relabel the outer D tag of an atom of DX as a product tag of X & X."""
    i, inner = untag_d(a)
    return embed_slot(i, 2, inner)


def d_combinator(f: pm.PolyMap) -> pm.PolyMap:
    """The cartesian differential combinator d f : X & X -> Y, base point
    left, direction right: the second component of Df transported along the
    canonical relabelling web(DX) = web(X & X), so Df = <f . pi0, d f>."""
    derivative = pm.compose(pm.proj(1, f.cod), pm.differential(f))
    entries = {}
    for (m, b), c in derivative.entries.items():
        entries[(pm.mono(_retag_d_to_prod(a) for a in m), b)] = c
    return pm.PolyMap(product(f.dom, f.dom), f.cod, entries)


def is_additive(f: pm.PolyMap) -> bool:
    """h . 0 = 0 and h pi0 + h pi1 = h sigma, with pi = pr on X & X."""
    x = f.dom
    if pm.compose(f, pm.zero(x, x)) != pm.zero(x, f.cod):
        return False
    pr0 = pm.prod_proj(0, x, x)
    pr1 = pm.prod_proj(1, x, x)
    both = pm.add(pm.compose(f, pr0), pm.compose(f, pr1))
    diag = pm.add(pr0, pr1)
    return both == pm.compose(f, diag)


def is_linear(f: pm.PolyMap) -> bool:
    """Additive and equal to its own derivative: d f = f . pr1."""
    if not is_additive(f):
        return False
    pr1 = pm.prod_proj(1, f.dom, f.dom)
    return d_combinator(f) == pm.compose(f, pr1)


def directional_oracle(f: pm.PolyMap, x: dict, u: dict) -> dict:
    """Coefficient of epsilon in f(x + eps u), by truncated expansion.

    Independent of the differential code path: expands each monomial as a
    product of binomials (x_a + eps u_a)^k keeping epsilon-degree <= 1.
    """
    zero = Fraction(0)
    out: dict = {}
    for (m, b), c in f.entries.items():
        const, eps = c, zero
        for a in m:
            xa = x.get(a, zero)
            ua = u.get(a, zero)
            const, eps = const * xa, const * ua + eps * xa
            if const == 0 and eps == 0:
                break
        if eps != 0:
            out[b] = out.get(b, zero) + eps
    return {b: v for b, v in out.items() if v != 0}


def test_directional_oracle_matches_d_combinator():
    # Independent divided-difference oracle: coefficient of eps in f(x+eps u).
    rng = random.Random(31)
    for _ in range(30):
        f = random_poly_map(rng, X2, X2, max_degree=3)
        d = d_combinator(f)
        x = {a: F(rng.randint(-3, 3), rng.randint(1, 4)) for a in web(X2)}
        u = {a: F(rng.randint(-3, 3), rng.randint(1, 4)) for a in web(X2)}
        point = {"L." + a: c for a, c in x.items()}
        point.update({"R." + a: c for a, c in u.items()})
        assert d.eval(point) == directional_oracle(f, x, u)


def test_d_combinator_bridges_to_differential():
    # Df = <f . pi0, d f> up to the D-tag/product-tag relabelling.
    rng = random.Random(7)
    f = random_poly_map(rng, X2, X1)
    df = pm.differential(f)
    first, second = (pm.compose(pm.proj(i, X1), df) for i in (0, 1))
    assert first == pm.compose(f, pm.proj(0, X2))
    d = d_combinator(f)
    retagged = {
        (pm.mono([_retag_d_to_prod(a) for a in m]), b): c
        for (m, b), c in second.entries.items()
    }
    assert retagged == d.entries

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from cohdiff import polymap as pm
from cohdiff.ccdc import Instance
from cohdiff.gen import default_poly_model
from cohdiff.objects import Ground, d_space, embed_slot, prodn, product, web

F = Fraction

ONE = Ground("one", ("*",), ((F(1),),))
N = Ground("N", ("0", "1", "2"), ((F(1), F(1), F(1)),))


def monomial_map(space, out_atom, power, coeff=F(1)):
    return pm.PolyMap(space, space, {((out_atom,) * power, out_atom): coeff})


def test_identity_eval():
    ident = pm.identity(N)
    x = {"0": F(1, 3), "2": F(1, 5)}
    assert ident.eval(x) == x


def test_square_eval():
    sq = monomial_map(ONE, "*", 2)
    assert sq.eval({"*": F(1, 2)}) == {"*": F(1, 4)}


def test_compose_monomials():
    sq = monomial_map(ONE, "*", 2)
    cube = monomial_map(ONE, "*", 3)
    assert pm.compose(sq, cube) == monomial_map(ONE, "*", 6)


def test_compose_identity_laws():
    f = pm.PolyMap(
        N, ONE, {(("0", "1"), "*"): F(1, 2), (("2",), "*"): F(1, 3)}
    )
    assert pm.compose(f, pm.identity(N)) == f
    assert pm.compose(pm.identity(ONE), f) == f


def test_compose_matches_evaluation_oracle():
    # Exact check of g(f(x)) against the composed matrix at random points.
    rng = random.Random(4)
    f = pm.PolyMap(
        N,
        N,
        {
            (("0",), "0"): F(1, 2),
            (("1", "1"), "0"): F(1, 4),
            (("2",), "1"): F(1, 3),
            ((), "2"): F(1, 8),
        },
    )
    g = pm.PolyMap(
        N, ONE, {(("0", "1"), "*"): F(2, 3), (("2", "2"), "*"): F(1, 5)}
    )
    gf = pm.compose(g, f)
    for _ in range(10):
        x = {
            a: F(rng.randint(0, 3), rng.randint(3, 9))
            for a in web(N)
            if rng.random() < 0.8
        }
        assert gf.eval(x) == g.eval(f.eval(x))
    # Seeded pairs: every monomial of g repeats an atom, and each coordinate
    # of f is a series of two or three terms; int and Fraction coefficients.
    monos = [m for k in range(3) for m in combinations_with_replacement(web(N), k)]
    for trial in range(40):
        whole = trial % 2  # int coefficients on odd trials

        def coeff():
            c = rng.choice([-3, -1, 1, 2, 5])
            return c if whole else F(c, rng.randint(1, 4))

        f = pm.PolyMap(N, N, {
            (m, b): coeff()
            for b in web(N)
            for m in rng.sample(monos, rng.randint(2, 3))
        })
        repeated = rng.sample(web(N), rng.randint(1, 3))
        g = pm.PolyMap(N, N, {
            (pm.mono([a] * rng.randint(2, 3) + rng.sample(web(N), rng.randint(0, 1))),
             rng.choice(web(N))): coeff()
            for a in repeated
        })
        gf = pm.compose(g, f)
        if whole:
            assert all(type(c) is int for c in gf.entries.values())
        for _ in range(3):
            p = _random_point(rng, N)
            assert gf.eval(p) == g.eval(f.eval(p))


def test_differential_functorial():
    sq = monomial_map(ONE, "*", 2)
    cube = monomial_map(ONE, "*", 3)
    assert pm.differential(pm.identity(N)) == pm.identity(d_space(N))
    lhs = pm.differential(pm.compose(sq, cube))
    rhs = pm.compose(pm.differential(sq), pm.differential(cube))
    assert lhs == rhs


def test_differential_of_square():
    # f(x) = x^2 has derivative part 2 x u.
    sq = monomial_map(ONE, "*", 2)
    dsq = pm.differential(sq)
    key = (pm.mono(["0.*", "1.*"]), "1.*")
    assert dsq.entries[key] == F(2)


def test_differential_of_truncated_exponential():
    # f(x) = sum_{n<=4} c_n x^n gives derivative sum n c_n x^(n-1) u.
    coeffs = [F(1), F(1), F(1, 2), F(1, 6), F(1, 24)]
    f = pm.PolyMap(
        ONE, ONE, {(("*",) * n, "*"): c for n, c in enumerate(coeffs)}
    )
    df = pm.differential(f)
    for n, c in enumerate(coeffs):
        if n == 0:
            continue
        key = (
            pm.mono(["0.*"] * (n - 1) + ["1.*"]),
            "1.*",
        )
        assert df.entries[key] == n * c


def test_degree_cap():
    big = monomial_map(ONE, "*", 5)
    with pytest.raises(pm.DegreeCapError):
        pm.compose(big, big)


def test_shape_errors():
    f = pm.identity(N)
    g = pm.identity(ONE)
    with pytest.raises(pm.ShapeError):
        pm.compose(g, f)
    with pytest.raises(pm.ShapeError):
        pm.add(f, g)


def test_projections_and_sigma():
    sigma = pm.sigma(ONE)
    assert sigma.entries == {
        (("0.*",), "*"): F(1),
        (("1.*",), "*"): F(1),
    }
    for i in (0, 1):
        p = pm.proj(i, ONE)
        z = {"0.*": F(1, 3), "1.*": F(1, 5)}
        assert p.eval(z) == {"*": z[f"{i}.*"]}


def test_witness_roundtrip():
    f0 = monomial_map(ONE, "*", 1, F(1, 3))
    f1 = monomial_map(ONE, "*", 2, F(1, 5))
    w = pm.pair_witness_matrix(f0, f1)
    back0, back1 = (pm.compose(pm.proj(i, ONE), w) for i in (0, 1))
    assert back0 == f0 and back1 == f1
    # Joint monicity on the representation: equal components force equality.
    w2 = pm.pair_witness_matrix(f0, f1)
    assert w == w2


def test_with_map_and_prod_pair():
    f = monomial_map(ONE, "*", 1, F(1, 2))
    g = monomial_map(ONE, "*", 2, F(1, 3))
    both = pm.with_map(f, g)
    x = {"L.*": F(1, 2), "R.*": F(1, 2)}
    assert both.eval(x) == {"L.*": F(1, 4), "R.*": F(1, 12)}
    paired = pm.prod_pair(f, g)
    y = {"*": F(1, 2)}
    assert paired.eval(y) == {"L.*": F(1, 4), "R.*": F(1, 12)}


def test_d_tags_push_under_product_tags():
    # D(X & Y) and DX & DY are the same space with the same web.
    both = product(ONE, N)
    assert d_space(both) == product(d_space(ONE), d_space(N))
    assert web(d_space(both)) == web(product(d_space(ONE), d_space(N)))


def test_zero_absorbs_composition_on_the_left():
    f = pm.PolyMap(N, ONE, {(("0",), "*"): F(1, 2)})
    assert pm.compose(pm.zero(ONE, N), f) == pm.zero(N, N)


def test_cancelling_sums_and_composites_drop_their_zeros():
    f = pm.PolyMap(N, ONE, {(("0",), "*"): F(1, 2), (("1",), "*"): 3})
    g = pm.PolyMap(N, ONE, {(("0",), "*"): F(-1, 2), (("2",), "*"): 1})
    assert pm.add(f, g).entries == {(("1",), "*"): 3, (("2",), "*"): 1}
    # x_0 - x_1 + x_2 at (t, t, 0): t - t cancels on both compose paths.
    diff = pm.PolyMap(
        N, ONE, {(("0",), "*"): 1, (("1",), "*"): -1, (("2",), "*"): 1}
    )
    for coeff in (1, F(2, 3)):  # a substitution, then a series
        diag = pm.PolyMap(ONE, N, {(("*",), "0"): coeff, (("*",), "1"): coeff})
        assert pm.compose(diff, diag).entries == {}


# ---------------------------------------------------------------------------
# Substitution fast path against the series path

SPACES = [
    N,
    product(N, ONE),
    d_space(N),
    d_space(d_space(ONE)),
    product(d_space(N), product(ONE, N)),
    d_space(product(d_space(ONE), N)),
]


def _series(g, f, cap=pm.DEGREE_CAP):
    return pm.PolyMap(f.dom, g.cod, pm._series_entries(g, f, cap))


def _random_substitution(rng, dom, cod):
    """Partial and, when the domain is small, non-injective."""
    ins = web(dom)
    outs = [b for b in web(cod) if rng.random() < 0.8]
    return pm.PolyMap(dom, cod, {((rng.choice(ins),), b): F(1) for b in outs})


def _random_map(rng, dom, cod, max_degree=4):
    ins = web(dom)
    entries = {}
    for _ in range(rng.randint(1, 8)):
        m = pm.mono(rng.choice(ins) for _ in range(rng.randint(0, max_degree)))
        entries[(m, rng.choice(web(cod)))] = F(rng.randint(-3, 5), rng.randint(1, 4))
    return pm.PolyMap(dom, cod, entries)


def _random_point(rng, space):
    return {a: F(rng.randint(0, 3), rng.randint(1, 5)) for a in web(space)}


def test_substitution_matches_series_on_random_maps():
    rng = random.Random(20)
    seen_partial = seen_repeat = 0
    for _ in range(300):
        x, y, z = (rng.choice(SPACES) for _ in range(3))
        f = _random_substitution(rng, x, y)
        g = _random_map(rng, y, z)
        assert pm._substitution(f) is not None
        fast, ref = pm.compose(g, f), _series(g, f)
        assert fast == ref
        assert list(fast.entries) == list(ref.entries)
        for _ in range(3):
            p = _random_point(rng, x)
            assert fast.eval(p) == g.eval(f.eval(p))
        outs = {b for _, b in f.entries}
        seen_partial += len(outs) < len(web(y))
        seen_repeat += len({m for m, _ in f.entries}) < len(outs)
    assert seen_partial and seen_repeat


def test_substitution_of_structural_maps():
    rng = random.Random(21)
    x = product(d_space(N), ONE)
    dx = d_space(x)
    for f in [
        pm.proj(0, x),
        pm.proj(1, d_space(N)),
        pm.pair_witness_matrix(pm.zero(x, x), pm.identity(x)),
        pm.prod_proj(1, N, x),
        pm.prod_pair(pm.proj(1, x), pm.proj(0, x)),
        pm.identity(dx),
    ]:
        g = _random_map(rng, f.cod, N)
        assert pm._substitution(f) is not None
        assert pm.compose(g, f) == _series(g, f)
    # sigma sums two atoms into each output; 2x is not a renaming.
    assert pm._substitution(pm.sigma(N)) is None
    assert pm._substitution(pm.scale(pm.identity(N), F(2))) is None


def test_substitution_repeated_atoms_collapse_and_cancel():
    # x0 x1 and x1 x0 under the swap of a D-pair land on one monomial.
    dn = d_space(ONE)
    a0, a1 = web(dn)
    swap = pm.PolyMap(dn, dn, {((a1,), a0): F(1), ((a0,), a1): F(1)})
    g = pm.PolyMap(
        dn, ONE, {((a0, a0, a1), "*"): F(1), ((a0, a1, a1), "*"): F(-1)}
    )
    diag = pm.PolyMap(dn, dn, {((a0,), a0): F(1), ((a0,), a1): F(1)})
    assert pm.compose(g, swap) == pm.PolyMap(
        dn, ONE, {((a0, a1, a1), "*"): F(1), ((a0, a0, a1), "*"): F(-1)}
    )
    assert pm.compose(g, diag) == pm.zero(dn, ONE) == _series(g, diag)


def _outcome(fn):
    try:
        return fn()
    except pm.DegreeCapError as exc:
        return ("cap", str(exc))


def test_substitution_degree_cap_matches_series(monkeypatch):
    a, b = "0", "1"
    only_a = pm.PolyMap(N, N, {((a,), a): F(1)})
    both = pm.identity(N)
    # f_a = a + a^2 has degree 2 and f_b = b degree 1, so a^2 b substitutes
    # to degree 2 * 2 + 1; curved takes the series path only.
    curved = pm.PolyMap(N, N, {((a,), a): F(1), ((a, a), a): F(1), ((b,), b): F(1)})

    def g(m):
        return pm.PolyMap(N, ONE, {(m, "*"): F(1)})

    def cap(d):
        return ("cap", f"monomial degree {d} exceeds cap 3")

    cases = [
        (both, (a,) * 4, cap(4)),  # over the cap
        (both, (a,) * 5, cap(5)),  # the error names the full degree
        (both, (a, a, b, b), cap(4)),  # over the cap across two atoms
        (only_a, (a, a, a, a, b), pm.zero(N, ONE)),  # unproduced: 0, not capped
        (only_a, (a, a, b, b, b), pm.zero(N, ONE)),
        (only_a, (a, a, a), g((a, a, a))),  # at the cap
        (curved, (a, a, b), cap(5)),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(pm, "DEGREE_CAP", 3)
        for f, m, expected in cases:
            assert _outcome(lambda: pm.compose(g(m), f)) == expected
            assert _outcome(lambda: _series(g(m), f, cap=3)) == expected
    with pytest.raises(pm.DegreeCapError):
        pm.compose(g((a,) * 17), both)


def test_series_cancellation_leaves_no_zero_entry():
    # u = x + y and v = x - y, so u v = x^2 - y^2: the x y terms cancel.
    x, y = "0", "1"
    f = pm.PolyMap(
        N, N,
        {((x,), "0"): 1, ((y,), "0"): 1, ((x,), "1"): 1, ((y,), "1"): -1},
    )
    uv = pm.PolyMap(N, ONE, {(("0", "1"), "*"): 1})
    assert pm._substitution(f) is None
    assert pm.compose(uv, f).entries == {((x, x), "*"): 1, ((y, y), "*"): -1}


# ---------------------------------------------------------------------------
# compose against the reference: every monomial of g multiplied out


def _reference_poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2
            c = c1 * c2
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
    return out


def _reference_series_entries(g, f, cap=pm.DEGREE_CAP):
    """The entries of g . f with each monomial p of g multiplied out on its
    own, one-atom monomials included; a sum that cancels stays as 0."""
    f_polys = {}  # {b: {mono: coeff}}
    for (m, b), c in f.entries.items():
        f_polys.setdefault(b, {})[m] = c
    degree = {b: max(map(len, poly)) for b, poly in f_polys.items()}
    entries = {}
    for (p, c_out), coeff in g.entries.items():
        if not all(b in degree for b in p):
            continue  # p reads a coordinate f does not produce
        d = sum([degree[b] for b in p])
        if d > cap:
            raise pm._cap_error(d, cap)
        acc = {(): coeff}
        for b in p:
            acc = _reference_poly_mul(acc, f_polys[b])
        for m, c in acc.items():
            key = (m, c_out)
            prev = entries.get(key)
            entries[key] = c if prev is None else prev + c
    return entries


MIXED_COEFFS = [1, 1, -1, 2, -3, F(1), F(1, 2), F(-2, 3), F(5, 4)]


def _mixed_entries(rng, ins, outs, degrees, coeffs):
    entries = {}
    for _ in range(rng.randint(1, 8)):
        m = pm.mono(rng.choice(ins) for _ in range(rng.choice(degrees)))
        entries[(m, rng.choice(outs))] = rng.choice(coeffs)
    return entries


def test_compose_matches_the_multiplied_out_reference():
    # g is linear on odd trials.  f's rows b0 and b1 are equal, and g reads
    # them in two monomials with opposite coefficients, so sums cancel.
    rng = random.Random(29)
    linear = cancelled = 0
    for trial in range(400):
        whole = trial % 3 == 0  # all-int inputs
        coeffs = [c for c in MIXED_COEFFS if type(c) is int] if whole else MIXED_COEFFS
        x, y, z = (rng.choice(SPACES) for _ in range(3))
        b0, b1, b2 = rng.sample(web(y), 3)
        f_entries = _mixed_entries(rng, web(x), [b0, b2], [0, 1, 1, 2], coeffs)
        f_entries.update({(m, b1): c for (m, b), c in f_entries.items() if b == b0})
        degrees = [1] if trial % 2 else [0, 1, 1, 2, 3]
        g_entries = _mixed_entries(rng, web(y), web(z), degrees, coeffs)
        rest = [rng.choice(web(y)) for _ in range(max(rng.choice(degrees) - 1, 0))]
        c, out = rng.choice(coeffs), rng.choice(web(z))
        g_entries[(pm.mono([b0] + rest), out)] = c
        g_entries[(pm.mono([b1] + rest), out)] = -c
        f, g = pm.PolyMap(x, y, f_entries), pm.PolyMap(y, z, g_entries)
        ref_entries = _reference_series_entries(g, f)
        gf = pm.compose(g, f)
        assert gf == pm.PolyMap(f.dom, g.cod, ref_entries)
        assert 0 not in gf.entries.values()
        if whole:
            assert all(type(c) is int for c in gf.entries.values())
        for _ in range(2):
            p = _random_point(rng, x)
            value = gf.eval(p)
            assert value == g.eval(f.eval(p))
            assert 0 not in value.values()
        linear += pm._substitution(f) is None and any(
            len(m) == 1 and coeff != 1 for (m, _), coeff in g.entries.items())
        cancelled += 0 in ref_entries.values()
    assert linear > 100 and cancelled > 100


def test_order_reversing_substitutions_sort_like_series():
    # Both swaps send an earlier atom past a later one, so renamed monomials
    # must be re-sorted; entries and their order must match the series path.
    rng = random.Random(24)
    x, y = N, d_space(ONE)
    swaps = [
        pm.prod_pair(pm.prod_proj(1, x, y), pm.prod_proj(0, x, y)),
        Instance().swap(N),
    ]
    for f in swaps:
        renaming = pm._substitution(f)
        assert renaming is not None
        reordered = 0
        for _ in range(40):
            g = _random_map(rng, f.cod, N)
            fast, ref = pm.compose(g, f), _series(g, f)
            assert list(fast.entries.items()) == list(ref.entries.items())
            for m, _ in g.entries:
                renamed = tuple(renaming[b] for b in m)
                reordered += renamed != pm.mono(renamed)
        assert reordered


# ---------------------------------------------------------------------------
# Integral coefficients as int against the same coefficients as Fraction


def _integral_map(rng, dom, cod, max_degree=3):
    ins = web(dom)
    entries = {}
    for _ in range(rng.randint(1, 8)):
        m = pm.mono(rng.choice(ins) for _ in range(rng.randint(0, max_degree)))
        entries[(m, rng.choice(web(cod)))] = rng.choice([-3, -1, 1, 2, 5])
    return pm.PolyMap(dom, cod, entries)


def _as_fractions(f):
    return pm.PolyMap(f.dom, f.cod, {k: F(c) for k, c in f.entries.items()})


def _same_result(int_side, fraction_side):
    """Equal values and renders; the int side stays int, and no float."""
    assert int_side == fraction_side
    assert int_side.render() == fraction_side.render()
    assert all(type(c) is int for c in int_side.entries.values())
    assert all(type(c) in (int, F) for c in fraction_side.entries.values())


def test_int_coefficients_agree_with_fractions():
    rng = random.Random(25)
    series = 0
    for _ in range(150):
        x, y, z = (rng.choice(SPACES) for _ in range(3))
        f, f2 = _integral_map(rng, x, y, 2), _integral_map(rng, x, y, 2)
        g = _integral_map(rng, y, z)
        s = pm.PolyMap(x, y, {k: 1 for k in _random_substitution(rng, x, y).entries})
        ff, f2f, gf, sf = map(_as_fractions, (f, f2, g, s))
        assert pm._substitution(s) is not None
        series += pm._substitution(f) is None
        _same_result(pm.compose(g, f), pm.compose(gf, ff))
        _same_result(pm.compose(g, s), pm.compose(gf, sf))
        _same_result(pm.differential(f), pm.differential(ff))
        _same_result(pm.add(f, f2), pm.add(ff, f2f))
        point = _random_point(rng, x)
        out = f.eval(point)
        assert out == ff.eval(point)
        assert all(type(v) in (int, F) for v in out.values())
        int_point = {a: rng.randint(0, 2) for a in web(x)}
        out = f.eval(int_point)
        assert out == ff.eval(int_point)
        assert all(type(v) is int for v in out.values())
    assert series > 100


def test_structural_and_default_maps_hold_ints():
    dn = d_space(N)
    model = default_poly_model()
    for f in [
        pm.identity(dn),
        pm.proj(1, N),
        pm.sigma(dn),
        pm.prod_proj(0, N, dn),
        *model.symbols.values(),
    ]:
        assert all(type(c) is int for c in f.entries.values())
    assert all(type(c) is F for row in model.grounds["N"].predual for c in row)


def test_d_tag_zero_keeps_monomials_sorted():
    rng = random.Random(22)
    for space in SPACES:
        f = _random_map(rng, space, space)
        for m, _ in pm.differential(f).entries:
            assert m == pm.mono(m)


# Slot spaces for is_multilinear: products put L/R tags inside a slot's
# atoms, so in slot 0 an R follows the slot's own L tags.
SLOT_KINDS = [N, d_space(N), product(N, N), d_space(product(N, N))]


@given(st.data())
def test_is_multilinear_matches_a_brute_force_slot_search(data):
    slots = data.draw(st.lists(st.sampled_from(SLOT_KINDS), min_size=1, max_size=4))
    n = len(slots)
    slot_webs = [{embed_slot(i, n, a) for a in web(s)} for i, s in enumerate(slots)]
    dom_web = web(prodn(slots))
    monos = []
    for _ in range(data.draw(st.integers(1, 3))):
        atoms = [data.draw(st.sampled_from(sorted(w))) for w in slot_webs]
        shape = data.draw(st.sampled_from(["one per slot", "drop", "extra", "any"]))
        if shape == "drop":
            atoms.pop(data.draw(st.integers(0, n - 1)))
        elif shape == "extra":
            atoms.append(data.draw(st.sampled_from(dom_web)))
        elif shape == "any":
            atoms = data.draw(st.lists(st.sampled_from(dom_web), max_size=n + 1))
        monos.append(pm.mono(atoms))
    f = pm.PolyMap(prodn(slots), N, {(m, "0"): 1 for m in monos})

    def slot(a):
        (i,) = [i for i, w in enumerate(slot_webs) if a in w]
        return i

    expected = all(sorted(map(slot, m)) == list(range(n)) for m in monos)
    assert pm.is_multilinear(f, n) == expected


@given(st.data())
def test_equal_maps_hash_equal(data):
    # Whatever the insertion order and whether an integral coefficient is an
    # int or a Fraction; with_map of one map rebuilds it without the filter.
    space = data.draw(st.sampled_from(SLOT_KINDS))
    atoms = web(space)
    key = st.tuples(
        st.lists(st.sampled_from(atoms), max_size=3).map(pm.mono),
        st.sampled_from(atoms),
    )
    entries = data.draw(
        st.dictionaries(key, st.integers(-3, 3).filter(bool), max_size=8)
    )
    order = data.draw(st.permutations(list(entries)))
    kinds = data.draw(st.lists(st.sampled_from([int, F]), min_size=len(order),
                               max_size=len(order)))
    f = pm.PolyMap(space, N, entries)
    g = pm.PolyMap(space, N, {k: kind(entries[k]) for k, kind in zip(order, kinds)})
    assert f == g == pm.with_map(g)
    assert hash(f) == hash(g) == hash(pm.with_map(g))

"""The n-ary slot maps against left folds of the binary constructors.

with_map, prod_pair and prod_proj build an n-fold map in one pass with
embed_slot, and single_app, strength and c_n_inv are derived from them.  The
references below are the binary constructors and the folds over them that
those functions replaced, written out here so that the check does not go
through the code it checks.

partial_differential builds D_i f = Df . phi_i in one pass, and differential is
its one-slot case, so its reference is the composite itself over a copy of
the whole-domain differential loop it replaced.  Given a reach, a set of
atoms of the last domain, partial_derivative builds D_w f only over that
reach; its reference is the unpruned D_w f with every monomial that reads an
atom outside the reach dropped.  partial_differential reads its D tags from
tables built once per space; _reference_partial_differential is the loop
that called tag_d per atom before, and the two must build equal entries in
equal order over the same interned spaces.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cohdiff import polymap as pm
from cohdiff.ccdc import Instance, single_app, strength
from cohdiff.gen import default_pcs_model, law_generators
from cohdiff.objects import (
    d_space, embed_slot, peel_product, prodn, product, tag_d, web
)

MODEL = default_pcs_model()
GENS, _, OBJECTS = law_generators(MODEL, seed=404)  # unit, N, N&N, DN, N&DN
SLOT_TUPLES = [
    tuple(slots)
    for n in (1, 2, 3)
    for slots in itertools.product(OBJECTS, repeat=n)
]


def ref_with_map2(f0, f1):
    entries = {}
    for (m, b), c in f0.entries.items():
        entries[(pm.mono("L." + a for a in m), "L." + b)] = c
    for (m, b), c in f1.entries.items():
        entries[(pm.mono("R." + a for a in m), "R." + b)] = c
    return pm.PolyMap(product(f0.dom, f1.dom), product(f0.cod, f1.cod), entries)


def ref_prod_pair2(f0, f1):
    assert f0.dom == f1.dom
    entries = {}
    for (m, b), c in f0.entries.items():
        entries[(m, "L." + b)] = c
    for (m, b), c in f1.entries.items():
        entries[(m, "R." + b)] = c
    return pm.PolyMap(f0.dom, product(f0.cod, f1.cod), entries)


def ref_prod_proj2(i, left, right):
    out = (left, right)[i]
    entries = {(("LR"[i] + "." + a,), a): 1 for a in web(out)}
    return pm.PolyMap(product(left, right), out, entries)


def fold(binary, maps):
    acc = maps[0]
    for m in maps[1:]:
        acc = binary(acc, m)
    return acc


def ref_single_app(slots, i, g, fill):
    """g at slot i; identities, or endo-zeros with fill="zero", elsewhere."""
    maps = [
        g if j == i else pm.identity(s) if fill == "id" else pm.zero(s, s)
        for j, s in enumerate(slots)
    ]
    return fold(ref_with_map2, maps)


def ref_prod_proj(slots, i):
    n = len(slots) - 1
    if n == 0:
        return pm.identity(slots[0])
    prefix = prodn(list(slots[:-1]))
    if i == n:
        return ref_prod_proj2(1, prefix, slots[n])
    return pm.compose(
        ref_prod_proj(slots[:-1], i), ref_prod_proj2(0, prefix, slots[n])
    )


def ref_strength(slots, i):
    dslots = list(slots)
    dslots[i] = d_space(slots[i])
    first = ref_single_app(dslots, i, pm.proj(0, slots[i]), "id")
    second = ref_single_app(dslots, i, pm.proj(1, slots[i]), "zero")
    return pm.pair_witness_matrix(first, second)


def ref_c_n_inv(slots):
    halves = [fold(ref_with_map2, [pm.proj(k, s) for s in slots]) for k in (0, 1)]
    return pm.pair_witness_matrix(*halves)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_derived_slot_maps_match_the_folds(n):
    inst = Instance()
    for slots in (s for s in SLOT_TUPLES if len(s) == n):
        assert inst.c_n_inv(*slots) == ref_c_n_inv(slots), slots
        for i, s in enumerate(slots):
            assert pm.prod_proj(i, *slots) == ref_prod_proj(slots, i), (slots, i)
            assert strength(slots, i) == ref_strength(slots, i), (slots, i)
            lifted = pm.differential(pm.proj(1, s))
            for g in (pm.proj(0, s), pm.proj(1, s), lifted):
                gslots = list(slots)
                gslots[i] = g.dom
                want = ref_single_app(gslots, i, g, "id")
                assert single_app(slots, i, g) == want, (slots, i, g)


def test_one_slot_maps_are_the_plain_maps():
    for x in OBJECTS:
        assert pm.prod_proj(0, x) == pm.identity(x)
        assert strength([x], 0) == pm.identity(d_space(x))
        assert single_app([x], 0, pm.sigma(x)) == pm.sigma(x)
        f = pm.proj(1, x)
        assert pm.with_map(f) == f
        assert pm.prod_pair(f) is f


def test_nary_builders_match_the_folds():
    rng = random.Random(11)
    by_dom = {}
    for f in GENS:
        by_dom.setdefault(f.dom, []).append(f)
    for _ in range(150):
        maps = [rng.choice(GENS) for _ in range(rng.randint(1, 3))]
        assert pm.with_map(*maps) == fold(ref_with_map2, maps)
        pool = by_dom[rng.choice(maps).dom]
        maps = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        assert pm.prod_pair(*maps) == fold(ref_prod_pair2, maps)


def test_prod_pair_needs_a_common_domain():
    x, y = OBJECTS[1], OBJECTS[3]
    with pytest.raises(pm.ShapeError):
        pm.prod_pair(pm.identity(x), pm.identity(y))
    with pytest.raises(pm.ShapeError):
        pm.prod_pair(pm.identity(x), pm.identity(x), pm.identity(y))


def ref_differential(f):
    """Df over the whole domain: the loop differential ran before it became
    the one-slot case of partial_differential."""
    entries = {}
    for (m, b), c in f.entries.items():
        base = tuple([tag_d(0, a) for a in m])
        entries[(base, tag_d(0, b))] = c
        d_out = tag_d(1, b)
        for idx, a in enumerate(m):
            if idx and m[idx - 1] == a:
                continue
            if len(m) == 1:
                mm = (tag_d(1, a),)
            else:
                mm = pm.mono(base[:idx] + base[idx + 1 :] + (tag_d(1, a),))
            mult = m.count(a)
            entries[(mm, d_out)] = c * mult if mult > 1 else c
    return pm.PolyMap(d_space(f.dom), d_space(f.cod), entries)


def ref_partial(f, slots, i):
    return pm.compose(ref_differential(f), strength(slots, i))


BASE = MODEL.grounds["N"]
PARTIAL_OBJECTS = [
    BASE, d_space(BASE), product(BASE, BASE), d_space(product(BASE, BASE))
]
PARTIAL_SLOTS = [
    slots
    for n in (1, 2, 3)
    for slots in itertools.product(PARTIAL_OBJECTS, repeat=n)
]


def seeded_map(rng, slots):
    """A sparse map out of prodn(slots) into N with int or Fraction
    coefficients; its first monomial repeats one atom of every slot."""
    dom = prodn(list(slots))
    n = len(slots)
    atoms = web(dom)
    cod = web(BASE)
    repeated = [
        embed_slot(j, n, rng.choice(web(s)))
        for j, s in enumerate(slots)
        for _ in range(2)
    ]
    entries = {(pm.mono(repeated), rng.choice(cod)): rng.randint(1, 4)}
    for _ in range(rng.randint(2, 6)):
        m = pm.mono(rng.choice(atoms) for _ in range(rng.randint(0, 3)))
        c = rng.choice([rng.randint(1, 5), Fraction(rng.randint(1, 5), 7)])
        entries[(m, rng.choice(cod))] = c
    return pm.PolyMap(dom, BASE, entries)


def test_differential_is_the_whole_domain_loop():
    rng = random.Random(5)
    for x in PARTIAL_OBJECTS:
        for _ in range(10):
            f = seeded_map(rng, [x])
            assert pm.differential(f) == ref_differential(f)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partial_differential_is_df_after_the_strength(n):
    rng = random.Random(40 + n)
    for slots in (s for s in PARTIAL_SLOTS if len(s) == n):
        for i in range(n):
            for _ in range(2):
                f = seeded_map(rng, slots)
                want = ref_partial(f, slots, i)
                assert pm.partial_differential(f, n, i) == want, (
                    slots, i, f.entries
                )


def _reference_partial_differential(f, arity, i, reach=None):
    """The partial_differential loop that called tag_d per atom and tested
    slot membership in a set built on each call."""
    slots = peel_product(f.dom, arity)
    in_slot = (
        None if arity == 1
        else {embed_slot(i, arity, a) for a in web(slots[i])}
    )
    slots[i] = d_space(slots[i])
    entries = {}
    for (m, b), c in f.entries.items():
        if in_slot is None:
            base = tuple([tag_d(0, a) for a in m])
        else:
            base = tuple([tag_d(0, a) if a in in_slot else a for a in m])
        lost = None
        if reach is not None:
            missing = [x for x in base if x not in reach]
            if len(missing) > 1:
                continue
            lost = missing[0] if missing else None
        if lost is None:
            entries[(base, tag_d(0, b))] = c
        d_out = tag_d(1, b)
        for idx, a in enumerate(m):
            if idx and m[idx - 1] == a:
                continue
            if in_slot is not None and a not in in_slot:
                continue
            if reach is not None and (
                tag_d(1, a) not in reach or lost not in (None, base[idx])
            ):
                continue
            if len(m) == 1:
                mm = (tag_d(1, a),)
            else:
                mm = pm.mono(base[:idx] + base[idx + 1 :] + (tag_d(1, a),))
            mult = m.count(a)
            entries[(mm, d_out)] = c * mult if mult > 1 else c
    return pm.PolyMap(prodn(slots), d_space(f.cod), entries)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partial_differential_matches_the_tag_d_loop_in_order(n):
    rng = random.Random(70 + n)
    for slots in (s for s in PARTIAL_SLOTS if len(s) == n):
        for i in range(n):
            f = seeded_map(rng, slots)
            atoms = web(_reference_partial_differential(f, n, i).dom)
            reaches = [None, set(atoms)] + [
                {a for a in atoms if rng.random() < share}
                for share in (0.3, 0.6, 0.9)
            ]
            for reach in reaches:
                got = pm.partial_differential(f, n, i, reach)
                want = _reference_partial_differential(f, n, i, reach)
                assert got.dom is want.dom and got.cod is want.cod
                assert list(got.entries.items()) == list(want.entries.items()), (
                    slots, i, reach, f.entries
                )


def test_partial_derivative_of_a_word_is_a_left_fold():
    rng = random.Random(9)
    inst = Instance()
    words = [(2, 2, 1), (0, 1, 0), (1, 2), (2, 0, 2)]
    for slots in (s for s in PARTIAL_SLOTS if len(s) == 3):
        f = seeded_map(rng, slots)
        for word in words:
            want, wslots = f, list(slots)
            for letter in word:
                want = ref_partial(want, wslots, letter)
                wslots[letter] = d_space(wslots[letter])
            got = inst.partial_derivative(f, 3, word)
            assert got == want, (slots, word)


def test_partial_derivative_reads_its_slots_off_the_domain():
    inst = Instance()
    bil, tri = MODEL.symbols["bil"], MODEL.symbols["tri"]
    # A letter outside [0, arity) is refused, so -1 cannot alias the last slot.
    for letter in (2, -1):
        with pytest.raises(IndexError):
            inst.partial_derivative(bil, 2, (letter,))
    # bil's domain N & (N & N) is no 3-fold product.
    with pytest.raises(ValueError):
        inst.partial_derivative(bil, 3, (0,))
    # tri's domain (N & N) & N is also a 2-fold product, a valid coarser view.
    nn = product(BASE, BASE)
    assert inst.partial_derivative(tri, 2, (0,)) == ref_partial(tri, [nn, BASE], 0)


# (head, arity): the default symbols, and the built-in bases over N, D N and
# N & N, which take one argument.
REACH_HEADS = [
    (MODEL.symbols[name], n) for name, n in (("lin", 1), ("bil", 2), ("tri", 3))
] + [
    (head, 1)
    for x in PARTIAL_OBJECTS[:3]
    for k in (0, 1)
    for head in (pm.proj(k, x), pm.prod_proj(k, x, x), MODEL.inst.inj(k, x))
] + [(MODEL.inst.theta_pow(x, k), 1) for x in PARTIAL_OBJECTS[:3] for k in (0, 1, 2)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_partial_derivative_within_a_reach_is_the_full_one_restricted(data):
    f, n = data.draw(st.sampled_from(REACH_HEADS))
    word = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    inst = Instance()
    full = inst.partial_derivative(f, n, word)
    atoms = web(full.dom)
    reach = data.draw(
        st.one_of(st.just(set(atoms)), st.sets(st.sampled_from(atoms)))
    )
    got = inst.partial_derivative(f, n, word, reach)
    assert (got.dom, got.cod) == (full.dom, full.cod)
    assert got.entries == {
        k: c for k, c in full.entries.items() if set(k[0]) <= reach
    }

"""Interned spaces.

Ground, Prod and DPair return one object per space, so equal spaces built
apart are the same object and compare by identity.  Each keeps the hash of
its fields as a tuple, so no dict or set order depends on interning;
strip_d_space inverts d_space on the nose; a ground with a bad web name
interns nothing; and no field can be assigned.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cohdiff import objects
from cohdiff.gen import truncated_nat
from cohdiff.objects import (
    DPair,
    Ground,
    Prod,
    d_space,
    prodn,
    strip_d_space,
)
from cohdiff.pcs import parse_model_file

grounds = st.builds(
    Ground,
    st.sampled_from(["g", "h"]),
    st.lists(st.sampled_from(["0", "1", "a"]), min_size=1, max_size=2, unique=True).map(tuple),
    st.sampled_from([(), ((1, 1),), ((Fraction(1, 2), 2),)]),
)


def spaces(depth: int = 3):
    if depth == 0:
        return grounds
    inner = spaces(depth - 1)
    return st.one_of(
        grounds,
        st.tuples(inner, inner).map(lambda p: Prod(*p)),
        inner.map(DPair),
    )


def rebuilt(space):
    """The same space built again from its fields, grounds first."""
    if isinstance(space, Ground):
        predual = tuple(tuple(Fraction(c) for c in row) for row in space.predual)
        return Ground(space.name, space.web, predual)
    if isinstance(space, Prod):
        return Prod(rebuilt(space.left), rebuilt(space.right))
    return DPair(rebuilt(space.inner))


def field_tuple(space):
    if isinstance(space, Ground):
        return (space.name, space.web, space.predual)
    if isinstance(space, Prod):
        return (space.left, space.right)
    return (space.inner,)


@given(spaces())
def test_equal_spaces_built_apart_are_one_object(space):
    assert rebuilt(space) is space


@given(spaces())
def test_hash_is_the_field_tuple_hash(space):
    assert hash(space) == hash(field_tuple(space))


@given(spaces())
def test_strip_d_space_inverts_d_space(space):
    assert strip_d_space(d_space(space)) is space


def test_generated_and_parsed_grounds_are_one_object():
    parsed = parse_model_file("object N { web = [0, 1, 2]; predual = [[1, 1, 1]]; }\n")
    assert parsed.spaces["N"] is truncated_nat()


def test_products_and_their_d_spaces_are_interned():
    n, one = truncated_nat(), Ground("one", ("*",), ((1,),))
    assert prodn([n, one, n]) is Prod(Prod(truncated_nat(), one), n)
    assert prodn([]) is Ground("top", (), ((),))
    assert d_space(prodn([n, one])) is Prod(DPair(n), DPair(one))


@pytest.mark.parametrize("web", [("a", "b.c"), ("",)])
def test_bad_web_name_interns_nothing(web):
    before = dict(objects._GROUNDS)
    with pytest.raises(ValueError, match="empty or dotted name"):
        Ground("never-interned", web, ((1,) * len(web),))
    assert objects._GROUNDS == before


def test_fields_cannot_be_assigned():
    n = truncated_nat()
    for space, name in ((n, "name"), (n, "predual"), (Prod(n, n), "left"), (DPair(n), "inner")):
        with pytest.raises(AttributeError):
            setattr(space, name, n)

"""Dotted atoms against their nested-tuple form.

An atom is the str of its dotted tag path, and objects orders the atoms of
one space by str comparison.  The reference here is a nested-tuple form: a
ground atom is its web name, and a tagged atom is a (tag, inner) tuple.
reference_atom_key spells out the intended order on that form: ground names
by their text, tagged atoms by tag and then by inner atom.  On spaces built
from grounds by products and D, web() must be the nested web in its sorted
order, mono() and tag_d(0, -) must keep the reference order, the tag
helpers must invert each other, and an atom placed in slot i of prodn must
start with slot i's prefix embed_slot(i, n, "") and with no other slot's.
"""

import pytest
from hypothesis import given, strategies as st

from cohdiff import polymap as pm
from cohdiff.objects import (
    Ground,
    Prod,
    atom_from_str,
    d_space,
    embed_slot,
    prodn,
    tag_d,
    untag_d,
    web,
)


def nested(a):
    """The nested-tuple form of a dotted atom: "L.0.e" is ("L", ("0", "e"))."""
    *tags, name = a.split(".")
    for tag in reversed(tags):
        name = (tag, name)
    return name


def nested_tag_d(i, a):
    """D tag on the nested form, pushed under product tags."""
    if isinstance(a, tuple) and a[0] in "LR":
        return (a[0], nested_tag_d(i, a[1]))
    return ("01"[i], a)


def nested_web(space):
    """The web in the nested form, built without the code under test."""
    if isinstance(space, Ground):
        return list(space.web)
    if isinstance(space, Prod):
        return [("L", a) for a in nested_web(space.left)] + [
            ("R", a) for a in nested_web(space.right)
        ]
    return [nested_tag_d(i, a) for i in (0, 1) for a in nested_web(space.inner)]


def reference_atom_key(a):
    """Ground names sort before tagged atoms; tags, then inner atoms."""
    if isinstance(a, str):
        return (0, a)
    tag, inner = a
    return (1, tag, reference_atom_key(inner))


# Web names that look like tags or numbers, whose text order differs from
# their numeric order, that prefix one another, or that sort before ".".
GROUND_ATOMS = ["0", "10", "2", "9", "L", "R", "e", "e2", "a", "ab", "a_b", "*"]

grounds = st.lists(
    st.sampled_from(GROUND_ATOMS), min_size=1, max_size=3, unique=True
).map(lambda atoms: Ground("g", tuple(atoms)))


def spaces(depth: int = 3):
    if depth == 0:
        return grounds
    inner = spaces(depth - 1)
    return st.one_of(
        grounds,
        st.tuples(inner, inner).map(lambda p: Prod(*p)),
        inner.map(d_space),
    )


def reference_sorted(atoms) -> tuple:
    return tuple(sorted(atoms, key=lambda a: reference_atom_key(nested(a))))


@given(spaces())
def test_web_is_in_reference_order(space):
    assert web(space) == reference_sorted(web(space))


@given(spaces())
def test_web_is_the_sorted_nested_web(space):
    assert [nested(a) for a in web(space)] == sorted(nested_web(space))


@given(spaces(), st.data())
def test_mono_sorts_in_reference_order(space, data):
    atoms = data.draw(st.lists(st.sampled_from(web(space)), max_size=6))
    m = pm.mono(atoms)
    assert m == reference_sorted(atoms)
    assert tuple(tag_d(0, a) for a in m) == reference_sorted(
        tag_d(0, a) for a in atoms
    )


@given(spaces())
def test_tag_helpers_invert_each_other(space):
    for a in web(space):
        assert atom_from_str(a) == a
        for i in (0, 1):
            assert untag_d(tag_d(i, a)) == (i, a)
            assert nested(tag_d(i, a)) == nested_tag_d(i, nested(a))


@given(st.lists(spaces(2), min_size=1, max_size=4))
def test_embedded_atom_starts_with_only_its_slot_prefix(slots):
    n = len(slots)
    whole = set(web(prodn(slots)))
    prefixes = [embed_slot(j, n, "") for j in range(n)]
    for i, s in enumerate(slots):
        for a in web(s):
            e = embed_slot(i, n, a)
            assert e in whole
            assert [j for j, p in enumerate(prefixes) if e.startswith(p)] == [i]


@pytest.mark.parametrize("name", ["", "a.b", "L.0"])
def test_ground_rejects_an_empty_or_dotted_web_name(name):
    with pytest.raises(ValueError, match="empty or dotted name"):
        Ground("g", ("a", name))

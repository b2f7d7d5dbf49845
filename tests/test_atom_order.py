"""The atoms' own order against an explicit reference key.

objects orders the atoms of one space by Python's own comparison of strings
and (tag, inner) tuples.  reference_atom_key spells out the intended order:
ground strings by their text, tagged atoms by tag and then by inner atom.  On
spaces built from grounds by products and D, web() and mono() must list atoms
in the reference order, and tag_d(0, -) must keep it.
"""

from hypothesis import given, strategies as st

from cohdiff import polymap as pm
from cohdiff.objects import Ground, Prod, d_space, tag_d, web


def reference_atom_key(a):
    """Ground strings sort before tagged atoms; tags, then inner atoms."""
    if isinstance(a, str):
        return (0, a)
    tag, inner = a
    return (1, tag, reference_atom_key(inner))


# Ground atoms that look like tags or numbers, and whose text order differs
# from their numeric order.
GROUND_ATOMS = ["0", "10", "2", "L", "R", "e", "e2"]

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
    return tuple(sorted(atoms, key=reference_atom_key))


@given(spaces())
def test_web_is_in_reference_order(space):
    assert web(space) == reference_sorted(web(space))


@given(spaces(), st.data())
def test_mono_sorts_in_reference_order(space, data):
    atoms = data.draw(st.lists(st.sampled_from(web(space)), max_size=6))
    m = pm.mono(atoms)
    assert m == reference_sorted(atoms)
    assert tuple(tag_d(0, a) for a in m) == reference_sorted(
        tag_d(0, a) for a in atoms
    )

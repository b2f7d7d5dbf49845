"""Golden rendering of engine maps, entry order included.

PolyMap.render lists entries by output atom, then by monomial, in the atoms'
canonical order.  render.txt holds the rendering of the differential of each
default symbol and of c_n^-1 on N, N & N in the probabilistic model, so any
change in the atom order shows as a diff.  partials.txt holds every iterated
partial derivative D_w of the default symbols over words w of length <= 2,
which pins the multi-slot differentiation byte for byte.  Regenerate them with

    PYTHONPATH=src python tests/test_render.py > tests/golden/render.txt
    PYTHONPATH=src python tests/test_render.py partials > tests/golden/partials.txt

only when a change is meant to reorder or rewrite what render prints.
"""

import itertools
import sys
from pathlib import Path

from cohdiff import polymap as pm
from cohdiff.gen import default_pcs_model
from cohdiff.objects import product

GOLDEN = Path(__file__).resolve().parent / "golden" / "render.txt"
PARTIALS = GOLDEN.with_name("partials.txt")


def golden_text() -> str:
    model = default_pcs_model()
    base = model.grounds["N"]
    blocks = [f"# D {name}\n{pm.differential(model.symbols[name]).render()}"
              for name in ("lin", "bil", "tri")]
    c_inv = model.inst.c_n_inv([base, product(base, base)])
    blocks.append(f"# c_n_inv N, N & N\n{c_inv.render()}")
    return "\n".join(blocks) + "\n"


def partials_text() -> str:
    model = default_pcs_model()
    blocks = []
    for name, arity in (("lin", 1), ("bil", 2), ("tri", 3)):
        f = model.symbols[name]
        for length in (0, 1, 2):
            for word in itertools.product(range(arity), repeat=length):
                d = model.inst.partial_derivative(f, arity, word)
                blocks.append(f"# D{list(word)} {name}\n{d.render()}")
    return "\n".join(blocks) + "\n"


def test_render_matches_golden():
    assert golden_text() == GOLDEN.read_text()


def test_partial_derivatives_match_golden():
    assert partials_text() == PARTIALS.read_text()


if __name__ == "__main__":
    print(partials_text() if sys.argv[1:] == ["partials"] else golden_text(),
          end="")

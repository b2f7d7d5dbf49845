"""Golden rendering of engine maps, entry order included.

PolyMap.render lists entries by output atom, then by monomial, in the atoms'
canonical order.  The golden file holds the rendering of the differential of
each default symbol and of c_n^-1 on N, N & N in the probabilistic model, so
any change in the atom order shows as a diff.  Regenerate it with

    PYTHONPATH=src python tests/test_render.py > tests/golden/render.txt

only when a change is meant to reorder or rewrite what render prints.
"""

from pathlib import Path

from cohdiff import polymap as pm
from cohdiff.gen import default_pcs_model
from cohdiff.objects import product

GOLDEN = Path(__file__).resolve().parent / "golden" / "render.txt"


def golden_text() -> str:
    model = default_pcs_model()
    base = model.grounds["N"]
    blocks = [f"# D {name}\n{pm.differential(model.symbols[name]).render()}"
              for name in ("lin", "bil", "tri")]
    c_inv = model.inst.c_n_inv([base, product(base, base)])
    blocks.append(f"# c_n_inv N, N & N\n{c_inv.render()}")
    return "\n".join(blocks) + "\n"


def test_render_matches_golden():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    print(golden_text(), end="")

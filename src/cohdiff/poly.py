"""The total-sum instance.

PolyInstance is ccdc.Instance as it stands, under its own name: certify is
always true, so every pair of parallel maps is summable (hom-sets are
commutative monoids), which makes this the cartesian-differential-category
end of the correspondence.  Its spaces are the probabilistic backend's; no
predual is ever read.
"""

from __future__ import annotations

from .ccdc import Instance


class PolyInstance(Instance):
    """Sums always defined: the carrier of a cartesian differential category."""

    name = "poly"

"""Cartesian coherent differential structure over the shared map engine.

The category is PolyMap: composition, D on objects and maps, the projections
pi_0, pi_1 : DX -> X, their sum sigma and the cartesian structure are the
functions of polymap and objects, called there.  Instance adds the
summability structure through one hook, certify(candidate), which decides
whether a candidate map is a morphism.  pair_witness pairs parallel maps
into the witness <f0, f1> : X -> DY and keeps it when it certifies;
family_sum adds a family and keeps the total when it certifies, or, without
asking certify, when it equals the expected morphism its caller already
knows: a known morphism is one on every backend.  certify is always true here,
so sums are total, as in a cartesian differential category (Blute, Cockett
and Seely); a backend with partial sums overrides certify alone.  sigma is a
method so that a negative control can corrupt it.  The maps built through
witnesses and sigma (the injections, the monad sum theta, the lift l, the
swap c and the inverse of c_n) are derived on the instance and kept in its
derived-morphism cache, beside partial derivatives and n-ary sums; the slot
maps that read no instance, c_with, single_app and the strength phi_i, are
module-level functions beside the laws.  check_axioms verifies the axioms
and the derived theorems on any instance by exact morphism equality.
A partial derivative takes the arity of its map's domain and a word of
slots, and each D_i f = Df . phi_i is computed in one pass by
polymap.partial_differential, without building Df or the strength phi_i;
strength stays for the strength-comm law and as the tests' reference.
Given the atoms its caller will read, the reach, partial_derivative pulls
the reach back through the word, last letter first, and each letter builds
only the monomials that can still land inside it.
A law draws its case through LawEnv and fails by raising LawFailure;
check_axioms records the first failing case's message and stops the law.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import polymap as pm
from .objects import (
    Prod, Space, d_space, embed_slot, peel_product, product, space_str, untag_d,
)
from .polymap import PolyMap

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class StructureError(Exception):
    """A summability required by the structure itself failed to certify."""


class Instance:
    """Summability over PolyMap: total unless a backend overrides certify."""

    name = "total"

    def __init__(self):
        self._derived: dict = {}

    def sigma(self, x: Space) -> PolyMap:
        return pm.sigma(x)

    # -- summability -------------------------------------------------------

    def certify(self, candidate: PolyMap) -> bool:
        """Whether candidate is a morphism of its domain into its codomain.
        Every map is one here."""
        return True

    def pair_witness(self, f0: PolyMap, f1: PolyMap) -> Optional[PolyMap]:
        """The witness <f0, f1> : X -> DY, absent when it is not a morphism."""
        w = pm.pair_witness_matrix(f0, f1)
        return w if self.certify(w) else None

    def sum2(self, f0: PolyMap, f1: PolyMap) -> Optional[PolyMap]:
        """The defined sum sigma . <f0, f1>, absent when not summable."""
        w = self.pair_witness(f0, f1)
        if w is None:
            return None
        return pm.compose(self.sigma(f0.cod), w)

    def family_sum(
        self,
        maps: Sequence[PolyMap],
        dom: Space,
        cod: Space,
        expected: Optional[PolyMap] = None,
    ) -> Optional[PolyMap]:
        """n-ary sum, absent when the pointwise total is not a morphism; the
        empty family sums to zero.  A total equal to expected, a known
        morphism, is one on every backend and is not certified."""
        total = pm.zero(dom, cod)
        for f in maps:
            total = pm.add(total, f)
        if expected is not None and total == expected:
            return total
        return total if self.certify(total) else None

    # -- derived morphisms --------------------------------------------------

    def _cache(self, key, build: Callable[[], PolyMap]) -> PolyMap:
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def _require(self, w: Optional[PolyMap], what: str) -> PolyMap:
        if w is None:
            raise StructureError(f"required summability failed: {what}")
        return w

    def inj(self, i: int, x: Space) -> PolyMap:
        """iota_i = <id, 0> (resp. <0, id>), from the D-zero axiom."""

        def build() -> PolyMap:
            one = pm.identity(x)
            nil = pm.zero(x, x)
            pair = (one, nil) if i == 0 else (nil, one)
            return self._require(self.pair_witness(*pair), f"iota_{i}")

        return self._cache(("inj", i, x), build)

    def theta(self, x: Space) -> PolyMap:
        """theta = <pi0 pi0, pi1 pi0 + pi0 pi1> : D^2 X -> DX."""

        def build() -> PolyMap:
            dx = d_space(x)
            p0, p1 = pm.proj(0, x), pm.proj(1, x)
            q0, q1 = pm.proj(0, dx), pm.proj(1, dx)
            inner = self.sum2(pm.compose(p1, q0), pm.compose(p0, q1))
            inner = self._require(inner, "theta inner sum")
            return self._require(
                self.pair_witness(pm.compose(p0, q0), inner), "theta"
            )

        return self._cache(("theta", x), build)

    def theta_pow(self, x: Space, n: int) -> PolyMap:
        """theta^n : D^(n+1) X -> DX, the n-fold monad sum."""

        def build() -> PolyMap:
            acc = self.theta(x) if n else pm.identity(d_space(x))
            level = d_space(x)
            for _ in range(n - 1):
                acc = pm.compose(acc, self.theta(level))
                level = d_space(level)
            return acc

        return self._cache(("theta_pow", x, n), build)

    def lift(self, x: Space) -> PolyMap:
        """l = <<pi0, 0>, <0, pi1>> : DX -> D^2 X."""

        def build() -> PolyMap:
            p0, p1 = pm.proj(0, x), pm.proj(1, x)
            nil = pm.zero(d_space(x), x)
            left = self._require(self.pair_witness(p0, nil), "lift left")
            right = self._require(self.pair_witness(nil, p1), "lift right")
            return self._require(self.pair_witness(left, right), "lift")

        return self._cache(("lift", x), build)

    def swap(self, x: Space) -> PolyMap:
        """c = <<pi0 pi0, pi0 pi1>, <pi1 pi0, pi1 pi1>> : D^2 X -> D^2 X."""

        def build() -> PolyMap:
            dx = d_space(x)
            p0, p1 = pm.proj(0, x), pm.proj(1, x)
            q0, q1 = pm.proj(0, dx), pm.proj(1, dx)
            top = self._require(
                self.pair_witness(pm.compose(p0, q0), pm.compose(p0, q1)),
                "swap top",
            )
            bot = self._require(
                self.pair_witness(pm.compose(p1, q0), pm.compose(p1, q1)),
                "swap bottom",
            )
            return self._require(self.pair_witness(top, bot), "swap")

        return self._cache(("swap", x), build)

    def c_n_inv(self, slots: Sequence[Space]) -> PolyMap:
        """<pi0 & ... & pi0, pi1 & ... & pi1> : DX0 & ... & DXn -> D(prod);
        for two slots, the inverse of c_with."""

        def build() -> PolyMap:
            halves = [pm.with_map(*[pm.proj(k, s) for s in slots]) for k in (0, 1)]
            return self._require(self.pair_witness(*halves), "c_n inverse")

        return self._cache(("c_n_inv", tuple(slots)), build)

    # -- partial derivatives ------------------------------------------------

    def partial_derivative(
        self, f: PolyMap, arity: int, word: Sequence[int],
        reach: Optional[set] = None,
    ) -> PolyMap:
        """Iterated partials D_w f for f out of an arity-fold product,
        applying the first letter first.  Each D_i f = D f . phi_i is
        computed in one pass over f's entries by partial_differential,
        which peels the slots off the domain the last letter built.

        With reach, a set of atoms of the last domain, the result is D_w f
        restricted to the monomials inside reach.  Letter i pulls reach back
        by stripping the D tag off the atoms in slot i, and each letter
        builds only what lies inside the pull-back of the letters after it:
        a later letter maps an atom only to taggings of itself."""
        for i in word:
            if not 0 <= i < arity:
                raise IndexError(f"slot {i} out of range for {arity} slots")
        if not word and reach is not None:
            kept = {k: c for k, c in f.entries.items() if reach.issuperset(k[0])}
            return PolyMap(f.dom, f.cod, kept)
        # within[j] filters letter j's output; it is within[j + 1] pulled
        # back through letter j + 1.
        within = [reach] * len(word)
        if reach is not None:
            for j in range(len(word) - 1, 0, -1):
                prefix = embed_slot(word[j], arity, "")
                within[j - 1] = {untag_d(a)[1] if a.startswith(prefix) else a
                                 for a in within[j]}
        for i, r in zip(word, within):
            f = pm.partial_differential(f, arity, i, r)
        return f


# ---------------------------------------------------------------------------
# Cartesian compatibility: slot maps that read no instance


def c_with(x: Space, y: Space) -> PolyMap:
    """<D pr0, D pr1> : D(X & Y) -> DX & DY."""
    return pm.prod_pair(
        pm.differential(pm.prod_proj(0, x, y)),
        pm.differential(pm.prod_proj(1, x, y)),
    )


def single_app(slots: Sequence[Space], i: int, g: PolyMap) -> PolyMap:
    """g at slot i, identities elsewhere; slot i's object is g's own."""
    return pm.with_map(*[
        g if j == i else pm.identity(s) for j, s in enumerate(slots)
    ])


def strength(slots: Sequence[Space], i: int) -> PolyMap:
    """phi_i = <(id ... pi0 at i ... id), (0 ... pi1 at i ... 0)>: the
    identity of D slots[i] at i, iota_0 = <id, 0> elsewhere.
    partial_derivative does not build it; the strength-comm law and
    the tests' reference for D_i f do."""
    return pm.with_map(*[
        pm.identity(d_space(s)) if j == i
        else pm.pair_witness_matrix(pm.identity(s), pm.zero(s, s))
        for j, s in enumerate(slots)
    ])


# ---------------------------------------------------------------------------
# Law checking


@dataclass
class LawResult:
    name: str
    passed: bool
    cases: int
    counterexample: str | None = None


@dataclass
class LawReport:
    results: list[LawResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, name: str) -> LawResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def render_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            verdict = "PASS" if r.passed else "FAIL"
            lines.append(f"LAW {r.name} {verdict} cases={r.cases}")
            if r.counterexample:
                for cl in r.counterexample.splitlines():
                    lines.append(f"  {cl}")
        return lines


@dataclass
class LawConfig:
    seed: int = 0
    cases: int = 100
    closure_depth: int = 2


@dataclass
class LawEnv:
    """Sampling context shared by all law cases."""

    inst: Instance
    objects: list[Space]
    morphisms: list[PolyMap]
    multilinear: list[tuple[PolyMap, tuple[Space, ...]]]
    rng: random.Random

    def pick_object(self) -> Space:
        return self.rng.choice(self.objects)

    def pick_map(self, pred: Optional[Callable[[PolyMap], bool]] = None) -> PolyMap:
        pool = self.morphisms
        if pred is not None:
            pool = [f for f in pool if pred(f)]
        if not pool:
            raise StructureError("no morphism in pool matches the predicate")
        return self.rng.choice(pool)

    def pick_parallel(self) -> tuple[PolyMap, PolyMap]:
        f = self.pick_map()
        g = self.pick_map(lambda h: h.dom == f.dom and h.cod == f.cod)
        return f, g

    def pick_composable(self) -> tuple[PolyMap, PolyMap]:
        """(g, f) with g . f defined and degree product at most 12."""
        for _ in range(200):
            f = self.pick_map()
            candidates = [g for g in self.morphisms if _composable(g, f, 12)]
            if candidates:
                return self.rng.choice(candidates), f
        raise StructureError("no composable pair in pool")

    def summable_pair(self) -> tuple[PolyMap, PolyMap]:
        """A pair summable by construction (half-scaled morphisms)."""
        f, g = self.pick_parallel()
        return pm.scale(f, HALF), pm.scale(g, HALF)

    def summable_quadruple(self) -> tuple[PolyMap, ...]:
        f, g = self.pick_parallel()
        h = self.pick_map(lambda h: h.dom == f.dom and h.cod == f.cod)
        k = self.pick_map(lambda h: h.dom == f.dom and h.cod == f.cod)
        return tuple(pm.scale(m, QUARTER) for m in (f, g, h, k))

    def pick_product_map(self) -> tuple[PolyMap, tuple[Space, Space]]:
        f = self.pick_map(lambda h: isinstance(h.dom, Prod))
        assert isinstance(f.dom, Prod)
        return f, (f.dom.left, f.dom.right)


def _composable(g: PolyMap, f: PolyMap, bound: int) -> bool:
    """g . f is defined and deg g * deg f, each at least 1, is within bound."""
    return g.dom == f.cod and max(1, g.max_degree()) * max(1, f.max_degree()) <= bound


class LawFailure(Exception):
    """A law case failed; the message is its counterexample."""


Law = Callable[[LawEnv], None]


def _eq(name: str, lhs: PolyMap, rhs: PolyMap) -> None:
    if lhs != rhs:
        raise LawFailure(
            f"{name}: sides differ\n"
            f"lhs {lhs.render(limit=8)}\n"
            f"rhs {rhs.render(limit=8)}"
        )


def _need(m: Optional[PolyMap], message: str) -> PolyMap:
    if m is None:
        raise LawFailure(message)
    return m


def _law_d_com(env: LawEnv) -> None:
    inst = env.inst
    x = env.pick_object()
    w = _need(inst.pair_witness(pm.proj(1, x), pm.proj(0, x)),
              f"pi1, pi0 not summable on {space_str(x)}")
    total = pm.compose(inst.sigma(x), w)
    _eq("pi1 + pi0 = sigma", total, inst.sigma(x))
    f0, f1 = env.summable_pair()
    s = inst.sum2(f0, f1)
    s_rev = inst.sum2(f1, f0)
    if s is None or s_rev is None:
        raise LawFailure("constructed summable pair failed to certify")
    _eq("f0 + f1 = f1 + f0", s, s_rev)


def _law_d_zero(env: LawEnv) -> None:
    inst = env.inst
    x = env.pick_object()
    one = pm.identity(x)
    nil = pm.zero(x, x)
    for pair, label in (((one, nil), "id + 0"), ((nil, one), "0 + id")):
        w = _need(inst.pair_witness(*pair),
                  f"{label} not summable on {space_str(x)}")
        total = pm.compose(inst.sigma(x), w)
        _eq(f"{label} = id", total, one)
    f = env.pick_map()
    s = _need(inst.sum2(f, pm.zero(f.dom, f.cod)), "f + 0 failed to certify")
    _eq("f + 0 = f", s, f)


def _law_d_witness(env: LawEnv) -> None:
    inst = env.inst
    a, b, c, d = env.summable_quadruple()
    f = inst.pair_witness(a, b)
    g = inst.pair_witness(c, d)
    if f is None or g is None:
        raise LawFailure("quarter-scaled witnesses failed to certify")
    sf, sg = inst.sum2(a, b), inst.sum2(c, d)
    if sf is None or sg is None or inst.pair_witness(sf, sg) is None:
        raise LawFailure("sigma-composites of witnesses not summable")
    _need(inst.pair_witness(f, g), "witnesses not summable although their sums are")


def _law_dproj_lin(env: LawEnv) -> None:
    x = env.pick_object()
    dx = d_space(x)
    for i in (0, 1):
        p = pm.proj(i, x)
        expected = pm.pair_witness_matrix(
            pm.compose(p, pm.proj(0, dx)), pm.compose(p, pm.proj(1, dx))
        )
        _eq(f"D pi{i} linear", pm.differential(p), expected)


def _law_dsum_lin(env: LawEnv) -> None:
    inst = env.inst
    x = env.pick_object()
    dx = d_space(x)
    s = inst.sigma(x)
    expected = pm.pair_witness_matrix(
        pm.compose(s, pm.proj(0, dx)), pm.compose(s, pm.proj(1, dx))
    )
    _eq("D sigma linear", pm.differential(s), expected)
    y = env.pick_object()
    z = pm.zero(x, y)
    _eq(
        "D 0 = 0",
        pm.differential(z),
        pm.zero(d_space(x), d_space(y)),
    )


def _law_d_chain(env: LawEnv) -> None:
    x = env.pick_object()
    _eq(
        "D id = id",
        pm.differential(pm.identity(x)),
        pm.identity(d_space(x)),
    )
    g, f = env.pick_composable()
    _eq(
        "D(g . f) = Dg . Df",
        pm.differential(pm.compose(g, f)),
        pm.compose(pm.differential(g), pm.differential(f)),
    )


def _law_d_add(env: LawEnv) -> None:
    inst = env.inst
    f = env.pick_map()
    df = pm.differential(f)
    _eq(
        "Df . iota0 = iota0 . f",
        pm.compose(df, inst.inj(0, f.dom)),
        pm.compose(inst.inj(0, f.cod), f),
    )
    _eq(
        "Df . theta = theta . D^2 f",
        pm.compose(df, inst.theta(f.dom)),
        pm.compose(inst.theta(f.cod), pm.differential(df)),
    )


def _law_d_lin(env: LawEnv) -> None:
    inst = env.inst
    f = env.pick_map()
    df = pm.differential(f)
    _eq(
        "D^2 f . l = l . Df",
        pm.compose(pm.differential(df), inst.lift(f.dom)),
        pm.compose(inst.lift(f.cod), df),
    )


def _law_d_schwarz(env: LawEnv) -> None:
    inst = env.inst
    f = env.pick_map()
    ddf = pm.differential(pm.differential(f))
    _eq(
        "D^2 f . c = c . D^2 f",
        pm.compose(ddf, inst.swap(f.dom)),
        pm.compose(inst.swap(f.cod), ddf),
    )


def _law_monad_unit(env: LawEnv) -> None:
    inst = env.inst
    x = env.pick_object()
    dx = d_space(x)
    ident = pm.identity(dx)
    _eq(
        "theta . D iota0 = id",
        pm.compose(inst.theta(x), pm.differential(inst.inj(0, x))),
        ident,
    )
    _eq(
        "theta . iota0 = id",
        pm.compose(inst.theta(x), inst.inj(0, dx)),
        ident,
    )


def _law_monad_assoc(env: LawEnv) -> None:
    inst = env.inst
    x = env.pick_object()
    _eq(
        "theta . D theta = theta . theta",
        pm.compose(inst.theta(x), pm.differential(inst.theta(x))),
        pm.compose(inst.theta(x), inst.theta(d_space(x))),
    )


def _law_c_with_iso(env: LawEnv) -> None:
    inst = env.inst
    x, y = env.pick_object(), env.pick_object()
    fwd = c_with(x, y)
    inv = inst.c_n_inv([x, y])
    _eq(
        "c_with . inv = id",
        pm.compose(fwd, inv),
        pm.identity(inv.dom),
    )
    _eq(
        "inv . c_with = id",
        pm.compose(inv, fwd),
        pm.identity(fwd.dom),
    )


def _law_strength_comm(env: LawEnv) -> None:
    inst = env.inst
    x, y = env.pick_object(), env.pick_object()
    dx, dy = d_space(x), d_space(y)
    # Both paths start at DX & DY and land in D^2 (X & Y).
    via_left = pm.compose(
        pm.differential(strength([x, y], 1)), strength([x, dy], 0)
    )
    via_right = pm.compose(
        pm.differential(strength([x, y], 0)), strength([dx, y], 1)
    )
    _eq(
        "c . (D phi1 . phi0) = D phi0 . phi1",
        pm.compose(inst.swap(product(x, y)), via_left),
        via_right,
    )
    p = product(x, y)
    inv = inst.c_n_inv([x, y])
    _eq(
        "theta . D phi0 . phi1 = c_with_inv",
        pm.compose(inst.theta(p), via_right),
        inv,
    )
    _eq(
        "theta . D phi1 . phi0 = c_with_inv",
        pm.compose(inst.theta(p), via_left),
        inv,
    )


def _law_leibniz(env: LawEnv) -> None:
    inst = env.inst
    f, (x, y) = env.pick_product_map()
    inv = inst.c_n_inv([x, y])
    lhs = pm.compose(pm.differential(f), inv)
    d0d1 = inst.partial_derivative(f, 2, (1, 0))
    d1d0 = inst.partial_derivative(f, 2, (0, 1))
    theta = inst.theta(f.cod)
    _eq("Df . c^-1 = theta . D0 D1 f", lhs, pm.compose(theta, d0d1))
    _eq("Df . c^-1 = theta . D1 D0 f", lhs, pm.compose(theta, d1d0))


def _law_schwarz_partial(env: LawEnv) -> None:
    inst = env.inst
    f, _ = env.pick_product_map()
    d0d1 = inst.partial_derivative(f, 2, (1, 0))
    d1d0 = inst.partial_derivative(f, 2, (0, 1))
    _eq(
        "D0 D1 f = c . D1 D0 f",
        d0d1,
        pm.compose(inst.swap(f.cod), d1d0),
    )


def _law_partial_proj0(env: LawEnv) -> None:
    inst = env.inst
    f, (x, y) = env.pick_product_map()
    slots = [x, y]
    for i in (0, 1):
        di = inst.partial_derivative(f, 2, (i,))
        lhs = pm.compose(pm.proj(0, f.cod), di)
        rhs = pm.compose(f, single_app(slots, i, pm.proj(0, slots[i])))
        _eq(f"pi0 . D{i} f = f . (pi0 at {i})", lhs, rhs)


def _derivative(f: PolyMap) -> PolyMap:
    return pm.compose(pm.proj(1, f.cod), pm.differential(f))


def _law_d_chain_partial(env: LawEnv) -> None:
    g, f = env.pick_composable()
    lhs = _derivative(pm.compose(g, f))
    witness = pm.pair_witness_matrix(
        pm.compose(f, pm.proj(0, f.dom)), _derivative(f)
    )
    _eq(
        "d(g . f) = dg . <f pi0, df>",
        lhs,
        pm.compose(_derivative(g), witness),
    )


def _law_d_inj0_zero(env: LawEnv) -> None:
    inst = env.inst
    f = env.pick_map()
    _eq(
        "df . iota0 = 0",
        pm.compose(_derivative(f), inst.inj(0, f.dom)),
        pm.zero(f.dom, f.cod),
    )


def _law_d_lift(env: LawEnv) -> None:
    inst = env.inst
    f = env.pick_map()
    ddf = _derivative(_derivative(f))
    _eq(
        "dd f . l = d f",
        pm.compose(ddf, inst.lift(f.dom)),
        _derivative(f),
    )


def _law_d_swap(env: LawEnv) -> None:
    inst = env.inst
    f = env.pick_map()
    ddf = _derivative(_derivative(f))
    _eq("dd f . c = dd f", pm.compose(ddf, inst.swap(f.dom)), ddf)


def _law_pair_derivative(env: LawEnv) -> None:
    inst = env.inst
    f0, f1 = env.summable_pair()
    w = _need(inst.pair_witness(f0, f1), "constructed summable pair failed to certify")
    lhs = pm.pair_witness_matrix(pm.differential(f0), pm.differential(f1))
    _eq(
        "<D f0, D f1> = c . D <f0, f1>",
        lhs,
        pm.compose(inst.swap(f0.cod), pm.differential(w)),
    )


def _law_left_compat(env: LawEnv) -> None:
    inst = env.inst
    f0, f1 = env.summable_pair()
    candidates = [g for g in env.morphisms if _composable(f0, g, 12)]
    if not candidates:
        return
    g = env.rng.choice(candidates)
    w = inst.pair_witness(f0, f1)
    s = inst.sum2(f0, f1)
    if w is None or s is None:
        raise LawFailure("constructed summable pair failed to certify")
    _eq(
        "<f0, f1> . g = <f0 g, f1 g>",
        pm.compose(w, g),
        pm.pair_witness_matrix(pm.compose(f0, g), pm.compose(f1, g)),
    )
    s_composed = _need(inst.sum2(pm.compose(f0, g), pm.compose(f1, g)),
                       "composed pair lost summability")
    _eq("(f0 + f1) g = f0 g + f1 g", pm.compose(s, g), s_composed)


def _law_proj_sum(env: LawEnv) -> None:
    inst = env.inst
    x = env.pick_object()
    w = _need(inst.pair_witness(pm.proj(0, x), pm.proj(1, x)),
              "pi0, pi1 not summable")
    _eq("<pi0, pi1> = id", w, pm.identity(d_space(x)))
    s = inst.sum2(pm.proj(0, x), pm.proj(1, x))
    _eq("pi0 + pi1 = sigma", s, inst.sigma(x))


def _law_family_on_pairs(env: LawEnv) -> None:
    inst = env.inst
    x, u, v, w = env.summable_quadruple()
    cod = x.cod
    inner0 = inst.pair_witness(x, u)
    inner1 = inst.pair_witness(v, w)
    if inner0 is None or inner1 is None:
        raise LawFailure("inner witnesses failed")
    outer = _need(inst.pair_witness(inner0, inner1), "outer witness failed")
    s = _need(inst.sum2(u, v), "u + v failed")
    _eq(
        "theta . <<x,u>,<v,w>> = <x, u+v>",
        pm.compose(inst.theta(cod), outer),
        pm.pair_witness_matrix(x, s),
    )
    _eq(
        "c . <<x,u>,<v,w>> = <<x,v>,<u,w>>",
        pm.compose(inst.swap(cod), outer),
        pm.pair_witness_matrix(
            pm.pair_witness_matrix(x, v), pm.pair_witness_matrix(u, w)
        ),
    )
    nil = pm.zero(x.dom, cod)
    _eq(
        "l . <x,u> = <<x,0>,<0,u>>",
        pm.compose(inst.lift(cod), inner0),
        pm.pair_witness_matrix(
            pm.pair_witness_matrix(x, nil), pm.pair_witness_matrix(nil, u)
        ),
    )


def _law_additive_char(env: LawEnv) -> None:
    # Additivity characterization: h . 0 = 0 and (h pi0) + (h pi1) = h sigma
    # together imply h distributes over every summable pair.
    inst = env.inst
    h = env.pick_map()
    if pm.compose(h, pm.zero(h.dom, h.dom)) != pm.zero(h.dom, h.cod):
        return
    s = inst.sum2(
        pm.compose(h, pm.proj(0, h.dom)), pm.compose(h, pm.proj(1, h.dom))
    )
    if s is None or s != pm.compose(h, inst.sigma(h.dom)):
        return
    candidates = [g for g in env.morphisms if g.cod == h.dom]
    if not candidates:
        return
    first = env.rng.choice(candidates)
    parallel = [g for g in candidates if g.dom == first.dom]
    f0 = pm.scale(first, HALF)
    f1 = pm.scale(env.rng.choice(parallel), HALF)
    total = inst.sum2(f0, f1)
    lhs = inst.sum2(pm.compose(h, f0), pm.compose(h, f1))
    if total is None or lhs is None:
        raise LawFailure("additive h failed to distribute over a summable pair")
    _eq("h (f0 + f1) = h f0 + h f1", pm.compose(h, total), lhs)


def _is_dlinear(h: PolyMap) -> bool:
    return _derivative(h) == pm.compose(h, pm.proj(1, h.dom))


def _law_linear_char(env: LawEnv) -> None:
    inst = env.inst
    h = env.pick_map()
    if not _is_dlinear(h):
        return
    # The derivative equation alone must imply the other two diagrams.
    _eq(
        "sigma . Dh = h . sigma",
        pm.compose(inst.sigma(h.cod), pm.differential(h)),
        pm.compose(h, inst.sigma(h.dom)),
    )
    w = env.pick_object()
    _eq(
        "h . 0 = 0",
        pm.compose(h, pm.zero(w, h.dom)),
        pm.zero(w, h.cod),
    )


def _law_linear_closure(env: LawEnv) -> None:
    inst = env.inst
    x = env.pick_object()
    y = env.pick_object()
    structural = [
        pm.proj(0, x),
        pm.proj(1, x),
        inst.sigma(x),
        inst.inj(0, x),
        inst.inj(1, x),
        inst.theta(x),
        inst.lift(x),
        inst.swap(x),
        pm.prod_proj(0, x, y),
        pm.prod_proj(1, x, y),
    ]
    for m in structural:
        if not _is_dlinear(m):
            raise LawFailure(f"structural morphism not D-linear: {m!r}")
    # Closure under composition: two linear maps of matching type.
    comp = pm.compose(pm.proj(0, x), inst.theta(x))
    if not _is_dlinear(comp):
        raise LawFailure(f"composite of linear maps not linear: {comp!r}")
    # Closure under witness pairing and sum, on a scaled linear pair.
    f0 = pm.scale(pm.proj(0, x), HALF)
    f1 = pm.scale(pm.proj(1, x), HALF)
    w = inst.pair_witness(f0, f1)
    s = inst.sum2(f0, f1)
    if w is None or s is None:
        raise LawFailure("scaled projections failed to certify")
    if not _is_dlinear(w):
        raise LawFailure("witness pairing of linear maps not linear")
    if not _is_dlinear(s):
        raise LawFailure("sum of linear maps not linear")


def _multilinear_equation(
    inst: Instance, f: PolyMap, arity: int, what: str
) -> None:
    """pi1 . D_i f = f . (pi1 at i) at every slot i, else LawFailure."""
    slots = peel_product(f.dom, arity)
    for i in range(arity):
        di = inst.partial_derivative(f, arity, (i,))
        lhs = pm.compose(pm.proj(1, f.cod), di)
        rhs = pm.compose(f, single_app(slots, i, pm.proj(1, slots[i])))
        if lhs != rhs:
            raise LawFailure(f"{what} lost linearity in slot {i}")


def _law_multilinear_partial(env: LawEnv) -> None:
    inst = env.inst
    f, slots = env.rng.choice(env.multilinear)
    i = env.rng.randrange(len(slots))
    di = inst.partial_derivative(f, len(slots), (i,))
    _multilinear_equation(inst, di, len(slots), f"D_{i} f")


def _law_multilinear_compose(env: LawEnv) -> None:
    inst = env.inst
    f, slots = env.rng.choice(env.multilinear)
    h = inst.inj(env.rng.randrange(2), f.cod)
    composed = pm.compose(h, f)
    _multilinear_equation(inst, composed, len(slots), "h . f")


def _law_proj_commute(env: LawEnv) -> None:
    inst = env.inst
    f, slots = env.rng.choice(env.multilinear)
    rng = env.rng
    n = len(slots)
    d = rng.randrange(3)
    i = rng.randrange(n)
    tail = [rng.randrange(n) for _ in range(d)]
    lhs_inner = inst.partial_derivative(f, n, [i] + tail)
    h = tail.count(i)
    for k in (0, 1):
        pk = pm.proj(k, f.cod)
        dpk = inst.partial_derivative(pk, 1, (0,) * d)
        lhs = pm.compose(dpk, lhs_inner)
        rhs_inner = inst.partial_derivative(f, n, tail)
        # Slot i of the left side's domain carries h + 1 D's; the right side
        # composes with D^h pi_k at that slot.
        rhs_slots = peel_product(rhs_inner.dom, n)
        pk_i = pm.proj(k, slots[i])
        pk_h = inst.partial_derivative(pk_i, 1, (0,) * h)
        rhs = pm.compose(rhs_inner, single_app(rhs_slots, i, pk_h))
        if lhs != rhs:
            raise LawFailure(
                f"projection commutation failed: k={k} d={d} i={i} tail={tail}"
            )


def _law_leibniz_n(env: LawEnv) -> None:
    inst = env.inst
    f, slots = env.rng.choice(env.multilinear)
    n = len(slots) - 1
    if n < 1:
        return
    alpha = list(range(n + 1))
    env.rng.shuffle(alpha)
    lhs = pm.compose(pm.differential(f), inst.c_n_inv(slots))
    rhs = pm.compose(
        inst.theta_pow(f.cod, n),
        inst.partial_derivative(f, len(slots), alpha),
    )
    _eq(f"Df . c^-1 = theta^{n} . D_alpha f (alpha={alpha})", lhs, rhs)


def _law_bilinear_expansion(env: LawEnv) -> None:
    inst = env.inst
    candidates = [(f, s) for f, s in env.multilinear if len(s) == 2]
    if not candidates:
        return
    f, (x, y) = env.rng.choice(candidates)
    lhs = pm.compose(
        pm.proj(1, f.cod),
        pm.compose(pm.differential(f), inst.c_n_inv([x, y])),
    )
    term0 = pm.compose(f, pm.with_map(pm.proj(1, x), pm.proj(0, y)))
    term1 = pm.compose(f, pm.with_map(pm.proj(0, x), pm.proj(1, y)))
    _eq(
        "bilinear derivative expands to Phi(x,v) + Phi(u,y)",
        lhs,
        pm.add(term0, term1),
    )


def _law_n_ary_sum(env: LawEnv) -> None:
    inst = env.inst
    f, g = env.pick_parallel()
    h = env.pick_map(lambda m: m.dom == f.dom and m.cod == f.cod)
    family = [pm.scale(f, QUARTER), pm.scale(g, QUARTER), pm.scale(h, QUARTER)]
    total = _need(inst.family_sum(family, f.dom, f.cod),
                  "quarter-scaled family failed to sum")
    for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        alt = inst.family_sum([family[i] for i in perm], f.dom, f.cod)
        if alt != total:
            raise LawFailure(f"sum depends on insertion order {perm}")
    # Partition {{0}, {1, 2}} must agree with the flat sum.
    tail = _need(inst.family_sum(family[1:], f.dom, f.cod),
                 "sub-family failed to sum")
    grouped = inst.sum2(family[0], tail)
    if grouped is None or grouped != total:
        raise LawFailure("partition grouping changed the sum")
    empty = inst.family_sum([], f.dom, f.cod)
    if empty != pm.zero(f.dom, f.cod):
        raise LawFailure("empty family must sum to zero")
    single = inst.family_sum([f], f.dom, f.cod)
    if single != f:
        raise LawFailure("singleton family must sum to its member")


ALL_LAWS: list[tuple[str, Law]] = [
    ("D-com", _law_d_com),
    ("D-zero", _law_d_zero),
    ("D-witness", _law_d_witness),
    ("Dproj-lin", _law_dproj_lin),
    ("Dsum-lin", _law_dsum_lin),
    ("D-chain", _law_d_chain),
    ("D-add", _law_d_add),
    ("D-lin", _law_d_lin),
    ("D-Schwarz", _law_d_schwarz),
    ("monad-unit", _law_monad_unit),
    ("monad-assoc", _law_monad_assoc),
    ("c-with-iso", _law_c_with_iso),
    ("strength-comm", _law_strength_comm),
    ("Leibniz", _law_leibniz),
    ("Schwarz-partial", _law_schwarz_partial),
    ("partial-proj0", _law_partial_proj0),
    ("d-chain-partial", _law_d_chain_partial),
    ("d-inj0-zero", _law_d_inj0_zero),
    ("d-lift", _law_d_lift),
    ("d-swap", _law_d_swap),
    ("pair-derivative", _law_pair_derivative),
    ("left-compat", _law_left_compat),
    ("proj-sum", _law_proj_sum),
    ("family-on-pairs", _law_family_on_pairs),
    ("additive-char", _law_additive_char),
    ("linear-char", _law_linear_char),
    ("linear-closure", _law_linear_closure),
    ("multilinear-partial", _law_multilinear_partial),
    ("multilinear-compose", _law_multilinear_compose),
    ("proj-commute", _law_proj_commute),
    ("Leibniz-n", _law_leibniz_n),
    ("bilinear-expansion", _law_bilinear_expansion),
    ("n-ary-sum", _law_n_ary_sum),
]


CLOSURE_MAX_POOL = 160
CLOSURE_MAX_DEGREE = 4


def close_generators(
    inst: Instance,
    generators: Sequence[PolyMap],
    rng: random.Random,
    depth: int = 2,
) -> list[PolyMap]:
    """Close a generator set under composition, pairing and D, boundedly:
    composite degrees stay within CLOSURE_MAX_DEGREE and the pool within
    CLOSURE_MAX_POOL maps.  These are the same in every instance, so inst is
    not read."""
    pool = list(generators)
    for _ in range(depth):
        fresh: list[PolyMap] = []
        attempts = 0
        while len(fresh) < 24 and attempts < 400:
            attempts += 1
            choice = rng.randrange(3)
            f = rng.choice(pool)
            if choice == 0:
                candidates = [
                    g for g in pool if _composable(g, f, CLOSURE_MAX_DEGREE)
                ]
                if candidates:
                    fresh.append(pm.compose(rng.choice(candidates), f))
            elif choice == 1:
                candidates = [g for g in pool if g.dom == f.dom]
                if candidates:
                    fresh.append(pm.prod_pair(f, rng.choice(candidates)))
            else:
                if f.max_degree() <= CLOSURE_MAX_DEGREE:
                    fresh.append(pm.differential(f))
        pool.extend(fresh)
        if len(pool) > CLOSURE_MAX_POOL:
            pool = pool[:CLOSURE_MAX_POOL]
    return pool


def check_axioms(
    inst: Instance,
    generators: Sequence[PolyMap],
    multilinear: Sequence[tuple[PolyMap, tuple[Space, ...]]],
    objects: Sequence[Space],
    config: Optional[LawConfig] = None,
    laws: Optional[Sequence[tuple[str, Law]]] = None,
) -> LawReport:
    """Run every law against sampled cases; failures carry counterexamples."""
    config = config or LawConfig()
    rng = random.Random(config.seed)
    pool = close_generators(inst, generators, rng, depth=config.closure_depth)
    report = LawReport()
    for name, law in laws or ALL_LAWS:
        env = LawEnv(
            inst=inst,
            objects=list(objects),
            morphisms=pool,
            multilinear=list(multilinear),
            rng=random.Random(f"{config.seed}|{name}"),
        )
        counterexample = None
        cases = 0
        while counterexample is None and cases < config.cases:
            cases += 1
            try:
                law(env)
            except LawFailure as exc:
                counterexample = str(exc)
            except (StructureError, pm.ShapeError, pm.DegreeCapError) as exc:
                counterexample = f"structural failure: {exc}"
        report.results.append(
            LawResult(name, counterexample is None, cases, counterexample)
        )
    return report

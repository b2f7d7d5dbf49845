"""Reduction of terms to term multisets and its lift to multisets.

The six root rules contract projections against pairs, applications,
injections and monad sums.  A step inside a term plugs the contractum back
into the surrounding context.  The plugging rule is stated once, in
`redexes`: under application arguments any contractum is sound (heads
denote multilinear or linear morphisms, which are additive in each
argument), while under a pair component only singleton contractums are
sound; splitting a pair into a multiset would require the untouched
component to be summable with itself, which fails in the probabilistic
model.  A redex whose contractum cannot be plugged soundly is left in place.
`steps` lifts `redexes` to every step of a multiset, and `normalize` takes
the first step each time, which is the leftmost-outermost strategy.

Reduction terminates: every rule instance decreases in the multiset path
ordering with the well-founded precedence (word length, head kind), where
theta > pi > other heads > pair > variables.  pr-pair and pi-iota give
sub-terms or nothing; pi0/pi1-theta need theta^(d) > pi^(d) at one word
length; proj-app at depth d and inner word length e > d rebuilds
g^(e-1) < g^(e) over a pushed pi^(k), k <= d < e.  The ordering is closed
under contexts, and a multiset step replaces a member by smaller ones, so
only fuel, a resource bound, can stop reduction early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .syntax import (
    App,
    DInj,
    DProj,
    Pair,
    ProdProj,
    Term,
    Theta,
    term_key,
    term_str,
)

DEFAULT_FUEL = 10_000


class TermMultiset:
    """Finite multiset of terms: a sorted tuple, so copies sit side by side."""

    __slots__ = ("items",)

    def __init__(self, terms: Iterable[Term] = ()):
        self.items: tuple[Term, ...] = tuple(sorted(terms, key=term_key))

    def terms(self) -> list[Term]:
        """Member list in canonical order, copies included."""
        return list(self.items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TermMultiset):
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return f"TermMultiset({self.render()})"

    def render(self) -> str:
        return "[" + ", ".join(term_str(t) for t in self.items) + "]"


@dataclass
class ReductionTrace:
    """Multiset snapshots with, per step, the rule name and redex position."""

    initial: TermMultiset
    steps: list[tuple[TermMultiset, str, tuple[int, ...]]]

    def render_lines(self) -> list[str]:
        lines = []
        for k, (snapshot, rule, path) in enumerate(self.steps, start=1):
            at = ".".join(str(i) for i in path)
            lines.append(f"#{k} {rule} @ {at} : {snapshot.render()}")
        return lines


class FuelExhausted(Exception):
    """Raised when normalize runs out of fuel; carries the partial trace."""

    def __init__(self, trace: ReductionTrace):
        super().__init__(f"no normal form after {len(trace.steps)} steps")
        self.trace = trace


def _match_root(t: Term) -> Optional[tuple[str, list[Term]]]:
    """Match one of the six rules at the root, returning the contractum."""
    if not isinstance(t, App):
        return None
    f = t.fn
    d = len(t.word)
    arg = t.args[0] if t.args else None

    if isinstance(f, ProdProj) and isinstance(arg, Pair):
        return "pr-pair", [arg.t0 if f.i == 0 else arg.t1]

    if not isinstance(f, DProj) or not isinstance(arg, App):
        return None
    g = arg.fn

    # pi_i against iota / theta wants the inner decoration at the same depth.
    if isinstance(g, DInj) and len(arg.word) == d:
        if g.i == f.i:
            return "pi-iota-same", [arg.args[0]]
        return "pi-iota-other", []
    if isinstance(g, Theta) and len(arg.word) == d:
        inner = arg.args[0]
        if f.i == 0:
            out: Term = inner
            for _ in range(g.n + 1):
                out = App(DProj(0), (0,) * d, (out,))
            return "pi0-theta", [out]
        members = []
        for k in range(g.n + 1):
            u: Term = inner
            for _ in range(g.n - k):
                u = App(DProj(0), (0,) * d, (u,))
            u = App(DProj(1), (0,) * d, (u,))
            for _ in range(k):
                u = App(DProj(0), (0,) * d, (u,))
            members.append(u)
        return "pi1-theta", members

    # pi_i^(d) (g^(w j xi) (...)) with |xi| = d pushes the projection onto
    # argument j.  The inner word must be strictly longer than d, which makes
    # this rule disjoint from the four above.
    if len(arg.word) >= d + 1:
        xi = arg.word[len(arg.word) - d :]
        j = arg.word[len(arg.word) - d - 1]
        rest = arg.word[: len(arg.word) - d - 1]
        inner_depth = xi.count(j)
        new_args = list(arg.args)
        new_args[j] = App(DProj(f.i), (0,) * inner_depth, (new_args[j],))
        return "proj-app", [App(g, rest + xi, tuple(new_args))]
    return None


def redexes(
    t: Term, under_pair: bool = False
) -> Iterator[tuple[str, tuple[int, ...], tuple[Term, ...]]]:
    """Each soundly pluggable one-step contraction of t, leftmost-outermost
    first, as (rule, path, members): the root, then the application
    arguments left to right, then the pair components.  Any contractum plugs
    under an application argument, only a singleton under a pair component."""
    m = _match_root(t)
    if m is not None and (len(m[1]) == 1 or not under_pair):
        yield m[0], (), tuple(m[1])
    if isinstance(t, App):
        for j, a in enumerate(t.args):
            for rule, path, members in redexes(a, under_pair):
                plugged = tuple(
                    App(t.fn, t.word, t.args[:j] + (u,) + t.args[j + 1 :])
                    for u in members
                )
                yield rule, (j,) + path, plugged
    if isinstance(t, Pair):
        for rule, path, (u,) in redexes(t.t0, True):
            yield rule, (0,) + path, (Pair(u, t.t1),)
        for rule, path, (u,) in redexes(t.t1, True):
            yield rule, (1,) + path, (Pair(t.t0, u),)


def steps(ms: TermMultiset) -> Iterator[tuple[TermMultiset, str, tuple[int, ...]]]:
    """Each one-step successor of ms as (new multiset, rule, path): the
    redexes of each distinct member in canonical order, the path led by the
    index of the member's first copy."""
    items = ms.items
    for k, t in enumerate(items):
        if k and items[k - 1] == t:
            continue  # a copy has the redexes of the member before it
        for rule, path, members in redexes(t):
            yield TermMultiset(items[:k] + items[k + 1 :] + members), rule, (k,) + path


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> tuple[TermMultiset, ReductionTrace]:
    """Take the first multiset step from [t] until stuck or out of fuel."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    current = TermMultiset([t])
    trace = ReductionTrace(current, [])
    while (step := next(steps(current), None)) is not None:
        if len(trace.steps) == fuel:
            raise FuelExhausted(trace)
        current = step[0]
        trace.steps.append(step)
    return current, trace

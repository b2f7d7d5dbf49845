"""Reduction of terms to term multisets and its lift to multisets.

The six root rules contract projections against pairs, applications,
injections and monad sums.  A step inside a term plugs the contractum back
into the surrounding context.  Plugging is restricted to positions where it
preserves the interpretation: under application arguments any contractum is
sound (heads denote multilinear or linear morphisms, which are additive in
each argument), while under a pair component only singleton contractums are
sound; splitting a pair into a multiset would require the untouched
component to be summable with itself, which fails in the probabilistic
model.  A redex whose contractum cannot be plugged soundly is left in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

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
    """Finite multiset of terms in a canonical sorted representation."""

    __slots__ = ("items",)

    def __init__(self, terms: Iterable[Term] = ()):
        counts: dict = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        self.items: tuple[tuple[Term, int], ...] = tuple(
            sorted(counts.items(), key=lambda kv: term_key(kv[0]))
        )

    def terms(self) -> list[Term]:
        """Expanded member list, multiplicities unfolded, canonical order."""
        out = []
        for t, k in self.items:
            out.extend([t] * k)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, TermMultiset):
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return f"TermMultiset({self.render()})"

    def render(self) -> str:
        return "[" + ", ".join(term_str(t) for t in self.terms()) + "]"


@dataclass(frozen=True)
class StepInfo:
    rule: str
    path: tuple[int, ...]
    result: tuple[Term, ...]


@dataclass
class ReductionTrace:
    """Multiset snapshots with, per step, the rule name and redex position."""

    initial: TermMultiset
    steps: list[tuple[str, tuple[int, ...], TermMultiset]]

    def render_lines(self) -> list[str]:
        lines = []
        for k, (rule, path, snapshot) in enumerate(self.steps, start=1):
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


def _step_term(t: Term, under_pair: bool) -> Optional[StepInfo]:
    """Leftmost-outermost soundly pluggable redex, if any."""
    m = _match_root(t)
    if m is not None:
        rule, members = m
        if len(members) == 1 or not under_pair:
            return StepInfo(rule, (), tuple(members))
    if isinstance(t, App):
        for j, a in enumerate(t.args):
            sub = _step_term(a, under_pair)
            if sub is not None:
                rebuilt = tuple(
                    App(t.fn, t.word, t.args[:j] + (u,) + t.args[j + 1 :])
                    for u in sub.result
                )
                return StepInfo(sub.rule, (j,) + sub.path, rebuilt)
    if isinstance(t, Pair):
        for j, a in enumerate((t.t0, t.t1)):
            sub = _step_term(a, True)
            if sub is not None:
                (u,) = sub.result
                rebuilt = Pair(u, t.t1) if j == 0 else Pair(t.t0, u)
                return StepInfo(sub.rule, (j,) + sub.path, (rebuilt,))
    return None


def step_multiset_detail(
    ms: TermMultiset,
) -> Optional[tuple[TermMultiset, str, tuple[int, ...]]]:
    """Reduce the first reducible member, keeping the others unchanged."""
    offset = 0
    for t, mult in ms.items:
        info = _step_term(t, False)
        if info is not None:
            rest = []
            for u, k in ms.items:
                k = k - 1 if u == t else k
                rest.extend([u] * k)
            new = TermMultiset(rest + list(info.result))
            return new, info.rule, (offset,) + info.path
        offset += mult
    return None


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> tuple[TermMultiset, ReductionTrace]:
    """Iterate multiset steps from [t] until stuck or out of fuel."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    current = TermMultiset([t])
    trace = ReductionTrace(current, [])
    for _ in range(fuel):
        detailed = step_multiset_detail(current)
        if detailed is None:
            return current, trace
        current, rule, path = detailed
        trace.steps.append((rule, path, current))
    if step_multiset_detail(current) is not None:
        raise FuelExhausted(trace)
    return current, trace

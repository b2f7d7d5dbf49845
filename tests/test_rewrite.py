from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from cohdiff.gen import generate_typed_terms

from cohdiff.rewrite import (
    FuelExhausted,
    TermMultiset,
    _match_root,
    normalize,
    redexes,
    steps,
)
from cohdiff.syntax import (
    App,
    DInj,
    DProj,
    Pair,
    ProdProj,
    Theta,
    UserFn,
    Var,
    term_str,
)

x, y, z = Var("x"), Var("y"), Var("z")


def pi(i, t, d=0):
    return App(DProj(i), (0,) * d, (t,))


def pr(i, t, d=0):
    return App(ProdProj(i), (0,) * d, (t,))


def iota(i, t, d=0):
    return App(DInj(i), (0,) * d, (t,))


def theta(n, t, d=0):
    return App(Theta(n), (0,) * d, (t,))


def step_root(t):
    """Contract the root redex when the term matches one of the six rules."""
    m = _match_root(t)
    return TermMultiset(m[1]) if m is not None else None


def step(t):
    """One contextual step; absent when no redex is soundly contractible."""
    first = next(redexes(t), None)
    return TermMultiset(first[2]) if first is not None else None


def union(a, b):
    return TermMultiset(a.terms() + b.terms())


def step_multiset(ms):
    """The multiset after one step, absent when no member reduces."""
    first = next(steps(ms), None)
    return first[0] if first is not None else None


def test_rule_pr_pair():
    assert step_root(pr(0, Pair(x, y))) == TermMultiset([x])
    assert step_root(pr(1, Pair(x, y))) == TermMultiset([y])


def test_rule_pi_iota_same_and_other():
    t = iota(0, x)
    assert step_root(pi(0, t)) == TermMultiset([x])
    assert step_root(pi(1, t)) == TermMultiset([])


def test_rule_pi1_theta_member_count():
    # pi_1(theta_n(t)) produces exactly n+1 members, multiplicity included.
    for n in range(4):
        t = pi(1, theta(n, x))
        result = step_root(t)
        assert result is not None
        assert len(result.terms()) == n + 1


def test_rule_pi1_theta_shape():
    got = step_root(pi(1, theta(1, z)))
    expected = TermMultiset([pi(1, pi(0, z)), pi(0, pi(1, z))])
    assert got == expected


def test_rule_pi0_theta():
    got = step_root(pi(0, theta(1, z)))
    assert got == TermMultiset([pi(0, pi(0, z))])


def test_rule_proj_app_pushes_projection():
    f = UserFn("f")
    t = pi(0, App(f, (1, 0), (x, y)))  # word = 1.0, outer depth d = 0
    got = step_root(t)
    # xi is empty, j = 0: the projection lands on argument 0 at depth 0.
    expected = TermMultiset([App(f, (1,), (pi(0, x), y))])
    assert got == expected


def test_rule_proj_app_with_depth():
    f = UserFn("f")
    # pi_1^(1) over f^[0,1,0]: xi = (0,), j = 1, zeta = (0,), |xi|_1 = 0.
    t = pi(1, App(f, (0, 1, 0), (x, y)), d=1)
    got = step_root(t)
    expected = TermMultiset([App(f, (0, 0), (x, pi(1, y, d=0)))])
    assert got == expected


def test_proj_app_disjoint_from_iota_rules():
    # Inner iota with a strictly longer word falls under the push rule.
    t = pi(0, iota(0, x, d=1))
    got = step_root(t)
    assert got == TermMultiset([iota(0, pi(0, x))])


def test_step_outermost_wins():
    t = pr(0, Pair(pi(0, iota(0, x)), y))
    assert step(t) == TermMultiset([pi(0, iota(0, x))])


def test_step_under_pair_singleton():
    t = Pair(pr(0, Pair(x, y)), z)
    assert step(t) == TermMultiset([Pair(x, z)])


def test_step_normal_forms():
    assert step(x) is None
    assert step(Pair(x, y)) is None
    assert step(iota(0, x)) is None


def test_step_blocks_branching_under_pair():
    # Splitting a pair component into two members is semantically unsound;
    # the redex is left in place.
    t = Pair(pi(1, theta(1, z)), y)
    assert step(t) is None
    # The same redex fires under an application argument.
    u = App(DInj(0), (), (pi(1, theta(1, z)),))
    got = step(u)
    assert got is not None and len(got.terms()) == 2


def test_step_blocks_empty_under_pair():
    t = Pair(pi(1, iota(0, x)), y)
    assert step(t) is None


def test_step_multiset():
    ms = TermMultiset([pr(0, Pair(x, y)), z])
    assert step_multiset(ms) == TermMultiset([x, z])
    assert step_multiset(TermMultiset([])) is None
    assert step_multiset(TermMultiset([x, x])) is None


# ROADMAP item 6's term: proj-app at the root's argument, pr-pair below it,
# and pr-pair again inside a pair component.
ITEM6 = pr(
    1,
    pi(0, pr(1, Pair(pr(1, Pair(Pair(y, y), Pair(y, y)), d=1),
                     iota(0, Pair(x, Pair(y, x)))), d=1)),
)


def test_steps_list_every_route_leftmost_outermost_first():
    got = [(rule, path) for _, rule, path in steps(TermMultiset([ITEM6]))]
    assert got == [
        ("proj-app", (0, 0)),
        ("pr-pair", (0, 0, 0)),
        ("pr-pair", (0, 0, 0, 0, 0)),
    ]
    _, trace = normalize(ITEM6)
    assert trace.steps[0] == next(steps(TermMultiset([ITEM6])))


def test_redexes_skip_non_singletons_under_a_pair():
    # pi1-theta splits in two and pi-iota-other leaves nothing: neither plugs
    # into a pair component, while the pr-pair singleton beside them does.
    t = Pair(pi(1, theta(1, z)), Pair(pi(1, iota(0, x)), pr(0, Pair(x, y))))
    assert [(rule, path) for rule, path, _ in redexes(t)] == [("pr-pair", (1, 1))]
    # Under an application argument both fire.
    u = App(UserFn("f"), (), (pi(1, theta(1, z)), pi(1, iota(0, x))))
    assert [rule for rule, _, _ in redexes(u)] == ["pi1-theta", "pi-iota-other"]


def test_steps_offset_and_copies():
    # Each path starts at the index of the member's first copy.
    u = pr(0, Pair(x, y))
    ms = TermMultiset([u, x, x])
    assert ms.items == (x, x, u)
    assert list(steps(ms)) == [(TermMultiset([x, x, x]), "pr-pair", (2,))]
    # A repeated member yields its redexes once, and one copy stays.
    twice = list(steps(TermMultiset([ITEM6, ITEM6])))
    once = list(redexes(ITEM6))
    assert len(twice) == len(once) == 3
    for (new, rule, path), (r, p, members) in zip(twice, once):
        assert (rule, path) == (r, (0,) + p)
        assert new == TermMultiset([ITEM6, *members])


def test_normalize_simple():
    final, trace = normalize(pr(0, Pair(x, y)), fuel=10)
    assert final == TermMultiset([x])
    assert len(trace.steps) == 1


def test_normalize_golden_pi1_theta():
    # Hand-run: rule 6 yields two branches, each killed by rule 4.
    t = pi(1, theta(1, iota(0, iota(0, x))))
    final, trace = normalize(t, fuel=20)
    assert final == TermMultiset([])
    assert trace.render_lines() == [
        "#1 pi1-theta @ 0 : [pi0(pi1(iota0(iota0(x)))), pi1(pi0(iota0(iota0(x))))]",
        "#2 pi-iota-other @ 0.0 : [pi1(pi0(iota0(iota0(x))))]",
        "#3 pi-iota-same @ 0.0 : [pi1(iota0(x))]",
        "#4 pi-iota-other @ 0 : []",
    ]


def test_normalize_golden_pi0_theta():
    # Hand-run: rule 5 then rule 3 twice.
    t = pi(0, theta(1, iota(0, iota(0, x))))
    final, trace = normalize(t, fuel=20)
    assert final == TermMultiset([x])
    assert trace.render_lines() == [
        "#1 pi0-theta @ 0 : [pi0(pi0(iota0(iota0(x))))]",
        "#2 pi-iota-same @ 0.0 : [pi0(iota0(x))]",
        "#3 pi-iota-same @ 0 : [x]",
    ]


def test_normalize_fuel_exhausted_carries_trace():
    t = pi(0, theta(1, iota(0, iota(0, x))))
    with pytest.raises(FuelExhausted) as err:
        normalize(t, fuel=1)
    assert len(err.value.trace.steps) == 1


terms = st.recursive(
    st.sampled_from([x, y, z]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: Pair(*p)),
        inner.map(lambda t: pi(0, t)),
        inner.map(lambda t: iota(1, t)),
    ),
    max_leaves=8,
)


@given(st.lists(terms, max_size=6), st.lists(terms, max_size=6))
def test_multiset_union_commutes(ts1, ts2):
    a, b = TermMultiset(ts1), TermMultiset(ts2)
    assert union(a, b) == union(b, a)


@given(st.lists(terms, max_size=4), st.lists(terms, max_size=4), st.lists(terms, max_size=4))
def test_multiset_union_associates(ts1, ts2, ts3):
    a, b, c = TermMultiset(ts1), TermMultiset(ts2), TermMultiset(ts3)
    assert union(union(a, b), c) == union(a, union(b, c))


def test_step_absent_on_app_contexts_means_no_root_redex_below():
    # Outside pair components, a stuck term has no root redex anywhere.
    def subterms(t):
        yield t
        if isinstance(t, Pair):
            yield from subterms(t.t0)
            yield from subterms(t.t1)
        if isinstance(t, App):
            for a in t.args:
                yield from subterms(a)

    stuck = iota(0, pi(0, theta(2, x)))
    assert step(stuck) is not None  # the theta redex is reachable
    normal = iota(0, theta(2, pi(0, x)))
    assert step(normal) is None
    assert all(step_root(u) is None for u in subterms(normal))


# ---------------------------------------------------------------------------
# Termination: every redex instance decreases in a multiset path ordering.
# The precedence is (word length, head kind): theta above pi, pi above every
# other head, and a pair lowest; variables sit below every head.

ROUTE_STATES = 300


def _precedence(t):
    if isinstance(t, Var):
        return (0,)
    if isinstance(t, Pair):
        return (1,)
    kind = 2 if isinstance(t.fn, Theta) else 1 if isinstance(t.fn, DProj) else 0
    return (2, len(t.word), kind)


def _subterms(t):
    if isinstance(t, Pair):
        return (t.t0, t.t1)
    return t.args if isinstance(t, App) else ()


def _multiset_above(ss, ts):
    """The multiset extension: drop common members, then each remaining t
    lies below some remaining s."""
    ss, ts = list(ss), list(ts)
    for t in list(ts):
        if t in ss:
            ss.remove(t)
            ts.remove(t)
    return bool(ss) and all(any(mpo_above(s, t) for s in ss) for t in ts)


@lru_cache(maxsize=None)
def mpo_above(s, t):
    """s > t in the multiset path ordering."""
    if any(u == t or mpo_above(u, t) for u in _subterms(s)):
        return True
    ps, pt = _precedence(s), _precedence(t)
    if ps > pt:
        return all(mpo_above(s, u) for u in _subterms(t))
    return ps == pt and _multiset_above(_subterms(s), _subterms(t))


def test_path_ordering_basics():
    assert mpo_above(pi(0, x), x)
    assert mpo_above(theta(0, x), pi(0, x))
    assert mpo_above(pi(0, x, d=1), theta(0, x))
    assert not mpo_above(x, y) and not mpo_above(pi(0, x), pi(0, x))


def test_every_redex_instance_decreases_on_every_route():
    rules = set()
    for _, t, _ in generate_typed_terms(200, seed=202):
        start = TermMultiset([t])
        seen, todo = {start}, [start]
        while todo and len(seen) < ROUTE_STATES:
            ms = todo.pop()
            for u in set(ms.items):
                for rule, path, members in redexes(u):
                    rules.add(rule)
                    for member in members:
                        assert mpo_above(u, member), (rule, path, term_str(u))
            for new, _, _ in steps(ms):
                if new not in seen:
                    seen.add(new)
                    todo.append(new)
    assert len(rules) == 6  # every rule was checked

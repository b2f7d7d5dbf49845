"""Outside-in tracing of cohdiff's layers, from the benchmark's own files.

`Tracer.install()` replaces each traced function by a wrapper at every
binding it is reached through: module attributes (including names imported
with `from .x import f` into other cohdiff modules), and class attributes for
methods.  Each call records a span (name, start, end, parent) in flat arrays,
plus per-call properties such as "this compose had already been done".
`uninstall()` puts every original binding back.  Nothing inside `src/`
changes.

Time the tracer spends on its own bookkeeping (hashing map contents, pushing
spans) is subtracted from the span clock, so spans measure the traced code
and the wrapper call, not the property tests.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

from cohdiff import ccdc, gen, parser, pcs, poly, polymap, rewrite, semantics, syntax


def _content(f) -> int:
    """Hash of a map's content: spaces and entries, not its identity."""
    return hash((f.dom, f.cod, frozenset(f.entries.items())))


def is_relabel(f) -> bool:
    """Every nonzero coordinate of f is a single atom with coefficient 1."""
    outs = set()
    for (m, b), c in f.entries.items():
        if len(m) != 1 or c != 1 or b in outs:
            return False
        outs.add(b)
    return True


def is_linear(f) -> bool:
    """Every monomial of f has degree at most 1."""
    return all(len(m) <= 1 for m, _ in f.entries)


def _nodes(t) -> int:
    if isinstance(t, syntax.Var):
        return 1
    if isinstance(t, syntax.Pair):
        return 1 + _nodes(t.t0) + _nodes(t.t1)
    return 1 + sum(_nodes(a) for a in t.args)


class Tracer:
    """Spans and per-call properties for the traced functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 0 when the same name is already open
        self._stack: list[int] = []
        self._open: dict[int, int] = defaultdict(int)
        self._debt = 0.0
        self.sums: dict[str, float] = defaultdict(float)
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple] = []

    # -- clock and spans ----------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> str | None:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def begin_round(self) -> None:
        """Repeats are counted within one round, as within one process."""
        self._seen.clear()

    def seen(self, kind: str, key) -> bool:
        bucket = self._seen[kind]
        if key in bucket:
            return True
        bucket.add(key)
        return False

    def wrap(self, name: str, fn, pre=None, post=None):
        """A traced stand-in for fn.

        pre(args, kwargs) returns {flag: bool} and {counter: number} before
        the call; post(args, result, exc) returns {counter: number} after it.
        A true flag counts the call and its seconds under `name.flag`.
        """
        nid = self._name(name)
        clock = time.perf_counter

        def enter(args, kwargs):
            t = clock()
            flags, counts = pre(args, kwargs) if pre else ({}, {})
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.outer.append(0 if self._open[nid] else 1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._open[nid] += 1
            self._debt += clock() - t
            self.start[idx] = clock() - self._debt
            return idx, flags, counts

        def leave(idx, flags, counts, args, result, exc):
            end = clock() - self._debt
            t = clock()
            self.end[idx] = end
            self._stack.pop()
            self._open[nid] -= 1
            if post:
                counts.update(post(args, result, exc))
            dur = end - self.start[idx]
            for flag, on in flags.items():
                if on:
                    self.sums[f"{name}.{flag}"] += 1
                    self.sums[f"{name}.{flag}_s"] += dur
            for key, value in counts.items():
                self.sums[f"{name}.{key}"] += value
            self._debt += clock() - t

        if inspect.isgeneratorfunction(fn):
            # Spans a generator from its call to its exhaustion, which is
            # exact when the caller consumes it eagerly, as setup does.
            def traced_gen(*args, **kwargs):
                state = enter(args, kwargs)
                try:
                    yield from fn(*args, **kwargs)
                except BaseException as exc:
                    leave(*state, args, None, exc)
                    raise
                leave(*state, args, None, None)

            return traced_gen

        def traced(*args, **kwargs):
            state = enter(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                leave(*state, args, None, exc)
                raise
            leave(*state, args, result, None)
            return result

        return traced

    # -- installing ------------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, pre=None, post=None):
        """Replace module.attr at every binding in a cohdiff module that holds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, pre, post)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cohdiff" and not mod_name.startswith("cohdiff."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original, True))

    def patch_method(self, cls, attr: str, name: str, pre=None, post=None):
        """Replace a method on cls; inherited methods are shadowed, then removed."""
        own = attr in cls.__dict__
        original = getattr(cls, attr)
        setattr(cls, attr, self.wrap(name, original, pre, post))
        self._patches.append((cls, attr, original, own))

    def patch_laws(self):
        """Each law of ccdc.ALL_LAWS becomes its own `ccdc.law.<name>` span."""
        saved = list(ccdc.ALL_LAWS)
        for i, (law_name, law) in enumerate(saved):
            ccdc.ALL_LAWS[i] = (law_name, self.wrap(f"ccdc.law.{law_name}", law))
        self._patches.append((ccdc.ALL_LAWS, None, saved, True))

    def install(self) -> "Tracer":
        install_layers(self)
        return self

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if attr is None:
                owner[:] = original
            elif own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- reading ---------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds of outermost calls, self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if self.outer[i]:
                row["s"] += dur
        return out


# ---------------------------------------------------------------------------
# The traced layers and their per-call properties


def install_layers(tr: Tracer) -> None:
    def compose_pre(args, kwargs):
        g, f = args[0], args[1]
        repeat = tr.seen("compose", (_content(g), _content(f)))
        return (
            {"repeat": repeat, "relabel": is_relabel(f)},
            {"entries_in": len(g.entries) + len(f.entries)},
        )

    def entries_out(args, result, exc):
        return {"entries_out": len(result.entries) if result is not None else 0}

    def differential_pre(args, kwargs):
        return {"repeat": tr.seen("differential", _content(args[0]))}, {}

    def certify_pre(args, kwargs):
        candidate = args[1]
        expected = args[2] if len(args) > 2 else kwargs.get("expected")
        exact = expected is not None and candidate == expected
        return {"exact": exact, "linear": is_linear(candidate)}, {}

    def certify_post(args, result, exc):
        return {"refuted": 1 if result is False else 0}

    def cache_pre(args, kwargs):
        return {"hit": args[1] in args[0]._derived}, {}

    def interp_pre(args, kwargs):
        model, ctx, t = args[0], args[1], args[2]
        return {"hit": (ctx, t) in model._cache}, {}

    def parse_pre(args, kwargs):
        return {}, {"chars": len(args[0])}

    def differentiate_post(args, result, exc):
        if result is None or tr.current() == "syntax.differentiate":
            return {}
        return {"nodes_out": _nodes(result)}

    def normalize_post(args, result, exc):
        if isinstance(exc, rewrite.FuelExhausted):
            return {"steps": len(exc.trace.steps), "fuel_exhausted": 1}
        if result is None:
            return {}
        return {"steps": len(result[1].steps)}

    tr.patch_function(parser, "parse_program", "parser.parse_program", parse_pre)
    tr.patch_function(syntax, "typecheck", "syntax.typecheck")
    tr.patch_function(
        syntax, "differentiate", "syntax.differentiate", post=differentiate_post
    )
    tr.patch_function(rewrite, "normalize", "rewrite.normalize", post=normalize_post)
    tr.patch_function(
        polymap, "compose", "polymap.compose", compose_pre, entries_out
    )
    tr.patch_function(
        polymap, "differential", "polymap.differential", differential_pre,
        entries_out,
    )
    tr.patch_method(polymap.PolyMap, "eval", "polymap.eval")
    tr.patch_function(ccdc, "check_axioms", "ccdc.check_axioms")
    tr.patch_function(ccdc, "close_generators", "ccdc.close_generators")
    tr.patch_method(ccdc.Instance, "partial_derivative", "ccdc.partial_derivative")
    tr.patch_method(ccdc.Instance, "_cache", "ccdc.derived", cache_pre)
    tr.patch_laws()
    tr.patch_method(
        pcs.PcsInstance, "certify", "pcs.certify", certify_pre, certify_post
    )
    tr.patch_function(pcs, "membership", "pcs.membership")
    tr.patch_function(pcs, "probe_points", "pcs.probe_points")
    tr.patch_method(pcs.PcsInstance, "family_sum", "pcs.family_sum")
    tr.patch_method(poly.PolyInstance, "pair_witness", "poly.pair_witness")
    tr.patch_method(poly.PolyInstance, "family_sum", "poly.family_sum")
    tr.patch_function(semantics, "interp_term", "semantics.interp_term", interp_pre)
    tr.patch_function(semantics, "check_diff_theorem", "semantics.check_diff_theorem")
    tr.patch_function(semantics, "check_invariance", "semantics.check_invariance")
    tr.patch_function(semantics, "interp_multiset", "semantics.interp_multiset")
    tr.patch_function(gen, "generate_typed_terms", "gen.generate_typed_terms")
    tr.patch_function(gen, "law_generators", "gen.law_generators")


# ---------------------------------------------------------------------------
# Per-layer metrics


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark, as {name: (value, unit)}."""
    tot = tr.totals()
    sums = tr.sums
    out: dict[str, tuple[float, str]] = {}

    def row(name):
        return tot.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def put(metric, value, unit):
        out[metric] = (value, unit)

    def calls(name):
        put(f"{name}.calls", row(name)["calls"], "count")

    def secs(name, key="s"):
        put(f"{name}.{key}", row(name)[key], "s")

    def flag(name, key):
        put(f"{name}.{key}_share", _share(sums[f"{name}.{key}"], row(name)["calls"]),
            "share")

    def flag_s(name, key):
        put(f"{name}.{key}_s", sums[f"{name}.{key}_s"], "s")

    def count(name, key, metric=None):
        put(metric or f"{name}.{key}", sums[f"{name}.{key}"], "count")

    calls("parser.parse_program")
    secs("parser.parse_program")
    put("parser.chars_per_s", _share(sums["parser.parse_program.chars"],
                                     row("parser.parse_program")["s"]), "chars/s")

    for name in ("syntax.typecheck", "syntax.differentiate"):
        calls(name)
        secs(name, "self_s")
    count("syntax.differentiate", "nodes_out")

    calls("rewrite.normalize")
    secs("rewrite.normalize", "self_s")
    count("rewrite.normalize", "steps", "rewrite.steps")
    count("rewrite.normalize", "fuel_exhausted", "rewrite.fuel_exhausted")

    c = "polymap.compose"
    calls(c)
    secs(c)
    secs(c, "self_s")
    count(c, "entries_in")
    count(c, "entries_out")
    for key in ("repeat", "relabel"):
        flag(c, key)
        flag_s(c, key)
    d = "polymap.differential"
    calls(d)
    secs(d, "self_s")
    count(d, "entries_out")
    flag(d, "repeat")
    flag_s(d, "repeat")
    calls("polymap.eval")
    secs("polymap.eval", "self_s")

    secs("ccdc.check_axioms")
    secs("ccdc.close_generators")
    put("ccdc.law_cases",
        sum(v["calls"] for k, v in tot.items() if k.startswith("ccdc.law.")), "count")
    calls("ccdc.partial_derivative")
    secs("ccdc.partial_derivative")
    calls("ccdc.derived")
    flag("ccdc.derived", "hit")
    for law_name, _ in ccdc.ALL_LAWS:
        secs(f"ccdc.law.{law_name}")

    cert = "pcs.certify"
    calls(cert)
    secs(cert)
    secs(cert, "self_s")
    for key in ("exact", "linear"):
        flag(cert, key)
        flag_s(cert, key)
    count(cert, "refuted")
    calls("pcs.membership")
    secs("pcs.membership", "self_s")
    calls("pcs.probe_points")
    calls("pcs.family_sum")

    calls("poly.pair_witness")
    calls("poly.family_sum")

    calls("semantics.interp_term")
    secs("semantics.interp_term", "self_s")
    flag("semantics.interp_term", "hit")
    secs("semantics.check_diff_theorem")
    secs("semantics.check_invariance")
    calls("semantics.interp_multiset")

    secs("gen.generate_typed_terms")
    secs("gen.law_generators")
    return out

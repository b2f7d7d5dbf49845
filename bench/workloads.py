"""The benchmark's four workloads: seeded inputs, a verdict, and its checks.

A workload runs in rounds.  `setup(seed)` builds one round's inputs (models,
law generators, corpora, program text); `verdict(inputs, items)` runs every
item of the round in a closed loop, one after the other, records each item's
latency and whether its outcome matches the known answer, and returns the
rendered output lines of the round.

Known answers: every law passes, except that the corrupted-sigma control
fails D-zero with a counterexample; every theorem holds; no reduction runs
out of fuel; a term printed and parsed back is the term generated; the
derivative's type is D of the term's type.  Rendered lines are compared
with `golden/<workload>.txt`, recorded with `record_golden.py`.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from cohdiff import ccdc, gen, parser, pcs, rewrite, semantics, syntax

GOLDEN = Path(__file__).resolve().parent / "golden"

LAW_CASES = 7  # cases per law in one axioms round: 232 items
POOL_SEEDS = {"pcs": 404, "poly": 707}  # criteria 4 and 7 of the acceptance suite
CONTROL_LAW = "D-zero"
WITNESS_PAIRS = 100  # parallel pairs per round for poly's total summability
CORPUS_SEED = 202  # the acceptance corpus of criteria 2 and 3
CORPUS_SIZE = 200
PROGRAM_TERMS = 200  # terms per frontend program, one item each
NAMES = [v for v, _ in gen.DEFAULT_CONTEXT]


def reference_work() -> None:
    """A fixed task outside cohdiff: Fraction arithmetic, tuple sorting and
    dict updates, the mix the checker spends its time on.  Its timing tracks
    how fast the machine runs Python at that moment."""
    acc: dict = {}
    for i in range(6000):
        key = tuple(sorted(((i * 7) % 13, (i * 3) % 11, i % 5)))
        acc[key] = acc.get(key, Fraction(0)) + (
            Fraction(i % 9 + 1, i % 7 + 2) * Fraction(3, i % 4 + 5))


class Items:
    """Per-item latencies and failures, across every round of a run.

    With probing on, reference_work() runs between items at most every
    PROBE_EVERY seconds; its timings are kept in `probes`, and the time it
    takes in `probe_s`, so that verdict times can leave it out.
    """

    PROBE_EVERY = 0.5

    def __init__(self, probe: bool = False):
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.probes: list[float] = []
        self.probe_s = 0.0
        self._next_probe = 0.0 if probe else math.inf

    def record(self, seconds: float, ok: bool, what: str) -> None:
        self.latencies.append(seconds)
        if not ok:
            self.failed += 1
            self.problem(what)
        if time.perf_counter() >= self._next_probe:
            self.probe()

    def probe(self) -> None:
        t = time.perf_counter()
        reference_work()
        took = time.perf_counter() - t
        self.probes.append(took)
        self.probe_s += took
        self._next_probe = time.perf_counter() + self.PROBE_EVERY

    def problem(self, what: str) -> None:
        """A wrong output; record() also counts it against its item."""
        self.errors.append(what)


def round_seed(seed: int, k: int) -> int:
    """Seed of round k; runs with different seeds share no round."""
    return seed + k * 1_000_003


def golden_lines(name: str) -> list[str]:
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8").splitlines()


# ---------------------------------------------------------------------------
# axioms-pcs and axioms-poly


@dataclass
class AxiomInputs:
    seed: int
    model: semantics.Model
    pool: list  # law generators closed under composition, pairing and D
    multis: list
    objs: list
    control: tuple | None = None  # (instance, pool, multis, objs) for pcs


def _closed_pool(model: semantics.Model, pool_seed: int):
    gens, multis, objs = gen.law_generators(model, seed=pool_seed)
    pool = ccdc.close_generators(model.inst, gens, random.Random(pool_seed))
    return pool, multis, objs


def _timed_laws(items: Items, laws):
    def timed(name, law):
        def case(env):
            t = time.perf_counter()
            try:
                out = law(env)
            except Exception as exc:  # a case that raises is a failed item
                out = f"raised {exc!r}"
            items.record(time.perf_counter() - t, out is None, f"law {name}: {out}")
            return out

        return case

    return [(name, timed(name, law)) for name, law in laws]


def axioms_setup(backend: str, seed: int) -> AxiomInputs:
    """The acceptance pool of the backend; the seed draws the law cases.

    The pool is fixed because pools closed from other seeds can hold maps
    whose composites are too large to check in a run's time: with the poly
    pool of seed 4000719 one D-chain case takes 35 s (Xeon, 2.1 GHz) and
    500 MB.
    """
    if backend == "pcs":
        model = gen.default_pcs_model()
    else:
        model = gen.default_poly_model()
    pool_seed = POOL_SEEDS[backend]
    inputs = AxiomInputs(seed, model, *_closed_pool(model, pool_seed))
    if backend == "pcs":
        corrupt = pcs.corrupted_sigma_instance()
        control_model = gen._build_model(corrupt, gen.truncated_nat())
        inputs.control = (corrupt, *_closed_pool(control_model, pool_seed))
    return inputs


def _config(seed: int) -> ccdc.LawConfig:
    """Cases drawn from the seed over a pool that is already closed."""
    return ccdc.LawConfig(seed, LAW_CASES, closure_depth=0)


def control_lines(inputs: AxiomInputs, items: Items) -> list[str]:
    """The corrupted-sigma control: D-zero must fail with a counterexample."""
    inst, pool, multis, objs = inputs.control
    laws = [(n, law) for n, law in ccdc.ALL_LAWS if n == CONTROL_LAW]
    t = time.perf_counter()
    report = ccdc.check_axioms(inst, pool, multis, objs, _config(inputs.seed),
                               laws=laws)
    result = report.result(CONTROL_LAW)
    ok = not result.passed and bool(result.counterexample)
    items.record(time.perf_counter() - t, ok, "control did not fail D-zero")
    return report.render_lines()


def axioms_verdict(inputs: AxiomInputs, items: Items) -> list[str]:
    inst = inputs.model.inst
    report = ccdc.check_axioms(
        inst, inputs.pool, inputs.multis, inputs.objs, _config(inputs.seed),
        laws=_timed_laws(items, ccdc.ALL_LAWS),
    )
    lines = report.render_lines()
    # Passing laws render without the seed, so every round's lines are golden.
    expected = [f"LAW {name} PASS cases={LAW_CASES}" for name, _ in ccdc.ALL_LAWS]
    if lines != expected:
        items.problem(f"{inst.name} laws: {[r.name for r in report.results if not r.passed]}")
    if inputs.control is not None:
        lines += control_lines(inputs, items)
    else:
        lines += [witness_total(inputs, items)]
    return lines


def witness_total(inputs: AxiomInputs, items: Items) -> str:
    """Criterion 7: pair_witness is never absent on parallel pairs."""
    t = time.perf_counter()
    inst = inputs.model.inst
    rng = random.Random(inputs.seed)
    total = 0
    for _ in range(WITNESS_PAIRS):
        f = rng.choice(inputs.pool)
        g = rng.choice([h for h in inputs.pool if h.dom == f.dom and h.cod == f.cod])
        total += inst.pair_witness(f, g) is not None
    items.record(time.perf_counter() - t, total == WITNESS_PAIRS,
                 "pair_witness absent on a parallel pair")
    return f"WITNESS total {total}/{WITNESS_PAIRS}"


# ---------------------------------------------------------------------------
# theorems


@dataclass
class TheoremInputs:
    pcs_model: semantics.Model
    poly_model: semantics.Model
    corpus: list
    order: list[int]


def theorems_setup(seed: int) -> TheoremInputs:
    """The acceptance corpus, checked in an order drawn from the seed.

    The corpus is fixed because the cost of a generated term has no useful
    bound: one term of generate_typed_terms(400, seed=2, max_depth=4) takes
    55 s (Xeon, 2.1 GHz), more than a run may last.
    """
    corpus = list(gen.generate_typed_terms(CORPUS_SIZE, seed=CORPUS_SEED))
    order = list(range(len(corpus)))
    random.Random(seed).shuffle(order)
    return TheoremInputs(gen.default_pcs_model(), gen.default_poly_model(), corpus,
                         order)


def theorems_verdict(inputs: TheoremInputs, items: Items) -> list[str]:
    by_index: dict[int, list[str]] = {}
    for i in inputs.order:
        ctx, t, _ = inputs.corpus[i]
        start = time.perf_counter()
        x = NAMES[i % len(NAMES)]
        try:
            verdicts = [
                semantics.check_diff_theorem(inputs.pcs_model, ctx, t, x),
                semantics.check_diff_theorem(inputs.poly_model, ctx, t, x),
                semantics.check_invariance(inputs.pcs_model, ctx, t,
                                           rewrite.DEFAULT_FUEL),
            ]
        except Exception as exc:  # a term that raises is a failed item
            by_index[i] = [f"error on term {i}: {exc!r}"]
            ok = False
        else:
            ok = all(v.holds for v in verdicts) and not verdicts[2].fuel_exhausted
            by_index[i] = [f"[{tag}] {v.render()}"
                           for tag, v in zip(("pcs", "poly", "pcs"), verdicts)]
        items.record(time.perf_counter() - start, ok, f"theorem on term {i}")
    return [line for i in sorted(by_index) for line in by_index[i]]


# ---------------------------------------------------------------------------
# frontend


@dataclass
class FrontendInputs:
    terms: list
    text: str


def _program_text(terms) -> str:
    sig = gen.default_signature()
    lines = [f"fn {name} : {ftype};" for name, ftype in sig.decls.items()]
    for i, (ctx, t, _) in enumerate(terms):
        binders = ", ".join(f"{v}: {syntax.type_str(ty)}" for v, ty in ctx)
        lines.append(f"term t{i} [{binders}] = {syntax.term_str(t)};")
    return "\n".join(lines) + "\n"


def frontend_setup(seed: int) -> FrontendInputs:
    terms = list(gen.generate_typed_terms(PROGRAM_TERMS, seed=seed))
    return FrontendInputs(terms, _program_text(terms))


def frontend_verdict(inputs: FrontendInputs, items: Items) -> list[str]:
    program = parser.parse_program(inputs.text)
    if program.signature.decls != gen.default_signature().decls:
        items.problem("parsed signature differs from the generated one")
    lines: list[str] = []
    for i, (ctx, t, _) in enumerate(inputs.terms):
        start = time.perf_counter()
        name = f"t{i}"
        try:
            ok = _frontend_item(program, name, ctx, t, NAMES[i % len(NAMES)], lines)
        except Exception as exc:  # a term that raises is a failed item
            lines.append(f"error on {name}: {exc!r}")
            ok = False
        items.record(time.perf_counter() - start, ok, f"frontend term {name}")
    return lines


def _frontend_item(program, name, ctx, t, x, lines) -> bool:
    """check, diff and reduce --trace on one parsed term, as the CLI prints them."""
    sig = program.signature
    pctx, pt = program.terms[name]
    ok = pctx == ctx and pt == t
    ty = syntax.typecheck(sig, pctx, pt)
    dt = syntax.differentiate(pt, x)
    dctx = tuple((v, syntax.d_type(vt) if v == x else vt) for v, vt in pctx)
    dty = syntax.typecheck(sig, dctx, dt)
    ok = ok and dty == syntax.d_type(ty)
    lines.append(f"term {name} : {syntax.type_str(ty)}")
    lines.append(f"d {name} / d {x} = {syntax.term_str(dt)}")
    lines.append(f"type : {syntax.type_str(dty)}")
    try:
        final, trace = rewrite.normalize(pt, rewrite.DEFAULT_FUEL)
    except rewrite.FuelExhausted as exc:
        lines.append(f"fuel exhausted after {len(exc.trace.steps)} steps")
        return False
    lines.append(f"start : {trace.initial.render()}")
    lines.extend(trace.render_lines())
    lines.append(f"normal : {final.render()} ({len(trace.steps)} steps)")
    return ok


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    default_seed: int
    setup: Callable  # seed -> inputs
    verdict: Callable  # (inputs, Items) -> output lines
    trace_rounds: int  # rounds in a traced run, so traced counts repeat exactly
    fixed_golden: bool  # every round's lines equal the golden file

    def golden_check(self, seed: int, lines: list[str]) -> bool:
        """Compare a round's lines, or a default-seed round, with the golden file."""
        expected = golden_lines(self.name)
        if self.fixed_golden:
            return lines == expected
        if seed != self.default_seed:
            lines = self.verdict(self.setup(self.default_seed), Items())
        return lines == expected


WORKLOADS = {
    w.name: w
    for w in (
        Workload("axioms-pcs", 404, lambda s: axioms_setup("pcs", s), axioms_verdict,
                 4, False),
        Workload("axioms-poly", 707, lambda s: axioms_setup("poly", s),
                 axioms_verdict, 8, True),
        Workload("theorems", 202, theorems_setup, theorems_verdict, 1, True),
        Workload("frontend", 303, frontend_setup, frontend_verdict, 10, False),
    )
}

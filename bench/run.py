"""Benchmark: how long cohdiff's users wait for a verdict, end to end and by layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py): axioms-pcs, axioms-poly, theorems, frontend.
One process, one thread, closed loop: each item starts when the previous
verdict is in.  A run repeats rounds (fresh set-up, then the verdict of every
item) until `--seconds` is used up; round k draws its inputs from the seed and
k, so a run covers several independent inputs.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics:

- setup_s: import of the package plus the median round set-up;
- verdict_s: the median round verdict;
- item_p50_ms, item_p95_ms: per-item latency, each the median over rounds of
  the round's quantile (rounds hold at least 200 items);
- rss_mb: resident memory at the end of a round's verdict, with its models
  and caches alive, median over rounds.

A shared host can change speed by 1.7x for tens of seconds at a time (seen
on a 2-vCPU Intel Xeon at 2.1 GHz), which no median within a run removes.
So the run also times a fixed reference task outside cohdiff
(workloads.reference_work) every half second between items, and every time
above is scaled by REFERENCE_S / (median reference time of the run): the
values are seconds on a machine where the reference takes REFERENCE_S.  On
that host this cut the spread between runs from 16-27% to 5-15% on three
workloads and raised it on theorems (12% to 20%), whose large heap slows
less than the reference in slow spells.  Probe time is left out of every
timing; the raw median verdict is printed for comparison.

With `--trace 1` it runs a fixed number of rounds untraced, the same rounds
traced (tracing.py), and times the README commands in fresh interpreters;
the JSON then holds the per-layer metrics, unscaled.  Every run checks its
outputs against known answers and golden files; failed items are reported as
`failed` of `attempted`.

The package is imported from `src/` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("axioms-pcs", "axioms-poly", "theorems", "frontend")

# README one-shot commands, timed as fresh interpreter processes.
CLI_COMMANDS = {
    "check": ["check", "demo/basic.cohdiff"],
    "diff": ["diff", "demo/basic.cohdiff", "--term", "u", "--var", "x"],
    "reduce": ["reduce", "demo/basic.cohdiff", "--term", "v", "--trace"],
    "eval": ["eval", "demo/nat.cohdiff", "--model", "demo/nat.pcsmodel",
             "--term", "branch", "--at", "L.0=1,R.L.1=1/2"],
}
CLI_REPEATS = 5
SETUP_REPEATS = 5
# Seconds reference_work() takes on the machine the values are scaled to: an
# Intel Xeon at 2.1 GHz running Python 3.11 in its faster spells.
REFERENCE_S = 0.03


def run_rounds(wl, seed, items, seconds=None, rounds=None, tracer=None):
    """Rounds of (set-up, verdict) until the time or round count is reached.

    Returns the set-up and verdict seconds of each round, each round's item
    latencies, its resident memory at the end of the verdict, and the output
    lines of round 0.
    """
    from workloads import round_seed

    setups, verdicts, latencies, rss, first_lines = [], [], [], [], None
    begin = time.perf_counter()
    k = 0
    while True:
        if tracer is not None:
            tracer.begin_round()
        t0 = time.perf_counter()
        inputs = wl.setup(round_seed(seed, k))
        t1 = time.perf_counter()
        n0, probed = len(items.latencies), items.probe_s
        lines = wl.verdict(inputs, items)
        t2 = time.perf_counter()
        rss.append(resident_mb())
        del inputs
        setups.append(t1 - t0)
        verdicts.append(t2 - t1 - (items.probe_s - probed))
        latencies.append(items.latencies[n0:])
        if first_lines is None:
            first_lines = lines
        elif wl.fixed_golden and lines != first_lines:
            items.problem(f"round {k} output differs from round 0")
        k += 1
        if rounds is not None:
            if k >= rounds:
                break
        else:
            typical = statistics.median(s + v for s, v in zip(setups, verdicts))
            if time.perf_counter() - begin + typical > seconds:
                break
    return setups, verdicts, latencies, rss, first_lines


def resident_mb() -> float:
    """Resident set size of this process now, from /proc/self/statm."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def round_quantile(latencies, q):
    """Median over rounds of each round's q-quantile, in milliseconds.

    Per-round quantiles keep a slow spell of the machine inside the rounds
    it hit; every round holds at least 200 items, so a p95 has at least ten
    samples beyond it.
    """
    per_round = [statistics.quantiles(lat, n=100)[round(q * 100) - 1]
                 for lat in latencies]
    return statistics.median(per_round) * 1e3


def cli_metrics(items) -> dict:
    """cli.<command>.s for the README commands and cli.import_s, one at a time."""
    from workloads import golden_lines

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    env.pop("COHDIFF_FUEL", None)
    out: dict = {}
    outputs: list[str] = []
    for name, argv in CLI_COMMANDS.items():
        times = []
        for _ in range(CLI_REPEATS):
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "cohdiff.cli", *argv], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=60,
            )
            times.append(time.perf_counter() - t)
            if proc.returncode != 0:
                items.problem(f"cli {name} exited {proc.returncode}: {proc.stderr[-200:]}")
        outputs += [f"$ cohdiff {' '.join(argv)}", *proc.stdout.splitlines()]
        out[f"cli.{name}.s"] = (statistics.median(times), "s")
    if outputs != golden_lines("cli"):
        items.problem("cli output differs from golden/cli.txt")
    probe = "import time; t = time.perf_counter(); import cohdiff.cli; " \
            "print(time.perf_counter() - t)"
    times = []
    for _ in range(CLI_REPEATS):
        proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            items.problem(f"import cohdiff.cli failed: {proc.stderr[-200:]}")
            continue
        times.append(float(proc.stdout))
    out["cli.import_s"] = (statistics.median(times) if times else 0.0, "s")
    return out


def zero_call_checks(name: str, metrics: dict, items) -> None:
    """Layers a workload must not reach; a hit means a missed binding or a leak."""
    expect_zero = {
        "frontend": ("polymap.compose.calls", "pcs.certify.calls"),
        "axioms-poly": ("pcs.certify.calls",),
    }.get(name, ())
    for metric in expect_zero:
        if metrics[metric][0] != 0:
            items.problem(f"{name} made {metrics[metric][0]} {metric}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cohdiff" / "__init__.py").is_file():
        print(f"error: no cohdiff sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import cohdiff  # noqa: F401  (timed: import is part of set-up)
    import workloads
    import_s = time.perf_counter() - t0
    if Path(cohdiff.__file__).resolve().parent != SRC / "cohdiff":
        print(f"error: imported cohdiff from {cohdiff.__file__}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    items = workloads.Items(probe=not args.trace)
    metrics: dict = {}
    if args.trace:
        import tracing

        _, plain, _, _, lines = run_rounds(wl, seed, items, rounds=wl.trace_rounds)
        tracer = tracing.Tracer().install()
        try:
            _, traced, _, _, _ = run_rounds(wl, seed, items,
                                            rounds=wl.trace_rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics.update(tracing.layer_metrics(tracer))
        metrics.update(cli_metrics(items))
        metrics["trace.overhead"] = (sum(traced) / sum(plain), "ratio")
        zero_call_checks(wl.name, metrics, items)
    else:
        for _ in range(3):
            items.probe()
        setups, verdicts, latencies, rss, lines = run_rounds(
            wl, seed, items, seconds=args.seconds)
        while len(setups) < SETUP_REPEATS:
            t = time.perf_counter()
            wl.setup(workloads.round_seed(seed, len(setups)))
            setups.append(time.perf_counter() - t)
        for _ in range(3):
            items.probe()
        speed = REFERENCE_S / statistics.median(items.probes)
        metrics = {
            "setup_s": ((import_s + statistics.median(setups)) * speed, "s"),
            "verdict_s": (statistics.median(verdicts) * speed, "s"),
            "item_p50_ms": (round_quantile(latencies, 0.50) * speed, "ms"),
            "item_p95_ms": (round_quantile(latencies, 0.95) * speed, "ms"),
            "rss_mb": (statistics.median(rss), "MB"),
        }
        print(f"{wl.name} seed {seed}: {len(verdicts)} rounds, "
              f"{len(items.latencies)} items, "
              f"at least {min(map(len, latencies))} a round; "
              f"{len(items.probes)} reference probes, speed factor {speed:.4f}; "
              f"raw verdict_s {statistics.median(verdicts):.6g} s")
    if not wl.golden_check(seed, lines):
        items.problem(f"output differs from golden/{wl.name}.txt")

    attempted = len(items.latencies)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {items.failed / attempted:.6g} "
          f"({items.failed} of {attempted} items)")
    for problem in items.errors[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not items.errors,
        "attempted": attempted,
        "failed": items.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

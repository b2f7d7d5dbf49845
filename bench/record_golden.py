"""Record the golden outputs that run.py compares against.

    python3 bench/record_golden.py

Writes golden/<workload>.txt (round 0 at the workload's default seed) and
golden/cli.txt (the README commands).  Re-record only when an output is
meant to change; the benchmark exists to notice when one does by accident.
"""

from __future__ import annotations

import os
import subprocess
import sys

from run import CLI_COMMANDS, ROOT, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.GOLDEN.mkdir(exist_ok=True)
    for wl in workloads.WORKLOADS.values():
        items = workloads.Items()
        lines = wl.verdict(wl.setup(wl.default_seed), items)
        if items.errors:
            raise SystemExit(f"{wl.name}: {items.errors}")
        (workloads.GOLDEN / f"{wl.name}.txt").write_text(
            "\n".join(lines) + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("COHDIFF_FUEL", None)
    lines = []
    for argv in CLI_COMMANDS.values():
        proc = subprocess.run([sys.executable, "-m", "cohdiff.cli", *argv],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              check=True)
        lines += [f"$ cohdiff {' '.join(argv)}", *proc.stdout.splitlines()]
    (workloads.GOLDEN / "cli.txt").write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

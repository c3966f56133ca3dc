"""Time the CLI's own work in two checkouts, side by side.

    python tools/cli_timing.py PARENT_ROOT CHANGE_ROOT --pairs K -- ARGV...

Each run is a fresh interpreter with ROOT/src first on its path.  It
imports `youngops.cli`, then times `cli.main(ARGV)` alone, with its
stdout discarded, so interpreter start-up and imports are left out.
Each of the K pairs runs both sides once, and the pairs alternate which
side runs first, so a drift in the machine's speed falls on both.

Prints, per side, the median, quartiles and minimum in ms, and how many
runs took under 50 ms: perfbench samples the machine's speed every
50 ms, so a repetition that short can end with no speed sample.  A last
line says whether the change's median lies inside the parent's
interquartile range.  Exits 1 when the two sides' exit codes differ in
any pair, else 0.
"""
from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

# perfbench's speed-sampling period, in ms.
TICK_MS = 50.0

# Run in the child: argv is ROOT, then the CLI's argv.  Prints the
# seconds `cli.main` took and its exit code.
_CHILD = """\
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from youngops import cli
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
    elapsed = time.perf_counter() - start
print(elapsed, code)
"""


def time_once(root: Path, argv: list[str]) -> tuple[float, str]:
    """(ms in `cli.main`, exit code) of one run in a fresh interpreter;
    -I keeps the environment's path and settings out, -B the bytecode
    caches out of the checkout."""
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _CHILD, str(root), *argv],
        capture_output=True, text=True, check=True)
    seconds, code = proc.stdout.split()
    return float(seconds) * 1000.0, code


def summary(ms: list[float]) -> tuple[float, float, float, float]:
    """(median, lower quartile, upper quartile, minimum)."""
    q1, med, q3 = (statistics.quantiles(ms, n=4, method="inclusive")
                   if len(ms) > 1 else ms * 3)
    return med, q1, q3, min(ms)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        usage="%(prog)s PARENT_ROOT CHANGE_ROOT [--pairs K] -- ARGV...",
        description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="parent checkout root")
    parser.add_argument("change", type=Path, help="changed checkout root")
    parser.add_argument("--pairs", type=int, default=14,
                        help="alternating pairs of runs (default 14)")
    if "--" not in argv:
        parser.error("give the youngops argv after --")
    split = argv.index("--")
    args, cli = parser.parse_args(argv[:split]), argv[split + 1:]
    if args.pairs < 1 or not cli:
        parser.error("need --pairs >= 1 and a youngops argv after --")
    sides = {"parent": args.parent.resolve(),
             "change": args.change.resolve()}
    ms = {side: [] for side in sides}
    codes = {side: [] for side in sides}
    for k in range(args.pairs):
        for side in (("parent", "change") if k % 2 == 0
                     else ("change", "parent")):
            t, code = time_once(sides[side], cli)
            ms[side].append(t)
            codes[side].append(code)
    stats = {side: summary(ms[side]) for side in sides}
    for side, (med, q1, q3, low) in stats.items():
        under = sum(t < TICK_MS for t in ms[side])
        print(f"{side}: median {med:.1f} ms, IQR {q1:.1f}-{q3:.1f}, "
              f"min {low:.1f}, under {TICK_MS:.0f} ms: {under}/{args.pairs}, "
              f"exit {','.join(sorted(set(codes[side])))}")
    med, (_, q1, q3, _) = stats["change"][0], stats["parent"]
    print(f"change median inside the parent's IQR: "
          f"{'yes' if q1 <= med <= q3 else 'no'}")
    if codes["parent"] != codes["change"]:
        print("exit codes differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the youngops CLI once while sampling the machine's speed.

Usage (from the repository root, with src on PYTHONPATH):

    python3 perfbench/calibrated_child.py SAMPLES_PATH -- verify --n 4 ...

Every TICK_S of real time a SIGALRM handler times the loop of speed.py
between two bytecodes of the CLI.  The CLI runs on one thread, does not
use signals, and its stdout and stderr are its own.  The loop durations
are written to SAMPLES_PATH, one JSON list, when the CLI returns; the
caller subtracts their sum from the wall time and rescales the rest to
the reference speed.
"""
from __future__ import annotations

import json
import signal
import sys

import youngops.cli
from speed import loop_s

# 50 ms between samples and a loop of about 2.5 ms: some 5 % overhead,
# and 20 samples per second of the run.
TICK_S = 0.05


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: calibrated_child.py SAMPLES_PATH -- CLI_ARGS...",
              file=sys.stderr)
        return 2
    samples_path, cli_args = argv[0], argv[2:]
    samples: list[float] = []
    busy = False

    def tick(signum, frame) -> None:
        # A tick that arrives while a slow sample is still running is
        # dropped rather than nested inside it.
        nonlocal busy
        if not busy:
            busy = True
            samples.append(loop_s())
            busy = False

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        return youngops.cli.main(cli_args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdout.flush()
        with open(samples_path, "w") as f:
            json.dump(samples, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

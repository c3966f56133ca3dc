"""youngops benchmark: time `youngops verify` workloads from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the CLI in a fresh interpreter, one at a time, so
the module-level P_T memo starts cold, as it does for every CLI user.
Every repetition passes the correctness gate in gate.py or counts all
of its checks as failed.

--trace 0 reports the end-to-end metrics: ref_wall_s, setup_s,
peak_rss_mb and checks_passed_frac.  ref_wall_s is the wall time
rescaled to a fixed machine speed sampled while the CLI runs
(speed.py), because the shared machine's own speed swings by up to 2x.

--trace 1 runs rounds of one untraced and one traced repetition (the
seed orders each pair) and reports the per-layer metrics derived from
the spans of traced_child.py.

Units of work (a repetition with its set-up samples, or a round) run
while the next one is expected to end within --seconds; there are
always at least MIN_UNITS, so that a slow stretch of the shared machine
does not leave a single sample.  Human-readable lines go first; the
last line of stdout is the JSON result.  A full record, with every
sample, is written under perfbench/.work/results/.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import spans as spanlib
import speed
from gate import checks_failed, gate_problems
from workloads import REPORTED_SUITES, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"

# The whole run must end well inside 180 s; a child still running at
# this point is killed and its repetition fails the gate.
RUN_DEADLINE_S = 170.0
SETUP_PER_UNIT = 5
# Least number of units per run, by --trace.
MIN_UNITS = {0: 2, 1: 1}
SETUP_COMMAND = ("-c", "import youngops")
# Compiles every module a repetition loads, __main__ included, into the
# bytecode cache before anything is timed.
WARM_UP_COMMAND = ("-m", "youngops", "--help")

# Span names (see traced_child.py) behind the per-layer metric names.
MUL = "sn_algebra.AlgebraElement.__mul__"
HERMITIAN = "sn_algebra.hermitian_young"
MATMUL = "tensor_rep.TensorOperator.__matmul__"
CALLS_AND_SELF = {
    "tableaux.enumerate_syt": "tableaux.enumerate_syt",
    "sn_algebra.mul": MUL,
    "sn_algebra.hermitian_young": HERMITIAN,
    "sn_algebra.young_operator": "sn_algebra.young_operator",
    "sn_algebra.trace_polynomial": "sn_algebra.AlgebraElement.trace_polynomial",
    "sn_algebra.eq": "sn_algebra.AlgebraElement.__eq__",
    "sn_algebra.partial_trace": "sn_algebra.AlgebraElement.partial_trace",
    "tensor_rep.matmul": MATMUL,
    "tensor_rep.realize": "tensor_rep.realize",
    "tensor_rep.rank": "tensor_rep.TensorOperator.rank",
    "tensor_rep.partial_trace": "tensor_rep.TensorOperator.partial_trace",
    "tensor_rep.eq": "tensor_rep.TensorOperator.__eq__",
    "tensor_rep.add": "tensor_rep.TensorOperator.__add__",
}
SELF_ONLY = {
    "tensor_rep.orthogonality_report": "tensor_rep.orthogonality_report",
    "verify.run_verification": "verify.run_verification",
    "cli.main": "cli.main",
}
LIBRARY_LAYERS = ("tableaux", "polynomial", "sn_algebra", "tensor_rep")
NO_WAIT_NOTE = ("no layer waits: the CLI runs on one thread with no queue, "
                "so no wait time is reported")

_TIMING = re.compile(r"^# timing suite=(\S+) ms=([0-9.]+)$", re.M)


class SetupError(Exception):
    """The program cannot be run from this directory."""


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: str


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "HY_MAX_N"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(WORK_DIR / "pycache"))
    return env


def run_child(args: list[str], deadline: float) -> ChildRun:
    """Run `python3 args...` to completion and measure it from outside.

    Wall time runs from just before the process starts until it has
    been reaped; CPU time and peak RSS come from its own rusage.
    """
    out_path, err_path = WORK_DIR / "child.stdout", WORK_DIR / "child.stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                   proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildRun(returncode=proc.returncode, wall_s=wall,
                        cpu_s=usage.ru_utime + usage.ru_stime,
                        peak_rss_mb=usage.ru_maxrss / 1024.0,
                        stdout=out.read(),
                        stderr=err.read().decode("utf-8", "replace"))


def setup_sample(deadline: float, command=SETUP_COMMAND) -> float:
    run = run_child(list(command), deadline)
    if run.returncode != 0:
        raise SetupError(f"`python3 {' '.join(command)}` exited "
                         f"{run.returncode}:\n{run.stderr.strip()}")
    return run.wall_s


@dataclass
class Repetition:
    traced: bool
    run: ChildRun
    problems: list[str]
    failed: int
    spans: spanlib.Spans | None = None
    # Speed loop durations taken during a calibrated repetition.
    speed: list[float] | None = None

    def ref_wall_s(self) -> float:
        """Wall time less the speed loops, at the reference speed."""
        return speed.to_reference(self.run.wall_s - sum(self.speed),
                                  self.speed)


def repetition(workload: Workload, rep: int, traced: bool,
               deadline: float, calibrated: bool = False) -> Repetition:
    """One CLI run: traced, calibrated (speed sampled inside it), or plain."""
    spans_path = WORK_DIR / "spans.bin"
    speed_path = WORK_DIR / "speed.json"
    if traced:
        spans_path.unlink(missing_ok=True)
        args = [str(BENCH_DIR / "traced_child.py"), str(spans_path), str(rep),
                "--", *workload.argv]
    elif calibrated:
        speed_path.unlink(missing_ok=True)
        args = [str(BENCH_DIR / "calibrated_child.py"), str(speed_path),
                "--", *workload.argv]
    else:
        args = ["-m", "youngops", *workload.argv]
    run = run_child(args, deadline)
    problems = gate_problems(workload, run.returncode, run.stdout)
    result = Repetition(traced, run, problems,
                        checks_failed(workload, problems))
    if traced and not problems:
        result.spans = spanlib.load(str(spans_path))
    if calibrated and not problems:
        result.speed = json.loads(speed_path.read_text())
        if not result.speed:
            result.problems.append("no speed samples were taken")
            result.failed = workload.expected_checks
    return result


def suite_wall_s(stderr: str) -> dict[str, float]:
    return {name: float(ms) / 1000.0 for name, ms in _TIMING.findall(stderr)}


def layer_metrics(untraced: Repetition, traced: Repetition) -> dict[str, float]:
    """Per-layer metrics of one round: spans of the traced repetition,
    run-level figures and suite times of the untraced one."""
    stats = spanlib.summarize(traced.spans)
    empty = spanlib.NameStats()

    def get(span_name: str) -> spanlib.NameStats:
        return stats.get(span_name, empty)

    m: dict[str, float] = {}
    for metric, span_name in CALLS_AND_SELF.items():
        m[f"{metric}.calls"] = get(span_name).calls
        m[f"{metric}.self_s"] = get(span_name).self_ns / 1e9
    for metric, span_name in SELF_ONLY.items():
        m[f"{metric}.self_s"] = get(span_name).self_ns / 1e9
    for layer in LIBRARY_LAYERS:
        own = [st for name, st in stats.items() if name.startswith(layer + ".")]
        m[f"{layer}.calls"] = sum(st.calls for st in own)
        m[f"{layer}.self_s"] = sum(st.self_ns for st in own) / 1e9

    mul = get(MUL)
    m["sn_algebra.mul.term_pairs"] = mul.count
    m["sn_algebra.mul.term_pairs_per_s"] = (
        mul.count / (mul.total_ns / 1e9) if mul.total_ns else 0.0)
    herm = get(HERMITIAN)
    m["sn_algebra.hermitian_young.total_s"] = herm.total_ns / 1e9
    m["sn_algebra.hermitian_young.distinct_frac"] = (
        len(herm.distinct_counts) / herm.calls if herm.calls else 0.0)
    matmul = get(MATMUL)
    m["tensor_rep.matmul.madds"] = matmul.count
    m["tensor_rep.matmul.madds_per_s"] = (
        matmul.count / (matmul.total_ns / 1e9) if matmul.total_ns else 0.0)

    suites = suite_wall_s(untraced.run.stderr)
    for suite in REPORTED_SUITES:
        m[f"verify.suite.{suite}.wall_s"] = suites.get(suite, 0.0)

    m["run.cpu_s"] = untraced.run.cpu_s
    m["run.cpu_util"] = untraced.run.cpu_s / untraced.run.wall_s
    m["trace.overhead_s"] = traced.run.wall_s - untraced.run.wall_s
    below = sum(m[f"{layer}.self_s"] for layer in LIBRARY_LAYERS)
    m["trace.layer_coverage"] = below / traced.run.wall_s
    m["trace.spans"] = len(traced.spans)
    return m


def environment(args: argparse.Namespace) -> dict[str, object]:
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": commit or "unknown (not a git checkout)",
        "seed_effect": "the workloads are exhaustive enumerations, so the "
                       "seed only permutes the order of the work in a run",
    }


def measure(args: argparse.Namespace, started: float) -> dict[str, object]:
    workload = WORKLOADS[args.workload]
    deadline = started + RUN_DEADLINE_S
    rng = random.Random(args.seed)
    setup_sample(deadline, WARM_UP_COMMAND)  # untimed

    setup: list[float] = []
    reps: list[Repetition] = []
    rounds: list[tuple[Repetition, Repetition]] = []
    t0 = time.monotonic()
    unit_s: list[float] = []
    while True:
        # One unit: an untraced and a traced repetition with --trace 1,
        # else one repetition and SETUP_PER_UNIT set-up samples, so that
        # set-up is sampled across the whole run.  The seed orders them.
        tasks = [False, True] if args.trace else [False] + [None] * SETUP_PER_UNIT
        rng.shuffle(tasks)
        u0 = time.monotonic()
        pair = {}
        for traced in tasks:
            if traced is None:
                setup.append(setup_sample(deadline))
            else:
                pair[traced] = repetition(workload, len(reps), traced,
                                          deadline, calibrated=not args.trace)
                reps.append(pair[traced])
        if args.trace:
            rounds.append((pair[False], pair[True]))
        unit_s.append(time.monotonic() - u0)
        elapsed = time.monotonic() - t0
        if time.monotonic() + 2 * median(unit_s) > deadline:
            break
        if (len(unit_s) >= MIN_UNITS[args.trace]
                and elapsed + median(unit_s) > args.seconds):
            break

    attempted = workload.expected_checks * len(reps)
    failed = sum(r.failed for r in reps)
    problems = [f"rep {i} ({'traced' if r.traced else 'untraced'}): {p}"
                for i, r in enumerate(reps) for p in r.problems]
    for i, (plain, traced) in enumerate(rounds):
        if plain.run.stdout != traced.run.stdout:
            problems.append(f"round {i}: traced stdout differs from untraced")
    untraced = [r for r in reps if not r.traced]
    record: dict[str, object] = {"environment": environment(args)}
    if args.trace:
        per_round = [layer_metrics(p, t) for p, t in rounds
                     if not p.problems and not t.problems]
        names = per_round[0].keys() if per_round else ()
        metrics = {k: median([m[k] for m in per_round]) for k in names}
        record["rounds"] = per_round
        record["notes"] = [NO_WAIT_NOTE]
    else:
        timed = [r for r in untraced if not r.problems]
        metrics = {
            "ref_wall_s": median([r.ref_wall_s() for r in timed]) if timed else 0.0,
            "setup_s": median(setup),
            "peak_rss_mb": median([r.run.peak_rss_mb for r in untraced]),
            "checks_passed_frac": (attempted - failed) / attempted,
        }
        record["samples"] = {
            "ref_wall_s": [r.ref_wall_s() for r in timed],
            "raw_wall_s": [r.run.wall_s for r in untraced],
            "speed_loops": [len(r.speed) for r in timed],
            "setup_s": setup,
            "peak_rss_mb": [r.run.peak_rss_mb for r in untraced],
            "checks_failed_frac": failed / attempted,
        }
    record.update(correct=not problems and bool(metrics), attempted=attempted,
                  failed=failed, problems=problems, metrics=metrics,
                  sample_count={"repetitions": len(untraced),
                                "traced": len(rounds),
                                "setup": len(setup)})
    return record


def load_units() -> dict[str, str]:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in config["end_to_end"] + config["per_layer"]}


def report(record: dict[str, object], units: dict[str, str]) -> None:
    env = record["environment"]
    print("# " + " ".join(f"{k}={env[k]}" for k in
                          ("workload", "seed", "trace", "nproc", "python",
                           "numpy", "commit")))
    print(f"# {env['seed_effect']}")
    print(f"# samples: {record['sample_count']}")
    for note in record.get("notes", ()):
        print(f"# {note}")
    if "samples" in record:
        samples = record["samples"]
        print(f"# checks_failed_frac = {samples['checks_failed_frac']}")
        if samples["raw_wall_s"]:
            print(f"# raw_wall_s, not rescaled: median "
                  f"{median(samples['raw_wall_s']):.6g} s")
    for p in record["problems"]:
        print(f"# FAIL {p}")
    for name, value in record["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "youngops" / "__init__.py").is_file():
            raise SetupError(f"no youngops sources under {ROOT / 'src'}")
        units = load_units()
        (WORK_DIR / "results").mkdir(parents=True, exist_ok=True)
        record = measure(args, started)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK_DIR / "results" / name).write_text(json.dumps(record, indent=1))
    report(record, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())

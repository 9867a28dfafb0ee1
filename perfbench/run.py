"""Benchmark of the brocard package: three seeded closed-loop workloads.

Run from the root of a checkout (standard library only, nothing to build):

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads, each driven by one client that sends its next op when the last
one returns:

- ``cli_cold``: op = one fresh ``python -m brocard <cmd>``, timed from
  spawn to exit, cycling through verify, orbit, family, continuous and
  the five figures.  This is what a user pays; most of it is start-up.
- ``verify_suite``: op = one ``run_checks(samples=200)`` pass over every
  check, in a worker process that imported ``brocard`` before timing.
- ``cascade``: op = one porism round (posed root, chained child and anti
  scenes, members, the continuous family, all five figures) in such a
  worker; no check harness.

``--trace 0`` prints the end-to-end metrics.  The op times of the
in-process workloads are scaled to a reference machine speed (see
``speed.py``); the line before the last gives them unscaled.  Spawned
commands and ``setup_s`` are wall times (see ``spawns.py``).
``--trace 1`` runs a fixed op list untraced and then traced, and prints
the per-layer metrics.  The last line of output is one JSON object.  Each
op's output is judged by ``validate.py``, never by the program's own
verdict.  ``BASELINE.md`` records the machine, the seeds and the baseline.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

import inputs
import validate
from spawns import PYTHON, ROOT, SPAWN_TIMEOUT_S, SRC, BenchError, SetupSampler, spawn
from tracer import IDENTITY, RAISED, aggregate, span_names

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("cli_cold", "verify_suite", "cascade")
WARMUP_SPAWNS = 1  # discarded: the first cold spawn runs slower
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3


def worker(*args: str, seconds: float = 0.0) -> dict:
    code, out, err, _, _ = spawn(
        [PYTHON, str(HERE / "worker.py"), *args], seconds + SPAWN_TIMEOUT_S
    )
    if code != 0 or not out.strip():
        raise BenchError(f"worker {args} exited {code}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def median_spawn(argv: list[str], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        code, _, err, elapsed, _ = spawn(argv)
        if code != 0:
            raise BenchError(f"{argv} exited {code}: {err.strip()[-2000:]}")
        times.append(elapsed)
    return statistics.median(times)


def warm_up() -> int:
    """Fill the page cache and the bytecode cache before anything is timed.

    Returns the number of registered checks, which a verify table must have.
    """
    argv = [PYTHON, "-c", "import brocard.checks as c; print(len(c.check_ids()))"]
    for _ in range(WARMUP_SPAWNS):
        code, out, err, _, _ = spawn(argv)
        if code != 0:
            raise BenchError(f"import brocard failed: {err.strip()[-2000:]}")
    return int(out)


# ---------------------------------------------------------------------------
# cli_cold


class CliOps:
    """Runs and judges ``brocard`` commands; figures must repeat byte for byte."""

    def __init__(self, expected_checks: int) -> None:
        self.expected_checks = expected_checks
        self.times: list[float] = []
        self.failed = 0
        self.reasons: list[str] = []
        self.peak_rss_kb = 0
        self._figures: dict[tuple[str, ...], str] = {}

    def run(self, argv: list[str], prefix: list[str]) -> None:
        code, out, err, elapsed, rss = spawn(prefix + argv)
        self.times.append(elapsed)
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        self.judge(argv, code, out, err)

    def judge(self, argv: list[str], code: int, out: str, err: str) -> None:
        reasons = validate.check_command(argv, code, out, err, self.expected_checks)
        if argv[0] == "figure" and code == 0:
            if self._figures.setdefault(tuple(argv), out) != out:
                reasons.append("figure bytes differ from an earlier render")
        if reasons:
            self.failed += 1
            self.reasons += [f"{' '.join(argv)}: {r}" for r in reasons[:3]]


BROCARD = [PYTHON, "-m", "brocard"]
CLI_MIN_CYCLES = 3


def _figure_shape(seed: int) -> tuple[float, float]:
    return inputs.tall_shape(random.Random(f"cli_cold:{seed}:figures"))


def cli_cold(seed: int, seconds: float, checks: int) -> dict:
    ops = CliOps(checks)
    setup = SetupSampler(seconds)
    shape = _figure_shape(seed)
    cycle = 0
    # Whole cycles only, so every run weighs the nine commands alike, and
    # enough of them that op_tail_s lies above the median.
    while cycle < CLI_MIN_CYCLES or sum(ops.times) < seconds:
        for argv in inputs.cli_cycle(seed, cycle, shape):
            setup.due(sum(ops.times))
            ops.run(argv, BROCARD)
        cycle += 1
    setup.finish()
    return {
        "times": ops.times,
        "setup_times": setup.times,
        "attempted": len(ops.times),
        "failed": ops.failed,
        "reasons": ops.reasons,
        "maxrss_kb": ops.peak_rss_kb,
    }


def cli_cold_traced(seed: int, checks: int) -> tuple[dict, list[Path]]:
    argvs = inputs.cli_cycle(seed, 0, _figure_shape(seed))
    plain, traced = CliOps(checks), CliOps(checks)
    for argv in argvs:
        plain.run(argv, BROCARD)
    spans = []
    for i, argv in enumerate(argvs):
        spans.append(OUT / f"cli_cold-{i}.jsonl")
        traced.run(argv, [PYTHON, str(HERE / "worker.py"), "cli", str(spans[-1])])
    report = {
        "attempted": len(plain.times) + len(traced.times),
        "failed": plain.failed + traced.failed,
        "reasons": plain.reasons + traced.reasons,
        "untraced_p50_s": statistics.median(plain.times),
        "traced_p50_s": statistics.median(traced.times),
    }
    return report, spans


# ---------------------------------------------------------------------------
# set-up breakdown, read from outside


def parse_importtime(text: str) -> tuple[float, float]:
    """(import brocard, scipy share) in seconds from ``-X importtime`` output.

    The scipy share sums the cumulative time of each scipy module imported
    from outside scipy, so numpy pulled in by scipy counts toward it.
    """
    entries = []
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(fields[1]) * 1e-6))
    brocard = scipy = 0.0
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(entries):  # parents precede children
        ancestors[depth:] = [name]
        if depth == 0 and name == "brocard":
            brocard = cumulative
        if name.split(".")[0] == "scipy" and not any(
            a.split(".")[0] == "scipy" for a in ancestors[:-1]
        ):
            scipy += cumulative
    if brocard == 0.0:
        raise BenchError("no brocard line in -X importtime output")
    return brocard, scipy


def setup_breakdown() -> dict[str, float]:
    interpreter = median_spawn([PYTHON, "-c", "pass"], SETUP_REPEATS)
    parsed = []
    for _ in range(IMPORTTIME_REPEATS):
        code, _, err, _, _ = spawn([PYTHON, "-X", "importtime", "-c", "import brocard"])
        if code != 0:
            raise BenchError(f"-X importtime exited {code}")
        parsed.append(parse_importtime(err))
    return {
        "setup.interpreter_s": interpreter,
        "setup.import_brocard_s": statistics.median(b for b, _ in parsed),
        "setup.import_scipy_s": statistics.median(s for _, s in parsed),
    }


# ---------------------------------------------------------------------------
# results


def timed(workload: str, seed: int, seconds: float, checks: int) -> tuple[dict, dict]:
    if workload == "cli_cold":
        report = cli_cold(seed, seconds, checks)
        op_times = report["times"]
    else:
        report = worker("run", "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), seconds=seconds)
        op_times = report["scaled_times"]
        report["raw"] = _op_metrics(report["times"])
    metrics = {"setup_s": (statistics.median(report["setup_times"]), "s")}
    metrics.update(_op_metrics(op_times))
    metrics["peak_rss_mb"] = (report["maxrss_kb"] / 1024.0, "MiB")
    n = len(report["times"])
    report["tail_percentile"] = 100.0 * (_tail_index(n) + 1) / n
    report["tail_beyond"] = n - 1 - _tail_index(n)
    return report, metrics


def _tail_index(n: int) -> int:
    return n - 11 if n > 10 else n - 1  # the op with 10 ops beyond it


def _op_metrics(times: list[float]) -> dict[str, tuple[float, str]]:
    ordered = sorted(times)
    return {
        "op_p50_s": (statistics.median(ordered), "s"),
        "op_tail_s": (ordered[_tail_index(len(ordered))], "s"),
        "ops_per_s": (len(ordered) / sum(ordered), "1/s"),
    }


def traced(workload: str, seed: int, checks: int, shared: dict) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    if workload == "cli_cold":
        report, spans = cli_cold_traced(seed, checks)
    else:
        spans = [OUT / f"{workload}.jsonl"]
        report = worker("trace", "--workload", workload, "--seed", str(seed),
                        "--spans", str(spans[0]))
    stats = aggregate(spans)
    metrics = {}
    for name in span_names() + [IDENTITY]:
        calls, self_s, _ = stats.get(name, (0, 0.0, 0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name in RAISED:
        metrics[f"{name}.raised"] = (stats.get(name, (0, 0.0, 0))[2], "count")
    metrics.update(shared)
    metrics["trace.overhead_s"] = (report["traced_p50_s"] - report["untraced_p50_s"], "s")
    return report, metrics


def summary(workload: str, seed: int, report: dict, metrics: dict) -> str:
    lines = [f"workload {workload}  seed {seed}  one closed-loop client"]
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = (
                f"  (p{report['tail_percentile']:.1f}: {report['tail_beyond']}"
                f" of n={report['attempted']} ops beyond it)"
            )
        if name in report.get("raw", {}):
            note += f"  [unscaled {report['raw'][name][0]:.6g}]"
        lines.append(f"  {name:<48} {value:.6g} {unit}{note}")
    lines.append(
        f"  fail_ratio {report['failed']}/{report['attempted']} = "
        f"{report['failed'] / report['attempted']:.4g}"
    )
    lines += [f"  FAIL {r}" for r in report["reasons"][:10]]
    return "\n".join(lines)


def shared_layers() -> dict[str, tuple[float, str]]:
    """Per-layer metrics that do not depend on the workload, taken once."""
    metrics = {}
    for name, value in worker("probe").items():
        metrics[name] = (value, "count" if name.endswith("crashes") else "s")
    for name, value in setup_breakdown().items():
        metrics[name] = (value, "s")
    return metrics


def _as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def result(workload: str, seed: int, seconds: float, checks: int, shared) -> tuple[dict, dict]:
    """The workload's result object and its unscaled end-to-end metrics."""
    if shared is not None:
        report, metrics = traced(workload, seed, checks, shared)
    else:
        report, metrics = timed(workload, seed, seconds, checks)
    print(summary(workload, seed, report, metrics), flush=True)
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": _as_json(metrics),
    }, _as_json(report.get("raw", {}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "brocard" / "__init__.py").is_file():
        print(f"error: no brocard sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, unscaled = {}, {}
    try:
        checks = warm_up()
        shared = shared_layers() if args.trace else None
        for w in names:
            results[w], unscaled[w] = result(w, args.seed, args.seconds, checks, shared)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace and any(unscaled.values()):
        print(json.dumps({"unscaled": unscaled if args.workload == "all" else unscaled[args.workload]}))
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

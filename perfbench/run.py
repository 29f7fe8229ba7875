"""Seeded end-to-end and per-layer benchmark of tropkex.

Run from the repository root:

    python3 perfbench/run.py --workload exchange|recover|reject \\
        --seed N --seconds S --trace 0|1

One workload runs per process, single-threaded, as a closed loop with one
client: each operation is an in-process ``tropkex.cli.cli_main(argv)``
call, and the next starts only after the previous one has been checked.
Inputs come from ``--seed`` alone and are written to a temporary
directory inside the checkout, which is removed at exit.

``--trace 0`` times the loop for ``--seconds`` and reports the
end-to-end metrics; nothing in the program is patched, and each timing
is scaled to a fixed machine speed sampled while it ran (see
``speed.py``; the raw wall times are on the report line).  ``--trace 1``
runs a fixed list of operations twice, untraced and then traced, and
reports the per-layer metrics, the kernel table and the tracing
overhead; ``--seconds`` does not apply to it, so that its counts repeat
exactly at one seed.  The metric names and units printed are those
declared in BENCHMARK.json at the repository root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, prefixed ``report``, stamps the run (Python version, git revision,
source digest, CPU count, seed, operation counts) and carries the
figures that are not gated, such as ``fail_ratio``, ``op_s.p90``, the
outcome of each untimed probe (see ``workloads.Reject``) and the raw
wall times.
The exit code is 0 only when every output and cross-check was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from kernels import kernel_table
from speed import SpeedSampler
from tracer import Tracer, cross_check, layer_metrics
from workloads import FAILED, INCORRECT, WORKLOADS, BenchmarkError

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
P90_MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile


def import_program():
    """Import tropkex from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tropkex" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no tropkex sources under {src}")
    sys.path.insert(0, str(src))
    import tropkex.cli
    from tropkex import protocol, semidirect, tropical

    if Path(tropkex.__file__).resolve().parent != src / "tropkex":
        raise SystemExit(f"perfbench: imported tropkex from {tropkex.__file__}, not {src}")
    return tropkex.cli, protocol, semidirect, tropical


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _digest(cases, workdir: Path) -> str:
    """Content digest of a set-up's cases and files, independent of its directory."""
    digest = hashlib.sha256()
    for case in cases:
        digest.update(repr((case.kind, case.seed, case.key, case.K)).encode())
        if case.path is not None:
            digest.update(Path(case.path).read_bytes())
    for path in sorted(workdir.iterdir()):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()


def set_up(workload, cli, seed: int, tmp: Path):
    """Run the workload's set-up SETUP_REPEATS times, each in a fresh
    directory; every repeat must produce identical inputs.  Returns the
    last repeat's loop cases, probe cases and directory, and each
    repeat's (start, seconds)."""
    timings, digests = [], []
    for i in range(SETUP_REPEATS):
        workdir = tmp / f"setup-{i}"
        workdir.mkdir()
        start = perf_counter()
        cases = workload.setup(cli, seed, workdir)
        timings.append((start, perf_counter() - start))
        digests.append(_digest(cases, workdir))
    if len(set(digests)) != 1:
        raise BenchmarkError("set-up produced different inputs from one seed")
    loop = [case for case in cases if case.kind not in workload.probe_kinds]
    probes = [case for case in cases if case.kind in workload.probe_kinds]
    return loop, probes, workdir, timings


def run_probes(workload, cli, probes, workdir: Path) -> list:
    """Each probe case once, untimed and outside ``attempted``: inputs on
    which the program is known to fail, reported so the defect stays in
    view without making the loop's failure counts differ between runs."""
    return [workload.run(cli, case, workdir) for case in probes]


def summarize(outcomes) -> dict:
    """Counts and problems per operation kind, for the report."""
    kinds = {}
    for outcome in outcomes:
        entry = kinds.setdefault(outcome.kind, {"ops": 0, "failed": 0, "incorrect": 0, "seconds": []})
        entry["ops"] += 1
        entry["seconds"].append(outcome.seconds)
        if outcome.status in (FAILED, INCORRECT):
            entry[outcome.status] += 1
            entry.setdefault("first_problem", outcome.detail)
    for entry in kinds.values():
        entry["wall_s.p50"] = statistics.median(entry.pop("seconds"))
    return kinds


def timed_run(workload, cli, cases, workdir: Path, seconds: float, sampler, setups):
    """Operations back to back for ``seconds``, cycling through the cases;
    the one in flight at the deadline completes and counts.  Returns
    (outcomes, end-to-end metrics, report extras)."""
    outcomes, start = [], perf_counter()
    while not outcomes or perf_counter() - start < seconds:
        outcomes.append(workload.run(cli, cases[len(outcomes) % len(cases)], workdir))
    durations = [sampler.normalize(o.start, o.seconds) for o in outcomes]
    wall = [o.seconds for o in outcomes]
    metrics = {
        "ops_per_s": len(durations) / sum(durations),
        "op_s.p50": statistics.median(durations),
        "setup_s": statistics.median(sampler.normalize(*timing) for timing in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    extra = {
        "op_s.samples": len(durations),
        "op_s.p90": statistics.quantiles(durations, n=10)[-1] if len(durations) >= P90_MIN_OPS else None,
        "wall.ops_per_s": len(wall) / sum(wall),
        "wall.op_s.p50": statistics.median(wall),
        "wall.setup_s.runs": [seconds for _, seconds in setups],
        "speed.samples": len(sampler.durations),
        "speed.reference_s.p50": statistics.median(sampler.durations),
        "distinct_inputs": len(cases),
    }
    return outcomes, metrics, extra


def traced_run(workload, programs, cases, workdir: Path, seed: int):
    """The fixed trace list, untraced and traced; returns (outcomes,
    per-layer metrics, report extras with the cross-check errors)."""
    cli, protocol, semidirect, tropical = programs
    ops = [cases[i % len(cases)] for i in range(workload.trace_ops)]
    tracer = Tracer()
    untraced, traced = [], []
    # Each operation runs once untraced and once traced, alternating which
    # goes first, so that drift in machine speed cancels in the overhead.
    for i, case in enumerate(ops):
        if i % 2:
            untraced.append(workload.run(cli, case, workdir))
        tracer.op_id = i
        tracer.install()
        try:
            traced.append(workload.run(cli, case, workdir))
        finally:
            tracer.uninstall()
        if not i % 2:
            untraced.append(workload.run(cli, case, workdir))
    unavailable = tracer.unavailable_spans()
    bounds = {i: case.K for i, case in enumerate(ops) if case.K}
    metrics = layer_metrics(tracer.spans, bounds, unavailable)
    errors = cross_check(
        tracer.spans, {i: o.result for i, o in enumerate(traced) if o.result is not None}, unavailable
    )
    kernels, missing_kernels = kernel_table(seed, protocol, semidirect, tropical)
    metrics.update(kernels)
    metrics["trace.overhead_ratio"] = sum(o.seconds for o in traced) / sum(o.seconds for o in untraced)
    extra = {
        "trace.ops": len(ops),
        "trace.spans": len(tracer.spans),
        "trace.missing_targets": tracer.missing + missing_kernels,
        "cross_check_errors": errors,
    }
    return untraced + traced, metrics, extra


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tropkex").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0, help="timed length of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    programs = import_program()
    declared = declared_metrics(bool(args.trace))
    workload = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        try:
            if args.trace:
                cases, probes, workdir, _ = set_up(workload, programs[0], args.seed, Path(tmp))
                probed = run_probes(workload, programs[0], probes, workdir)
                outcomes, metrics, extra = traced_run(workload, programs, cases, workdir, args.seed)
            else:
                with SpeedSampler() as sampler:
                    cases, probes, workdir, setups = set_up(workload, programs[0], args.seed, Path(tmp))
                    probed = run_probes(workload, programs[0], probes, workdir)
                    outcomes, metrics, extra = timed_run(
                        workload, programs[0], cases, workdir, args.seconds, sampler, setups
                    )
        except BenchmarkError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1

    attempted = len(outcomes)
    failed = sum(outcome.status == FAILED for outcome in outcomes)
    incorrect = sum(outcome.status == INCORRECT for outcome in outcomes + probed)
    errors = extra.get("cross_check_errors", [])
    for name in sorted(set(declared) - set(metrics)):
        print(f"perfbench: declared metric {name} not measured in this run", file=sys.stderr)
    for target in extra.get("trace.missing_targets", []):
        print(f"perfbench: wrap target {target} not found; its metrics are omitted", file=sys.stderr)
    for error in errors:
        print(f"perfbench: cross-check failed: {error}", file=sys.stderr)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "operations": attempted,
        "failed": failed,
        "incorrect": incorrect,
        "fail_ratio": failed / attempted,
        "kinds": summarize(outcomes),
        "probes": [{"kind": o.kind, "status": o.status, "detail": o.detail} for o in probed],
        "undeclared_metrics": {k: v for k, v in metrics.items() if k not in declared},
        **extra,
    }
    for name, unit in declared.items():
        if name in metrics:
            print(f"{args.workload:<9} {name:<40} {metrics[name]:>16.6g} {unit}")
    print(f"{args.workload:<9} {'fail_ratio':<40} {failed / attempted:>16.6g} ({failed}/{attempted})")
    for probe in probed:
        detail = f" ({probe.detail})" if probe.detail else ""
        print(f"{args.workload:<9} probe {probe.kind:<34} {probe.status:>16}{detail}")
    print("report " + json.dumps(report, sort_keys=True))
    correct = incorrect == 0 and not errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

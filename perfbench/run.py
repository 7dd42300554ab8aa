"""anoncert benchmark entry point.

    python3 perfbench/run.py --workload issue-brainpool --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. The program is imported from `src/` of the
checkout this file sits in. One workload runs in this process: first the
correctness gate, then the timed loop. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones
(untraced and traced calls alternate). The last line of standard output
is the result object; the line before it records the environment.
`--workload all` runs every workload, each in its own process, and
prints a table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_program(repeats: int = 5) -> float:
    """Import anoncert from this checkout's src/ and return the median
    seconds of `repeats` fresh imports. The first also loads dependencies
    such as `cryptography`; the median counts the package's own module
    code. Exits when the checkout has no program to measure."""
    if not (SRC / "anoncert" / "__init__.py").is_file():
        sys.exit(f"error: no anoncert package under {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules
                     if m == "anoncert" or m.startswith("anoncert.")]:
            del sys.modules[name]
        start = time.perf_counter()
        module = importlib.import_module("anoncert")
        times.append(time.perf_counter() - start)
    if Path(module.__file__).resolve().parent != SRC / "anoncert":
        sys.exit(f"error: imported anoncert from {module.__file__}, not {SRC}")
    return statistics.median(times)


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import cryptography

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "git_commit": git_commit(),
    }


def run_one(args, spec: dict) -> int:
    import_s = import_program()
    import gate
    import tracing
    import workloads

    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"error: unknown workload {args.workload!r}")
    print(json.dumps({"env": environment(args.workload, args.seed,
                                         args.seconds, args.trace)}), flush=True)
    WORKDIR.mkdir(exist_ok=True)
    gate_problems = gate.run_gate(args.workload, WORKDIR, bool(args.trace))
    if gate_problems:
        for p in gate_problems:
            print(f"gate: {p}", file=sys.stderr)
        return 1

    call = workloads.call_function(args.workload, args.seed)
    if args.trace:
        untraced, traced = workloads.measure_paired(call, args.seconds)
        calls = untraced + traced
        values, problems = workloads.per_layer(untraced, traced)
        wanted = spec["per_layer"]
        spans_dir = WORKDIR / "spans"
        spans_dir.mkdir(exist_ok=True)
        tracing.write_spans([(2 * i + 1, c.spans) for i, c in enumerate(traced)],
                            spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        calls = workloads.measure(call, args.seconds)
        values = workloads.end_to_end(calls, import_s)
        wanted = spec["end_to_end"]
        problems = []

    for c in calls:
        problems += c.problems
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted = sum(c.attempted for c in calls)
    failed = sum(c.failed for c in calls)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own process; a table of the end-to-end
    metrics plus failed_ratio; nonzero exit if any workload failed."""
    status = 0
    rows = []
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               w["name"], "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if not (lines and lines[-1].startswith('{"correct"')):
            status = 1
            rows.append((w["name"], "FAILED (no result)", "", ""))
            continue
        result = json.loads(lines[-1])
        env = json.loads(lines[-2])["env"]
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        print(f"# {w['name']}: nproc={env['nproc']} cpu={env['cpu_model']} "
              f"python={env['python']} cryptography={env['cryptography']} "
              f"commit={env['git_commit']} seed={env['seed']} "
              f"correct={result['correct']}")
        for name, m in result["metrics"].items():
            rows.append((w["name"], name, f"{m['value']:.6g}", m["unit"]))
        rows.append((w["name"], "failed_ratio",
                     f"{result['failed'] / result['attempted']:.6g}",
                     f"of {result['attempted']} ops"))
    for row in rows:
        print(f"{row[0]:<18} {row[1]:<44} {row[2]:>14} {row[3]}")
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

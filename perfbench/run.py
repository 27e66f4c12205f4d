"""rimtwist benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload search-family --seed 1 --seconds 35 --trace 0

Run from the root of a rimtwist source tree; the program is imported
from its ``src/``.  Every workload runs in fresh processes (see
worker.py): one that runs the timed phase, then ten that only set up,
for ``setup_s``.  With ``--trace 1`` the timed process records spans in
every other round (see tracing.py); the per-layer figures come from the
traced rounds, and the tracing overhead from comparing them with the
untraced rounds between them.  Outputs are checked here, in a process
that never imports rimtwist (see checks.py).  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; raw results and spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 10  # set-up processes per run; setup_s is their median
RUN_LIMIT_S = 170  # every process this script starts is done by then


class WorkerError(RuntimeError):
    pass


def spawn(mode: str, args, deadline: float, seconds: float = 0.0, stem: str = "") -> dict:
    """Run one worker process to its end; for a timed mode, read back its operations."""
    argv = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--seconds", repr(seconds)]
    ops_file = RESULTS / f"{stem}.ops.jsonl"
    if mode != "setup":
        argv += ["--ops", str(ops_file), "--spans", str(RESULTS / f"{stem}.spans.jsonl")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1)
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} process did not end in time") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} process exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if mode != "setup":
        with open(ops_file) as fh:
            result["ops"] = [json.loads(line) for line in fh]
        ops_file.unlink()  # the outputs are checked here; the raw results keep the rest
    return result


def end_to_end(setups: list[float], run: dict) -> dict:
    ops = run["ops"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ops) / run["elapsed_s"], "1/s"),
        "latency_p50_ms": (statistics.median(o["latency_s"] for o in ops) * 1000, "ms"),
        "first_row_ms": (statistics.median(o["first_row_s"] for o in ops) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }


LAYER_UNITS = {"ms": "ms", "calls": "count", "ratio": "ratio"}


def per_layer(run: dict) -> dict:
    out = {}
    for name, value in run["layers"].items():
        suffix = name.rsplit("_", 1)[-1]
        out[name] = (value, LAYER_UNITS.get(suffix, "count"))
    # rounds alternate untraced, traced; compare whole pairs of rounds
    pairs = (max(o["round"] for o in run["ops"]) + 1) // 2
    base = sum(o["latency_s"] for o in run["ops"] if o["round"] < 2 * pairs and not o["traced"])
    with_spans = sum(o["latency_s"] for o in run["ops"] if o["round"] < 2 * pairs and o["traced"])
    out["trace.overhead_pct"] = ((with_spans / base - 1) * 100 if base else 0.0, "%")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "rimtwist" / "__init__.py").is_file():
        print(f"error: no rimtwist source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            run = spawn("trace", args, deadline, args.seconds, stem)
            metrics = per_layer(run)
        else:
            run = spawn("run", args, deadline, args.seconds, stem)
            setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
            metrics = end_to_end(setups, run)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    by_argv = {op.argv: op for ops in workloads.schedule(args.workload, args.seed) for op in ops}
    results = [(by_argv[tuple(o["argv"])], o["returncode"], o["out"]) for o in run["ops"]]
    verdict = checks.tally(results)
    seen, repeats = set(), 0
    for op, _, _ in results:
        repeats += all(k in seen for k in op.knots)
        seen.update(op.knots)

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": reported,
        "samples": len(run["ops"]),
        "knot_repeat_share": repeats / max(len(run["ops"]), 1),
        "check": verdict,
        "setup_samples_s": [] if args.trace else setups,
        "run": {k: v for k, v in run.items() if k != "ops"},
        "ops": [{k: v for k, v in o.items() if k != "out"} for o in run["ops"]],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(raw, indent=1))

    for reason in verdict["reasons"]:
        print(f"check failed: {reason}")
    print(f"{args.workload} seed {args.seed}: {raw['samples']} operations timed, "
          f"{verdict['attempted']} attempted, {verdict['failed']} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

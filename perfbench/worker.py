"""One workload in one fresh process: set up, run the timed phase, print one JSON line.

Started by run.py, never by hand.  Modes:
  setup  import rimtwist and build the schedule, report the set-up time
  run    also run whole rounds of operations until --seconds have passed
  trace  as run, with spans recorded around each layer (see tracing.py) in
         every other round, so traced and untraced rounds interleave
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Sink:
    """The ``out`` of ``cli.run``: keeps the text and the time of the first write."""

    __slots__ = ("parts", "first")

    def __init__(self):
        self.parts: list[str] = []
        self.first: float | None = None

    def write(self, text: str) -> int:
        if self.first is None:
            self.first = time.perf_counter()
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", help="file the run and trace modes write one JSON line per operation to")
    parser.add_argument("--spans", help="file the trace mode writes its spans to")
    args = parser.parse_args()

    # set-up: importing the program and generating the inputs
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import rimtwist.cli as cli
    import workloads

    rounds = workloads.schedule(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"rimtwist was imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()

    # each operation's record goes to a file as soon as it is done, so that
    # the process's memory does not grow with the number of operations
    done = traced_ops = 0
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    end = t0
    with open(args.ops, "w") as records:
        for number, ops in enumerate(rounds):
            if time.perf_counter() >= deadline:
                break
            traced = tracer is not None and number % 2 == 1
            if traced:
                tracer.install()
            for op in ops:
                sink, err = Sink(), Sink()
                if traced:
                    tracer.op = done
                    root = tracer.open(tracing.ROOT)
                begin = time.perf_counter()
                try:
                    returncode = cli.run(list(op.argv), out=sink, err=err)
                except Exception:  # an operation that raises is counted as failed
                    returncode = None
                    err.parts.append(traceback.format_exc())
                end = time.perf_counter()
                if traced:
                    tracer.close(root)
                record = {
                    "round": number,
                    "traced": traced,
                    "slot": op.slot,
                    "argv": op.argv,
                    "returncode": returncode,
                    "latency_s": end - begin,
                    "first_row_s": (sink.first if sink.first is not None else end) - begin,
                    "out": "".join(sink.parts),
                    "err": "".join(err.parts),
                }
                records.write(json.dumps(record) + "\n")
                done += 1
                traced_ops += traced
            if traced:
                tracer.uninstall()
    result = {"setup_s": setup_s, "elapsed_s": end - t0, "ops": done}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, traced_ops)
        if args.spans:
            tracer.write(args.spans)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-compute --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that wraps each layer's entry point and
prints the per-layer metrics instead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402 - needs the path above
    ROOT,
    Outcome,
    StderrCapture,
    prepare_environment,
    provenance,
    result_line,
)

TRAINING = ("train-compute", "train-message", "train-hist-socket")
SERVING = "serve-http"


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: {path} not found")
    return json.loads(path.read_text())


def _stop_resource_tracker() -> None:
    """Stop the ``multiprocessing`` resource tracker the runtime started.

    It is a child of this process; stopping it here, inside the stderr
    capture, waits for it to end and counts anything it prints on exit.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_environment()

    import layers
    import serve
    import train
    from spans import Tracer

    outcome = Outcome()
    tracer = None
    capture = StderrCapture()
    try:
        if args.trace:
            tracer = Tracer()
            tracer.install()
        if args.workload == SERVING:
            serve.run(args.seed, args.seconds, tracer, outcome)
        else:
            train.run(args.workload, args.seed, args.seconds, tracer, outcome)
        _stop_resource_tracker()
        tracebacks = capture.tracebacks()
    finally:
        capture.close()
        if tracer is not None:
            tracer.close()

    if args.trace:
        measured = outcome.facts.pop("layers")
        if args.workload in TRAINING:
            measured.update(dict.fromkeys(layers.SERVING_ONLY, 0.0))
        measured["runtime.stderr_tracebacks"] = tracebacks
        measured["error_rate"] = outcome.failed / max(outcome.attempted, 1)
        outcome.metrics = measured
        specs = spec["per_layer"]
    else:
        specs = spec["end_to_end"]

    facts = dict(outcome.facts, stderr_tracebacks=tracebacks,
                 attempted=outcome.attempted, failed=outcome.failed)
    print(json.dumps({
        "provenance": provenance(args.workload, args.seed, args.seconds,
                                 bool(args.trace)),
        "facts": facts,
    }))
    for note in outcome.notes:
        print(note)
    for s in specs:
        print(f"{s['name']:>28} = {outcome.metrics.get(s['name'], float('nan')):.6g} {s['unit']}")
    print(result_line(outcome, specs))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark's correctness accounting.

Shows that the checks the workloads rely on turn a wrong output into a
counted failure: a perturbed model fails the bit-identity check of a fit,
and a wrong answer fails both the served-response check and the offline
check.  Run from the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 when every injected fault was counted as exactly one failure.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import Outcome, prepare_environment  # noqa: E402 - needs the path above


def _perturbed(trees):
    """A deep copy of ``trees`` with the root threshold of the first nudged."""
    trees = copy.deepcopy(trees)
    root = trees[0].root
    root.split = dataclasses.replace(root.split, threshold=root.split.threshold + 1e-6)
    return trees


class _Report:
    def __init__(self, trees) -> None:
        self._trees = trees

    def trees(self, job_name: str):
        return self._trees


def main() -> int:
    prepare_environment()
    import numpy as np

    import serve
    from train import OfflineScorer, TrainShape, fit, make_inputs, make_jobs, same_trees

    shape = TrainShape(
        backend="mp", use_shm=True, n_rows=2_000, n_test=500, n_trees=2,
        data=dict(n_numeric=6, n_categorical=0, n_classes=3, planted_depth=4,
                  noise=0.1),
        tree=dict(max_depth=5),
    )
    table, test = make_inputs(shape, seed=1)
    jobs = make_jobs(shape)
    reference = fit(shape, table, jobs, 2, backend="sim")[1].trees("rf")
    _, report = fit(shape, table, jobs, 2)
    results = {}

    outcome = Outcome()
    outcome.check(same_trees(reference, report), "mp fit")
    outcome.check(same_trees(reference, _Report(_perturbed(reference))), "perturbed model")
    results["perturbed model"] = (outcome.attempted, outcome.failed)

    outcome = Outcome()
    scorer = OfflineScorer(reference, test)
    scorer.score(outcome)
    scorer.expected = scorer.expected.copy()
    scorer.expected[0] = (scorer.expected[0] + 1) % 3
    scorer.score(outcome)
    results["wrong offline prediction"] = (outcome.attempted, outcome.failed)

    outcome = Outcome()
    rng = np.random.default_rng(1)
    bodies, expected, targets = serve._requests(test, scorer.predictor, rng)
    expected = [e.copy() for e in expected]
    expected[1][0] = (expected[1][0] + 1) % 3  # the second warm-up request
    gateway = serve.GatewayProcess(reference)
    try:
        async def warm_up() -> None:
            async with serve.Generator(gateway.port, bodies, expected, targets,
                                       rng, outcome) as gen:
                await gen.warm_up()

        asyncio.run(warm_up())
    finally:
        gateway.stop()
    results["wrong served prediction"] = (outcome.attempted, outcome.failed)

    expected_counts = {
        "perturbed model": (2, 1),
        "wrong offline prediction": (2, 1),
        "wrong served prediction": (serve.WARMUP_REQUESTS, 1),
    }
    ok = True
    for name, counts in results.items():
        good = counts == expected_counts[name]
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: attempted={counts[0]} "
              f"failed={counts[1]} (expected {expected_counts[name]})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

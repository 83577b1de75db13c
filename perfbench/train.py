"""Training workloads: timed ``TreeServer.fit`` runs checked bit for bit.

Each workload draws its train and held-out rows from a fixed synthetic
population, so a seed changes the sample and the bootstrap draws but not
the learning problem, and fit times and accuracy stay comparable across
seeds.  Every timed fit is compared with a simulator reference trained
once per run outside the timed region.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from harness import Outcome, children_peak_rss_mb, median
from layers import train_layers
from spans import Tracer

N_WORKERS = 2
#: Fixed seed of the synthetic population the rows are drawn from.
POPULATION_SEED = 11
#: Fixed job seed (bootstrap and column draws).  It is part of the workload,
#: not of its inputs: on these tables a different column draw moves held-out
#: accuracy by up to 0.2, which would swamp any change.
JOB_SEED = 1
#: Offline scoring repeats after each timed fit.
OFFLINE_REPEATS = 4
#: Share of a traced run's seconds given to traced offline scoring.
OFFLINE_TRACE_SHARE = 0.08


@dataclass(frozen=True)
class TrainShape:
    """One training workload: table, job and system shape."""

    backend: str
    use_shm: bool
    n_rows: int
    n_test: int
    n_trees: int
    data: dict
    tree: dict = field(default_factory=dict)
    #: ``tau_subtree = tau_dfs``; ``None`` means ``n_rows // 2``.
    tau: int | None = None
    #: Column replication ``k``; ``None`` means full (one copy per worker).
    replication: int | None = None


SHAPES = {
    "train-compute": TrainShape(
        backend="mp",
        use_shm=True,
        n_rows=24_000,
        n_test=8_000,
        n_trees=8,
        data=dict(n_numeric=12, n_categorical=4, n_classes=5,
                  planted_depth=6, noise=0.1, missing_rate=0.02),
        tree=dict(max_depth=10),
    ),
    "train-message": TrainShape(
        backend="mp",
        use_shm=True,
        n_rows=24_000,
        n_test=8_000,
        n_trees=4,
        # Numeric only: categorical splits make the number of column tasks
        # swing by about 8 % between samples, numeric ones by about 1 %.
        data=dict(n_numeric=10, n_categorical=0, n_classes=4,
                  planted_depth=7, noise=0.25),
        tree=dict(max_depth=8),
        tau=1,
    ),
    "train-hist-socket": TrainShape(
        backend="socket",
        use_shm=False,
        n_rows=40_000,
        n_test=10_000,
        n_trees=4,
        data=dict(n_numeric=16, n_categorical=0, n_classes=3,
                  planted_depth=7, noise=0.1),
        tree=dict(max_depth=12, split_mode="hist", max_bins=32),
        tau=4_000,
        replication=1,
    ),
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def make_inputs(shape: TrainShape, seed: int):
    """Seeded train/held-out tables drawn from the shape's population."""
    from repro.datasets import SyntheticSpec, generate

    n = shape.n_rows + shape.n_test
    population = generate(
        SyntheticSpec(
            name="perfbench", n_rows=2 * n, seed=POPULATION_SEED,
            **shape.data,
        )
    )
    order = np.random.default_rng(seed).permutation(population.n_rows)
    return population.take(order[: shape.n_rows]), population.take(
        order[shape.n_rows : n]
    )


def make_jobs(shape: TrainShape, n_trees: int | None = None,
              tree: dict | None = None):
    from repro import TreeConfig, random_forest_job

    config = TreeConfig(**(shape.tree if tree is None else tree))
    return [random_forest_job("rf", n_trees or shape.n_trees, config,
                              seed=JOB_SEED)]


def make_system(shape: TrainShape, n_workers: int):
    from repro import SystemConfig

    tau = shape.tau if shape.tau is not None else shape.n_rows // 2
    replication = shape.replication or n_workers
    return SystemConfig(
        n_workers=n_workers,
        compers_per_worker=2,
        tau_subtree=tau,
        tau_dfs=tau,
        column_replication=min(replication, n_workers),
    )


def fit(shape: TrainShape, table, jobs, n_workers: int, backend: str | None = None):
    """One ``TreeServer.fit``; returns ``(wall seconds, RunReport)``."""
    from repro import TreeServer
    from repro.runtime import RuntimeOptions

    server = TreeServer(
        make_system(shape, n_workers),
        backend=backend or shape.backend,
        runtime_options=RuntimeOptions(
            message_timeout_seconds=120.0, use_shm=shape.use_shm
        ),
    )
    start = time.perf_counter()
    report = server.fit(table, jobs)
    return time.perf_counter() - start, report


def same_trees(reference, report) -> bool:
    from repro import trees_equal

    trees = report.trees("rf")
    return len(trees) == len(reference) and all(
        trees_equal(a, b) for a, b in zip(reference, trees)
    )


# ----------------------------------------------------------------------
# phases shared with the serving workload
# ----------------------------------------------------------------------
@dataclass
class FitPhase:
    """What the timed fits of one run produced."""

    reference: list
    fit_s: list[float] = field(default_factory=list)
    fit_1w_s: list[float] = field(default_factory=list)
    #: Per round: the 1-worker fit over the mean of its two 2-worker neighbours.
    scaling: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)


class Stumps:
    """``setup_s`` probes: fits of one depth-1 tree on the same table and system.

    That covers launch, table placement, rendezvous, the threshold book and
    teardown with almost no training in between.
    """

    def __init__(self, shape: TrainShape, table) -> None:
        self.shape, self.table = shape, table
        self.jobs = make_jobs(shape, n_trees=1, tree=dict(shape.tree, max_depth=1))
        self.reference = fit(shape, table, self.jobs, N_WORKERS, backend="sim")[1].trees("rf")

    def probe(self, outcome: Outcome, phase: FitPhase) -> None:
        """One timed stump fit, checked, into ``phase.setup_s``."""
        seconds, report = fit(self.shape, self.table, self.jobs, N_WORKERS)
        if outcome.check(same_trees(self.reference, report), "stump fit"):
            phase.setup_s.append(seconds)


#: Fits per round: 2 workers, 1 worker, 2 workers, so each 1-worker fit has
#: a 2-worker fit on either side in time for its ``scaling_2w`` ratio.
ROUND = (N_WORKERS, 1, N_WORKERS)


def fit_phase(shape, table, jobs, outcome: Outcome, phase: FitPhase,
              deadline: float, before=None, between=None) -> None:
    """Timed fits cycling through :data:`ROUND` until ``deadline``.

    At least one round runs; after that the deadline is checked before
    every fit, so a run overshoots by at most one fit.  ``before`` (a
    set-up probe) runs before each fit and ``between`` (offline scoring)
    after it, so those samples spread over the whole run instead of
    sampling the host at one moment.
    """
    walls: list[float | None] = []
    for i in itertools.count():
        if i >= len(ROUND) and time.perf_counter() >= deadline:
            return
        n_workers = ROUND[i % len(ROUND)]
        if before is not None:
            before()
        seconds, report = fit(shape, table, jobs, n_workers)
        ok = outcome.check(same_trees(phase.reference, report),
                           f"{n_workers}-worker fit")
        if ok:
            (phase.fit_s if n_workers == N_WORKERS else phase.fit_1w_s).append(seconds)
        walls.append(seconds if ok else None)
        if between is not None:
            between()
        if len(walls) == len(ROUND):
            if None not in walls:
                phase.scaling.append(walls[1] / ((walls[0] + walls[2]) / 2))
            walls = []


def traced_fit_phase(shape, table, jobs, outcome: Outcome, phase: FitPhase,
                     tracer: Tracer, deadline: float, before=None) -> None:
    """Untraced and traced 2-worker fits, alternating, for overhead and layers.

    At least one pair runs; the deadline is checked before each pair.
    """
    rounds = 0
    while rounds < 1 or time.perf_counter() < deadline:
        if before is not None:
            before()
        seconds, report = fit(shape, table, jobs, N_WORKERS)
        if outcome.check(same_trees(phase.reference, report), "untraced fit"):
            phase.fit_s.append(seconds)
        tracer.collect()
        tracer.op, tracer.active = rounds + 1, True
        start = time.perf_counter()
        try:
            _, report = fit(shape, table, jobs, N_WORKERS)
        finally:
            end = time.perf_counter()
            tracer.active = False
        spans = tracer.collect()
        if outcome.check(same_trees(phase.reference, report), "traced fit"):
            phase.traced_s.append(end - start)
            phase.layers.append(
                train_layers(spans, report, start, end, N_WORKERS)
            )
        rounds += 1


class OfflineScorer:
    """The trained model compiled once and scored on fixed rows, checked each time.

    Every repeat is compared with the node-based engine's predictions.
    """

    def __init__(self, trees, table) -> None:
        from repro import ForestModel
        from repro.serving import BatchPredictor, compile_forest

        self.expected = ForestModel(trees).predict(table)
        self.accuracy = float(np.mean(self.expected == table.target))
        start = time.perf_counter()
        flat = compile_forest(ForestModel(trees))
        self.compile_s = time.perf_counter() - start
        self.predictor = BatchPredictor(flat)
        self.matrix = np.column_stack(
            [np.asarray(c, dtype=np.float64) for c in table.columns]
        )
        self.rates: list[float] = []

    def score(self, outcome: Outcome, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            labels = self.predictor.predict_matrix(self.matrix)
            elapsed = time.perf_counter() - start
            if outcome.check(np.array_equal(labels, self.expected),
                             "offline predictions"):
                self.rates.append(len(self.matrix) / elapsed)

    def score_for(self, outcome: Outcome, seconds: float, min_repeats: int = 3) -> None:
        deadline = time.perf_counter() + seconds
        done = 0
        while done < min_repeats or time.perf_counter() < deadline:
            self.score(outcome)
            done += 1

    @property
    def rows_per_s(self) -> float:
        return median(self.rates) if self.rates else 0.0


def traced_scoring(scorer: OfflineScorer, outcome: Outcome, tracer: Tracer,
                   seconds: float) -> dict:
    """Score with the tracer on; the ``batch.*`` figures of the offline phase."""
    tracer.collect()
    tracer.active = True
    try:
        scorer.score_for(outcome, seconds)
    finally:
        tracer.active = False
    batch = [s for s in tracer.collect() if s.name == "batch.predict"]
    rows = sum(s.weight for s in batch)
    return {
        "calls": len(batch),
        "predict_s": sum(s.seconds for s in batch),
        "us_per_row": sum(s.seconds for s in batch) / rows * 1e6 if rows else 0.0,
    }


def median_layers(per_fit: list[dict]) -> dict:
    """Per-metric median over the traced fits of a run."""
    return {k: median([d[k] for d in per_fit]) for k in per_fit[0]} if per_fit else {}


def overhead(phase: FitPhase) -> float:
    """Traced ``fit_s`` over untraced ``fit_s``, minus 1."""
    if not (phase.traced_s and phase.fit_s):
        return 0.0
    return median(phase.traced_s) / median(phase.fit_s) - 1.0


def summarize_fits(phase: FitPhase, outcome: Outcome) -> None:
    """End-to-end fit metrics shared by every workload."""
    fit_s = median(phase.fit_s) if phase.fit_s else 0.0
    outcome.put("fit_s", fit_s)
    outcome.put("setup_s", median(phase.setup_s) if phase.setup_s else 0.0)
    if phase.scaling:
        outcome.put("scaling_2w", median(phase.scaling))
    outcome.facts.update(
        fit_s=[round(x, 4) for x in phase.fit_s],
        fit_1w_s=[round(x, 4) for x in phase.fit_1w_s],
        traced_fit_s=[round(x, 4) for x in phase.traced_s],
        setup_s=[round(x, 4) for x in phase.setup_s],
    )


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, tracer: Tracer | None,
        outcome: Outcome) -> None:
    shape = SHAPES[name]
    table, test = make_inputs(shape, seed)
    jobs = make_jobs(shape)
    phase = FitPhase(reference=fit(shape, table, jobs, N_WORKERS, backend="sim")[1].trees("rf"))
    stumps = Stumps(shape, table)
    scorer = OfflineScorer(phase.reference, test)
    scorer.score(outcome)  # warm-up, not timed

    deadline = time.perf_counter() + seconds
    probe = lambda: stumps.probe(outcome, phase)  # noqa: E731
    if tracer is None:
        fit_phase(shape, table, jobs, outcome, phase, deadline, before=probe,
                  between=lambda: scorer.score(outcome, OFFLINE_REPEATS))
    else:
        traced_fit_phase(shape, table, jobs, outcome, phase, tracer,
                         deadline - OFFLINE_TRACE_SHARE * seconds, before=probe)
        offline = traced_scoring(scorer, outcome, tracer,
                                 OFFLINE_TRACE_SHARE * seconds)

    summarize_fits(phase, outcome)
    outcome.put("accuracy", scorer.accuracy)
    outcome.put("offline_rows_per_s", scorer.rows_per_s)
    outcome.put("peak_rss_mb", children_peak_rss_mb())
    outcome.facts["offline_repeats"] = len(scorer.rates)
    if tracer is not None:
        layers = median_layers(phase.layers)
        layers.update({
            "batch.calls": offline["calls"],
            "batch.predict_s": offline["predict_s"],
            "batch.us_per_row.offline": offline["us_per_row"],
            "compiler.compile_s": scorer.compile_s,
            "trace.overhead_frac": overhead(phase),
        })
        outcome.facts["layers"] = layers

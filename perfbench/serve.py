"""The serving workload: a forest behind the HTTP gateway, driven open-loop.

The served forest is trained by a timed ``TreeServer.fit`` (checked against
the simulator), compiled with ``compile_forest`` and served by a
``Gateway`` over one in-process ``PredictionServer`` replica, in a process
of its own so the load generator does not share its interpreter lock.

Online phase: one asyncio generator with two keep-alive connections sends
64-row JSON ``POST /predict`` requests with Poisson arrivals over a fixed
ladder of offered rates; each request is timed from when it was due.  Every
answer is compared with in-process ``BatchPredictor`` output for its rows.
Offline phase: one 100k-row matrix scored through
``BatchPredictor.predict_matrix``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import multiprocessing
import time

import numpy as np

from harness import Outcome, children_peak_rss_mb, median, percentile
from layers import serving_layers
from spans import Tracer
from train import (
    N_WORKERS,
    FitPhase,
    OfflineScorer,
    TrainShape,
    fit,
    fit_phase,
    make_inputs,
    make_jobs,
    median_layers,
    overhead,
    summarize_fits,
    traced_fit_phase,
    traced_scoring,
)

SHAPE = TrainShape(
    backend="mp",
    use_shm=True,
    n_rows=8_000,
    n_test=4_000,
    n_trees=8,
    data=dict(n_numeric=12, n_categorical=0, n_classes=3, planted_depth=6,
              noise=0.1),
    tree=dict(max_depth=10, tau_leaf=32),
)
REQUEST_ROWS = 64
#: Distinct request bodies, drawn once per run and cycled through.
REQUEST_POOL = 256
OFFLINE_ROWS = 100_000
CONNECTIONS = 2
LOW, HIGH = 40.0, 100.0
#: Offered rates (requests/s) and each step's share of the online seconds.
LADDER = ((20.0, 0.12), (LOW, 0.26), (70.0, 0.14), (HIGH, 0.30), (130.0, 0.18))
#: Closed-loop requests sent before the ladder, so lazy set-up is not timed.
WARMUP_REQUESTS = 16
#: Latency limit on p99 for ``goodput_rps``.
P99_LIMIT_MS = 50.0
#: A step keeps up when it completes at least this share of the offered rate.
KEEP_UP = 0.95
REQUEST_TIMEOUT_S = 5.0
#: Shares of the run's seconds: timed fits, online ladder, offline scoring.
FIT_SHARE, ONLINE_SHARE, OFFLINE_SHARE = 0.4, 0.5, 0.1


# ----------------------------------------------------------------------
# the gateway process
# ----------------------------------------------------------------------
def _gateway_main(flat, conn) -> None:
    from repro.serving import (
        Gateway, GatewayConfig, GatewayThread, PredictionServer, ServerConfig,
    )

    server = PredictionServer(flat, ServerConfig())
    runner = GatewayThread(Gateway([server], GatewayConfig(port=0))).start()
    try:
        conn.send(runner.port)
        conn.recv()  # any message, or EOF when the parent is gone: stop
    except EOFError:
        pass
    finally:
        runner.stop()


class GatewayProcess:
    """Compile the forest, start the gateway process, wait for its first 200."""

    def __init__(self, trees) -> None:
        from repro import ForestModel
        from repro.serving import compile_forest

        start = time.perf_counter()
        flat = compile_forest(ForestModel(trees))
        self.compile_s = time.perf_counter() - start
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_gateway_main, args=(flat, child),
                                 name="perfbench-gateway")
        self._proc.start()
        child.close()
        try:
            if not self._conn.poll(60.0):
                raise RuntimeError("gateway process did not report its port")
            self.port = self._conn.recv()
            self._await_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_healthy(self) -> None:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                status, _ = http_get(self.port, "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("gateway never answered /healthz with 200")
            time.sleep(0.002)

    def stop(self) -> None:
        try:
            self._conn.send("stop")
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(30.0)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(10.0)
        self._conn.close()


def http_get(port: int, path: str) -> tuple[int, bytes]:
    client = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        client.request("GET", path)
        response = client.getresponse()
        return response.status, response.read()
    finally:
        client.close()


# ----------------------------------------------------------------------
# the open-loop generator
# ----------------------------------------------------------------------
class _Connection:
    """One keep-alive HTTP/1.1 connection speaking just enough of the protocol."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.reader = self.writer = None

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode() + body)
        await self.writer.drain()
        status_line = await self.reader.readuntil(b"\r\n")
        status = int(status_line.split()[1])
        length = 0
        while (line := await self.reader.readuntil(b"\r\n")) != b"\r\n":
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)


class Generator:
    """Poisson arrivals at fixed offered rates over two keep-alive connections."""

    def __init__(self, port: int, bodies, expected, targets, rng, outcome: Outcome):
        self.port = port
        self.bodies = bodies
        self.expected = expected
        self.targets = targets
        self.rng = rng
        self.outcome = outcome
        self.lags: list[float] = []
        self.backlog_max = 0
        self.sent = self.ok = 0
        self.correct_rows = self.served_rows = 0
        self.round_trips_ms: list[float] = []
        self._conns = [_Connection(port) for _ in range(CONNECTIONS)]

    async def __aenter__(self) -> "Generator":
        for conn in self._conns:
            await conn.open()
        return self

    async def __aexit__(self, *exc) -> None:
        for conn in self._conns:
            await conn.close()

    async def _predict(self, conn: _Connection, pick: int) -> bool:
        """Send request ``pick`` and check its answer; False on any failure.

        A successful request's round trip (from sending, not from when it
        was due) is appended to :attr:`round_trips_ms`.
        """
        sent_at = time.perf_counter()
        try:
            status, payload = await asyncio.wait_for(
                conn.request("POST", "/predict", self.bodies[pick]),
                REQUEST_TIMEOUT_S,
            )
        except (asyncio.TimeoutError, ConnectionError,
                asyncio.IncompleteReadError, ValueError):
            status, payload = None, b""
            await conn.close()
            await conn.open()
        ok = False
        if status == 200:
            labels = np.asarray(json.loads(payload)["predictions"])
            ok = np.array_equal(labels, self.expected[pick])
            self.served_rows += len(labels)
            self.correct_rows += int(np.sum(labels == self.targets[pick]))
        if self.outcome.check(ok, f"request {pick} (status {status})"):
            self.ok += 1
            self.round_trips_ms.append((time.perf_counter() - sent_at) * 1e3)
        self.sent += 1
        return ok

    async def warm_up(self) -> None:
        for pick in range(WARMUP_REQUESTS):
            await self._predict(self._conns[0], pick)

    async def stats(self) -> dict:
        status, payload = await self._conns[0].request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        return json.loads(payload)

    async def step(self, rate: float, seconds: float) -> dict:
        """Offer ``rate`` requests/s for ``seconds``; returns the step's figures."""
        gaps = self.rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < seconds]
        picks = self.rng.integers(0, len(self.bodies), size=len(offsets))
        queue: asyncio.Queue = asyncio.Queue()
        latencies: list[float] = []
        ok = 0
        begin = time.perf_counter()

        async def schedule() -> None:
            for offset, pick in zip(offsets, picks):
                due = begin + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.lags.append(time.perf_counter() - due)
                queue.put_nowait((due, int(pick)))
                self.backlog_max = max(self.backlog_max, queue.qsize())
            for _ in self._conns:
                queue.put_nowait(None)

        async def client(conn: _Connection) -> None:
            nonlocal ok
            while (item := await queue.get()) is not None:
                due, pick = item
                if await self._predict(conn, pick):
                    latencies.append(time.perf_counter() - due)
                    ok += 1
                else:
                    # A failed or refused request misses any latency limit.
                    latencies.append(max(time.perf_counter() - due, REQUEST_TIMEOUT_S))

        tasks = [asyncio.create_task(client(c)) for c in self._conns]
        await schedule()
        await asyncio.gather(*tasks)
        elapsed = time.perf_counter() - begin
        ms = [x * 1e3 for x in latencies]
        return {
            "rate": rate,
            "sent": len(offsets),
            "ok": ok,
            "completed_rate": ok / max(elapsed, seconds),
            "p50_ms": percentile(ms, 50) if ms else REQUEST_TIMEOUT_S * 1e3,
            "p99_ms": percentile(ms, 99) if ms else REQUEST_TIMEOUT_S * 1e3,
        }


async def online_phase(port, bodies, expected, targets, rng, outcome, seconds):
    """The ladder; returns per-step figures, a ``/stats`` snapshot and the
    client's median round trip over the same requests.

    The snapshot is taken after the ``high`` step, before the overloaded
    steps above it, and covers every request sent until then.
    """
    steps, snapshot, client_p50_ms = [], None, 0.0
    async with Generator(port, bodies, expected, targets, rng, outcome) as gen:
        await gen.warm_up()
        for rate, share in LADDER:
            steps.append(await gen.step(rate, share * seconds))
            if rate == HIGH:
                snapshot = await gen.stats()
                client_p50_ms = percentile(gen.round_trips_ms, 50)
    return steps, snapshot, client_p50_ms, gen


def goodput(steps: list[dict]) -> float:
    """Highest offered rate meeting the p99 limit without a growing backlog."""
    good = [
        s["rate"] for s in steps
        if s["p99_ms"] <= P99_LIMIT_MS and s["completed_rate"] >= KEEP_UP * s["rate"]
    ]
    return max(good, default=0.0)


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def _requests(test, predictor, rng):
    """Request bodies, their in-process answers and their true labels."""
    matrix = np.column_stack([np.asarray(c, dtype=np.float64) for c in test.columns])
    starts = rng.integers(0, len(matrix) - REQUEST_ROWS, size=REQUEST_POOL)
    bodies, expected, targets = [], [], []
    for s in starts:
        rows = matrix[s : s + REQUEST_ROWS]
        bodies.append(json.dumps({"rows": rows.tolist()}).encode())
        expected.append(predictor.predict_matrix(rows))
        targets.append(np.asarray(test.target[s : s + REQUEST_ROWS]))
    return bodies, expected, targets


def run(seed: int, seconds: float, tracer: Tracer | None, outcome: Outcome) -> None:
    rng = np.random.default_rng(seed)
    table, test = make_inputs(SHAPE, seed)
    jobs = make_jobs(SHAPE)
    phase = FitPhase(reference=fit(SHAPE, table, jobs, N_WORKERS, backend="sim")[1].trees("rf"))
    scorer = OfflineScorer(
        phase.reference, test.take(rng.integers(0, test.n_rows, size=OFFLINE_ROWS))
    )
    bodies, expected, targets = _requests(test, scorer.predictor, rng)
    scorer.score(outcome)  # warm-up, not timed

    compile_s: list[float] = []

    def probe() -> None:
        gateway = GatewayProcess(phase.reference)
        gateway.stop()
        phase.setup_s.append(gateway.setup_s)
        compile_s.append(gateway.compile_s)

    deadline = time.perf_counter() + FIT_SHARE * seconds
    if tracer is None:
        fit_phase(SHAPE, table, jobs, outcome, phase, deadline, before=probe,
                  between=lambda: scorer.score(outcome))
    else:
        traced_fit_phase(SHAPE, table, jobs, outcome, phase, tracer, deadline,
                         before=probe)

    if tracer is not None:
        tracer.collect()
        tracer.active = True  # the forked gateway process keeps this value
    try:
        gateway = GatewayProcess(phase.reference)
    finally:
        if tracer is not None:
            tracer.active = False
    try:
        steps, snapshot, client_p50_ms, gen = asyncio.run(
            online_phase(gateway.port, bodies, expected, targets, rng, outcome,
                         ONLINE_SHARE * seconds)
        )
    finally:
        gateway.stop()
    online_spans = tracer.collect() if tracer is not None else []
    if tracer is None:
        scorer.score_for(outcome, OFFLINE_SHARE * seconds)
    else:
        offline = traced_scoring(scorer, outcome, tracer, OFFLINE_SHARE * seconds)

    summarize_fits(phase, outcome)
    outcome.put("accuracy", gen.correct_rows / max(gen.served_rows, 1))
    outcome.put("offline_rows_per_s", scorer.rows_per_s)
    outcome.put("peak_rss_mb", children_peak_rss_mb())
    by_rate = {s["rate"]: s for s in steps}
    online = {
        "p50_ms.low": by_rate[LOW]["p50_ms"],
        "p99_ms.low": by_rate[LOW]["p99_ms"],
        "p50_ms.high": by_rate[HIGH]["p50_ms"],
        "p99_ms.high": by_rate[HIGH]["p99_ms"],
        "goodput_rps": goodput(steps),
    }
    outcome.facts.update(
        offline_repeats=len(scorer.rates),
        ladder=[{k: round(v, 3) for k, v in s.items()} for s in steps],
        online=online,
    )
    if tracer is None:
        return
    layers = median_layers(phase.layers)
    layers.update(serving_layers(snapshot, client_p50_ms, online_spans))
    online_batch = [s for s in online_spans if s.name == "batch.predict"]
    layers.update(online)
    layers.update({
        "batch.calls": len(online_batch) + offline["calls"],
        "batch.predict_s": sum(s.seconds for s in online_batch) + offline["predict_s"],
        "batch.us_per_row.offline": offline["us_per_row"],
        "compiler.compile_s": median(compile_s),
        "gen.sent": gen.sent,
        "gen.ok": gen.ok,
        "gen.failed": gen.sent - gen.ok,
        "gen.lag_p99_ms": percentile(gen.lags, 99) * 1e3 if gen.lags else 0.0,
        "gen.backlog_max": gen.backlog_max,
        "trace.overhead_frac": overhead(phase),
    })
    outcome.facts["layers"] = layers

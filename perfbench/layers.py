"""Per-layer metrics from a traced run's spans and the program's own reports.

Times come from spans (self time where a layer's span has children);
counts of messages, bytes, tasks and nodes come from ``RunReport.counters``
and ``RunReport.cluster.transport``, which repeat exactly across fits.
"""

from __future__ import annotations

import os
from collections import defaultdict

from spans import Span, self_seconds, union_seconds

#: Serving-side metrics a training workload has no traffic for; they read 0.
SERVING_ONLY = (
    "gateway.p50_ms", "gateway.p99_ms", "gateway.http_ms", "gateway.bridge_ms",
    "gateway.http_errors",
    "admission.wait_p50_ms", "admission.wait_p99_ms", "admission.throttled",
    "server.p50_ms", "server.p99_ms", "server.batches", "server.avg_batch_rows",
    "server.queue_ms",
    "batch.us_per_row.online",
    "gen.sent", "gen.ok", "gen.failed", "gen.lag_p99_ms", "gen.backlog_max",
    "p50_ms.low", "p99_ms.low", "p50_ms.high", "p99_ms.high", "goodput_rps",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def train_layers(spans: list[Span], report, start: float, end: float,
                 n_workers: int) -> dict[str, float]:
    """Layer metrics of one traced fit spanning ``[start, end]``."""
    own = self_seconds(spans)
    total: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    weight: dict[str, int] = defaultdict(int)
    by_pid: dict[int, list[tuple[float, float]]] = defaultdict(list)
    worker_spans: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        total[s.name] += s.seconds
        selfs[s.name] += own[(s.pid, s.sid)]
        calls[s.name] += 1
        weight[s.name] += s.weight
        by_pid[s.pid].append((s.start, s.end))
        if s.name == "worker.handle":
            worker_spans[s.pid].append((s.start, s.end))
    wall = end - start
    master = by_pid.get(os.getpid(), [])
    busy = sum(union_seconds(v, start, end) for v in worker_spans.values())
    covered = union_seconds([iv for v in by_pid.values() for iv in v], start, end)

    counters = report.counters
    transport = report.cluster.transport
    messages = transport.get("messages_sent", 0)
    pickled = transport.get("bytes_pickled", 0)
    batches = transport.get("coalesced_batches", 0)
    nodes = transport.get("subtree_nodes_built", 0)
    rows = weight["splits.scan"]
    return {
        "master.handle_s": selfs["master.handle"],
        "master.assign_s": total["master.assign"],
        "master.messages": calls["master.handle"],
        "master.column_tasks": counters.column_tasks,
        "master.subtree_tasks": counters.subtree_tasks,
        "master.bplan_peak": counters.bplan_peak,
        "worker.handle_s": selfs["worker.handle"],
        "worker.messages": calls["worker.handle"],
        "worker.busy_share": _ratio(busy, n_workers * wall),
        "splits.scan_s": total["splits.scan"],
        "splits.scan_calls": calls["splits.scan"],
        "splits.rows_scanned": rows,
        "splits.ns_per_row": _ratio(total["splits.scan"], rows) * 1e9,
        "splits.route_s": total["splits.route"],
        "kernel.build_s": total["kernel.build"],
        "kernel.calls": calls["kernel.build"],
        "kernel.nodes": nodes,
        "kernel.us_per_node": _ratio(total["kernel.build"], nodes) * 1e6,
        "kernel.gather_s": transport.get("subtree_gather_s", 0.0),
        "histogram.summary_s": total["histogram.summary"],
        "histogram.score_s": total["histogram.score"],
        "histogram.book_s": total["histogram.book"],
        "runtime.messages": messages,
        "runtime.bytes_pickled": pickled,
        "runtime.bytes_per_message": _ratio(pickled, messages),
        "runtime.coalesced_batches": batches,
        "runtime.msgs_per_batch": _ratio(messages, batches),
        "runtime.idle_share": 1.0 - _ratio(union_seconds(master, start, end), wall),
        "shm.publish_s": total["shm.publish"],
        "shm.bytes_mapped": transport.get("shm_bytes_mapped", 0),
        "trace.unattributed_s": wall - covered,
    }


def serving_layers(stats: dict, client_p50_ms: float, spans: list[Span]) -> dict:
    """Gateway, admission and server metrics from a ``/stats`` snapshot.

    ``client_p50_ms`` is the generator's median round trip (from sending
    the request, not from when it was due) over the requests the snapshot
    covers; ``spans`` are the gateway process's
    ``batch.predict`` spans.
    """
    gateway = stats["gateway"]
    replica = stats["replicas"][0]
    gw_p50 = gateway["gateway_p50_latency_ms"]
    wait_p50 = gateway["queue_wait_ms_p50"]
    server_p50 = replica["p50_latency_ms"]
    n_batches = replica["n_batches"]
    batch = [s for s in spans if s.name == "batch.predict"]
    rows = sum(s.weight for s in batch)
    return {
        "gateway.p50_ms": gw_p50,
        "gateway.p99_ms": gateway["gateway_p99_latency_ms"],
        "gateway.http_ms": client_p50_ms - gw_p50,
        "gateway.bridge_ms": gw_p50 - wait_p50 - server_p50,
        "gateway.http_errors": gateway["http_errors"],
        "admission.wait_p50_ms": wait_p50,
        "admission.wait_p99_ms": gateway["queue_wait_ms_p99"],
        "admission.throttled": gateway["throttled"],
        "server.p50_ms": server_p50,
        "server.p99_ms": replica["p99_latency_ms"],
        "server.batches": n_batches,
        "server.avg_batch_rows": replica["avg_batch_rows"],
        "server.queue_ms": server_p50 - _ratio(replica["kernel_seconds"], n_batches) * 1e3,
        "batch.us_per_row.online": _ratio(sum(s.seconds for s in batch), rows) * 1e6,
    }

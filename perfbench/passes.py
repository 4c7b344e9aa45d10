"""One measured pass of one workload, in a fresh process.

``run.py`` starts this file once per pass::

    python3 perfbench/passes.py --workload batch_store \
        --dir .perfbench/inputs/seed-1/batch_store --spawn-t <monotonic> \
        --scratch .perfbench/tmp [--trace-out FILE]

It imports the program, sets up exactly as the matching CLI subcommand
does (an ``ObsContext``, no trace export, one worker), hands the cached
inputs to the same public entry point, and prints one JSON record: set-up
time, measured wall time, work units, peak RSS and the output digest.
``setup_s`` runs from the parent's spawn timestamp (``time.monotonic``
is system-wide) to the moment the first input is handed over, so it
covers interpreter start, imports, opening or loading the inputs and
building the service or simulator.  A fixed probe (``host_probe()``)
runs right before and right after the measured region and its mean time
is recorded as ``probe_s``, so ``run.py`` can calibrate the pass to a
reference host speed.

With ``--trace-out`` the pass is traced: the public functions of each
layer are wrapped from here (see ``tracing.py``), the garbage collector
is watched, and the spans are written to ``FILE`` at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict

#: Spans that run during set-up, outside the measured region.
SETUP_LAYERS = ("io.load_dataset",)
#: The span covering the measured region; its self time is what no
#: wrapper covers.
ROOT_LAYER = "other"

#: A manet_fig8 op is a node-tick; an AODV control transmission counts as
#: this many.  Route-discovery floods drive the cost and their volume
#: swings with the node placement: over six seeds at equal host speed a
#: pass took 3.5 us per node-tick plus 34 us per control transmission
#: (mostly its neighbours' receptions).  Per node-tick alone the time
#: ranged over 37 % across seeds, per transmission alone over 19 %, per
#: weighted op over 10 %.  Both counts are simulation results (the
#: transmissions are in the digest), so they do not depend on how the
#: engine is written.
CONTROL_TX_WEIGHT = 10


def _identity(func: Callable, name: str) -> Callable:
    return func


_PROBE_LINES = [
    json.dumps({"kind": "gps", "user_id": f"u{i % 50:03d}", "t": 1000.0 + i * 60.5,
                "x": 1234.5 + i * 0.37, "y": 9876.25 - i * 0.11})
    for i in range(6000)
]


def host_probe() -> float:
    """Seconds a fixed mix of interpreter and allocation work takes now.

    The host's speed drifts by up to 1.5x in phases of seconds to minutes
    (other tenants on the shared cores); this fixed work, run right before
    and right after the measured region, tells how fast the host was
    during it.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i * i % 7
    rows = [json.loads(line) for line in _PROBE_LINES]
    rows.sort(key=lambda r: r["t"])
    return time.perf_counter() - t0


class Pass:
    """What one pass measures; workloads fill it in."""

    def __init__(self, spawn_t: float, tracer) -> None:
        self.spawn_t = spawn_t
        self.tracer = tracer
        self.counts: Dict[str, float] = {}
        self.extra: Dict[str, Any] = {}
        self.setup_s = 0.0
        self.wall_s = 0.0
        self._t0 = 0.0
        self._root = -1
        self._probe_before = 0.0
        self.wrap = tracer.wrap if tracer is not None else _identity

    def start(self) -> None:
        """The first input is about to be handed to the program."""
        self.setup_s = time.monotonic() - self.spawn_t
        self._probe_before = host_probe()
        if self.tracer is not None:
            self.tracer.watch_gc()
            self._root = self.tracer.open(self.tracer.name_of(ROOT_LAYER))
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.close(self._root)
            self.tracer.unwatch_gc()
        self.extra["probe_s"] = (self._probe_before + host_probe()) / 2

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


# -- batch_store: repro-study validate --store disk --data DIR ---------------


def batch_store(directory: Path, p: Pass, scratch: Path):
    from repro.core import validate_store
    from repro.obs import ObsContext, activate
    from repro.store import StudyStore

    from inputs import batch_output

    tracer = p.tracer
    if tracer is not None:
        import repro.core.pipeline as pipeline

        def loaded(args, dataset) -> None:
            p.add("store.segments", 1)
            mb = args[1].nbytes / 2**20
            p.counts["store.mapped_mb"] = max(p.counts.get("store.mapped_mb", 0.0), mb)

        tracer.patch(StudyStore, "load_segment", "store.load", on_result=loaded)
        tracer.patch(pipeline, "extract_dataset_visits", "core.extract")
        tracer.patch(pipeline, "match_dataset", "core.match")
        tracer.patch(pipeline, "classify_dataset", "core.classify")
    run = p.wrap(validate_store, "pipeline.self")
    with activate(ObsContext()):
        store = StudyStore.open(directory / "store")
        p.start()
        summary = run(store)
        p.stop()
    p.add("core.visits", summary.n_visits)
    p.add("core.honest", summary.n_honest)
    p.add("core.extraneous", summary.n_extraneous)
    output = batch_output(
        summary.summary(), store.fingerprint(visit_counts=summary.visit_counts)
    )
    return summary.n_users, output


# -- serve_replay: repro-study serve --data DIR --events FILE --------------


def serve_replay(directory: Path, p: Pass, scratch: Path):
    from repro.io import load_dataset
    from repro.obs import ObsContext, activate
    from repro.serve import ServeConfig, ValidationService, read_events

    from inputs import serve_output
    from stats import nearest_rank, tail_percentile

    tracer = p.tracer
    if tracer is not None:
        from repro.serve import engine, service

        def settled(args, verdicts) -> None:
            if verdicts:
                p.add("serve.settle_calls", 1)

        def visits(args, result) -> None:
            p.add("core.visits", len(result))

        def matched(args, result) -> None:
            p.add("core.honest", len(result.matches))
            p.add("core.extraneous", len(result.extraneous))

        tracer.patch(service.ValidationService, "ingest", "serve.dispatch")
        tracer.patch(service.ValidationService, "finish", "serve.finish")
        tracer.patch(engine.StreamEngine, "ingest", "serve.settle",
                     empty_name="serve.dispatch", on_result=settled)
        tracer.patch(engine.StreamEngine, "finalize", "serve.settle",
                     empty_name="serve.finish", on_result=settled)
        tracer.patch(engine, "extract_visits", "serve.kernel", on_result=visits)
        tracer.patch(engine, "match_user", "serve.kernel", on_result=matched)
        tracer.patch(engine, "classify_user_extraneous", "serve.kernel")

    verdict_path = scratch / f"verdicts-{os.getpid()}.jsonl"
    latencies = []
    t_call = 0.0
    finishing = False
    with activate(ObsContext()), verdict_path.open("w") as handle:

        def sink(verdict) -> None:
            if not finishing:
                latencies.append(time.perf_counter() - t_call)
            handle.write(json.dumps(verdict.as_dict()) + "\n")

        dataset = p.wrap(load_dataset, "io.load_dataset")(directory / "data")
        service = ValidationService(
            dataset.pois, ServeConfig(), name=dataset.name,
            sink=p.wrap(sink, "serve.emit"),
        )
        events = read_events(directory / "events.jsonl")
        if tracer is not None:
            events = tracer.iterate(events, "serve.decode")
        p.start()
        for event in events:
            t_call = time.perf_counter()
            service.ingest(event)
        finishing = True
        summary = service.finish()
        p.stop()
    with verdict_path.open() as handle:
        n_lines = sum(1 for _ in handle)
    verdict_path.unlink()
    p.add("serve.events", summary.n_events)
    p.add("serve.verdicts", summary.n_verdicts)
    p.add("serve.chunks", summary.n_chunks)
    p.extra["verdict_samples"] = len(latencies)
    p.extra["verdict_p50_ms"] = nearest_rank(latencies, 50) * 1e3
    p99 = tail_percentile(latencies, 99)
    p.extra["verdict_p99_ms"] = None if p99 is None else p99 * 1e3
    output = serve_output(summary.summary(), summary.fingerprint, n_lines)
    return summary.n_events, output


# -- manet_fig8: run_three_models(models, config) per MANET seed ------------


def manet_fig8(directory: Path, p: Pass, scratch: Path):
    from repro.manet import run_three_models
    from repro.obs import ObsContext, activate

    from inputs import manet_configs, manet_output, models_from_json

    tracer = p.tracer
    if tracer is not None:
        from repro.geo import GridIndex
        from repro.levy import NodeTrace
        from repro.manet import AodvNode, Simulator, runner

        tracer.patch(runner, "generate_fleet", "levy.fleet")
        tracer.patch(NodeTrace, "positions_at", "manet.positions")
        tracer.patch(GridIndex, "from_columns", "manet.index")
        tracer.patch(GridIndex, "within_many", "manet.index")
        for method in ("receive", "tick", "on_unicast_failed", "drain_outbox"):
            tracer.patch(AodvNode, method, "manet.aodv")
        tracer.patch(AodvNode, "has_route", "manet.routes")
        tracer.patch(Simulator, "run", "manet.self")

    sizes = json.loads((directory / "reference.json").read_text())["sizes"]
    with activate(ObsContext()):
        models = models_from_json(
            json.loads((directory / "models.json").read_text())
        )
        configs = manet_configs(sizes["manet_seeds"], sizes["minutes"])
        p.start()
        runs = [run_three_models(models, config) for config in configs]
        p.stop()
    output = manet_output(runs)
    control = sum(sum(run["control"].values()) for run in output["runs"])
    node_ticks = sum(c.n_nodes * c.n_ticks * len(models) for c in configs)
    p.add("manet.data_delivered",
          sum(sum(run["delivered"].values()) for run in output["runs"]))
    p.add("manet.control_tx", control)
    p.extra["node_ticks"] = node_ticks
    return node_ticks + CONTROL_TX_WEIGHT * control, output


PASSES = {
    "batch_store": batch_store,
    "serve_replay": serve_replay,
    "manet_fig8": manet_fig8,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--spawn-t", required=True, type=float)
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out is not None:
        from tracing import Tracer

        tracer = Tracer()
    p = Pass(args.spawn_t, tracer)
    units, output = PASSES[args.workload](args.dir, p, args.scratch)

    import numpy

    from inputs import digest

    record: Dict[str, Any] = {
        "setup_s": p.setup_s,
        "wall_s": p.wall_s,
        "units": units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest(output),
        "counts": p.counts,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        **p.extra,
    }
    if tracer is not None:
        tracer.restore()
        record["layers"] = tracer.layer_self_times()
        record["gc.pause_s"] = tracer.gc_pause_s
        record["gc.collections"] = tracer.gc_collections
        record["spans"] = tracer.span_count()
        tracer.save(args.trace_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

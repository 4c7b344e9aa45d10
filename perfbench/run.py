"""Benchmark entry point: one workload, one seed, one measured run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch_store --seed 1 --seconds 25 --trace 0

Inputs for the seed are generated on first use and cached under
``.perfbench/`` (see ``inputs.py``); generation never enters a timing.
The run then starts fresh single-threaded processes (``passes.py``), one
measured pass each, until ``--seconds`` have passed and at least three
passes are done.  Every pass's output is compared with the seed's
reference digest.

``--trace 0`` reports the end-to-end metrics as medians over the passes.
``--trace 1`` alternates untraced and traced passes, prints the layer
table of the traced pass with the median wall time, and reports the
per-layer metrics.  The last line of standard output is the result
object; the lines before it are the layer table and a JSON record with
the host, the input sizes and every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from inputs import WORKLOADS, load_reference, workload_dir
from passes import ROOT_LAYER, SETUP_LAYERS
from stats import spread

HERE = Path(__file__).resolve().parent

#: What one unit of ``ops_per_s`` is on each workload.
OP_UNIT = {
    "batch_store": "user",
    "serve_replay": "event",
    "manet_fig8": "node-tick (an AODV control transmission counts 10)",
}

#: name -> unit; every --trace 0 run reports all of them.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}

#: name -> unit; every --trace 1 run reports all of them.  A layer the
#: workload never calls reads 0.
PER_LAYER = {
    "store.load_s": "s",
    "store.segments": "count",
    "store.mapped_mb": "MB",
    "core.extract_s": "s",
    "core.match_s": "s",
    "core.classify_s": "s",
    "core.visits": "count",
    "core.honest": "count",
    "core.extraneous": "count",
    "pipeline.self_s": "s",
    "io.load_dataset_s": "s",
    "serve.decode_s": "s",
    "serve.dispatch_s": "s",
    "serve.settle_s": "s",
    "serve.kernel_s": "s",
    "serve.emit_s": "s",
    "serve.finish_s": "s",
    "serve.events": "count",
    "serve.verdicts": "count",
    "serve.chunks": "count",
    "serve.settle_calls": "count",
    "serve.verdict_p50_ms": "ms",
    "serve.verdict_p99_ms": "ms",
    "serve.verdict_samples": "count",
    "levy.fleet_s": "s",
    "manet.positions_s": "s",
    "manet.index_s": "s",
    "manet.aodv_s": "s",
    "manet.routes_s": "s",
    "manet.self_s": "s",
    "manet.data_delivered": "count",
    "manet.control_tx": "count",
    "gc.pause_s": "s",
    "gc.collections": "count",
    "other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "x",
}

#: ``host_probe()`` seconds at the reference host speed ``ops_per_s``
#: is reported at (the median over 150 passes on the 2-vCPU Xeon host
#: the benchmark was built on).
PROBE_REF_S = 0.14

#: Passes a run always makes, however short ``--seconds`` is.
MIN_PASSES = 3
#: Stop starting passes after this long, so a run ends well within 180 s.
HARD_STOP_S = 120.0
PASS_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd: List[str], env: Dict[str, str], what: str) -> str:
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} timed out after {PASS_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return proc.stdout


def run_pass(workload: str, directory: Path, cache: Path, env, trace_out=None) -> Dict[str, Any]:
    cmd = [
        sys.executable, str(HERE / "passes.py"), "--workload", workload,
        "--dir", str(directory), "--scratch", str(cache / "tmp"),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--spawn-t", repr(time.monotonic())]
    out = _run(cmd, env, f"{workload} pass")
    return json.loads(out.strip().splitlines()[-1])


def host_record(first_pass: Dict[str, Any]) -> Dict[str, Any]:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": first_pass["python"],
        "numpy": first_pass["numpy"],
        "platform": platform.platform(),
    }


def repeat(make_passes, seconds: float) -> None:
    """Call ``make_passes()`` until ``seconds`` have passed and at least
    ``MIN_PASSES`` rounds are done (never past ``HARD_STOP_S``)."""
    t0 = time.monotonic()
    rounds = 0
    while rounds < MIN_PASSES or time.monotonic() - t0 < seconds:
        if rounds and time.monotonic() - t0 > HARD_STOP_S:
            break
        make_passes()
        rounds += 1


def tally(passes: List[Dict[str, Any]], reference_digest: str) -> Tuple[int, int]:
    """``(attempted, failed)`` work units: every unit of a pass whose
    output digest differs from the reference counts as failed."""
    attempted = sum(p["units"] for p in passes)
    failed = sum(p["units"] for p in passes if p["digest"] != reference_digest)
    return attempted, failed


def calibrated(p: Dict[str, Any]) -> Dict[str, float]:
    """A pass's set-up time and throughput at the reference host speed:
    each scaled by how much slower than reference the host probe ran
    around the pass."""
    slowdown = p["probe_s"] / PROBE_REF_S
    return {
        "setup_s": p["setup_s"] / slowdown,
        "ops_per_s": p["units"] / p["wall_s"] * slowdown,
    }


def end_to_end(passes: List[Dict[str, Any]]) -> Dict[str, float]:
    cal = [calibrated(p) for p in passes]
    return {
        "setup_s": statistics.median(c["setup_s"] for c in cal),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ops_per_s": statistics.median(c["ops_per_s"] for c in cal),
    }


def layer_table(workload: str, chosen: Dict[str, Any], overhead: float) -> str:
    layers = chosen["layers"]
    wall = chosen["wall_s"]
    rows = sorted(
        ((name, s) for name, s in layers.items() if name not in SETUP_LAYERS),
        key=lambda row: (row[0] == ROOT_LAYER, -row[1]),
    )
    lines = [
        f"layer table: {workload}  traced wall {wall:.3f} s, "
        f"{chosen['spans']} spans, trace overhead {overhead:.2f}x",
        f"  {'layer':<20} {'self s':>9} {'share':>7}",
    ]
    for name, s in rows:
        lines.append(f"  {name:<20} {s:9.4f} {100 * s / wall:6.1f}%")
    total = sum(s for _, s in rows)
    lines.append(f"  {'sum':<20} {total:9.4f} {100 * total / wall:6.1f}%")
    for name in SETUP_LAYERS:
        if name in layers:
            lines.append(f"  set-up {name}: {layers[name]:.4f} s")
    lines.append(
        f"  gc: {chosen['gc.collections']} collections, "
        f"{chosen['gc.pause_s']:.4f} s paused"
    )
    return "\n".join(lines)


def per_layer(untraced, traced, chosen) -> Dict[str, float]:
    layers = chosen["layers"]
    counts = chosen["counts"]
    values: Dict[str, float] = {}
    for name in PER_LAYER:
        if name == "other_s":
            values[name] = layers.get(ROOT_LAYER, 0.0)
        elif name.endswith("_s") and name[:-2] in layers:
            values[name] = layers[name[:-2]]
        else:
            values[name] = counts.get(name, 0)
    values["gc.pause_s"] = chosen["gc.pause_s"]
    values["gc.collections"] = chosen["gc.collections"]
    values["trace.wall_s"] = chosen["wall_s"]
    values["trace.overhead"] = statistics.median(p["wall_s"] for p in traced) / (
        statistics.median(p["wall_s"] for p in untraced)
    )
    for name in ("verdict_p50_ms", "verdict_p99_ms", "verdict_samples"):
        samples = [p[name] for p in untraced if p.get(name) is not None]
        values[f"serve.{name}"] = statistics.median(samples) if samples else 0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run raises SystemExit inside subprocess.run, which
    # then kills and reaps the pass it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {root / 'src'}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    cache = root / ".perfbench"
    (cache / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env(root)

    try:
        t0 = time.monotonic()
        _run(
            [sys.executable, str(HERE / "inputs.py"), args.workload,
             str(args.seed), str(cache / "inputs")],
            env, "input generation",
        )
        generate_s = time.monotonic() - t0
        directory = workload_dir(cache / "inputs", args.workload, args.seed)
        reference = load_reference(directory)

        untraced: List[Dict[str, Any]] = []
        traced: List[Dict[str, Any]] = []
        trace_out = cache / "traces" / f"{args.workload}-seed{args.seed}.npz"
        if args.trace:
            trace_out.parent.mkdir(parents=True, exist_ok=True)

        def make_passes() -> None:
            untraced.append(run_pass(args.workload, directory, cache, env))
            if args.trace:
                traced.append(run_pass(args.workload, directory, cache, env, trace_out))

        repeat(make_passes, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted, failed = tally(passes, reference["digest"])

    if args.trace:
        traced_by_wall = sorted(traced, key=lambda p: p["wall_s"])
        chosen = traced_by_wall[(len(traced_by_wall) - 1) // 2]
        values = per_layer(untraced, traced, chosen)
        print(layer_table(args.workload, chosen, values["trace.overhead"]))
        units = PER_LAYER
    else:
        values = end_to_end(untraced)
        units = END_TO_END

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op": OP_UNIT[args.workload],
        "host": host_record(passes[0]),
        "inputs": reference["sizes"],
        "generate_s": generate_s,
        "spread": {
            "ops_per_s": spread([calibrated(p)["ops_per_s"] for p in untraced]),
            "setup_s": spread([calibrated(p)["setup_s"] for p in untraced]),
            "raw_ops_per_s": spread([p["units"] / p["wall_s"] for p in untraced]),
            "raw_setup_s": spread([p["setup_s"] for p in untraced]),
            "probe_s": spread([p["probe_s"] for p in untraced]),
        },
        "passes": [
            {k: v for k, v in p.items() if k not in ("layers", "python", "numpy")}
            for p in passes
        ],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

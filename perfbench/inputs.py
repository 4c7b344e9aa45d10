"""Benchmark inputs: generated once per seed, cached on disk with the
reference output each workload must reproduce.

Layout under the cache root (``.perfbench/inputs`` in the checkout)::

    seed-<n>/batch_store/store/          scalegen segment store
    seed-<n>/serve_replay/data/          Primary study as JSONL
    seed-<n>/serve_replay/events.jsonl   its captured event stream
    seed-<n>/manet_fig8/models.json      three fitted Levy models
    seed-<n>/<workload>/reference.json   reference digest + input sizes

Each workload's directory is built under a temporary name and renamed
into place once ``reference.json`` is written, so a half-built cache
entry is never used.

The reference comes from a different path than the one measured where
the program has one: batch_store from in-memory ``validate()`` over the
same store, serve_replay from batch ``validate()`` over the same JSONL
study.  The MANET engine's scalar reference is about ten times slower
than the one measured, so manet_fig8's reference is one run of the
measured engine at generation time.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List

WORKLOADS = ("batch_store", "serve_replay", "manet_fig8")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's."""

    #: scalegen users in the batch store, and users per segment.
    batch_users: int = 3000
    segment_users: int = 1000
    #: Primary study scale replayed by serve_replay.
    serve_scale: float = 0.05
    #: Primary study scale the Levy models are fitted from.
    fit_scale: float = 0.3
    #: MANET runs per pass, and simulated minutes per run
    #: (``bench_config()`` runs 30).
    manet_runs: int = 3
    manet_minutes: float = 5


def digest(output: Dict[str, Any]) -> str:
    """SHA-256 of an output record's canonical JSON."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def manet_seeds(seed: int, sizes: Sizes) -> List[int]:
    """MANET placement/flow seeds for a benchmark seed, disjoint across
    benchmark seeds."""
    return [seed * sizes.manet_runs + k for k in range(sizes.manet_runs)]


def manet_configs(seeds: List[int], minutes: float):
    from dataclasses import replace

    from repro.manet import bench_config

    return [replace(bench_config(seed=s), duration_s=60.0 * minutes) for s in seeds]


# -- output records (shared by generation and the measured passes) -------


def batch_output(summary_text: str, fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    return {"summary": summary_text, "fingerprint": fingerprint}


def serve_output(
    summary_text: str, fingerprint: Dict[str, Any], verdicts: int
) -> Dict[str, Any]:
    return {"summary": summary_text, "fingerprint": fingerprint, "verdicts": verdicts}


def manet_output(runs) -> Dict[str, Any]:
    """Figure 8 headline ratios and packet counts of each MANET run."""
    from repro.experiments.figure8 import Figure8Result

    out = []
    for results in runs:
        figure = Figure8Result(results={r.name: r for r in results})
        out.append({
            "headline": figure.headline(),
            "control": {r.name: r.total_control for r in results},
            "delivered": {
                r.name: sum(flow.data_delivered for flow in r.flows)
                for r in results
            },
        })
    return {"runs": out}


# -- Levy model (de)serialisation ----------------------------------------


def models_to_json(models) -> List[Dict[str, Any]]:
    return [asdict(model) for model in models]


def models_from_json(records: List[Dict[str, Any]]):
    from repro.levy import LevyWalkModel
    from repro.stats import ParetoFit

    return [
        LevyWalkModel(
            name=r["name"],
            flight=ParetoFit(**r["flight"]),
            pause=ParetoFit(**r["pause"]),
            k=r["k"],
            rho=r["rho"],
            n_flights=r["n_flights"],
        )
        for r in records
    ]


# -- generators -----------------------------------------------------------


def _build_batch(out: Path, seed: int, sizes: Sizes) -> Dict[str, Any]:
    from repro.core import validate
    from repro.obs import dataset_fingerprint
    from repro.synth import generate_scale_store

    store = generate_scale_store(
        out / "store",
        n_users=sizes.batch_users,
        segment_users=sizes.segment_users,
        seed=seed,
    )
    report = validate(store.load_dataset())
    output = batch_output(report.summary(), dataset_fingerprint(report.dataset))
    return {
        "output": output,
        "sizes": {
            "users": store.n_users,
            "segments": len(store.segments),
            "gps_points": store.n_gps_points,
            "checkins": store.n_checkins,
        },
    }


def _primary(seed: int, scale: float):
    from repro.synth import generate_dataset, primary_config

    return generate_dataset(primary_config(seed=seed).scaled(scale))


def _build_serve(out: Path, seed: int, sizes: Sizes) -> Dict[str, Any]:
    from repro.core import validate
    from repro.io import load_dataset, save_dataset
    from repro.obs import dataset_fingerprint
    from repro.serve import write_events
    from repro.synth import replay_events

    save_dataset(_primary(seed, sizes.serve_scale), out / "data")
    # Reference and events both come from the dataset as serve loads it.
    dataset = load_dataset(out / "data")
    write_events(out / "events.jsonl", replay_events(dataset))
    stats = dataset.stats()
    report = validate(dataset)
    verdicts = report.matching.n_honest + report.matching.n_extraneous + (
        report.matching.n_missing
    )
    output = serve_output(
        report.summary(), dataset_fingerprint(report.dataset), verdicts
    )
    return {
        "output": output,
        "sizes": {
            "scale": sizes.serve_scale,
            "users": stats.n_users,
            "events": stats.n_users + stats.n_gps_points + stats.n_checkins,
            "gps_points": stats.n_gps_points,
            "checkins": stats.n_checkins,
            "verdicts": verdicts,
        },
    }


def _build_manet(out: Path, seed: int, sizes: Sizes) -> Dict[str, Any]:
    from repro.core import validate
    from repro.levy import fit_three_models
    from repro.manet import run_three_models
    from repro.synth import primary_config

    # The models come from the Primary study at its own seed; the
    # benchmark seed picks the node placements and flows.  How much AODV
    # floods is very sensitive to the fitted flight law (one seed's fit
    # gave 2.5x the control traffic of the others), which would make the
    # workload's cost depend on the seed rather than on the code.
    dataset = _primary(primary_config().seed, sizes.fit_scale)
    report = validate(dataset)
    records = models_to_json(
        fit_three_models(dataset, report.matching.honest_checkins)
    )
    (out / "models.json").write_text(json.dumps(records, indent=1) + "\n")
    seeds = manet_seeds(seed, sizes)
    configs = manet_configs(seeds, sizes.manet_minutes)
    # The reference runs the models as the measured pass reads them.
    models = models_from_json(records)
    output = manet_output([run_three_models(models, c) for c in configs])
    return {
        "output": output,
        "sizes": {
            "fit_scale": sizes.fit_scale,
            "models": [r["name"] for r in records],
            "manet_seeds": seeds,
            "minutes": sizes.manet_minutes,
            "nodes": configs[0].n_nodes,
            "ticks": configs[0].n_ticks,
            "pairs": configs[0].n_pairs,
        },
    }


_GENERATORS = {
    "batch_store": _build_batch,
    "serve_replay": _build_serve,
    "manet_fig8": _build_manet,
}


def workload_dir(cache: Path, workload: str, seed: int) -> Path:
    return Path(cache) / f"seed-{seed}" / workload


def ensure(cache: Path, workload: str, seed: int, sizes: Sizes = Sizes()) -> Path:
    """The workload's input directory for ``seed``, generated if absent."""
    final = workload_dir(cache, workload, seed)
    if (final / "reference.json").is_file():
        if load_reference(final).get("params") == asdict(sizes):
            return final
    tmp = final.with_name(f"{workload}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        built = _GENERATORS[workload](tmp, seed, sizes)
        reference = {
            "workload": workload,
            "seed": seed,
            "params": asdict(sizes),
            "sizes": built["sizes"],
            "output": built["output"],
            "digest": digest(built["output"]),
        }
        (tmp / "reference.json").write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n"
        )
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def load_reference(directory: Path) -> Dict[str, Any]:
    return json.loads((Path(directory) / "reference.json").read_text())


def main(argv=None) -> int:
    """Generate one workload's inputs: ``inputs.py WORKLOAD SEED CACHE``."""
    import sys

    workload, seed, cache = (argv if argv is not None else sys.argv[1:])
    ensure(Path(cache), workload, int(seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

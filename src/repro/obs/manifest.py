"""Per-run manifests: what a pipeline run was, exactly.

A :class:`RunManifest` freezes everything needed to audit or compare two
runs: the command, package/python versions, a hash of the effective
configuration, a dataset fingerprint, the seeds, worker count, per-stage
timings, and a snapshot of the metrics registry.  It is written next to
the run's results (the CLI puts it beside ``--trace`` output) and read
back by ``repro-study inspect``.

Schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "command": "validate",
      "package_version": "1.0.0",
      "python_version": "3.11.7",
      "config_hash": "<sha256 hex>",
      "dataset": {"name": ..., "n_users": ..., ..., "sha256": ...},
      "seeds": {"primary": 20131121},
      "workers": 2,
      "timings": {"wall_s": ..., "stages": [...]},
      "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
      "extra": {...},
      "scorecard": {"status": ..., "counts": {...}, "checks": [...]}
    }

``scorecard`` (optional, ``{}`` when the run was not scored) embeds the
fidelity scorecard of :mod:`repro.obs.fidelity`: every paper-reference
check with the reproduced value, relative deviation and
pass/warn/fail/skipped status.  ``extra`` may carry ``headline``
(experiment headline statistics feeding the scorecard) and ``profile``
(per-stage cProfile/tracemalloc summaries under ``--profile``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..model import Dataset

#: Manifest schema version; bump on incompatible shape changes.
SCHEMA_VERSION = 1


def _canonical_json(obj: Any) -> str:
    """Stable JSON used for hashing (sorted keys, dataclasses expanded)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {type(obj).__name__: dataclasses.asdict(obj)}
    return json.dumps(obj, sort_keys=True, default=str)


def config_hash(*configs: Any) -> str:
    """sha256 over the canonical form of the given config objects.

    Dataclass configs hash by class name + field values, so renaming a
    class or changing any threshold changes the hash.
    """
    digest = hashlib.sha256()
    for config in configs:
        digest.update(_canonical_json(config).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def fingerprint_from_counts(
    name: str,
    n_pois: int,
    entries: Any,
) -> Dict[str, Any]:
    """Dataset fingerprint from per-user count metadata alone.

    ``entries`` iterates ``(user_id, n_gps, n_checkins, n_visits)`` in
    dataset user order (``n_visits = -1`` when extraction has not run).
    This is the single digest definition shared by
    :func:`dataset_fingerprint` and the segment-store manifest
    (:meth:`repro.store.StudyStore.fingerprint`), which is what keeps a
    disk-store run's manifest byte-identical to the in-memory path.
    """
    digest = hashlib.sha256()
    digest.update(name.encode("utf-8"))
    digest.update(str(n_pois).encode("utf-8"))
    n_users = 0
    n_checkins = 0
    n_gps = 0
    for user_id, user_gps, user_checkins, user_visits in entries:
        n_users += 1
        n_checkins += user_checkins
        n_gps += user_gps
        digest.update(
            f"{user_id}:{user_gps}:{user_checkins}:{user_visits};".encode("utf-8")
        )
    return {
        "name": name,
        "n_users": n_users,
        "n_pois": n_pois,
        "n_checkins": n_checkins,
        "n_gps_points": n_gps,
        "sha256": digest.hexdigest(),
    }


def dataset_fingerprint(dataset: Any) -> Dict[str, Any]:
    """Cheap structural fingerprint of a dataset.

    Hashes per-user record counts (not record payloads), so it is O(users)
    and stable across processes, yet changes whenever users, their trace
    lengths, or the POI universe change.

    Besides a :class:`Dataset`, accepts a ready fingerprint dict
    (returned unchanged) or any object with a ``fingerprint()`` method —
    the hook a :class:`repro.store.StudyStore` uses so manifests of
    disk-store runs carry the same fingerprint without materialising the
    study.
    """
    if isinstance(dataset, dict):
        return dict(dataset)
    if not isinstance(dataset, Dataset):
        fingerprint = getattr(dataset, "fingerprint", None)
        if callable(fingerprint):
            return fingerprint()
        raise TypeError(
            f"cannot fingerprint {type(dataset).__name__}: "
            "expected a Dataset, a fingerprint dict, or an object with "
            "a fingerprint() method"
        )
    return fingerprint_from_counts(
        dataset.name,
        len(dataset.pois),
        (
            (
                user_id,
                len(data.gps),
                len(data.checkins),
                -1 if data.visits is None else len(data.visits),
            )
            for user_id, data in dataset.users.items()
        ),
    )


@dataclass
class RunManifest:
    """Auditable record of one pipeline run."""

    command: str
    package_version: str
    python_version: str
    config_hash: str
    dataset: Dict[str, Any]
    seeds: Dict[str, int] = field(default_factory=dict)
    workers: Optional[int] = None
    timings: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Fidelity scorecard of this run (``repro.obs.fidelity``); empty
    #: when the run was not scored.
    scorecard: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe dump (includes the schema version)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "package_version": self.package_version,
            "python_version": self.python_version,
            "config_hash": self.config_hash,
            "dataset": dict(self.dataset),
            "seeds": dict(self.seeds),
            "workers": self.workers,
            "timings": dict(self.timings),
            "metrics": dict(self.metrics),
            "extra": dict(self.extra),
            "scorecard": dict(self.scorecard),
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Write the manifest as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        """Read a manifest back (inverse of :meth:`write`)."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported manifest schema_version {version!r} "
                f"(this build reads {SCHEMA_VERSION})"
            )
        return cls(
            command=data["command"],
            package_version=data["package_version"],
            python_version=data["python_version"],
            config_hash=data["config_hash"],
            dataset=data.get("dataset", {}),
            seeds=data.get("seeds", {}),
            workers=data.get("workers"),
            timings=data.get("timings", {}),
            metrics=data.get("metrics", {}),
            extra=data.get("extra", {}),
            scorecard=data.get("scorecard", {}),
        )

    def counter(self, name: str) -> int:
        """A counter's value from the metric snapshot (0 when absent)."""
        return int(self.metrics.get("counters", {}).get(name, 0))

    def format_report(self) -> str:
        """Human-readable rendering (the ``inspect`` subcommand's output)."""
        lines = [
            f"run manifest (schema v{SCHEMA_VERSION})",
            f"  command:         {self.command}",
            f"  package version: {self.package_version}",
            f"  python version:  {self.python_version}",
            f"  config hash:     {self.config_hash}",
            f"  workers:         {self.workers if self.workers is not None else 'serial'}",
        ]
        if self.dataset:
            lines.append(
                f"  dataset:         {self.dataset.get('name', '?')}"
                f" ({self.dataset.get('n_users', '?')} users,"
                f" {self.dataset.get('n_checkins', '?')} checkins,"
                f" {self.dataset.get('n_gps_points', '?')} GPS points)"
            )
            lines.append(f"  dataset sha256:  {self.dataset.get('sha256', '?')}")
        if self.seeds:
            seeds = ", ".join(f"{k}={v}" for k, v in sorted(self.seeds.items()))
            lines.append(f"  seeds:           {seeds}")
        for key, value in sorted(self.extra.items()):
            if key == "health" and isinstance(value, dict):
                lines.append(
                    f"  health:          "
                    f"{'DEGRADED' if value.get('degraded') else 'recovered'}"
                    f" (retries={value.get('retries', 0)},"
                    f" timeouts={value.get('timeouts', 0)},"
                    f" pool_rebuilds={value.get('pool_rebuilds', 0)},"
                    f" serial_fallbacks={value.get('serial_fallbacks', 0)})"
                )
                for skip in value.get("skipped", []):
                    lines.append(
                        f"    skipped: stage {skip.get('stage')!r}"
                        f" shard {skip.get('shard_id')}"
                        f" users {', '.join(skip.get('user_ids', []))}"
                    )
                continue
            if key == "headline" and isinstance(value, dict):
                lines.append("  headline stats:")
                for stat, stat_value in sorted(value.items()):
                    lines.append(f"    {stat:<40} {stat_value:.4g}")
                continue
            if key == "profile" and isinstance(value, dict):
                lines.append("  profile (per stage):")
                for stage, summary in sorted(value.items()):
                    lines.append(
                        f"    {stage:<10} peak"
                        f" {summary.get('tracemalloc_peak_kb', 0.0):.0f} KiB"
                        f" over {summary.get('shards', 0)} shard(s)"
                    )
                    for row in summary.get("top", [])[:3]:
                        lines.append(
                            f"      {row['cumtime_s']:>8.3f} s cum"
                            f"  {row['ncalls']:>7}x  {row['func']}"
                        )
                continue
            lines.append(f"  {key + ':':<16} {value}")
        stages = self.timings.get("stages", [])
        if stages:
            lines.append("  stage timings:")
            for stage in stages:
                lines.append(
                    f"    {stage['stage']:<10} {stage['wall_s']:>8.3f} s"
                    f"  ({stage['executor']}, {len(stage.get('shards', []))} shard(s))"
                )
        counters = self.metrics.get("counters", {})
        if counters:
            lines.append("  counters:")
            for name, value in sorted(counters.items()):
                lines.append(f"    {name:<32} {value}")
        histograms = self.metrics.get("histograms", {})
        if histograms:
            lines.append("  histograms:")
            for name, summary in sorted(histograms.items()):
                lines.append(
                    f"    {name:<32} n={summary.get('count', 0)}"
                    f" p50={summary.get('p50', 0.0):.4g}"
                    f" p99={summary.get('p99', 0.0):.4g}"
                )
        if self.scorecard:
            counts = self.scorecard.get("counts", {})
            lines.append(
                f"  fidelity:        {self.scorecard.get('status', '?').upper()}"
                f" ({counts.get('pass', 0)} pass, {counts.get('warn', 0)} warn,"
                f" {counts.get('fail', 0)} fail,"
                f" {counts.get('skipped', 0)} skipped)"
            )
            for check in self.scorecard.get("checks", []):
                if check.get("status") == "skipped":
                    continue
                lines.append(
                    f"    {check['status']:<5} {check['name']:<40}"
                    f" {check['reproduced']:.4g} vs {check['reference']:g}"
                    f" ({check['source']})"
                )
        return "\n".join(lines)


def build_manifest(
    command: str,
    dataset: Optional[Any] = None,
    configs: tuple = (),
    seeds: Optional[Dict[str, int]] = None,
    workers: Optional[int] = None,
    timings: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> RunManifest:
    """Assemble a :class:`RunManifest` for a finished run."""
    from .. import __version__

    return RunManifest(
        command=command,
        package_version=__version__,
        python_version=platform.python_version(),
        config_hash=config_hash(*configs),
        dataset=dataset_fingerprint(dataset) if dataset is not None else {},
        seeds=seeds or {},
        workers=workers,
        timings=timings or {},
        metrics=metrics or {},
        extra=extra or {},
    )

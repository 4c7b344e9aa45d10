"""Per-shard and per-stage timing capture for the validation runtime.

Every sharded stage records one :class:`ShardTiming` per work unit
(measured inside the worker, so queueing and pickling are excluded) and
wraps them in a :class:`StageTiming` whose wall time *does* include
scheduling overhead.  A :class:`RuntimeTimings` bundles the stages of
one pipeline run; ``as_dict()`` is the shape run manifests record
under ``timings``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass(frozen=True)
class ShardTiming:
    """One shard's execution record."""

    shard_id: int
    n_users: int
    #: Load-balance weight of the shard (checkins + visits/GPS proxy).
    weight: int
    #: Wall seconds spent inside the worker on this shard (the
    #: successful attempt only — failed tries never report timings).
    wall_s: float
    #: How many tries the shard took (1 = clean first run; >1 means the
    #: resilience layer retried it).
    attempts: int = 1

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe record."""
        return {
            "shard_id": self.shard_id,
            "n_users": self.n_users,
            "weight": self.weight,
            "wall_s": self.wall_s,
            "attempts": self.attempts,
        }


@dataclass
class StageTiming:
    """Timing of one sharded pipeline stage."""

    stage: str
    executor: str
    workers: int
    #: End-to-end stage wall seconds, including scheduling and merge.
    wall_s: float = 0.0
    shards: List[ShardTiming] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        """Total worker-side seconds across shards."""
        return sum(s.wall_s for s in self.shards)

    @property
    def critical_path_s(self) -> float:
        """The slowest shard — the floor on parallel stage time."""
        return max((s.wall_s for s in self.shards), default=0.0)

    def imbalance(self) -> float:
        """max/mean shard time; 1.0 is a perfectly balanced stage.

        Degenerate cases are handled symmetrically: no shards or an
        all-zero-duration stage (``critical_path_s == 0``) is perfectly
        balanced by definition (1.0), while a nonzero critical path over
        a zero mean — only reachable through hand-built records, since
        ``busy_s >= critical_path_s`` for nonnegative shard times — is
        unbounded imbalance (``inf``), not silently "balanced".
        """
        if not self.shards or self.critical_path_s == 0.0:
            return 1.0
        mean = self.busy_s / len(self.shards)
        if mean <= 0.0:
            return float("inf")
        return self.critical_path_s / mean

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe record."""
        return {
            "stage": self.stage,
            "executor": self.executor,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "busy_s": self.busy_s,
            "critical_path_s": self.critical_path_s,
            "imbalance": self.imbalance(),
            "shards": [s.as_dict() for s in self.shards],
        }


@dataclass
class RuntimeTimings:
    """All stage timings of one ``validate`` run."""

    stages: List[StageTiming] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Total wall seconds across stages."""
        return sum(stage.wall_s for stage in self.stages)

    def stage(self, name: str) -> StageTiming:
        """Look a stage up by name, raising on unknown stages."""
        for stage in self.stages:
            if stage.stage == name:
                return stage
        raise KeyError(f"no timing recorded for stage {name!r}")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe record — a run manifest's ``timings`` field."""
        return {"wall_s": self.wall_s, "stages": [s.as_dict() for s in self.stages]}

    def format_report(self) -> str:
        """Human-readable per-stage breakdown."""
        lines = [f"pipeline wall time: {self.wall_s:.3f} s"]
        for stage in self.stages:
            lines.append(
                f"  {stage.stage:<10} {stage.wall_s:>8.3f} s"
                f"  ({stage.executor}, {stage.workers} worker(s),"
                f" {len(stage.shards)} shard(s),"
                f" imbalance {stage.imbalance():.2f})"
            )
        return "\n".join(lines)

"""Run-diff regression auditing: structural comparison of two runs.

:func:`diff_manifests` compares two :class:`~repro.obs.manifest.RunManifest`
objects — typically a committed reference run vs. a fresh one — and
classifies every difference as either

* ``info`` — expected variation between legitimate re-runs: worker
  count, package/Python versions, execution-shape metrics (the
  ``runtime.*`` family scales with the shard layout), sub-threshold
  wall-time movement, the path the data was read from;
* ``regression`` — something the determinism contract says must not
  move: the config hash, the dataset fingerprint, seeds, any semantic
  metric (``matching.*``, ``classify.*``, ``extract.*``, ``synth.*``,
  ``pipeline.*``), recorded headline statistics, a scorecard status
  flip for the worse, or a per-stage wall-time regression beyond *both*
  a relative threshold and an absolute floor (the floor keeps
  millisecond-scale runs from flagging timer noise).

The result is a :class:`ManifestDiff` with deterministic
:meth:`~ManifestDiff.as_dict` output and a ``has_regressions`` flag the
CLI turns into a non-zero exit code — ``repro-study diff ref.json
fresh.json`` fails a build exactly when a run drifted.

:func:`diff_traces` applies the same idea to two exported trace streams
(JSONL files from ``--trace``): semantic metric lines must agree
exactly; span-name population differences are reported as ``info``
(span *counts* for ``shard.run`` legitimately vary with the worker
count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: Metric-name prefixes that describe the execution shape, not the
#: results; they legitimately differ across worker counts.
EXECUTION_METRIC_PREFIXES = ("runtime.",)

#: Manifest fields whose differences are expected between re-runs.
INFO_FIELDS = ("command", "package_version", "python_version", "workers")

#: ``extra`` keys that never gate a diff: health/profile describe how a
#: particular execution went, and the same data may sit at another path.
SKIP_EXTRA_KEYS = frozenset({"health", "profile"})
INFO_EXTRA_KEYS = frozenset({"data"})

#: Default per-stage wall-time regression gate.
WALL_REL_THRESHOLD = 0.25
WALL_ABS_FLOOR_S = 0.5

#: How much worse each scorecard status is (flip gating).
_SCORE_RANK = {"skipped": 0, "pass": 0, "warn": 1, "fail": 2}


@dataclass(frozen=True)
class DiffEntry:
    """One observed difference between run A and run B."""

    section: str
    key: str
    severity: str  # "info" | "regression"
    a: Any
    b: Any
    note: str = ""

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe record."""
        return {
            "section": self.section,
            "key": self.key,
            "severity": self.severity,
            "a": self.a,
            "b": self.b,
            "note": self.note,
        }


@dataclass
class ManifestDiff:
    """All differences between two runs, classified by severity."""

    entries: List[DiffEntry] = field(default_factory=list)

    def add(self, section: str, key: str, severity: str, a: Any, b: Any,
            note: str = "") -> None:
        """Record one difference."""
        self.entries.append(DiffEntry(section, key, severity, a, b, note))

    @property
    def has_regressions(self) -> bool:
        """True when any difference is classified as a regression."""
        return any(e.severity == "regression" for e in self.entries)

    def regressions(self) -> List[DiffEntry]:
        """Only the regression-severity entries."""
        return [e for e in self.entries if e.severity == "regression"]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe dump (entries sorted for deterministic output)."""
        ordered = sorted(
            self.entries, key=lambda e: (e.severity != "regression",
                                         e.section, e.key)
        )
        return {
            "regression": self.has_regressions,
            "n_regressions": len(self.regressions()),
            "n_info": len(self.entries) - len(self.regressions()),
            "entries": [e.as_dict() for e in ordered],
        }

    def format_report(self) -> str:
        """Human-readable rendering (the ``diff`` subcommand's output)."""
        regressions = self.regressions()
        infos = [e for e in self.entries if e.severity == "info"]
        if not self.entries:
            return "runs are equivalent: no differences"
        lines = [
            f"run diff: {'REGRESSION' if regressions else 'equivalent'}"
            f" ({len(regressions)} regression(s), {len(infos)} info)"
        ]
        for entry in sorted(regressions, key=lambda e: (e.section, e.key)):
            lines.append(
                f"  REGRESSION {entry.section}/{entry.key}: "
                f"{entry.a!r} -> {entry.b!r}"
                + (f"  ({entry.note})" if entry.note else "")
            )
        for entry in sorted(infos, key=lambda e: (e.section, e.key)):
            lines.append(
                f"  info       {entry.section}/{entry.key}: "
                f"{entry.a!r} -> {entry.b!r}"
                + (f"  ({entry.note})" if entry.note else "")
            )
        return "\n".join(lines)


def _is_execution_metric(name: str) -> bool:
    return name.startswith(EXECUTION_METRIC_PREFIXES)


def _diff_mapping(
    diff: ManifestDiff,
    section: str,
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    severity_of,
    note_of=None,
) -> None:
    """Compare two flat mappings key by key (union of keys)."""
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        note = note_of(key, va, vb) if note_of else ""
        diff.add(section, key, severity_of(key), va, vb, note)


def _flatten(mapping: Mapping[str, Any]) -> Dict[str, Any]:
    """Dotted-key flattening of a nested dict of scalars."""
    out: Dict[str, Any] = {}
    for key, value in mapping.items():
        if isinstance(value, dict):
            for sub_key, sub_value in _flatten(value).items():
                out[f"{key}.{sub_key}"] = sub_value
        else:
            out[key] = value
    return out


def _diff_scorecards(
    diff: ManifestDiff, a: Mapping[str, Any], b: Mapping[str, Any]
) -> None:
    """Flag per-check status flips; worsening flips are regressions.

    A check only one scorecard lists (the registry gained or lost it
    between the runs) is reported as info, with ``None`` for the side
    that lacks it, rather than read as ``skipped``.
    """
    checks_a = {c["name"]: c for c in a.get("checks", [])}
    checks_b = {c["name"]: c for c in b.get("checks", [])}
    for name in sorted(set(checks_a) | set(checks_b)):
        if name not in checks_a or name not in checks_b:
            side = "A" if name in checks_a else "B"
            diff.add(
                "scorecard", name, "info",
                checks_a.get(name, {}).get("status"),
                checks_b.get(name, {}).get("status"),
                note=f"fidelity check only in run {side}",
            )
            continue
        status_a = checks_a[name].get("status", "skipped")
        status_b = checks_b[name].get("status", "skipped")
        if status_a == status_b:
            continue
        worsened = _SCORE_RANK[status_b] > _SCORE_RANK[status_a]
        diff.add(
            "scorecard", name,
            "regression" if worsened else "info",
            status_a, status_b,
            note="fidelity check worsened" if worsened else "fidelity check improved",
        )


def _diff_timings(
    diff: ManifestDiff,
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    wall_rel_threshold: float,
    wall_abs_floor_s: float,
) -> None:
    """Per-stage wall-time comparison behind a relative+absolute gate."""
    stages_a = {s["stage"]: s for s in a.get("stages", [])}
    stages_b = {s["stage"]: s for s in b.get("stages", [])}
    if sorted(stages_a) != sorted(stages_b):
        diff.add(
            "timings", "stages", "regression",
            sorted(stages_a), sorted(stages_b),
            note="stage structure changed",
        )
        return
    for stage in sorted(stages_a):
        wall_a = float(stages_a[stage].get("wall_s", 0.0))
        wall_b = float(stages_b[stage].get("wall_s", 0.0))
        delta = wall_b - wall_a
        if wall_a > 0.0 and delta > wall_a * wall_rel_threshold:
            slower = (
                f"{100 * delta / wall_a:.0f}% slower"
                f" (+{delta:.3f} s)"
            )
            if delta > wall_abs_floor_s:
                diff.add("timings", stage, "regression", wall_a, wall_b,
                         note=f"wall-time regression: {slower}")
            else:
                diff.add("timings", stage, "info", wall_a, wall_b,
                         note=f"{slower}; under the {wall_abs_floor_s:g} s floor")


def diff_manifests(
    a: Any,
    b: Any,
    wall_rel_threshold: float = WALL_REL_THRESHOLD,
    wall_abs_floor_s: float = WALL_ABS_FLOOR_S,
) -> ManifestDiff:
    """Structural diff of two :class:`RunManifest` objects (A = reference).

    Returns a :class:`ManifestDiff`; ``diff.has_regressions`` is the
    build-gating signal.  Two runs of the same configuration over the
    same dataset — at any worker counts, on any hosts — produce no
    regressions; statistic drift, config/dataset changes, worsening
    scorecard flips, and above-threshold stage slowdowns do.
    """
    diff = ManifestDiff()
    for fld in INFO_FIELDS:
        va, vb = getattr(a, fld), getattr(b, fld)
        if va != vb:
            diff.add("run", fld, "info", va, vb)
    if a.config_hash != b.config_hash:
        diff.add("run", "config_hash", "regression", a.config_hash,
                 b.config_hash, note="effective configuration changed")
    _diff_mapping(diff, "dataset", a.dataset, b.dataset,
                  severity_of=lambda key: "regression",
                  note_of=lambda key, va, vb: "dataset fingerprint changed")
    _diff_mapping(diff, "seeds", a.seeds, b.seeds,
                  severity_of=lambda key: "regression")

    metrics_a, metrics_b = a.metrics or {}, b.metrics or {}
    for kind in ("counters", "gauges"):
        _diff_mapping(
            diff, f"metrics.{kind}",
            metrics_a.get(kind, {}), metrics_b.get(kind, {}),
            severity_of=lambda key: (
                "info" if _is_execution_metric(key) else "regression"
            ),
            note_of=lambda key, va, vb: (
                "execution-shape metric" if _is_execution_metric(key)
                else "semantic metric drift"
            ),
        )
    hist_a = metrics_a.get("histograms", {})
    hist_b = metrics_b.get("histograms", {})
    for name in sorted(set(hist_a) | set(hist_b)):
        sa, sb = hist_a.get(name), hist_b.get(name)
        if sa == sb:
            continue
        if _is_execution_metric(name):
            continue  # shard wall-time pools always differ; pure noise
        diff.add("metrics.histograms", name, "regression", sa, sb,
                 note="semantic metric drift")

    extra_a = _flatten({k: v for k, v in (a.extra or {}).items()
                        if k not in SKIP_EXTRA_KEYS})
    extra_b = _flatten({k: v for k, v in (b.extra or {}).items()
                        if k not in SKIP_EXTRA_KEYS})
    _diff_mapping(
        diff, "extra", extra_a, extra_b,
        severity_of=lambda key: (
            "info" if key in INFO_EXTRA_KEYS else "regression"
        ),
        note_of=lambda key, va, vb: (
            "" if key in INFO_EXTRA_KEYS else "recorded run statistic drifted"
        ),
    )

    _diff_scorecards(diff, getattr(a, "scorecard", {}) or {},
                     getattr(b, "scorecard", {}) or {})
    _diff_timings(diff, a.timings or {}, b.timings or {},
                  wall_rel_threshold, wall_abs_floor_s)
    return diff


def diff_traces(
    a_records: Iterable[Mapping[str, Any]],
    b_records: Iterable[Mapping[str, Any]],
) -> ManifestDiff:
    """Structural diff of two exported trace streams (``--trace`` JSONL).

    Semantic metric lines (``type == "metric"``, name outside the
    execution-shape families) must agree exactly; differing span-name
    populations are reported as ``info`` — shard spans scale with the
    worker count by design.
    """
    diff = ManifestDiff()

    def split(records):
        metrics: Dict[str, Dict[str, Any]] = {}
        span_names: Dict[str, int] = {}
        for record in records:
            rtype = record.get("type")
            if rtype == "metric" and not _is_execution_metric(record.get("name", "")):
                payload = {k: v for k, v in record.items() if k != "type"}
                metrics[f"{record.get('kind')}:{record.get('name')}"] = payload
            elif rtype == "span":
                name = record.get("name", "?")
                span_names[name] = span_names.get(name, 0) + 1
        return metrics, span_names

    metrics_a, spans_a = split(a_records)
    metrics_b, spans_b = split(b_records)
    _diff_mapping(diff, "trace.metrics", metrics_a, metrics_b,
                  severity_of=lambda key: "regression",
                  note_of=lambda key, va, vb: "semantic metric drift")
    for name in sorted(set(spans_a) | set(spans_b)):
        ca, cb = spans_a.get(name, 0), spans_b.get(name, 0)
        if ca != cb:
            diff.add("trace.spans", name, "info", ca, cb,
                     note="span population differs (execution shape)")
    return diff

"""Live telemetry: background sampler, status file, OpenMetrics endpoint.

Everything else in :mod:`repro.obs` is post-hoc — traces, manifests and
scorecards describe a run after it exits.  This module is the *live*
surface: a :class:`TelemetrySampler` thread periodically snapshots the
run's metrics plus process stats (RSS, CPU time, thread count) into

* an in-memory **ring buffer** of recent samples,
* an atomically-rewritten ``live.json`` **status file** readable from
  another process at any instant (the write is tmp + ``os.replace``, so
  a reader never sees a torn document), and
* an opt-in **OpenMetrics/Prometheus** text-format HTTP endpoint
  (stdlib ``http.server``; ``port=0`` binds an ephemeral port).

The sampler is strictly pull-based: instrumented code never blocks on
it, and when no sampler is armed the hot paths take a ``tel is None``
branch — no thread, no files, no allocations.  Metric sources are
**collectors**, plain callables returning a metrics-shaped dict
(``{"counters": ..., "gauges": ..., "histograms": ...}``); the sampler
merges them per tick.  A collector that raises is counted
(``telemetry.collector_errors_total``) and skipped, never fatal.

Metric family naming convention (DESIGN §12): internal dotted names map
to OpenMetrics families as ``repro_`` + dots→underscores; a per-series
label suffix rides in the JSON key as ``name{label=value}``, e.g.
``job.items_total{shard=3}`` →
``repro_job_items_total{shard="3"}``.  Counters must end in
``_total``; histogram summaries expose ``{quantile="..."}`` series plus
``_count``/``_sum``.  :func:`parse_openmetrics` round-trips the
rendered text (pinned by ``tests/test_obs_telemetry.py``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .metrics import PERCENTILES

__all__ = [
    "LiveMetrics",
    "ProgressLine",
    "TelemetrySampler",
    "format_dashboard",
    "parse_openmetrics",
    "process_stats",
    "read_status",
    "registry_collector",
    "render_openmetrics",
    "sample_rates",
]

#: ``live.json`` / sample schema version (bump on incompatible change).
STATUS_SCHEMA = 1

#: Default status file name inside a run directory.
STATUS_FILENAME = "live.json"


# -- process stats ----------------------------------------------------------


def _rss_kb() -> float:
    """Resident set size in KiB (0.0 when the platform offers nothing)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; normalise the obvious case.
        return peak / 1024.0 if peak > 1 << 32 else float(peak)
    except Exception:
        return 0.0


def process_stats() -> Dict[str, float]:
    """Cheap point-in-time process stats: RSS, CPU time, thread count."""
    times = os.times()
    return {
        "rss_kb": _rss_kb(),
        "cpu_s": times.user + times.system,
        "threads": float(threading.active_count()),
    }


# -- metric containers ------------------------------------------------------


def _empty_metrics() -> Dict[str, Dict[str, Any]]:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def _merge_metrics(into: Dict[str, Any], part: Dict[str, Any]) -> None:
    """Merge one collector's families into the tick's metrics dict."""
    for section in ("counters", "gauges", "histograms"):
        values = part.get(section)
        if values:
            into[section].update(values)


class LiveMetrics:
    """Tiny thread-safe counter/gauge bag for live-only instruments.

    Live progress figures (segments done, users done so far) must not
    leak into the run's :class:`~repro.obs.MetricsRegistry`
    — manifests and parity suites compare those byte-for-byte, and a
    batch run with telemetry on must stay byte-identical to one without.
    So live publishers write here instead; the owning sampler includes
    this bag as its first collector.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}

    def inc(self, name: str, n: float = 1) -> None:
        """Add ``n`` to live counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Overwrite live gauge ``name``."""
        with self._lock:
            self._gauges[name] = float(value)

    def collect(self) -> Dict[str, Any]:
        """Snapshot as a metrics-shaped dict (collector protocol)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {},
            }


def registry_collector(registry: Any) -> Callable[[], Dict[str, Any]]:
    """Collector over a :class:`repro.obs.MetricsRegistry`.

    The registry is owned by the run's thread and is not thread-safe;
    the sampler reads it *best-effort* — a snapshot that races a dict
    resize raises ``RuntimeError`` and the tick simply reuses what it
    has.  Values may be mid-update by one increment; for monitoring
    that is fine (and the post-hoc manifest stays the source of truth).
    """

    def collect() -> Dict[str, Any]:
        snapshot = registry.snapshot()  # may raise RuntimeError mid-resize
        return {
            "counters": dict(snapshot.get("counters", {})),
            "gauges": dict(snapshot.get("gauges", {})),
            "histograms": dict(snapshot.get("histograms", {})),
        }

    return collect


# -- OpenMetrics text format ------------------------------------------------


def split_series(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a JSON metric key ``name{label=value,...}`` into its parts."""
    if "{" not in key:
        return key, {}
    name, _, raw = key.partition("{")
    labels: Dict[str, str] = {}
    for part in raw.rstrip("}").split(","):
        if part:
            label, _, value = part.partition("=")
            labels[label.strip()] = value.strip().strip('"')
    return name, labels


def metric_family(name: str) -> str:
    """OpenMetrics family name for an internal dotted metric name."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name.replace(".", "_")
    )
    return f"repro_{cleaned}"


def _label_str(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _fmt(value: float) -> str:
    """Compact number formatting (ints stay ints)."""
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_openmetrics(sample: Dict[str, Any]) -> str:
    """Render one sample as OpenMetrics/Prometheus text format.

    Families are emitted in sorted order with one ``# TYPE`` line each;
    histogram summaries become ``summary`` families with
    ``{quantile="0.xx"}`` series plus ``_count`` and ``_sum``.
    """
    metrics = sample.get("metrics", {})
    process = sample.get("process", {})
    # family -> (type, [(labels, value)])
    families: Dict[str, Tuple[str, List[Tuple[Dict[str, str], float]]]] = {}

    def add(name: str, kind: str, labels: Dict[str, str], value: float) -> None:
        family = families.setdefault(metric_family(name), (kind, []))
        family[1].append((labels, float(value)))

    if process:
        add("process.resident_memory_kb", "gauge", {},
            process.get("rss_kb", 0.0))
        add("process.cpu_seconds_total", "counter", {},
            process.get("cpu_s", 0.0))
        add("process.threads", "gauge", {}, process.get("threads", 0.0))
    add("telemetry.uptime_seconds", "gauge", {}, sample.get("uptime_s", 0.0))
    add("telemetry.samples_total", "counter", {}, sample.get("seq", 0))
    for key, value in metrics.get("counters", {}).items():
        name, labels = split_series(key)
        add(name, "counter", labels, value)
    for key, value in metrics.get("gauges", {}).items():
        name, labels = split_series(key)
        add(name, "gauge", labels, value)
    for key, summary in metrics.get("histograms", {}).items():
        name, labels = split_series(key)
        family = metric_family(name)
        kind_series = families.setdefault(family, ("summary", []))
        for p in PERCENTILES:
            q_labels = dict(labels)
            q_labels["quantile"] = f"{p / 100:g}"
            kind_series[1].append((q_labels, float(summary.get(f"p{p}", 0.0))))
        families.setdefault(family + "_count", ("counter", []))[1].append(
            (dict(labels), float(summary.get("count", 0)))
        )
        families.setdefault(family + "_sum", ("counter", []))[1].append(
            (dict(labels), float(summary.get("sum", 0.0)))
        )

    lines: List[str] = []
    for family in sorted(families):
        kind, series = families[family]
        lines.append(f"# TYPE {family} {kind}")
        for labels, value in series:
            lines.append(f"{family}{_label_str(labels)} {_fmt(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse :func:`render_openmetrics` output back into families.

    Returns ``{family: {"type": kind, "samples": {label_str: value}}}``
    where ``label_str`` is the canonical ``{k="v",...}`` rendering (``""``
    for an unlabelled series).  Strict enough to catch a malformed
    exposition (the round-trip test's job), not a general scraper.
    """
    families: Dict[str, Dict[str, Any]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            family, _, kind = rest.partition(" ")
            families[family] = {"type": kind.strip(), "samples": {}}
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            family = line[: line.index("{")]
            labels = line[line.index("{"): line.rindex("}") + 1]
            raw_value = line[line.rindex("}") + 1:].strip()
        else:
            family, _, raw_value = line.partition(" ")
            labels = ""
        if family not in families:
            raise ValueError(f"sample before # TYPE for family {family!r}")
        families[family]["samples"][labels] = float(raw_value)
    return families


# -- the sampler ------------------------------------------------------------


class TelemetrySampler:
    """Low-overhead background sampler with ring buffer, status file and
    optional OpenMetrics endpoint.

    ``collectors`` are called on every tick (sampler thread); their
    families merge left-to-right after the built-in :attr:`live` bag.
    ``status_path`` may be a directory (``live.json`` lands inside) or a
    file path.  ``port`` arms the HTTP endpoint (``0`` = ephemeral;
    ``None`` = no server).  Nothing starts until :meth:`start`.

    Lifecycle: :meth:`start` → ticks every ``interval_s`` → :meth:`close`
    (idempotent, also runs on ``with``-exit and takes a final sample
    flagged ``finished``), so a crash-interrupted run leaves the last
    good status file behind rather than a torn one.
    """

    THREAD_NAME = "repro-telemetry"

    def __init__(
        self,
        collectors: Sequence[Callable[[], Dict[str, Any]]] = (),
        interval_s: float = 1.0,
        status_path: Optional[Union[str, Path]] = None,
        ring_size: int = 600,
        port: Optional[int] = None,
        command: str = "",
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        self.live = LiveMetrics()
        self.collectors: List[Callable[[], Dict[str, Any]]] = [
            self.live.collect, *collectors
        ]
        self.interval_s = interval_s
        self.command = command
        if status_path is not None:
            status_path = Path(status_path)
            if status_path.is_dir() or not status_path.suffix:
                status_path = status_path / STATUS_FILENAME
        self.status_path: Optional[Path] = status_path
        self.ring: "deque[Dict[str, Any]]" = deque(maxlen=ring_size)
        self._requested_port = port
        self.port: Optional[int] = None
        self._server: Any = None
        self._server_thread: Optional[threading.Thread] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._seq = 0
        self._collector_errors = 0
        self._t0 = time.monotonic()
        self._started = False
        self._closed = False

    # -- sampling ----------------------------------------------------------

    def collect(self, finished: bool = False) -> Dict[str, Any]:
        """Build one sample (no side effects — used by scrapes too)."""
        metrics = _empty_metrics()
        for collector in self.collectors:
            try:
                _merge_metrics(metrics, collector())
            except Exception:
                # A racing registry resize or a buggy collector must
                # never kill the sampler; surface it as a counter.
                self._collector_errors += 1
        if self._collector_errors:
            metrics["counters"]["telemetry.collector_errors_total"] = (
                self._collector_errors
            )
        sample: Dict[str, Any] = {
            "schema": STATUS_SCHEMA,
            "command": self.command,
            "seq": self._seq,
            "pid": os.getpid(),
            "t_epoch": time.time(),
            "uptime_s": time.monotonic() - self._t0,
            "finished": bool(finished),
            "process": process_stats(),
            "metrics": metrics,
        }
        if self.port is not None:
            sample["endpoint"] = {"port": self.port}
        return sample

    def sample_now(self, finished: bool = False) -> Dict[str, Any]:
        """Take one sample: ring-buffer it and rewrite the status file."""
        sample = self.collect(finished=finished)
        self._seq += 1
        self.ring.append(sample)
        if self.status_path is not None:
            self._write_status(sample)
        return sample

    def _write_status(self, sample: Dict[str, Any]) -> None:
        """Crash-safe rewrite: tmp file + atomic rename, fsync'd.

        A reader (``repro-study monitor``, another process entirely)
        always sees either the previous or the new complete document.
        """
        path = self.status_path
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        payload = json.dumps(sample, sort_keys=True)
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            # Status is advisory; a full disk must not fail the run.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    @property
    def latest(self) -> Optional[Dict[str, Any]]:
        """The most recent sample (``None`` before the first tick)."""
        return self.ring[-1] if self.ring else None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "TelemetrySampler":
        """Spawn the sampler thread (and the HTTP endpoint, if armed)."""
        if self._started:
            return self
        self._started = True
        if self._requested_port is not None:
            self._start_server(self._requested_port)
        self.sample_now()  # an immediate first sample: status exists at once
        self._thread = threading.Thread(
            target=self._run, name=self.THREAD_NAME, daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_now()

    def close(self, finished: bool = True) -> None:
        """Stop the thread, take a final sample, shut the endpoint down.

        Idempotent; safe to call from ``finally`` after a crash — the
        final sample (flagged ``finished`` on a clean exit) still lands.
        """
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._started:
            self.sample_now(finished=finished)
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            if self._server_thread is not None:
                self._server_thread.join()
            self._server = None
            self._server_thread = None

    def __enter__(self) -> "TelemetrySampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(finished=exc_type is None)

    # -- HTTP endpoint -----------------------------------------------------

    def _start_server(self, port: int) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        sampler = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                if path == "/metrics":
                    body = render_openmetrics(sampler.collect()).encode("utf-8")
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif path in ("/live", "/live.json", "/"):
                    body = (
                        json.dumps(sampler.collect(), sort_keys=True) + "\n"
                    ).encode("utf-8")
                    ctype = "application/json"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes must not spam the run's stderr

        self._server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self.port = self._server.server_address[1]
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"{self.THREAD_NAME}-http",
            daemon=True,
        )
        self._server_thread.start()


# -- status readers and the monitor dashboard -------------------------------


def read_status(target: Union[str, Path]) -> Dict[str, Any]:
    """Read one sample from a run dir, a ``live.json`` path, or a URL.

    ``http(s)://`` targets are scraped at ``<url>/live`` (unless the URL
    already names a JSON document); directory targets read their
    ``live.json``.  Raises ``OSError`` when unreachable and
    ``ValueError`` on malformed JSON.
    """
    target_str = str(target)
    if target_str.startswith(("http://", "https://")):
        from urllib.request import urlopen

        url = target_str
        if not url.rstrip("/").endswith(("live", "live.json")):
            url = url.rstrip("/") + "/live"
        with urlopen(url, timeout=10) as response:  # noqa: S310 - http status scrape
            return json.loads(response.read().decode("utf-8"))
    path = Path(target)
    if path.is_dir():
        path = path / STATUS_FILENAME
    return json.loads(path.read_text(encoding="utf-8"))


def sample_rates(
    current: Dict[str, Any], previous: Optional[Dict[str, Any]]
) -> Dict[str, float]:
    """Per-second rates of every counter between two samples."""
    if previous is None:
        return {}
    dt = current.get("t_epoch", 0.0) - previous.get("t_epoch", 0.0)
    if dt <= 0:
        return {}
    now = current.get("metrics", {}).get("counters", {})
    then = previous.get("metrics", {}).get("counters", {})
    return {
        key: (value - then.get(key, 0)) / dt
        for key, value in now.items()
        if value != then.get(key, 0)
    }


def _human_count(value: float) -> str:
    return f"{value:,.0f}"


def _eta_str(seconds: float) -> str:
    minutes, secs = divmod(int(max(seconds, 0)), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


class ProgressLine:
    """Rate-limited progress line, redrawn in place on a text stream.

    Counts ``done`` items of ``unit`` against an optional ``total`` and
    renders ``[head]  {unit} done/total  rate {unit}/s  ETA  [tail]``
    behind a carriage return; :meth:`close` draws a final frame and ends
    the line.  The clock is read only every ``check_every`` items, so a
    per-event caller pays a counter increment, and frames are at least
    ``INTERVAL_S`` apart.  Purely cosmetic: it writes to ``stream``
    (normally stderr) and never touches a run's results or metrics.
    """

    #: Minimum seconds between frames.
    INTERVAL_S = 0.5

    def __init__(
        self,
        stream: Any,
        unit: str,
        total: Optional[int] = None,
        check_every: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.stream = stream
        self.unit = unit
        self.total = total
        self.check_every = check_every
        self.clock = clock
        self.done = 0
        self.head = ""
        self.tail = ""
        self._t0 = clock()
        self._last_render = float("-inf")
        self._wrote = False

    def update(self, n: int = 1, head: str = "", tail: str = "") -> None:
        """Count ``n`` more items; draw a frame when the interval elapsed.

        ``head``/``tail`` are extra fields shown before and after the
        count (say ``segments 3/20`` and ``reused 1``).
        """
        self.done += n
        if self.done % self.check_every:
            return
        self.head, self.tail = head, tail
        now = self.clock()
        if now - self._last_render >= self.INTERVAL_S:
            self._last_render = now
            self._render(now)

    def _render(self, now: float) -> None:
        rate = self.done / max(now - self._t0, 1e-9)
        count = f"{self.unit} {self.done:,}"
        if self.total:
            count += f"/{self.total:,}"
        fields = [self.head, count, f"{rate:,.0f} {self.unit}/s"]
        if self.total and rate > 0 and self.total > self.done:
            fields.append(f"ETA {_eta_str((self.total - self.done) / rate)}")
        fields.append(self.tail)
        line = "  ".join(field for field in fields if field)
        self.stream.write("\r" + line.ljust(79))
        self.stream.flush()
        self._wrote = True

    def close(self) -> None:
        """Draw a final frame and end the line (no-op if none was drawn)."""
        if self._wrote:
            self._render(self.clock())
            self.stream.write("\n")
            self.stream.flush()


def format_dashboard(
    sample: Dict[str, Any], previous: Optional[Dict[str, Any]] = None
) -> str:
    """Render one status sample as the ``monitor`` TTY dashboard.

    Sections appear only when their metric families are present, so the
    same renderer serves a ``serve`` replay (events, watermark,
    verdicts) and a batch ``validate --store disk`` run (segments,
    users).  ``previous`` feeds the counter-rate column.
    """
    metrics = sample.get("metrics", {})
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    process = sample.get("process", {})
    rates = sample_rates(sample, previous)
    state = "finished" if sample.get("finished") else "running"
    command = sample.get("command") or "run"
    lines = [
        f"repro live telemetry — {command}"
        f"  (pid {sample.get('pid', '?')}, sample {sample.get('seq', 0)},"
        f" up {sample.get('uptime_s', 0.0):.1f}s)  [{state}]",
        f"  process    rss {process.get('rss_kb', 0.0) / 1024:.1f} MB"
        f"   cpu {process.get('cpu_s', 0.0):.1f} s"
        f"   threads {process.get('threads', 0.0):.0f}",
    ]
    events = counters.get("serve.events_ingested_total")
    if events is not None:
        verdicts = counters.get("serve.verdicts_emitted_total", 0)
        lines.append(
            f"  events     {_human_count(events)} ingested"
            f"  ({_human_count(rates.get('serve.events_ingested_total', 0.0))}/s)"
            f"   verdicts {_human_count(verdicts)}"
            f" ({_human_count(rates.get('serve.verdicts_emitted_total', 0.0))}/s)"
        )
        watermark = gauges.get("serve.watermark_s")
        if watermark is not None:
            wall_lag = gauges.get("serve.watermark_wall_lag_s", 0.0)
            lines.append(
                f"  watermark  {watermark:,.1f} s event-time"
                f"   wall lag {wall_lag:,.1f} s"
                f"   backlog {_human_count(gauges.get('serve.backlog_events', 0))}"
                " events"
            )
    segments_done = gauges.get("store.segments_done")
    if segments_done is not None:
        total = gauges.get("store.segments_planned", 0)
        users_done = gauges.get("store.users_done", 0)
        users_total = gauges.get("store.users_planned", 0)
        user_rate = rates.get("store.users_done_total", 0.0)
        eta = ""
        if user_rate > 0 and users_total > users_done:
            eta = f"   ETA {_eta_str((users_total - users_done) / user_rate)}"
        lines.append(
            f"  store      segments {segments_done:.0f}/{total:.0f}"
            f"   users {_human_count(users_done)}/{_human_count(users_total)}"
            f"  ({_human_count(user_rate)}/s){eta}"
        )
    return "\n".join(lines)

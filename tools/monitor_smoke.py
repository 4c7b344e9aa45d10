"""Monitor smoke: scrape a live serve run, then replay the dashboard.

CI's end-to-end exercise of the telemetry stack, runnable by hand too::

    PYTHONPATH=src python tools/monitor_smoke.py

Three acts, each failing loudly on regression:

1. Launch ``repro-study serve --scale S --telemetry DIR --metrics-port 0``
   as a subprocess, learn the ephemeral endpoint from its stderr, and
   scrape ``/metrics`` *while the replay is running* — the exposition
   must parse as OpenMetrics text and carry the serve instrument
   families plus process stats.
2. Run ``repro-study validate --store disk --telemetry DIR2`` and check
   the finished status file published the runtime scheduler figures
   (segments done, in-flight window, prefetch overlap).
3. Point ``repro-study monitor --once`` at both status files and require
   a rendered dashboard and a zero exit.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCALE = "0.1"


def cli(*argv: str) -> list:
    return [sys.executable, "-m", "repro.cli", *argv]


def fail(message: str) -> None:
    print(f"monitor smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def scrape_during_serve(tel_dir: Path) -> None:
    from repro.obs import parse_openmetrics

    proc = subprocess.Popen(
        cli("serve", "--scale", SCALE, "--quiet",
            "--telemetry", str(tel_dir), "--metrics-port", "0"),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    endpoint = None
    stderr_tail = []
    try:
        # The endpoint line is printed before the replay starts, so the
        # whole event feed remains as our scrape window.
        assert proc.stderr is not None
        for line in proc.stderr:
            stderr_tail.append(line)
            if line.startswith("telemetry: http"):
                endpoint = line.split()[1].rsplit("/metrics", 1)[0]
                break
        if endpoint is None:
            proc.wait()
            fail("serve never announced a metrics endpoint:\n"
                 + "".join(stderr_tail))
        text = urllib.request.urlopen(f"{endpoint}/metrics", timeout=30)
        families = parse_openmetrics(text.read().decode("utf-8"))
        # Families the serve instruments always expose, from the very
        # first sample (the watermark appears only once the service has
        # seen an event time — it is checked on the finished status below).
        for family in (
            "repro_serve_events_ingested_total",
            "repro_serve_verdicts_emitted_total",
            "repro_serve_backlog_events",
            "repro_process_resident_memory_kb",
        ):
            if family not in families:
                fail(f"family {family} missing from live /metrics scrape")
        status = json.loads(
            urllib.request.urlopen(f"{endpoint}/live", timeout=30)
            .read().decode("utf-8")
        )
        if status["command"] != "serve" or status["schema"] != 1:
            fail(f"unexpected /live status: {status!r}")
    finally:
        # Drain so a chatty run cannot dead-lock the pipe, then reap.
        remaining = proc.stderr.read() if proc.stderr else ""
        code = proc.wait()
    if code != 0:
        fail(f"serve exited {code}:\n" + "".join(stderr_tail) + remaining)
    final = json.loads((tel_dir / "live.json").read_text(encoding="utf-8"))
    gauges = final["metrics"]["gauges"]
    if not final["finished"]:
        fail("serve left live.json unfinished")
    for name in ("serve.watermark_s", "serve.watermark_wall_lag_s"):
        if name not in gauges:
            fail(f"gauge {name} missing from finished serve status")
    print("monitor smoke: live /metrics scrape ok "
          f"({len(families)} families)")


def disk_validate_with_telemetry(tel_dir: Path, store_dir: Path) -> None:
    code = subprocess.run(
        cli("validate", "--scale", SCALE, "--store", "disk", "--quiet",
            "--workers", "2", "--segment-users", "10",
            "--store-dir", str(store_dir), "--telemetry", str(tel_dir)),
        stdout=subprocess.DEVNULL,
    ).returncode
    if code != 0:
        fail(f"validate --store disk exited {code}")
    status = json.loads((tel_dir / "live.json").read_text(encoding="utf-8"))
    if not status["finished"]:
        fail("disk validate left live.json unfinished")
    gauges = status["metrics"]["gauges"]
    for name in ("store.segments_done", "store.users_done",
                 "store.inflight_segments", "store.prefetch_overlap"):
        if name not in gauges:
            fail(f"runtime gauge {name} missing from finished status")
    if gauges["store.segments_done"] != gauges["store.segments_planned"]:
        fail("segments_done != segments_planned on a finished run")
    print("monitor smoke: disk-validate runtime figures ok")


def monitor_once(tel_dir: Path) -> None:
    result = subprocess.run(
        cli("monitor", str(tel_dir), "--once"),
        capture_output=True, text=True,
    )
    if result.returncode != 0:
        fail(f"monitor --once exited {result.returncode}: {result.stderr}")
    if "repro live telemetry" not in result.stdout:
        fail(f"monitor rendered no dashboard:\n{result.stdout}")
    print(f"monitor smoke: dashboard ok for {tel_dir.name}")


def main() -> int:
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        serve_tel = root / "serve-tel"
        disk_tel = root / "disk-tel"
        scrape_during_serve(serve_tel)
        disk_validate_with_telemetry(disk_tel, root / "store")
        monitor_once(serve_tel)
        monitor_once(disk_tel)
    print(f"monitor smoke: PASS ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

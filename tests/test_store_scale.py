"""Out-of-core scale: a disk-store walk holds one segment, not the study.

The segment store's reason to exist is that ``validate --store disk``
keeps peak memory bounded by segment size.  A peak RSS is a
process-lifetime figure, so each phase — generating a 10k-user scalegen
store, the disk walk, and the in-memory run — executes in its own
``python -c`` subprocess that prints its result and peak RSS as one JSON
line; a generation pass or an in-memory run inside this process would
poison every later reading.

The peak is the phase's ``VmHWM`` (Linux), not ``ru_maxrss``: Linux
carries the forking process's resident size into the child's
``ru_maxrss`` across ``exec``, so late in a long test session every
phase would report the size of the test process itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

USERS = 10_000
SEGMENT_USERS = 500
POINTS_PER_USER = 144

#: Interpreter + numpy resident baseline allowance (KiB).  Measured
#: ~40 MiB on the reference host; 64 MiB leaves cross-host headroom.
BASELINE_KB = 64 * 1024

#: The disk path may hold a few segments' worth of working state (mmap
#: pages, per-segment results, executor overhead) — but never anything
#: proportional to the study.
RSS_SEGMENT_MULTIPLE = 8

#: One segment's three float64 GPS columns, in KiB.
SEGMENT_PAYLOAD_KB = SEGMENT_USERS * POINTS_PER_USER * 3 * 8 // 1024

RSS_BOUND_KB = BASELINE_KB + RSS_SEGMENT_MULTIPLE * SEGMENT_PAYLOAD_KB

GENERATE = f"""
from repro.synth import generate_scale_store
store = generate_scale_store(
    STORE, n_users={USERS}, segment_users={SEGMENT_USERS},
    points_per_user={POINTS_PER_USER},
)
result = {{"users": store.n_users, "segments": len(store.segments)}}
"""

VALIDATE_DISK = """
from repro.core import validate_store
from repro.store import StudyStore
summary = validate_store(StudyStore.open(STORE))
result = {
    "users": summary.n_users, "segments": summary.n_segments,
    "n_honest": summary.n_honest, "n_extraneous": summary.n_extraneous,
    "n_missing": summary.n_missing,
}
"""

VALIDATE_MEMORY = """
from repro.core import validate
from repro.store import StudyStore
report = validate(StudyStore.open(STORE).load_dataset())
result = {
    "users": len(report.dataset.users),
    "n_honest": report.n_honest, "n_extraneous": report.n_extraneous,
    "n_missing": report.n_missing,
}
"""

REPORT_PEAK = """
import json
with open("/proc/self/status") as status:
    hwm = next(line for line in status if line.startswith("VmHWM:"))
result["peak_rss_kb"] = int(hwm.split()[1])
print(json.dumps(result))
"""


def run_phase(body: str, store_dir: Path) -> dict:
    """One phase in a fresh interpreter; its JSON result with peak RSS."""
    code = f"STORE = {str(store_dir)!r}\n" + textwrap.dedent(body) + REPORT_PEAK
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def totals(record: dict) -> dict:
    return {k: record[k] for k in ("users", "n_honest", "n_extraneous", "n_missing")}


@pytest.fixture(scope="module")
def phases(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("scale") / "store"
    generate = run_phase(GENERATE, store_dir)
    disk = run_phase(VALIDATE_DISK, store_dir)
    memory = run_phase(VALIDATE_MEMORY, store_dir)
    return generate, disk, memory


def test_disk_and_memory_agree(phases):
    _, disk, memory = phases
    assert totals(disk) == totals(memory)
    assert disk["users"] == USERS
    assert disk["segments"] == USERS // SEGMENT_USERS


def test_disk_rss_is_bounded_by_segment_size(phases):
    _, disk, _ = phases
    assert disk["peak_rss_kb"] < RSS_BOUND_KB, (
        f"disk-store peak RSS {disk['peak_rss_kb']} KiB exceeds "
        f"{RSS_BOUND_KB} KiB (baseline + {RSS_SEGMENT_MULTIPLE}x segment)"
    )


def test_disk_rss_undercuts_in_memory(phases):
    _, disk, memory = phases
    # At 10k users the in-memory dataset alone dwarfs a segment; 0.75
    # absorbs host-to-host baseline jitter (measured ~0.31).
    assert disk["peak_rss_kb"] < 0.75 * memory["peak_rss_kb"]


def test_generation_rss_is_bounded_too(phases):
    generate, _, _ = phases
    assert generate["users"] == USERS
    assert generate["peak_rss_kb"] < RSS_BOUND_KB

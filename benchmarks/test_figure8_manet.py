"""Bench F8 — Figure 8: MANET performance under the three mobility models.

Paper's Section 6.2 summary (the robust claims we assert):

* honest-checkin routes update *less* frequently than GPS ground truth;
* honest-checkin incurs *much less* routing overhead;
* honest-checkin route availability is markedly *higher* (the paper says
  almost 2x — our denser bench arena compresses the headroom, so we
  assert the ordering and a clear gap in route stability instead);
* the all-checkin model deviates significantly from GPS as well.

The paper's prose about all-checkin's own direction is internally
inconsistent (see EXPERIMENTS.md), so only divergence is asserted.
"""

import statistics
from dataclasses import replace

import pytest

from repro.experiments import figure8
from repro.manet import bench_config, paper_config

#: NS-2-style simulation: minutes of discrete-event work, not seconds.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="session")
def result(artifacts):
    return figure8.run(artifacts, bench_config())


def test_benchmark_manet(benchmark, artifacts, result):
    """Time one AODV simulation run (GPS model, bench arena)."""
    from repro.levy import fit_from_dataset_visits
    from repro.manet import run_model

    model = fit_from_dataset_visits(artifacts.primary)
    config = replace(bench_config(), duration_s=300.0)
    run = benchmark.pedantic(
        lambda: run_model(model, config), rounds=1, iterations=1
    )
    assert run.flows


def test_figure8a_route_changes(result):
    print("\n" + result.format_report())
    honest = result.median_route_changes("Honest-Checkin")
    gps = result.median_route_changes("GPS")
    assert honest < 0.5 * gps


def test_figure8b_availability(result):
    honest = result.mean_availability("Honest-Checkin")
    gps = result.mean_availability("GPS")
    assert honest > gps


def test_figure8c_overhead(result):
    honest = result.median_overhead("Honest-Checkin")
    gps = result.median_overhead("GPS")
    assert honest < 0.7 * gps


def test_all_checkin_deviates(result):
    """All-checkin training does not recover ground-truth MANET behaviour.

    Deviation is aggregated over the three Figure 8 metrics: relative
    route-change and overhead gaps plus the absolute availability gap.
    """
    gps_changes = result.median_route_changes("GPS")
    all_changes = result.median_route_changes("All-Checkin")
    gps_avail = result.mean_availability("GPS")
    all_avail = result.mean_availability("All-Checkin")
    gps_overhead = result.median_overhead("GPS")
    all_overhead = result.median_overhead("All-Checkin")
    deviation = (
        abs(all_changes - gps_changes) / max(gps_changes, 1e-9)
        + abs(all_avail - gps_avail)
        + abs(all_overhead - gps_overhead) / max(gps_overhead, 1e-9)
    )
    assert deviation > 0.1


def test_traffic_flowed_everywhere(result):
    for manet in result.results.values():
        delivered = sum(f.data_delivered for f in manet.flows)
        sent = sum(f.data_sent for f in manet.flows)
        assert delivered > 0.3 * sent


def test_figure8_large_n(artifacts):
    """Figure 8 with the paper's arena grown from 200 to 1000 nodes.

    The paper's arena is so sparse that absolute availability is low at
    any population; the robust claims are the honest-vs-GPS orderings on
    route stability and overhead, which must survive the 5x population.
    """
    config = replace(paper_config(), n_nodes=1000, duration_s=900.0)
    result = figure8.run(artifacts, config)
    assert set(result.results) == {"GPS", "All-Checkin", "Honest-Checkin"}
    for manet in result.results.values():
        assert sum(f.data_sent for f in manet.flows) > 0
    assert (
        result.median_route_changes("Honest-Checkin")
        <= result.median_route_changes("GPS")
    )
    assert result.median_overhead("Honest-Checkin") <= result.median_overhead("GPS")
    assert (
        result.mean_availability("Honest-Checkin")
        >= result.mean_availability("GPS")
    )

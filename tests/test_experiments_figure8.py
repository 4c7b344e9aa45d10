"""Figure 8 driver: MANET comparison across the three mobility models.

Separated from the other experiment tests because it runs three AODV
simulations (tens of seconds at the scaled bench configuration).
"""

from dataclasses import replace

import pytest

from repro.experiments import figure8
from repro.manet import bench_config
from repro.obs import fidelity


@pytest.fixture(scope="module")
def result(study):
    # Slightly denser than the bench arena: the tiny test-scale study
    # (~20 users) yields a noisier honest-checkin Levy fit, and a single
    # born-partitioned CBR pair would otherwise dominate the static
    # honest model's availability.
    config = replace(bench_config(), duration_s=1800.0, radio_range_m=1600.0)
    return figure8.run(study, config)


def test_three_models_simulated(result):
    assert set(result.results) == {"GPS", "All-Checkin", "Honest-Checkin"}


def test_paper_ordering_route_changes(result):
    """Honest-checkin routes change far less often than GPS ground truth."""
    assert result.median_route_changes("Honest-Checkin") < result.median_route_changes("GPS")


def test_paper_ordering_overhead(result):
    """Honest-checkin incurs much less routing overhead than GPS."""
    assert result.median_overhead("Honest-Checkin") < result.median_overhead("GPS")


def test_paper_ordering_availability(result):
    """Honest-checkin availability exceeds the GPS ground truth."""
    assert result.mean_availability("Honest-Checkin") > result.mean_availability("GPS")


def test_all_checkin_deviates_from_gps(result):
    """The all-checkin model does not reproduce ground-truth behaviour."""
    gps = result.result("GPS")
    all_checkin = result.result("All-Checkin")
    control_ratio = all_checkin.total_control / max(1, gps.total_control)
    changes_differ = (
        abs(result.median_route_changes("All-Checkin") - result.median_route_changes("GPS"))
        > 0.01
    )
    assert control_ratio > 1.2 or control_ratio < 0.8 or changes_differ


def test_flows_carried_traffic(result):
    for manet in result.results.values():
        delivered = sum(f.data_delivered for f in manet.flows)
        assert delivered > 0


def test_headline_within_fidelity_bands(result):
    """Post-fix Figure 8 ratios stay inside the paper's registry bands.

    Pins the simulation's qualitative behaviour after the AODV protocol
    fixes (own-RREQ suppression timestamp, stale-sequence resurrection):
    the headline ratios must not drift past the registry's fail
    tolerances.
    """
    stats = result.headline()
    assert stats, "headline produced no figure8 statistics"
    card = fidelity.evaluate(stats)
    for name in stats:
        entry = card.entry(name)
        assert entry.status in ("pass", "warn"), (
            f"{name}: reproduced={entry.reproduced} status={entry.status}"
        )


def test_format(result):
    text = result.format_report()
    assert "Figure 8" in text
    assert "Honest-Checkin" in text


class TestMultiSeed:
    """``run_multi``: seed sweep statistics for the --seeds CLI knob."""

    # A short arena keeps the 2x3 extra simulations cheap; the multi
    # driver's statistics are seed bookkeeping, not MANET physics.
    CHEAP = dict(duration_s=300.0, radio_range_m=1600.0)

    @pytest.fixture(scope="class")
    def multi(self, study):
        config = replace(bench_config(), **self.CHEAP)
        return figure8.run_multi(study, config, seeds=2)

    def test_runs_consecutive_seeds(self, multi):
        base = bench_config().seed
        assert multi.seeds == [base, base + 1]
        assert len(multi.runs) == 2
        for run in multi.runs:
            assert set(run.results) == {"GPS", "All-Checkin", "Honest-Checkin"}

    def test_headline_means_per_seed_ratios(self, multi):
        stats = multi.headline()
        for key in (
            "figure8.honest_gps_route_change_ratio",
            "figure8.honest_gps_overhead_ratio",
            "figure8.honest_gps_availability_ratio",
        ):
            series = multi.ratio_series(key)
            assert len(series) == 2
            assert stats[key] == pytest.approx(sum(series) / len(series))

    def test_headline_reports_stability_band(self, multi):
        stats = multi.headline()
        series = multi.ratio_series("figure8.honest_gps_availability_ratio")
        band = stats["figure8.honest_gps_availability_ratio_band"]
        assert band == pytest.approx((max(series) - min(series)) / 2.0)
        assert band >= 0.0

    def test_single_seed_reproduces_run(self, study):
        config = replace(bench_config(), **self.CHEAP)
        single = figure8.run_multi(study, config, seeds=1)
        reference = figure8.run(study, config)
        assert single.runs[0].headline() == reference.headline()
        assert "_band" not in "".join(single.headline())

    def test_format_report(self, multi):
        text = multi.format_report()
        assert "across 2 seeds" in text
        assert "±" in text
        assert "paper orderings" in text

    def test_rejects_nonpositive_seeds(self, study):
        with pytest.raises(ValueError, match="seeds"):
            figure8.run_multi(study, seeds=0)

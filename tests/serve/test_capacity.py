"""Capacity planning: replicas and cost per million explanations.

Every plan derives from three numbers of a :class:`ServiceReport`:
completed requests, device-busy simulated seconds and elapsed simulated
seconds.  The synthetic reports here pick them so that the documented
formulas come out exact in binary floating point.
"""

import pytest

from repro.hw.device import DeviceStats
from repro.serve import (
    DEFAULT_CHIP_COST_PER_HOUR,
    LatencyLedger,
    RequestRecord,
    ServiceReport,
    capacity_table,
    format_capacity_table,
    plan_capacity,
)


def make_report(completed=40, busy_seconds=0.5, elapsed_seconds=2.0):
    """``completed`` requests in ``busy_seconds`` of device time, plus one
    rejection, over ``elapsed_seconds``: 80 req/s per replica by default."""
    ledger = LatencyLedger()
    for request_id in range(completed):
        ledger.add(RequestRecord(request_id, 0.0, "completed", completion_time=0.01))
    ledger.add(RequestRecord(completed, 0.0, "rejected", reject_reason="queue depth"))
    stats = DeviceStats()
    if busy_seconds:
        stats.record("conv2d_circular_batch", busy_seconds)
    return ServiceReport(ledger=ledger, elapsed_seconds=elapsed_seconds, stats=stats)


class TestPlanCapacity:
    def test_service_rate_and_utilization_come_from_the_report(self):
        plan = plan_capacity(make_report(), rate=10.0)
        assert plan.per_chip_rate == 80.0  # completed / busy, not / elapsed
        assert plan.utilization == 0.25  # busy / elapsed

    @pytest.mark.parametrize("rate, max_utilization, replicas", (
        (40.0, 0.5, 1),  # exactly one replica's headroom
        (40.5, 0.5, 2),  # just over it
        (400.0, 0.5, 10),
        (400.0, 1.0, 5),
        (20.0, 0.25, 1),
        (20.5, 0.25, 2),
        (1.0, 0.25, 1),  # a trickle still needs one replica
    ))
    def test_replicas_are_the_ceiling_of_rate_over_headroom_rate(
        self, rate, max_utilization, replicas
    ):
        plan = plan_capacity(make_report(), rate=rate, max_utilization=max_utilization)
        assert plan.chips_needed == replicas
        assert plan.max_utilization == max_utilization

    def test_cost_per_million_is_hourly_cost_over_hourly_explanations(self):
        plan = plan_capacity(
            make_report(), rate=400.0, max_utilization=0.5, chip_cost_per_hour=2.0
        )
        assert plan.chips_needed == 10
        assert plan.cost_per_hour == 20.0
        assert plan.cost_per_million == pytest.approx(20.0 / (400.0 * 3600.0) * 1e6)

    def test_defaults_plan_for_the_measured_goodput(self):
        report = make_report()
        plan = plan_capacity(report)
        assert plan.rate == report.goodput == 20.0  # 40 completed in 2 s
        assert plan.max_utilization == 0.7
        assert plan.chips_needed == 1
        assert plan.cost_per_hour == DEFAULT_CHIP_COST_PER_HOUR

    def test_a_run_without_elapsed_time_counts_as_fully_busy(self):
        plan = plan_capacity(make_report(elapsed_seconds=0.0), rate=10.0)
        assert plan.utilization == 1.0

    @pytest.mark.parametrize("options, message", (
        ({"max_utilization": 0.0}, "max_utilization"),
        ({"max_utilization": 1.5}, "max_utilization"),
        ({"chip_cost_per_hour": -1.0}, "chip_cost_per_hour"),
        ({"rate": 0.0}, "target rate must be positive"),
        ({"rate": -5.0}, "target rate must be positive"),
    ))
    def test_bad_arguments_raise(self, options, message):
        with pytest.raises(ValueError, match=message):
            plan_capacity(make_report(), **options)

    @pytest.mark.parametrize("report_options", (
        {"completed": 0}, {"busy_seconds": 0.0},
    ))
    def test_a_run_without_completions_or_device_work_raises(self, report_options):
        with pytest.raises(ValueError, match="completed requests and device work"):
            plan_capacity(make_report(**report_options), rate=10.0)


class TestCapacityTable:
    def test_one_plan_per_rate_in_order(self):
        report = make_report()
        rates = (10.0, 100.0, 1000.0)
        plans = capacity_table(report, rates, max_utilization=0.5, chip_cost_per_hour=2.0)
        assert plans == [
            plan_capacity(report, rate=rate, max_utilization=0.5, chip_cost_per_hour=2.0)
            for rate in rates
        ]
        assert [plan.chips_needed for plan in plans] == [1, 3, 25]

    def test_format_prints_a_header_a_rule_and_one_line_per_plan(self):
        plans = capacity_table(make_report(), (40.0, 400.0), max_utilization=0.5,
                               chip_cost_per_hour=2.0)
        lines = format_capacity_table(plans).splitlines()
        assert len(lines) == 2 + len(plans)
        assert lines[0].split()[:3] == ["rate", "(req/s)", "chips"]
        assert set(lines[1]) == {"-"} and len(lines[1]) == len(lines[0])
        assert lines[2].split() == ["40.0", "1", "80.0", "2.00", "13.889"]
        assert lines[3].split() == ["400.0", "10", "80.0", "20.00", "13.889"]

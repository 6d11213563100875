"""The box-speed probe's arithmetic (its timings are the box's business)."""

import pytest

from bench_e2e.probe import REFERENCE_UNIT_S, BoxSpeedProbe


def test_warm_up_unit_is_not_kept_and_samples_accumulate():
    probe = BoxSpeedProbe()
    assert probe.unit_s == []
    probe.sample(3)
    probe.sample()
    assert len(probe.unit_s) == 4 and all(t > 0 for t in probe.unit_s)


def test_speed_factor_is_reference_over_mean_unit_time():
    probe = BoxSpeedProbe()
    probe.unit_s = [REFERENCE_UNIT_S * 2, REFERENCE_UNIT_S * 2]
    assert probe.speed_factor() == pytest.approx(0.5)
    probe.unit_s = [REFERENCE_UNIT_S, REFERENCE_UNIT_S * 3]
    assert probe.speed_factor() == pytest.approx(0.5)

"""Host normalisation: each operation is scaled by the kernel runs that
bracket it."""

import pytest

from perfbench import clock


def test_operations_scale_by_the_bracketing_kernel_runs(monkeypatch):
    readings = iter([0.01, 0.03, 0.02])
    monkeypatch.setattr(clock, "calibrate", lambda *a: next(readings))
    timer = clock.NormalizedClock(every=1.0)        # kernel: 0.01
    timer.add(0.4)
    timer.add(0.7)                                  # 1.1 s -> kernel 0.03
    assert timer.raw == [0.4, 0.7]
    factor = clock.REFERENCE_S / 0.02
    assert timer.normalized == pytest.approx([0.4 * factor, 0.7 * factor])
    timer.add(0.5)                                  # lap -> kernel 0.02
    expected = 1.1 * factor + 0.5 * clock.REFERENCE_S / 0.025
    assert timer.lap() == pytest.approx(expected)
    assert timer.total == pytest.approx(expected)


def test_lap_returns_only_the_time_since_the_previous_lap(monkeypatch):
    monkeypatch.setattr(clock, "calibrate", lambda *a: clock.REFERENCE_S)
    timer = clock.NormalizedClock()
    timer.add(0.1)
    assert timer.lap() == pytest.approx(0.1)
    timer.add(0.2)
    timer.add(0.3)
    assert timer.lap() == pytest.approx(0.5)
    assert timer.lap() == 0


def test_normalize_and_host_stamp():
    assert clock.normalize(2.0, clock.REFERENCE_S, clock.REFERENCE_S) == 2.0
    assert clock.normalize(2.0, 2 * clock.REFERENCE_S,
                           2 * clock.REFERENCE_S) == pytest.approx(1.0)
    stamp = clock.host_stamp()
    assert set(stamp) == {"cpus", "python", "platform", "calibration_s"}
    assert stamp["calibration_s"] > 0

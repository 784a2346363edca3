"""The calibration kernel is fixed work, and the bounded rate is per kernel run."""

import calibrate
import run


def test_kernels_are_fixed_work():
    for kernel in calibrate.KERNELS.values():
        assert kernel() == kernel()
    assert calibrate.seconds(tuple(calibrate.KERNELS)) > 0.0


def test_rate_is_trials_per_calibration_run_of_good_batches():
    report = {
        "trials_per_batch": 40,
        "batches": [
            {"seconds": 0.1, "cal_seconds": 0.03, "ok": True},
            {"seconds": 0.2, "cal_seconds": 0.06, "ok": True},
            {"seconds": 0.1, "cal_seconds": 0.03, "ok": False},
        ],
    }
    assert run.batch_rates(report) == [40 * 0.03 / 0.1, 40 * 0.06 / 0.2]
    assert run.batch_rates(report, per_cal=False) == [400.0, 200.0]

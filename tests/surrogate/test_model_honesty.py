"""Surrogate honesty: LOOCV error bounded on every calibrated config.

The surrogate's contract is not accuracy on points it was fit on — it
is that the *cross-validated* relative error, measured per config with
that config held out, stays under the documented
:data:`repro.surrogate.DEFAULT_ERROR_BOUND` across a deliberately
diverse calibration set (work-item counts, burst lengths, channel
counts and timings, FIFO depths, sector mixes).  A fit violating this
must not be used for pruning.
"""

import pytest

from repro.core.decoupled import DecoupledConfig, DecoupledWorkItems
from repro.core.kernel import GammaKernelConfig
from repro.core.memory import MemoryChannelConfig
from repro.rng.mersenne import MT521_PARAMS
from repro.surrogate import (
    DEFAULT_ERROR_BOUND,
    FEATURE_NAMES,
    CycleSurrogate,
    ReportCalibration,
    config_features,
)


def _cfg(**kw):
    kernel = {
        "mt_params": MT521_PARAMS,
        "limit_main": kw.pop("limit_main", 128),
    }
    if "sector_variances" in kw:
        kernel["sector_variances"] = kw.pop("sector_variances")
    channel = MemoryChannelConfig(
        setup_cycles=kw.pop("setup", 40),
        cycles_per_word=kw.pop("cpw", 2),
    )
    return DecoupledConfig(
        kernel=GammaKernelConfig(**kernel),
        channel=channel,
        **kw,
    )


#: compute-bound, transfer-bound, back-pressured, multi-sector and
#: multi-channel corners — each stresses a different feature term
CALIBRATION_CONFIGS = {
    "baseline": _cfg(n_work_items=2, burst_words=2),
    "depth1": _cfg(n_work_items=2, burst_words=2, stream_depth=1),
    "contended": _cfg(n_work_items=4, burst_words=2),
    "mid_burst": _cfg(n_work_items=4, burst_words=4),
    "long_burst": _cfg(n_work_items=4, burst_words=8),
    "two_channels": _cfg(n_work_items=4, burst_words=2, n_channels=2),
    "saturated": _cfg(n_work_items=6, burst_words=2),
    "two_sectors": _cfg(
        n_work_items=2, burst_words=2, sector_variances=(1.39, 0.5)
    ),
    "slow_setup": _cfg(n_work_items=2, burst_words=2, setup=80),
    "short_burst": _cfg(n_work_items=3, burst_words=1, limit_main=64),
}


@pytest.fixture(scope="module")
def fitted():
    configs = list(CALIBRATION_CONFIGS.values())
    results = [DecoupledWorkItems(c).run() for c in configs]
    calibration = ReportCalibration.from_result(results[0])
    surrogate = CycleSurrogate()
    fit = surrogate.fit(
        [config_features(c, calibration) for c in configs],
        [r.cycles for r in results],
    )
    return surrogate, fit, results


def test_loocv_error_bounded_on_every_config(fitted):
    _, fit, _ = fitted
    assert len(fit.loo_relative_errors) == len(CALIBRATION_CONFIGS)
    for name, err in zip(CALIBRATION_CONFIGS, fit.loo_relative_errors):
        assert err < DEFAULT_ERROR_BOUND, (
            f"LOOCV relative error {err:.3f} on {name!r} exceeds the "
            f"documented bound {DEFAULT_ERROR_BOUND}"
        )


def test_fit_reports_one_coefficient_per_feature(fitted):
    _, fit, _ = fitted
    assert tuple(fit.coefficients) == FEATURE_NAMES


def test_in_sample_predictions_track_simulation(fitted):
    surrogate, _, results = fitted
    calibration = ReportCalibration.from_result(results[0])
    for (name, config), result in zip(
        CALIBRATION_CONFIGS.items(), results
    ):
        pred = float(
            surrogate.predict(config_features(config, calibration))
        )
        assert pred == pytest.approx(
            result.cycles, rel=DEFAULT_ERROR_BOUND
        ), name


def test_calibration_from_result_measures_region():
    result = DecoupledWorkItems(CALIBRATION_CONFIGS["baseline"]).run()
    calibration = ReportCalibration.from_result(result)
    assert calibration.rejection_rate == result.rejection_rate
    # II is 1 and gated-MT bubbles are rare: cycles/iteration sits in a
    # narrow band just above 1
    assert 1.0 <= calibration.cycles_per_iteration < 4.0


def test_fit_validation():
    surrogate = CycleSurrogate()
    with pytest.raises(RuntimeError):
        surrogate.predict([1.0] * len(FEATURE_NAMES))
    with pytest.raises(ValueError):
        surrogate.fit([[1.0] * len(FEATURE_NAMES)], [100.0])
    with pytest.raises(ValueError):
        surrogate.fit([[1.0, 2.0]], [100.0])
    with pytest.raises(ValueError):
        CycleSurrogate(ridge=-1.0)

"""scripts/criteria_spread.py computes the acceptance suite's statistics."""

import importlib.util
from pathlib import Path

import pytest
import test_acceptance

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "criteria_spread.py"


def _script():
    spec = importlib.util.spec_from_file_location("criteria_spread", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_criterion_8_statistic_at_the_suites_seed_is_the_suites(monkeypatch):
    # the suite's own criterion-8 run, its report captured, against the
    # script's at the same seed: a setting that drifts shows here
    reports = []

    def capturing(*args, **kwargs):
        reports.append(tail_check(*args, **kwargs))
        return reports[-1]

    tail_check = test_acceptance.tail_check
    monkeypatch.setattr(test_acceptance, "tail_check", capturing)
    test_acceptance.test_criterion_8_tail_bound_never_beaten()
    (report,) = reports
    script = _script()
    stats = script.criterion_8(test_acceptance.SEED + 6)
    assert [stats[f"exceedances_x{m:g}"] for m in script.EPS_MULTIPLIERS] == [p.exceedances for p in report.points]
    assert stats["violations"] == sum(1 for p in report.points if p.valid and p.informative and not p.non_violated)
    assert test_acceptance.SEED + 6 not in script.SEEDS


class _Stopped(Exception):
    pass


def _calls(monkeypatch, module, names, run, stop):
    """The calls ``run()`` makes to ``module``'s functions ``names`` up to
    its first call to ``stop``, which raises there, as (name, args,
    kwargs) with each function argument replaced by its name."""
    calls = []

    def recording(name, real):
        def call(*args, **kwargs):
            calls.append((name, [getattr(a, "name", a) if callable(a) else a for a in args], kwargs))
            if name == stop:
                raise _Stopped
            return real(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    with pytest.raises(_Stopped):
        run()
    return calls


def _without_seed(call):
    name, args, kwargs = call
    return name, args[:-1], kwargs


@pytest.mark.parametrize("criterion", [1, 2])
def test_the_rate_criteria_make_the_suites_risk_curve_call(monkeypatch, criterion):
    # the suite's risk curve, stopped at its call, against the script's:
    # the same estimator, function, point, noise, grid and replications
    suite_test = {1: test_acceptance.test_criterion_1_gaussian_rate, 2: test_acceptance.test_criterion_2_cauchy_rate}
    script = _script()
    suite_call = _calls(monkeypatch, test_acceptance, ["risk_curve"], suite_test[criterion], "risk_curve")
    script_call = _calls(monkeypatch, script, ["risk_curve"], lambda: script.CRITERIA[criterion](1), "risk_curve")
    assert [_without_seed(c) for c in script_call] == [_without_seed(c) for c in suite_call]


def test_criterion_3_builds_the_suites_estimator_and_samples(monkeypatch):
    # the suite's adaptive estimator and its first replication's sample
    # settings, stopped at the first draw, against the script's
    script = _script()
    names = ["Estimator", "gen_data"]
    suite_calls = _calls(monkeypatch, test_acceptance, names, test_acceptance.test_criterion_3_adaptive_within_factor_of_best, "gen_data")
    script_calls = _calls(monkeypatch, script, names, lambda: script.criterion_3(1), "gen_data")
    assert [c[0] for c in suite_calls] == names
    assert script_calls[0] == suite_calls[0]
    assert script_calls[1][1][:-1] == suite_calls[1][1][:-1]


def test_a_spread_summarizes_each_statistic():
    script = _script()
    s = script.summarize([1, 2, 6])
    assert (s["mean"], s["min"], s["max"], s["values"]) == (3.0, 1.0, 6.0, [1, 2, 6])
    assert abs(s["stderr"] - (7.0 ** 0.5) / 3 ** 0.5) < 1e-12
    assert script.summarize([4])["stderr"] == 0.0

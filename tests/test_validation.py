"""The validation report: everything passes, variants demonstrably deviate."""

import pytest

import minuexp.validation
from minuexp.validation import run_validation

EXPECTED_VARIANT_ROWS = {
    "arrival-epoch pdf low-power variant n=1",
    "cumulative joint pmf unit-tail variant a=2",
    "increment joint pmf misplaced-exponent variant a=2",
    "count-posterior mean quadratic-coefficient variant n=0",
    "rate-posterior mean sign variant t=1",
}


def test_quick_report_all_pass():
    rows = run_validation(quick=True)
    assert rows
    failing = [r.name for r in rows if not r.passed]
    assert failing == []


def test_adjudication_rows_demonstrate_deviation():
    rows = run_validation(quick=True)
    deviate = {r.name: r for r in rows if r.expect == "deviate"}
    assert set(deviate) == EXPECTED_VARIANT_ROWS
    for row in deviate.values():
        assert row.rel_err > 1e-2  # the rejected variant really is off
        assert row.passed
    # each rejected variant sits next to a passing corrected-form row
    corrected = [r for r in rows if "corrected form" in r.name]
    assert len(corrected) == len(EXPECTED_VARIANT_ROWS)
    assert all(r.passed and r.rel_err <= 1e-8 for r in corrected)


@pytest.mark.parametrize("quick, calls", [(True, 67), (False, 811)])
def test_each_shared_integral_is_computed_once(monkeypatch, quick, calls):
    # each integrand (x**k e^(-t x), x * x e^(-t x), the epoch and count
    # kernels) is integrated once per parameter pair and shared between rows
    count = 0
    inner = minuexp.validation.mix_integral

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(minuexp.validation, "mix_integral", counting)
    rows = run_validation(quick=quick)
    assert count == calls
    assert all(r.passed for r in rows)


@pytest.mark.parametrize("quick, size", [(True, 110), (False, 1063)])
def test_report_size_and_unique_names(quick, size):
    names = [r.name for r in run_validation(quick=quick)]
    assert len(names) == size
    assert len(set(names)) == size

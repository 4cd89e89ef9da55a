"""The validation report: everything passes, variants demonstrably deviate."""

import pytest

import minuexp.validation
from minuexp import MinUExpParams, count_pmf
from minuexp.validation import _pair_entries, run_validation

from conftest import P11, P110

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


def scalar_loop_mass(params, last=10_001):
    """The count p.m.f. normalization as one scalar count_pmf call per n:
    add p_0, p_1, ... and stop at the first n with p_n < 1e-16 and a total
    above 0.5, or at n = last."""
    total, n = 0.0, 0
    while True:
        p_n = count_pmf(params, n)
        total += p_n
        if (p_n < 1e-16 and total > 0.5) or n >= last:
            return total
        n += 1


@pytest.mark.parametrize(
    "params",
    [P11, P110, MinUExpParams(0.5, 0.25), MinUExpParams(5.0, 4.0), MinUExpParams(300.0, 0.01)],
    ids=str,
)
def test_count_pmf_rows_equal_scalar_calls(params):
    # the block-evaluated p.m.f. and its running sum give the scalar loop's bits
    entries = {e[0].split(") ", 1)[1]: e for e in _pair_entries(params, (0.5, 2.0), 2, 8)}
    assert entries["count pmf normalization"][1] == scalar_loop_mass(params)
    for n in range(9):
        assert entries[f"count pmf n={n}"][1] == count_pmf(params, n)
    for k in range(5):
        assert entries[f"pgf series coefficient k={k}"][2] == count_pmf(params, k)


def test_count_pmf_normalization_stops_at_the_last_n(monkeypatch):
    # past the last n the total stops whatever the p.m.f. does
    monkeypatch.setattr(minuexp.validation, "_PMF_LAST", 40)
    entries = {e[0]: e for e in _pair_entries(P110, (0.5, 2.0), 2, 8)}
    assert entries["(a=110, lambda=0.04) count pmf normalization"][1] == scalar_loop_mass(P110, 40)


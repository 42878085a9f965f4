"""The acceptance gate: every criterion at its stated budget, one line each."""

import pytest

from ncrat.acceptance import ALL_CRITERIA


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda c: c.__name__)
def test_acceptance_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.ok, result.line()

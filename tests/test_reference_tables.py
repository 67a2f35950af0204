"""Live outcome tables against the frozen reference tables.

``reference_tables.py`` says what each table holds and how the file is
written.  Discrete fields must agree exactly; floats within the tolerances
there, which pin the answer but leave room for a change of summation order.
"""

import json

import pytest

import reference_tables

REFERENCE = json.loads(reference_tables.PATH.read_text())


@pytest.fixture(scope="module")
def live():
    return reference_tables.live_records()


def test_reference_covers_every_table(live):
    assert list(live) == list(REFERENCE)
    assert max(reference_tables.SCALAR_TOL, reference_tables.RHO_TOL) <= 1e-12


@pytest.mark.parametrize("name", list(REFERENCE))
def test_table_matches_its_reference(live, name):
    scalar_dev, rho_dev = reference_tables.deviations(live[name], REFERENCE[name])
    assert scalar_dev <= reference_tables.SCALAR_TOL
    assert rho_dev <= reference_tables.RHO_TOL

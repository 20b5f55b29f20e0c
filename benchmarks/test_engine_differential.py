"""The executor against the row engine, cell by cell, on more seeds.

Tier-1 (``tests/test_engine_kernels.py``) holds every ``sql_scaled``
statement of seed 7 at scale 4 to the row engine by (type, ``repr``) per
cell, in row order. This runs the same check over seeds 8-11, about 4 s a
seed; ``make perf-smoke`` runs it.
"""

from __future__ import annotations

import pytest

from tests.test_engine_kernels import exact_mismatches


@pytest.mark.parametrize("seed", [8, 9, 10, 11])
def test_executor_matches_row_engine_cell_for_cell(seed):
    mismatches, compared = exact_mismatches(seed=seed, scale=4)
    assert compared > 200
    assert mismatches == []

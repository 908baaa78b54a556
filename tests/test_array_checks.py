"""The suites' checks are array calls and the CLI's are 0-d calls of the same
producers, so each producer of ``harness.CHECKS`` must give, at every point of
an array call, bit for bit what its 0-d call gives there."""

import math

import numpy as np
import pytest

from meanbounds import convex as cvx
from meanbounds import harness
from meanbounds.reports import ChainReport, GapBoundReport

CASES = [(key, fname) for key, (_, _, takes_f, *_) in harness.CHECKS.items()
         for fname in (cvx.BUILTINS if takes_f else (None,))]
DRAWS = 2000


def numbers(res):
    """Every number and verdict of a producer's result, in a fixed order."""
    if isinstance(res, ChainReport):
        return [*res.values, *res.slacks, res.passed, res.certified]
    gaps = [res] if isinstance(res, GapBoundReport) else res
    if isinstance(gaps[0], GapBoundReport):
        return [x for gap in gaps for x in (gap.gap, gap.lower_bound, gap.upper_bound,
                                             gap.scale, gap.passed)]
    return list(res)  # PointCheck


@pytest.mark.parametrize("key, fname", CASES, ids=lambda x: x or "-")
def test_array_call_equals_0d_calls(key, fname):
    rng = np.random.default_rng(sum(map(ord, key + str(fname))))
    a, b = np.exp(rng.uniform(np.log(0.01), np.log(100.0), (2, DRAWS)))
    v = rng.uniform(0.0, 1.0, DRAWS)
    v[:3] = 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
    if fname or key in harness.BOUNDS_CHECKS:  # as the suites call them
        a, b = np.minimum(a, b), np.maximum(a, b)
    assert (v < 0.5).sum() > 500 and (v > 0.5).sum() > 500
    produce = harness._producer(key, fname)
    columns = [np.broadcast_to(x, (DRAWS,)).tolist() for x in numbers(produce(a, b, v))]
    for i, point in enumerate(zip(a.tolist(), b.tolist(), v.tolist())):
        got = numbers(produce(*point))
        assert all(type(x) in (float, bool) for x in got), (key, got)
        assert [repr(x) for x in got] == [repr(column[i]) for column in columns], (key, point)


ROW = np.array([0.75, 1.5, 3.0, 6.0])
COLUMN = np.array([[0.1], [0.2], [0.4]])


@pytest.mark.parametrize("a, b, v", [(0.5, ROW, COLUMN + 0.2), (COLUMN, ROW, 0.3)],
                         ids=["number-row-column", "column-row-number"])
@pytest.mark.parametrize("key, fname", CASES, ids=lambda x: x or "-")
def test_broadcast_call_equals_0d_calls(key, fname, a, b, v):
    # numbers, rows and columns broadcast to one (3, 4) grid of points
    produce = harness._producer(key, fname)
    grid = [np.broadcast_to(x, (3, 4)).ravel().tolist() for x in numbers(produce(a, b, v))]
    for i, point in enumerate(zip(*(np.broadcast_to(x, (3, 4)).ravel().tolist()
                                    for x in (a, b, v)))):
        assert [repr(x) for x in numbers(produce(*point))] == [repr(c[i]) for c in grid], point


@pytest.mark.parametrize("a, b", [(1.0, math.nan), (math.nan, 1.0), (1.0, math.inf),
                                  (-math.inf, 1.0), (np.array([1.0, 2.0]), [3.0, math.nan])])
def test_non_finite_endpoint_raises(a, b):
    for check in (cvx.gap_sandwich_check, cvx.refined_gap_check, cvx.chain_terms):
        with pytest.raises(ValueError, match="^interval endpoints must be finite$"):
            check(cvx.get_builtin("exp"), a, b, 0.3)


@pytest.mark.parametrize("key", ["cor31", "cor32", "cor33", "cor34"])
@pytest.mark.parametrize("a, b", [([2.0, 1.0, 3.0], [2.0, 4.0, 3.0]), ([3.0, 3.0], [3.0, 3.0])],
                         ids=["some-equal", "all-equal"])
def test_equal_endpoints_in_an_array_equal_0d_calls(key, a, b):
    # the corollaries take b >= a; where a == b the split average is f at that point
    produce = harness._producer(key)
    res = produce(np.array(a), np.array(b), 0.3)
    columns = [np.broadcast_to(x, (len(a),)).tolist() for x in numbers(res)]
    for i, point in enumerate(zip(a, b)):
        got = numbers(produce(*point, 0.3))
        assert [repr(x) for x in got] == [repr(c[i]) for c in columns], point

"""Property-based checks of the identities the multi-scale machinery uses."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from favard.projection import pushforward_density
from favard.sets import Segment, SegmentUnion
from favard.torus import AngleInterval, TriadicInterval, triadic_cover
from tests.reference import (ConeSpec, IntervalUnion1D, contains_angle, d_metric, in_cone,
                             project_segments)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
half_widths = st.floats(min_value=1e-3, max_value=0.25)


@st.composite
def segments(draw):
    ax, ay = draw(finite), draw(finite)
    dx = draw(st.floats(min_value=0.05, max_value=3.0))
    dy = draw(st.floats(min_value=-3.0, max_value=3.0))
    return Segment((ax, ay), (ax + dx, ay + dy))


@given(st.lists(st.tuples(finite, finite).filter(lambda p: p[0] < p[1]),
                min_size=1, max_size=8))
def test_interval_union_measure_subadditive(pairs):
    union = IntervalUnion1D.from_pairs(pairs)
    assert union.measure <= math.fsum(b - a for a, b in pairs) + 1e-9
    for a, b in union.intervals:
        assert a <= b
    for (_, b1), (a2, _) in zip(union.intervals, union.intervals[1:]):
        assert b1 < a2


@given(st.lists(segments(), min_size=1, max_size=6), angles)
@settings(max_examples=60, deadline=None)
def test_projection_measure_bounded_by_length(segs, theta):
    union = SegmentUnion(segs)
    proj = project_segments(union, theta)
    assert proj.measure <= union.total_length + 1e-9


@given(st.lists(segments(), min_size=1, max_size=6), angles)
@settings(max_examples=60, deadline=None)
def test_pushforward_mass_conservation(segs, theta):
    union = SegmentUnion(segs)
    density = pushforward_density(union, theta)
    assert abs(density.total_mass - union.total_length) <= 1e-9


@given(finite, finite, finite, finite, angles, half_widths)
@settings(max_examples=300, deadline=None)
def test_cone_symmetry(x1, x2, y1, y2, center, hw):
    x, y = (x1, x2), (y1, y2)
    iv = AngleInterval(center, hw)
    assert in_cone(ConeSpec(x, iv), y) == in_cone(ConeSpec(y, iv), x)


@given(finite, finite, finite, finite, finite, finite, angles,
       st.floats(min_value=1e-3, max_value=0.5))
@settings(max_examples=300, deadline=None)
def test_d_metric_triangle(x1, x2, y1, y2, z1, z2, center, hw):
    iv = AngleInterval(center, hw)
    x, y, z = (x1, x2), (y1, y2), (z1, z2)
    assert d_metric(iv, x, z) <= d_metric(iv, x, y) + d_metric(iv, y, z) + 1e-9


@given(angles, st.integers(min_value=0, max_value=8))
def test_triadic_cover_contains(theta, level):
    iv = triadic_cover(theta, level)
    assert contains_angle(iv, theta)
    if level > 0:
        assert iv.parent().contains(iv)


@given(st.integers(min_value=0, max_value=7),
       st.integers(min_value=0))
def test_triadic_children_partition(level, raw_index):
    index = raw_index % 3**level
    j = TriadicInterval(level, index)
    kids = j.children()
    assert kids[0].low == j.low
    assert kids[2].high == j.high
    assert kids[1].center == j.center
    for a, b in zip(kids, kids[1:]):
        assert a.high == b.low

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoauth.geometry import (
    BoundingBox,
    Resolution,
    area,
    cover_rate,
    intersection_area,
    iou,
)

from _oracles import (
    pixel_cover_rate,
    pixel_intersection,
    pixel_iou,
    plain_contains,
    plain_intersection_area,
)


def int_box(max_pos=80, max_size=48):
    return st.builds(
        BoundingBox,
        x=st.integers(0, max_pos),
        y=st.integers(0, max_pos),
        width=st.integers(1, max_size),
        height=st.integers(1, max_size),
    )


class TestBoundingBox:
    def test_valid_construction(self):
        b = BoundingBox(1.5, 2.0, 3.0, 4.0)
        assert (b.x, b.y, b.width, b.height) == (1.5, 2.0, 3.0, 4.0)

    @pytest.mark.parametrize(
        "x,y,w,h",
        [
            (-1, 0, 10, 10),
            (0, -0.5, 10, 10),
            (0, 0, 0, 10),
            (0, 0, 10, -3),
            (math.nan, 0, 10, 10),
            (0, math.inf, 10, 10),
            (0, 0, math.inf, 10),
        ],
    )
    def test_rejects_bad_coordinates(self, x, y, w, h):
        with pytest.raises(ValueError):
            BoundingBox(x, y, w, h)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            Resolution(0, 100)
        with pytest.raises(ValueError):
            Resolution(100, -1)

    @pytest.mark.parametrize(
        "size", [(10**400, 100), (100, 10**400), (float("nan"), 100), (100, float("inf"))]
    )
    def test_resolution_must_fit_a_finite_float(self, size):
        with pytest.raises(ValueError):
            Resolution(*size)


class TestOverlapMetrics:
    def test_half_overlap(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 0, 10, 10)
        assert intersection_area(a, b) == 50.0
        assert iou(a, b) == pytest.approx(50.0 / 150.0)
        assert cover_rate(a, b) == 0.5

    def test_disjoint(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(20, 20, 10, 10)
        assert intersection_area(a, b) == 0.0
        assert iou(a, b) == 0.0
        assert cover_rate(a, b) == 0.0

    def test_touching_edges_do_not_overlap(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(10, 0, 10, 10)
        assert intersection_area(a, b) == 0.0

    def test_identical_boxes(self):
        a = BoundingBox(3, 4, 7, 9)
        assert iou(a, a) == 1.0
        assert cover_rate(a, a) == 1.0

    def test_cover_rate_asymmetry(self):
        small = BoundingBox(10, 10, 5, 5)
        big = BoundingBox(0, 0, 100, 100)
        assert cover_rate(small, big) == 1.0
        assert cover_rate(big, small) == 25.0 / 10000.0

    @pytest.mark.parametrize("x, y", [(100, 50), (0, 0), (10, 90)])
    def test_text_of_zero_area_covers_nothing(self, x, y):
        # A valid box whose area underflows: 1e-200 squared is 0.0.
        text = BoundingBox(x, y, 1e-200, 1e-200)
        assert area(text) == 0.0
        assert cover_rate(text, BoundingBox(0, 0, 1000, 100)) == 0.0
        assert cover_rate(text, BoundingBox(500, 500, 10, 10)) == 0.0

    @given(a=int_box(), b=int_box())
    def test_matches_pixel_oracle(self, a, b):
        assert intersection_area(a, b) == pixel_intersection(a, b)
        assert iou(a, b) == pytest.approx(pixel_iou(a, b), abs=1e-12)
        assert cover_rate(a, b) == pytest.approx(pixel_cover_rate(a, b), abs=1e-12)

    @given(a=int_box(), b=int_box())
    def test_symmetry_and_bounds(self, a, b):
        assert intersection_area(a, b) == intersection_area(b, a)
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0
        assert 0.0 <= cover_rate(a, b) <= 1.0
        assert intersection_area(a, b) <= min(area(a), area(b))

    @given(a=int_box(), b=int_box())
    def test_containment_means_full_cover(self, a, b):
        if plain_contains(b, a):
            assert cover_rate(a, b) == 1.0


# Mixed ints and floats, ties and negative zero included: the rewritten
# arithmetic must pick the same operand as min/max on every tie.
_coord = st.one_of(
    st.integers(0, 2000),
    st.sampled_from([0.0, -0.0, 0.5, 1.0]),
    st.floats(0, 2000, allow_nan=False, allow_infinity=False),
)
_size = st.one_of(
    st.integers(1, 2000),
    st.floats(1e-6, 2000, allow_nan=False, allow_infinity=False),
)
mixed_box = st.builds(BoundingBox, x=_coord, y=_coord, width=_size, height=_size)


class TestPlainArithmeticEquivalence:
    @given(a=mixed_box, b=mixed_box)
    @settings(max_examples=200)
    def test_intersection_area_matches_min_max(self, a, b):
        # repr tells 0.0 from -0.0 and 50 from 50.0.
        assert repr(intersection_area(a, b)) == repr(plain_intersection_area(a, b))

    @pytest.mark.parametrize(
        "a, b",
        [
            (BoundingBox(0, 0, 10, 10), BoundingBox(0.0, 0.0, 10.0, 10.0)),
            (BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(0, 0, 10, 10)),
            (BoundingBox(2, 3, 8, 7), BoundingBox(2.0, 1, 8.0, 9)),
            (BoundingBox(-0.0, 0, 5, 5), BoundingBox(0.0, -0.0, 5, 5)),
        ],
    )
    def test_ties_pick_what_min_and_max_pick(self, a, b):
        assert repr(intersection_area(a, b)) == repr(plain_intersection_area(a, b))
        assert repr(intersection_area(b, a)) == repr(plain_intersection_area(b, a))

    @given(a=mixed_box, b=mixed_box)
    @settings(max_examples=200)
    def test_cover_rate_matches_min_and_area(self, a, b):
        want = min(plain_intersection_area(a, b) / area(a), 1.0)
        assert repr(cover_rate(a, b)) == repr(want)

    def test_invalid_box_messages_name_the_value(self):
        with pytest.raises(ValueError, match="finite, got nan"):
            BoundingBox(0, 0, float("nan"), 1)
        with pytest.raises(ValueError, match=r"non-negative, got \(-1, 0\)"):
            BoundingBox(-1, 0, 1, 1)
        with pytest.raises(ValueError, match="positive, got 0x1"):
            BoundingBox(0, 0, 0, 1)
        with pytest.raises(TypeError):
            BoundingBox(0, "1", 1, 1)


def test_random_boxes_against_oracle_small():
    rng = random.Random(7)
    for _ in range(500):
        a = BoundingBox(rng.randint(0, 80), rng.randint(0, 80), rng.randint(1, 48), rng.randint(1, 48))
        b = BoundingBox(rng.randint(0, 80), rng.randint(0, 80), rng.randint(1, 48), rng.randint(1, 48))
        assert intersection_area(a, b) == pixel_intersection(a, b)

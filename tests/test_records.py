"""The records' shared contract: a field cannot be assigned, and equal records
compare and hash equal (hashing only where every field is hashable)."""

import pytest

from wallspan.clifford import build_family
from wallspan.f2cohomology import WallRing
from wallspan.fields import FieldBatch, PointBatch, evaluate_batch, sample_batch
from wallspan.harness import CampaignConfig
from wallspan.invariants import WallParams


def _cases():
    """name -> (record, an equal record built anew, a different record or None, a field)."""
    points = sample_batch(2, 3, 42, 5)
    fields = evaluate_batch(points, build_family(2))
    ring = WallRing(3, 2)
    return {
        "WallParams": (WallParams(3, 5), WallParams(m=3, n=5), WallParams(3, 6), "m"),
        "CampaignConfig": (CampaignConfig(seed=7), CampaignConfig((1, 2, 3, 4), seed=7), CampaignConfig(), "seed"),
        # n = 3 and n = 11 have the same words (nu = 2) and differ only in n
        "CliffordFamily": (build_family(11), build_family(11), build_family(3), "words"),
        "WallRing": (ring, WallRing(3, 2), WallRing(2, 3), "n"),
        "GradedF2Poly": (ring.gen("c"), WallRing(3, 2).gen("c"), ring.gen("x"), "h0"),
        # array fields: equal only as the same arrays, and unhashable
        "PointBatch": (points, PointBatch(points.z, points.v, points.lam), None, "z"),
        "FieldBatch": (fields, FieldBatch(fields.w, fields.u, fields.mu), None, "mu"),
    }


@pytest.mark.parametrize("name", list(_cases()))
def test_records_are_immutable_values(name):
    record, equal, other, field = _cases()[name]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(equal, field))
    assert record == equal and not record != equal
    if other is not None:
        assert record != other and not record == other
        assert hash(record) == hash(equal)

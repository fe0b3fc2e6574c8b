"""The records' shared contract: a field cannot be assigned or deleted, and equal records
compare and hash equal (hashing only where every field is hashable).  The five
value records get it from `invariants.Record`; the array batches are NamedTuples."""

import re

import pytest

from wallspan.clifford import CliffordFamily, build_family
from wallspan.f2cohomology import GradedF2Poly, WallRing
from wallspan.fields import FieldBatch, PointBatch, evaluate_batch, sample_batch
from wallspan.harness import CampaignConfig
from wallspan.invariants import Record, WallParams

RECORDS = (WallParams, WallRing, GradedF2Poly, CliffordFamily, CampaignConfig)


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
    message = re.escape(f"{name} is immutable: cannot assign {field!r}") if isinstance(record, Record) else None
    with pytest.raises(AttributeError, match=message):
        setattr(record, field, getattr(equal, field))
    assert record == equal and not record != equal
    if other is not None:
        assert record != other and not record == other
        assert hash(record) == hash(equal)


@pytest.mark.parametrize("name", [record.__name__ for record in RECORDS])
def test_records_refuse_deletion(name):
    # a deleted field would leave a record whose equality, hash and repr raise
    record, equal, _, field = _cases()[name]
    with pytest.raises(AttributeError, match=re.escape(f"{name} is immutable: cannot delete {field!r}")):
        delattr(record, field)
    assert record == equal and hash(record) == hash(equal) and repr(record) == repr(equal)


def test_only_the_base_defines_the_contract():
    contract = {"__setattr__", "__delattr__", "__eq__", "__hash__", "_key"}
    assert contract <= vars(Record).keys()
    for cls in RECORDS:
        assert issubclass(cls, Record) and not contract & vars(cls).keys(), cls


def test_records_of_different_types_are_unequal():
    assert WallParams(3, 2) != WallRing(3, 2) and not WallParams(3, 2) == WallRing(3, 2)
    assert WallParams(3, 2) != (3, 2) and (3, 2) != WallParams(3, 2)


def test_slotted_records_have_no_dict():
    for record in (WallParams(3, 2), WallRing(3, 2).gen("c")):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(record, "extra", 1)


def test_field_reprs():
    # the mixed-rings error names its rings by these
    assert repr(WallParams(3, 5)) == "WallParams(m=3, n=5)"
    assert repr(WallRing(3, 2)) == "WallRing(m=3, n=2)"
    with pytest.raises(ValueError, match=re.escape("mixed rings: WallRing(m=3, n=2) vs WallRing(m=2, n=3)")):
        WallRing(3, 2).gen("c") + WallRing(2, 3).gen("c")


def test_config_stores_its_grids_as_tuples():
    m_values = [1, 2]
    config = CampaignConfig(m_values=m_values)
    digest = config.config_hash()
    m_values.append(3)  # the caller's list is not the config's
    assert config.m_values == (1, 2) and config.config_hash() == digest
    assert config == CampaignConfig(m_values=(1, 2))
    assert hash(config) == hash(CampaignConfig(m_values=(1, 2)))
    assert CampaignConfig(m_values=(1, 2)).config_hash() == digest

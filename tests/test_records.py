"""The frozen-record contract every value type keeps: fields cannot be set
or deleted, records compare and hash by value within their own class, have
no `__dict__`, name their fields in `repr`, and `replace` checks again."""

import importlib
import pkgutil

import pytest

import roipack
from roipack._record import frozen, replace
from roipack.costmodel import CostParams, CostReport, DecisionKind, FrameDecision
from roipack.evaluation import EvalReport
from roipack.geometry import FrameSpec, Rect
from roipack.packing import Layout, PackMethod, PackPlan, PackSlot
from roipack.pipeline import (
    Detection,
    FrameRecord,
    FullView,
    GroundTruthFrame,
    GtObject,
    PipelineConfig,
    ReducedView,
    VideoRun,
)
from roipack.simdet import NoiseModel, SyntheticParams
from roipack.stats import Histogram


def _plan():
    slot = PackSlot(Rect(10.0, 20.0, 40.0, 60.0), Rect(0.0, 0.0, 30.0, 40.0), 1.0, 1.0)
    return PackPlan((slot,), FrameSpec(150.0), PackMethod.GREEDY, FrameSpec(300.0))


def _cost():
    return CostReport(5, 1.0, 2.0, {"anchor": 1.0}, 0.5, 2.0, 0.0)


# Builds two distinct but equal records of each type.
SAMPLES = {
    Rect: lambda: Rect(1.0, 2.0, 3.0, 4.0),
    FrameSpec: lambda: FrameSpec(300.0),
    FrameDecision: lambda: FrameDecision(DecisionKind.PACKED),
    CostParams: lambda: CostParams(),
    CostReport: _cost,
    EvalReport: lambda: EvalReport({0: 0.5}, 0.5, 3, 4),
    Histogram: lambda: Histogram((0.0, 0.5, 1.0), (2, 1), 0),
    NoiseModel: lambda: NoiseModel(seed=3),
    SyntheticParams: lambda: SyntheticParams(),
    PackSlot: lambda: _plan().slots[0],
    Layout: lambda: Layout(0, ((0,), (1, 2))),
    PackPlan: _plan,
    Detection: lambda: Detection(Rect(1.0, 2.0, 3.0, 4.0), 1, 0.5),
    GtObject: lambda: GtObject(2, Rect(1.0, 2.0, 3.0, 4.0)),
    GroundTruthFrame: lambda: GroundTruthFrame(7, (GtObject(2, Rect(1.0, 2.0, 3.0, 4.0)),)),
    PipelineConfig: lambda: PipelineConfig(),
    FullView: lambda: FullView(FrameSpec(300.0)),
    ReducedView: lambda: ReducedView(_plan()),
    FrameRecord: lambda: FrameRecord(3, FrameDecision.packed(), (), _plan()),
    VideoRun: lambda: VideoRun((FrameRecord(0, FrameDecision.anchor(), ()),), _cost()),
}


def record_types() -> set:
    """Every class the package builds with `frozen`."""
    found = set()
    for info in pkgutil.iter_modules(roipack.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"roipack.{info.name}")
        found.update(
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and "_fields" in vars(obj)
        )
    return found


def test_every_record_type_is_sampled():
    assert record_types() == set(SAMPLES)


@pytest.fixture(params=list(SAMPLES), ids=lambda cls: cls.__name__)
def pair(request):
    a, b = SAMPLES[request.param](), SAMPLES[request.param]()
    assert type(a) is request.param and a is not b
    return a, b


def test_fields_cannot_be_set_or_deleted(pair):
    record, _ = pair
    for name in record._fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_equal_fields_give_equal_records_and_hashes(pair):
    a, b = pair
    assert a == b and not a != b
    values = tuple(getattr(a, name) for name in a._fields)
    try:
        expected = hash(values)
    except TypeError:  # a dict field: the record is unhashable, as its fields are
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


def test_another_type_with_the_same_values_is_not_equal(pair):
    record, _ = pair
    twin_type = frozen(type("Twin", (), {"__annotations__": dict.fromkeys(record._fields)}))
    values = tuple(getattr(record, name) for name in record._fields)
    twin = twin_type(*values)
    assert record != twin and twin != record
    assert record != values


def test_has_slots_and_no_dict(pair):
    record, _ = pair
    assert type(record).__slots__ == record._fields
    assert not hasattr(record, "__dict__")


def test_repr_names_the_fields(pair):
    record, _ = pair
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_replace_builds_an_equal_new_record(pair):
    record, _ = pair
    copy = replace(record)
    assert copy == record and copy is not record
    with pytest.raises(TypeError):
        replace(record, not_a_field=1)


def test_replace_checks_again():
    assert replace(SyntheticParams(), frames=7).frames == 7
    with pytest.raises(ValueError):
        replace(SyntheticParams(), frames=0)
    with pytest.raises(ValueError):
        replace(Rect(0.0, 0.0, 1.0, 1.0), x_max=0.0)


def test_defaults_order_and_field_differences():
    @frozen
    class Pair:
        """Doc."""

        first: int
        second: tuple = (1, 2)

        def total(self):
            return self.first + sum(self.second)

    assert Pair(3) == Pair(first=3, second=(1, 2))
    assert Pair(3).total() == 6 and Pair.__doc__ == "Doc."
    assert Pair(3) != Pair(4) and Pair(3) != Pair(3, (1,))
    with pytest.raises(TypeError):
        Pair()

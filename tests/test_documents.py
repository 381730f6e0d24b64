"""Every outside document is read by one reader and written by one
writer whose rules come from the dataclass.

The cases below are generated from ``dataclasses.fields`` of each
document class, so a field added later is covered without editing a
table: for every field, a ``bool`` and a value of the wrong JSON type
are rejected with the field's name, ``null`` is accepted exactly where
the default is ``None``, and a required field cannot be left out;
the items of a ``tuple[T, ...]`` field of plain values are checked
the same way.
Every written document reads back as the object it was written from.
"""

from __future__ import annotations

import dataclasses
import json
import typing

import pytest

from repro.documents import read, write
from repro.faults import (
    ACTIONS, FaultPlan, FaultRule, canned_plan, resolve_faults,
)
from repro.models.machines import MACHINES, Machine, load_machine
from repro.service.config import ServiceConfig
from repro.service.jobs import FactorRequest
from repro.service.workload import WorkloadSpec


def _read_machine(doc, tmp_path):
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(doc))
    return load_machine(path)


#: class -> (the smallest valid document, how a document is read)
READERS = {
    FaultRule: ({"action": "drop"}, lambda doc, _: FaultRule.from_dict(doc)),
    FaultPlan: ({}, lambda doc, _: FaultPlan.from_dict(doc)),
    Machine: (
        {"name": "m", "total_ranks": 4, "memory_per_rank_bytes": 1024},
        _read_machine,
    ),
    FactorRequest: ({}, lambda doc, _: FactorRequest.from_dict(doc)),
    # the CLI reads its serve / loadgen flags as these documents
    ServiceConfig: ({}, lambda doc, _: read(ServiceConfig, doc, "service")),
    WorkloadSpec: ({}, lambda doc, _: read(WorkloadSpec, doc, "workload")),
}

CASES = [
    pytest.param(cls, field, id=f"{cls.__name__}.{field.name}")
    for cls in READERS
    for field in dataclasses.fields(cls)
]


def _wrong_value(cls, field):
    """A JSON value of another type than ``field`` takes."""
    hint = typing.get_type_hints(cls)[field.name]
    return 7 if str in (hint, *typing.get_args(hint)) else "7"


def _required(field) -> bool:
    return (
        field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    )


@pytest.mark.parametrize("cls, field", CASES)
def test_a_bool_or_a_value_of_the_wrong_type_is_rejected(
    cls, field, tmp_path
):
    base, reader = READERS[cls]
    for value in (True, _wrong_value(cls, field), {"x": 1}):
        with pytest.raises(ValueError, match=f"field '{field.name}'"):
            reader({**base, field.name: value}, tmp_path)


def _plain_item(cls, field):
    """``T`` of a ``tuple[T, ...]`` field whose items are plain JSON
    values rather than documents of their own, else ``None``."""
    hint = typing.get_type_hints(cls)[field.name]
    if typing.get_origin(hint) is not tuple:
        return None
    item = typing.get_args(hint)[0]
    return None if dataclasses.is_dataclass(item) else item


ITEM_CASES = [case for case in CASES if _plain_item(*case.values)]


@pytest.mark.parametrize("cls, field", ITEM_CASES)
def test_an_item_of_the_wrong_type_is_rejected(cls, field, tmp_path):
    base, reader = READERS[cls]
    wrong = 7 if _plain_item(cls, field) is str else "7"
    for item in (True, wrong, None, [1]):
        with pytest.raises(ValueError, match=f"field '{field.name}' items"):
            reader({**base, field.name: [item]}, tmp_path)


@pytest.mark.parametrize("cls, field", CASES)
def test_null_is_accepted_exactly_where_the_default_is_none(
    cls, field, tmp_path
):
    base, reader = READERS[cls]
    doc = {**base, field.name: None}
    if field.default is None:
        assert getattr(reader(doc, tmp_path), field.name) is None
    else:
        with pytest.raises(ValueError, match=f"field '{field.name}'"):
            reader(doc, tmp_path)


@pytest.mark.parametrize("cls, field", CASES)
def test_a_required_field_cannot_be_left_out(cls, field, tmp_path):
    base, reader = READERS[cls]
    doc = {k: v for k, v in base.items() if k != field.name}
    if _required(field):
        with pytest.raises(ValueError, match="missing") as ei:
            reader(doc, tmp_path)
        assert repr(field.name) in str(ei.value)
    else:
        assert getattr(reader(doc, tmp_path), field.name) == field.default


def test_an_unknown_field_is_rejected(tmp_path):
    for base, reader in READERS.values():
        with pytest.raises(ValueError, match="unknown .* fields"):
            reader({**base, "no_such_field": 1}, tmp_path)


def test_machine_errors_name_the_file(tmp_path):
    with pytest.raises(ValueError, match="machine.json: machine field"):
        _read_machine({**READERS[Machine][0], "name": 3}, tmp_path)
    with pytest.raises(ValueError, match="machine.json: .*must be >= 1"):
        _read_machine(
            {"name": "m", "total_ranks": 0, "memory_per_rank_bytes": 8},
            tmp_path,
        )


#: a rule with every field off its default
FULL_RULE = FaultRule(
    action="delay", rank=1, peer=2, tag=3, phase="step/*", step=4,
    probability=0.5, delay_s=1e-3, after=2, max_fires=5,
)


#: class -> objects whose documents must read back as themselves
WRITTEN = {
    FaultRule: [FaultRule(action="drop"), FULL_RULE],
    FaultPlan: [
        FaultPlan(),
        FaultPlan(rules=(FULL_RULE,) * 2, seed=9, name="two"),
        *(canned_plan(action, seed=3) for action in ACTIONS),
    ],
    Machine: list(MACHINES.values()),
    ServiceConfig: [
        ServiceConfig(),
        ServiceConfig(workers=3, queue_depth=1, request_timeout_s=0.5),
    ],
    WorkloadSpec: [
        WorkloadSpec(),
        WorkloadSpec(mode="open", requests=7, rate_rps=5, sizes=(24,)),
    ],
}


@pytest.mark.parametrize(
    "obj",
    [
        pytest.param(obj, id=f"{cls.__name__}-{i}")
        for cls, objs in WRITTEN.items()
        for i, obj in enumerate(objs)
    ],
)
def test_a_written_document_reads_back_as_its_object(obj):
    doc = json.loads(json.dumps(write(obj)))
    assert sorted(doc) == sorted(f.name for f in dataclasses.fields(obj))
    assert read(type(obj), doc, "document") == obj


@pytest.mark.parametrize("loader", [load_machine, resolve_faults])
def test_a_truncated_file_is_an_error_naming_it(tmp_path, loader):
    path = tmp_path / "doc.json"
    path.write_text('{"seed": ')
    with pytest.raises(ValueError) as ei:
        loader(path)
    assert str(ei.value).startswith(f"{path}: Expecting value")

"""Value types: immutability, equality, construction and the import graph."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import chainlab
from chainlab.adjust import InsertionReceipt, adjust_family
from chainlab.core import ChainFamily, GroundSet, InputError, validate_almost_chain
from chainlab.lineop import (
    LineModel,
    TripleTable,
    compute_triples,
    continuity_harness,
)


def test_importing_the_cli_loads_no_dataclass_machinery():
    # Only the modules the import adds count: site hooks may load any of
    # these before it, and then the import does not pay for them.
    code = (
        "import sys; before = set(sys.modules); import chainlab.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(chainlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    added = set(proc.stdout.split())
    assert "chainlab.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _one_of_each_value_type():
    ground = GroundSet(4)
    fam = ChainFamily(ground, (F(1, 2),), (0b11,))
    model = LineModel(fam.indices, fam.indices)
    table = compute_triples(fam, model)
    _, report = adjust_family(fam)
    return [
        ground,
        fam,
        model,
        table,
        report.receipts[0],
        report,
        validate_almost_chain(fam, 0),
        continuity_harness(fam, model, ((0, 0),), {F(1, 2): F(1)}),
    ]


@pytest.mark.parametrize("value", _one_of_each_value_type(), ids=lambda v: type(v).__name__)
def test_value_types_refuse_assignment_and_deletion(value):
    field = value._fields[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, "extra", None)
    assert getattr(value, field) is before


_EQUAL_VALUES = {
    "GroundSet": lambda: GroundSet(5),
    "ChainFamily": lambda: ChainFamily(GroundSet(3), (F(1, 2), F(1)), (0b1, 0b11)),
    "LineModel": lambda: LineModel((F(1, 2), F(1)), (F(1),)),
    "TripleTable": lambda: TripleTable((F(1, 2), F(1)), ((0, 1, 1), (1, 1, 1))),
}


@pytest.mark.parametrize("make", _EQUAL_VALUES.values(), ids=_EQUAL_VALUES.keys())
def test_equal_values_compare_and_hash_alike(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object()
    assert copy.copy(a) == a == pickle.loads(pickle.dumps(a))


def test_unequal_values_differ_and_repr_shows_defining_fields():
    assert GroundSet(5) != GroundSet(6)
    assert ChainFamily(GroundSet(3), (F(1),), (1,)) != ChainFamily(GroundSet(3), (F(1),), (2,))
    assert LineModel((F(1), F(2)), (F(2),)) != LineModel((F(1), F(2)), (F(1),))
    assert repr(GroundSet(5)) == "GroundSet(size=5)"
    assert repr(LineModel((F(1),), (F(1),))) == (
        "LineModel(carrier=(Fraction(1, 1),), dense_points=(Fraction(1, 1),), dense_ranks=(0,))"
    )
    # Like any NamedTuple, a record equals the plain tuple of its fields.
    assert GroundSet(5) == (5,)


@pytest.mark.parametrize("k", [0, 1, 5])
def test_len_counts_sets_and_rows_not_fields(k):
    fam = ChainFamily(GroundSet(1), tuple(F(i + 1) for i in range(k)), (0,) * k)
    table = TripleTable((F(1),), ((0, 0, 0),) * k)
    assert len(fam) == len(fam.indices) == k
    assert len(table) == len(table.ranks) == k
    assert bool(fam) is bool(table) is (k > 0)


def test_value_types_construct_by_keyword():
    ground = GroundSet(size=4)
    assert ground == GroundSet(4) and ground.size == 4
    fam = ChainFamily(ground=ground, indices=(F(1, 2),), masks=(0b11,))
    assert fam == ChainFamily(ground, (F(1, 2),), (0b11,))
    assert ChainFamily._trusted(ground, (F(1, 2),), (0b11,)) == fam
    model = LineModel(carrier=(F(1, 2), F(1)), dense_points=(F(1, 2),))
    assert model.dense_ranks == (0,)
    table = TripleTable(points=(F(1, 2), F(1)), ranks=((0, 1, 1),))
    assert table.points == (F(1, 2), F(1)) and table.ranks == ((0, 1, 1),)
    receipt = InsertionReceipt(
        inserted_index=F(1), produced_set=0b101, predecessor=None, successor=None,
        delta_from_input=0b100,
    )
    assert receipt == InsertionReceipt(F(1), 0b101, None, None, 0b100)
    assert receipt.cost == 1
    with pytest.raises(InputError, match="indices not strictly increasing"):
        ChainFamily(ground=ground, indices=(F(1), F(1)), masks=(0, 0))

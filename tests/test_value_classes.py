"""Frozen value classes with array fields: rebuilt through their constructor
when pickled or copied, and equal only to themselves."""
from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from swarmpattern import (
    AutocorrelationSeq,
    MomentState,
    MomentSystem,
    Problem,
    ResultSet,
    RunResult,
    SimTrace,
    TournamentMatrix,
    default_plan,
    plan_to_dict,
    suite_function,
)


def _problem():
    sphere = suite_function("sphere", 2)
    return Problem(dimension=2, lower=np.full(2, -3.0), upper=np.full(2, 3.0),
                   objective=sphere.objective, name="box")


# One builder per class; each call makes a new object with the same values.
BUILDERS = {
    "Problem": _problem,
    # suite_function hands out one shared object; a copy is a new one.
    "TestFunction": lambda: dataclasses.replace(
        suite_function("shifted_sphere", 2)),
    "ResultSet": lambda: ResultSet(
        algorithms=("a", "b"), functions=("f",),
        values=np.arange(6.0).reshape(2, 1, 3)),
    "RunResult": lambda: RunResult(
        best_value=0.5, best_position=np.arange(3.0),
        best_so_far=np.array([[2.0, 7.0], [0.5, 6.0]])[:, 0], pop_size=10,
        seed=3),
    "MomentSystem": lambda: MomentSystem(np.eye(5) / 2.0, np.arange(5.0)),
    "MomentState": lambda: MomentState(np.arange(5.0)),
    "AutocorrelationSeq": lambda: AutocorrelationSeq(np.array([1.0, 0.5])),
    "SimTrace": lambda: SimTrace(positions=np.arange(4.0), diverged=True),
    "TournamentMatrix": lambda: TournamentMatrix(
        ("a", "b"), np.array([[0, 2], [-2, 0]])),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_pickled_or_copied_object_is_rebuilt_read_only(name):
    original = BUILDERS[name]()
    clones = (pickle.loads(pickle.dumps(original)), copy.deepcopy(original))
    for clone in clones:
        assert type(clone) is type(original)
        for field in dataclasses.fields(original):
            value, cloned = (getattr(original, field.name),
                             getattr(clone, field.name))
            if isinstance(value, np.ndarray):
                assert not cloned.flags.writeable, field.name
                assert cloned.dtype == value.dtype, field.name
                assert np.array_equal(cloned, value), field.name
            elif not callable(value):
                assert cloned == value, field.name


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equality_and_hash_answer_by_identity(name):
    first, second = BUILDERS[name](), BUILDERS[name]()
    assert first == first and first != second
    assert hash(first) == hash(first)
    assert len({first, second}) == 2


def test_a_run_result_rebuilt_from_its_column_keeps_its_history():
    original = BUILDERS["RunResult"]()
    assert original.history == ((10, 2.0), (20, 0.5))
    for clone in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
        assert repr(clone.history) == repr(original.history)


def test_plans_compare_by_value_through_their_dict():
    # Plans hold the suite's shared function objects, so two plans built
    # alike are equal; plan_to_dict is the value a manifest compares.
    first, second = default_plan(2, runs=5), default_plan(2, runs=5)
    assert first == second and hash(first) == hash(second)
    assert first != default_plan(2, runs=6)
    assert plan_to_dict(first) == plan_to_dict(second)

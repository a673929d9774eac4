"""Static schemes: Always Taken/Not Taken, BTFN, profiling."""

from repro.predictors.base import measure_accuracy
from repro.predictors.static_schemes import (
    AlwaysNotTaken,
    AlwaysTaken,
    BTFNPredictor,
    ProfilePredictor,
)
from repro.trace.record import BranchClass, BranchRecord
from tests.synthetic import biased_branch


def _record(pc, taken, target):
    return BranchRecord(pc, BranchClass.CONDITIONAL, taken, target)


class TestAlways:
    def test_always_taken(self):
        trace = list(biased_branch(0.7, 1000, seed=1))
        accuracy = measure_accuracy(AlwaysTaken(), trace)
        assert abs(accuracy - 0.7) < 0.05

    def test_always_complement(self):
        trace = list(biased_branch(0.7, 1000, seed=1))
        taken = measure_accuracy(AlwaysTaken(), trace)
        not_taken = measure_accuracy(AlwaysNotTaken(), trace)
        assert abs(taken + not_taken - 1.0) < 1e-9


class TestBTFN:
    def test_direction_from_target(self):
        predictor = BTFNPredictor()
        assert predictor.predict(0x2000, 0x1000) is True  # backward
        assert predictor.predict(0x1000, 0x2000) is False  # forward

    def test_loop_branch_one_miss_per_exit(self):
        # backward loop branch: taken 9/10
        trace = [
            _record(0x100, iteration % 10 != 9, 0x80) for iteration in range(1000)
        ]
        assert measure_accuracy(BTFNPredictor(), trace) == 0.9

    def test_taken_forward_branches_all_miss(self):
        trace = [_record(0x100, True, 0x200)] * 50
        assert measure_accuracy(BTFNPredictor(), trace) == 0.0


class TestProfile:
    def test_majority_from_trace(self):
        trace = (
            [_record(0x10, True, 0x40)] * 7
            + [_record(0x10, False, 0x40)] * 3
            + [_record(0x20, False, 0x60)] * 9
            + [_record(0x20, True, 0x60)] * 1
        )
        predictor = ProfilePredictor.from_trace(trace)
        assert predictor.bias == {0x10: True, 0x20: False}
        # accuracy on the profiled data set = sum of majorities / total
        assert measure_accuracy(predictor, trace) == (7 + 9) / 20

    def test_tie_resolves_taken(self):
        trace = [_record(0x10, True, 0x40), _record(0x10, False, 0x40)]
        assert ProfilePredictor.from_trace(trace).bias[0x10] is True

    def test_unseen_branch_default(self):
        assert ProfilePredictor({}, default_taken=True).predict(0x999, 0) is True
        assert ProfilePredictor({}, default_taken=False).predict(0x999, 0) is False

    def test_ignores_non_conditionals(self):
        trace = [BranchRecord(0x10, BranchClass.RETURN, True, 0x20)] * 5
        assert ProfilePredictor.from_trace(trace).bias == {}

    def test_names(self):
        assert AlwaysTaken().name == "AlwaysTaken"
        assert BTFNPredictor().name == "BTFN"
        assert ProfilePredictor({}).name == "Profile"

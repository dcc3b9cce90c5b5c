import pytest

from valext import FpAlgebra, recording, split_reduced
from valext.events import emit

# F_5[t]/(t^2+1) on the basis 1, t: t^2 = -1 = 4, and t^2+1 = (t-2)(t+2).
F5_T2P1 = FpAlgebra(5, [[[1, 0], [0, 1]], [[0, 1], [4, 0]]], [1, 0])


def test_emit_outside_a_recording_is_a_no_op():
    emit("CASE1{j=1}")
    with recording() as lines:
        pass
    assert lines == []


def test_inner_recording_keeps_its_lines_from_the_outer():
    with recording() as outer:
        emit("a")
        with recording() as inner:
            emit("b")
        emit("c")
    assert outer == ["a", "c"]
    assert inner == ["b"]


def test_sink_is_reset_after_a_block_that_raises():
    with pytest.raises(RuntimeError):
        with recording() as failed:
            emit("a")
            raise RuntimeError
    emit("after")
    assert failed == ["a"]
    with recording() as lines:
        split_reduced(F5_T2P1)
    assert len(lines) == 3 and lines[0].startswith("SPLIT{")
    assert lines[1:] == ["LIFT{iteration=1}"] * 2

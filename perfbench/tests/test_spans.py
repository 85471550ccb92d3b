import numpy as np
import pytest

import spans


def test_self_time_subtracts_the_time_children_cover():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    np.testing.assert_allclose(spans.self_times(start, end, parent), [3.0, 3.0, 3.0, 1.0])


def test_recorder_nests_spans_and_totals_add_up():
    rec = spans.SpanRecorder()
    rec.instance_id = 7
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        rec.wrap("inner", lambda: None)()
    cols = rec.columns()
    assert list(cols["parent"]) == [-1, 0, 0]
    assert list(cols["instance"]) == [7, 7, 7]
    totals = spans.layer_totals(rec)
    calls, inclusive, own = totals["outer"]
    assert calls == 1
    assert totals["inner"][0] == 2
    assert own == pytest.approx(inclusive - totals["inner"][1])


def test_patched_restores_bindings_after_an_error():
    class Owner:
        attr = "original"

    with pytest.raises(RuntimeError):
        with spans.patched([(Owner, "attr", "replaced")]):
            assert Owner.attr == "replaced"
            raise RuntimeError("boom")
    assert Owner.attr == "original"

from array import array

import spans as spanlib
import traced_child
from youngops.sn_algebra import AlgebraElement, symmetrizer


def _spans(rows):
    """rows: (name, start, end, parent, count)."""
    names = sorted({r[0] for r in rows})
    return spanlib.Spans(
        rep=0, names=names,
        name=array("i", [names.index(r[0]) for r in rows]),
        start=array("q", [r[1] for r in rows]),
        end=array("q", [r[2] for r in rows]),
        parent=array("i", [r[3] for r in rows]),
        count=array("q", [r[4] for r in rows]))


def test_self_time_on_nested_tree():
    s = _spans([
        ("root", 0, 100, -1, 0),
        ("a", 10, 30, 0, 0),
        ("b", 40, 90, 0, 0),
        ("c", 50, 60, 2, 0),   # c and d overlap: together they cover 50..80
        ("d", 55, 80, 2, 0),
        ("e", 85, 95, 2, 0),   # runs past its parent: only 85..90 counts
    ])
    assert spanlib.self_times(s.start, s.end, s.parent) == [30, 20, 15, 10, 25, 10]


def test_summarize_counts_recursion_once():
    s = _spans([
        ("f", 0, 100, -1, 3),
        ("f", 10, 60, 0, 3),   # recursive call: inside the outer f
        ("g", 20, 30, 1, 0),
        ("f", 200, 210, -1, 4),
    ])
    stats = spanlib.summarize(s)
    f = stats["f"]
    assert f.calls == 3
    assert f.total_ns == 110
    assert f.self_ns == 50 + 40 + 10
    assert f.count == 10
    assert f.distinct_counts == {3, 4}
    assert stats["g"].self_ns == 10


def test_recorder_round_trip(tmp_path):
    rec = spanlib.SpanRecorder(rep=7)
    inner = rec.wrap("inner", lambda x: x + 1, count=lambda x: x)
    outer = rec.wrap("outer", lambda x: inner(x) * inner(x + 1))
    assert outer(2) == 12
    path = tmp_path / "spans.bin"
    rec.dump(str(path))
    s = spanlib.load(str(path))
    assert s.rep == 7 and len(s) == 3
    assert [s.names[i] for i in s.name] == ["outer", "inner", "inner"]
    assert list(s.parent) == [-1, 0, 0]
    assert list(s.count) == [0, 2, 3]
    assert all(e >= b for b, e in zip(s.start, s.end))


def test_term_pairs_counted_from_operands():
    a = symmetrizer([1, 2, 3], 4)                       # 6 terms
    b = symmetrizer([3, 4], 4)                          # 2 terms
    assert (len(a), len(b)) == (6, 2)
    rec = spanlib.SpanRecorder(rep=0)
    uninstall = traced_child.install(rec)
    try:
        a * b
        a * 3
    finally:
        uninstall()
    assert not hasattr(AlgebraElement.__mul__, "__wrapped__")
    mul = rec.names.index("sn_algebra.AlgebraElement.__mul__")
    counts = [c for n, c in zip(rec.columns["name"], rec.columns["count"])
              if n == mul]
    assert counts == [6 * 2, 6 * 1]


def test_install_catches_rebound_and_recursive_calls():
    import youngops
    import youngops.verify
    from youngops.sn_algebra import _HERMITIAN_CACHE
    from youngops.tableaux import YoungTableau

    rec = spanlib.SpanRecorder(rep=0)
    uninstall = traced_child.install(rec)
    saved = dict(_HERMITIAN_CACHE)
    _HERMITIAN_CACHE.clear()
    try:
        assert hasattr(youngops.hermitian_young, "__wrapped__")
        assert hasattr(youngops.verify.hermitian_young, "__wrapped__")
        youngops.hermitian_young(YoungTableau.from_string("12/3"))
    finally:
        _HERMITIAN_CACHE.clear()
        _HERMITIAN_CACHE.update(saved)
        uninstall()
    assert not hasattr(youngops.verify.hermitian_young, "__wrapped__")
    herm = rec.names.index("sn_algebra.hermitian_young")
    calls = [i for i, n in enumerate(rec.columns["name"]) if n == herm]
    assert len(calls) == 2  # 12/3 and its parent 12
    assert rec.columns["parent"][calls[1]] == calls[0]


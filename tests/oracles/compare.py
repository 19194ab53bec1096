"""The one equality the parity suites assert: dtype, shape and bits."""

import numpy as np


def assert_same(got, want, fields=(), what="value") -> None:
    """``got`` equals ``want`` in dtype, shape and every bit.

    Floats compare as their unsigned-integer view, so ``-0.0`` differs
    from ``0.0`` and a NaN equals only its own bit pattern.  One width
    difference passes: a narrow integer ``got`` against an ``int64``
    ``want`` compares by value — the frozen oracles built their lane
    columns ``int64``, and the lane contract's widths are pinned by
    ``test_lane_contract.py``.  ``None``
    passes only against ``None``; tuples and lists compare element by
    element.  With ``fields``, each named attribute (or ``dict`` key) of
    both sides in turn, and a failure names the field.
    """
    if fields:
        for name in fields:
            assert_same(_field(got, name), _field(want, name), what=name)
        return
    if got is None or want is None:
        assert got is want, what
        return
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want), what
        for k, (a, b) in enumerate(zip(got, want)):
            assert_same(a, b, what=f"{what}[{k}]")
        return
    got, want = np.asarray(got), np.asarray(want)
    if want.dtype == np.int64 and got.dtype.kind in "iu":
        got = got.astype(np.int64)
    assert got.dtype == want.dtype, (what, got.dtype, want.dtype)
    assert got.shape == want.shape, (what, got.shape, want.shape)
    if got.dtype.kind == "f":
        bits = f"u{got.dtype.itemsize}"
        got = np.ascontiguousarray(got).view(bits)
        want = np.ascontiguousarray(want).view(bits)
    assert np.array_equal(got, want), what


def _field(obj, name):
    return obj[name] if isinstance(obj, dict) else getattr(obj, name)

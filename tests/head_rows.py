"""Shared test helper: ``walk.descend``'s compact path head as per-slot rows.

``descend`` takes a lane's head as ``(head_len, lane, slot, server)``;
the oracles kept from before the compact form — the masked descent of
``test_descent_parity.py`` and the all-lanes phase I of
``test_dh_walk_live.py`` — speak in per-slot rows, one ``int64`` row per
slot with ``-1`` past each lane's end.  :func:`head_to_rows` and
:func:`rows_to_head` translate between the two, so those oracles keep
their code and their assertions.  Importable from every test directory
because ``tests/conftest.py`` puts ``tests/`` on ``sys.path``.
"""

import numpy as np


def head_to_rows(head, size: int) -> list:
    """The compact head as ``max(head_len)`` rows of ``size`` lanes.

    At least one row, even for no lanes: every lane holds its source.
    """
    head_len, lane, slot, server = head
    lane = np.asarray(lane)
    rows = np.full((int(np.max(head_len, initial=1)), size), -1,
                   dtype=np.int64)
    rows[np.broadcast_to(slot, lane.shape), lane] = server
    return list(rows)


def rows_to_head(rows) -> tuple:
    """Hole-free per-slot rows as the compact head."""
    stacked = np.vstack(rows)
    held = stacked >= 0
    slot, lane = np.nonzero(held)
    return held.sum(axis=0), lane, slot, stacked[slot, lane]

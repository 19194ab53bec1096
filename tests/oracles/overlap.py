"""Oracle of ``OverlappingDHNetwork.cover_table`` (§6.2)."""

import numpy as np


def parent_cover_table(net, ys):
    """``cover_table`` as it was before the class table (the oracle)."""
    ys = np.asarray(ys, dtype=np.float64)
    i = net.cover_index.cover(ys)
    k = np.arange(net.max_back, dtype=np.int64)
    cand = (i[None, :] - k[:, None]) % net.n
    mask = (np.mod(ys[None, :] - net.points_array[cand], 1.0)
            <= net.seg_len_array[cand])
    return cand, mask

"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from stnoma import triangularize


@pytest.fixture
def nan_in_factor(monkeypatch):
    """``nan_in_factor(factor, pair, stack=1)`` patches the stacked
    triangularization so that its ``stack``-th pass (from 1) puts a NaN in
    the triangular factor ``factor``, ``"r1"`` or ``"r2"``, of the pair at
    index ``pair`` of that pass, as the decomposition is built. Patching
    again replaces the earlier patch and counts passes afresh."""
    qr = triangularize.qr_real_diag

    def inject(factor, pair, stack=1):
        # each pass makes two stacked QRs, user 1's (r1) first
        target = 2 * (stack - 1) + ("r1", "r2").index(factor) + 1
        calls = []

        def patched(a):
            q, r = qr(a)
            calls.append(a.shape)
            if len(calls) == target:
                r[pair, 0, 0] = np.nan
            return q, r

        monkeypatch.setattr(triangularize, "qr_real_diag", patched)

    return inject

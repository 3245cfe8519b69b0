"""The all-targets decision scan, kept as a bit-for-bit oracle.

shooting._DecisionScan.extend measures the block's last row against
every target and scans the block only for the targets whose decision
ball holds that row.  This is the form it replaced: the max-norm
distance of every row to every target, one coordinate at a time.  Both
must leave the same last outside row and the same last distance per
target, and so the same decision().
"""

import numpy as np

from spin7flow.shooting import DECISION_RADIUS, _DecisionScan


class AllTargetsScan(_DecisionScan):
    """_DecisionScan with every row measured against every target."""

    def extend(self, etas, states):
        base = len(self._etas)
        self._etas.extend(etas.tolist())
        dist = np.zeros((len(states), len(self._targets)))
        for column, values in zip(states.T, self._targets.T):
            np.maximum(dist, np.abs(column[:, None] - values), out=dist)
        outside = ~(dist <= DECISION_RADIUS)
        last = base + len(dist) - 1 - np.argmax(outside[::-1], axis=0)
        for i in np.flatnonzero(outside.any(axis=0)).tolist():
            self._last_outside[i] = int(last[i])
        self._last_distance = dist[-1].tolist()

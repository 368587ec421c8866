"""The padded layout of many training sets (lanes) of one width, which
``train_many`` builds and every ``fit_many`` reads."""

from functools import cached_property

import numpy as np

# A batched fit takes as many lanes at a time as keep the stack it holds
# (its estimator's ``lane_cost`` entries a lane) within this many entries.
FIT_BLOCK = 1 << 16


class Lanes:
    """Lane b's rows are the first ``counts[b]`` of ``X[b]`` (lanes, n,
    width) and ``y[b]`` (lanes, n); counts ascend, so the lanes of one row
    count are adjacent. The rows after a lane's own are padding, which no
    fit reads."""

    def __init__(self, X, y, counts):
        self.X, self.y, self.counts = X, y, counts

    @cached_property
    def valid(self):
        """Where each lane's own rows are: (lanes, n)."""
        return np.arange(self.X.shape[1]) < self.counts[:, None]

    @cached_property
    def groups(self):
        """Per row count c: the slice of its lanes and c."""
        lanes = np.bincount(self.counts)
        sizes = np.flatnonzero(lanes)
        ends = np.cumsum(lanes[sizes]).tolist()
        return [(slice(end - k, end), c)
                for c, k, end in zip(sizes.tolist(), lanes[sizes].tolist(), ends)]

    def sums(self, values):
        """Each lane's sum (..., lanes) of its own rows of ``values`` (...,
        lanes, n).

        Each sum adds its lane's rows alone, in order, as a 1-D ``np.sum``
        would: a sum padded with the other rows, even zeros, can round
        differently (numpy sums 8 or more values pairwise). The lanes of one
        row count are summed in one call, which keeps the 1-D order only
        while the last axis of ``values`` has unit stride.
        """
        out = np.empty(values.shape[:-1])
        for lanes, c in self.groups:
            out[..., lanes] = values[..., lanes, :c].sum(axis=-1)
        return out

    @staticmethod
    def masked_sums(values, mask):
        """Each lane's sum of its ``values`` (lanes, n) where ``mask`` holds,
        in the order of ``np.sum(values[b][mask[b]])`` (``sums``' rule)."""
        packed = np.take_along_axis(values, np.argsort(~mask, axis=1, kind="stable"), axis=1)
        counts = mask.sum(axis=1)
        out = np.empty(len(values))
        for c in np.unique(counts).tolist():
            same = counts == c
            out[same] = packed[same, :c].sum(axis=1)
        return out

    def __getitem__(self, keep):
        """The lanes that ``keep``, a slice or a mask, selects."""
        return type(self)(self.X[keep], self.y[keep], self.counts[keep])

    def blocks(self, lane_cost):
        """The ranges of lanes that one ``fit_many`` call takes, each as a
        slice and its lanes cut to its longest lane's n rows: a range holds
        at most ``FIT_BLOCK`` entries, ``lane_cost(n, width)`` a lane (one
        lane at least)."""
        width, start, counts = self.X.shape[2], 0, self.counts.tolist()
        for stop in range(1, len(counts) + 1):
            if (stop == len(counts)
                    or (stop + 1 - start) * lane_cost(counts[stop], width) > FIT_BLOCK):
                n = counts[stop - 1]
                yield slice(start, stop), type(self)(
                    self.X[start:stop, :n], self.y[start:stop, :n], self.counts[start:stop])
                start = stop

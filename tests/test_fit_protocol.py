"""Every kind fits through one protocol: each estimator of
``base._ESTIMATORS`` has ``fit_many(models, lanes)``, which fits a block of
lanes, and ``lane_cost(n, width)``, which sizes the blocks; none defines a
one-lane ``fit``, so ``trained_lanes`` has one path.
"""

from timesense.classifiers import base


def protocol_faults(estimators):
    """(kind, fault) of each estimator that leaves the protocol."""
    faults = []
    for kind, estimator in sorted(estimators.items()):
        for name in ("fit_many", "lane_cost"):
            if not callable(getattr(estimator, name, None)):
                faults.append((kind, f"no {name}"))
        if hasattr(estimator, "fit"):
            faults.append((kind, "defines fit"))
    return faults


def test_every_estimator_fits_lanes_through_one_protocol():
    assert protocol_faults(base._ESTIMATORS) == []
    for estimator in base._ESTIMATORS.values():
        cost = estimator.lane_cost(25, 4)
        assert isinstance(cost, int) and cost >= 1, estimator


def test_scan_finds_planted_faults():
    class Batched:
        @staticmethod
        def lane_cost(n, width):
            return n * width

        @staticmethod
        def fit_many(models, lanes):
            pass

    class OneLane:
        def fit(self, X, y):
            return self

    class Both(Batched, OneLane):
        pass

    class Uncosted:
        fit_many = Batched.fit_many
        lane_cost = None

    assert protocol_faults({"a": Batched, "b": OneLane, "c": Both, "d": Uncosted}) == [
        ("b", "no fit_many"), ("b", "no lane_cost"), ("b", "defines fit"), ("c", "defines fit"),
        ("d", "no lane_cost")]

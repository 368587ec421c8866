"""Feature selection on a planted-signal dataset.

Only the first 5 of 24 features carry class signal; the rest are noise.
Both greedy forward selection (SFS) and recursive feature elimination
(RFECV) should recover most of the plant. RFECV needs a classifier with a
feature-importance measure, so KNN is rejected with a typed error.
"""

import numpy as np

from timesense.classifiers import ClassifierConfig
from timesense.errors import Unsupported
from timesense.model import FEATURE_NAMES, Dataset
from timesense.selection import rfecv, sfs

rng = np.random.default_rng(0)
n, informative = 48, 5
y = np.tile([0, 1], n // 2)
X = rng.normal(size=(n, 24))
X[:, :informative] += 2.0 * y[:, None]
dataset = Dataset(X, y, np.repeat(np.arange(1, 13), 4))
planted = set(FEATURE_NAMES[:informative])

lr = ClassifierConfig("lr", seed=0)

result = sfs(dataset, lr, n_features=8)
hits = planted & set(result.selected)
print(f"forward SFS picked {len(result.selected)} features, "
      f"{len(hits)}/{informative} planted: {sorted(hits)}")

result = rfecv(dataset, lr)
hits = planted & set(result.selected)
print(f"RFECV kept {len(result.selected)} features, "
      f"{len(hits)}/{informative} planted: {sorted(hits)}")
print("elimination path (size -> cv score):")
for names, score in result.trace:
    print(f"  {len(names):2d} -> {score:.3f}")

try:
    rfecv(dataset, ClassifierConfig("knn"))
except Unsupported as exc:
    print(f"\nKNN + RFECV correctly rejected: {exc}")

"""Extract the 24 physiological biomarkers from one session.

Each session yields two feature vectors -- one over the baseline interval,
one over the task -- and the model learns on their difference (background
subtraction), which removes each participant's resting physiology.
"""

from timesense import features, ingest
from timesense.model import FEATURE_NAMES

sessions = ingest.synth_dataset(ingest.SynthConfig(participants=1, n_slow_biased=0, seed=3))
session = sessions[2]  # a 2-helicopter (fast) session

task, baseline = features.extract_all(session)
delta = task - baseline

print(f"participant {session.participant_id}, "
      f"{session.setting.helicopters} helicopter(s), rating {session.rating}\n")
print(f"{'feature':28s} {'baseline':>10s} {'task':>10s} {'delta':>10s}")
for name, b, t, d in zip(FEATURE_NAMES, baseline, task, delta):
    print(f"{name:28s} {b:10.3f} {t:10.3f} {d:10.3f}")

# The task window of a fast session runs at ~92 bpm against a ~72 bpm
# baseline, so bpm should rise and ibi_ms fall; SCR activity rises too.
assert delta[FEATURE_NAMES.index("bpm")] > 0
assert delta[FEATURE_NAMES.index("ibi_ms")] < 0
print("\nbackground-subtracted deltas point the expected way for a fast session")

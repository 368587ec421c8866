"""Generate a synthetic study corpus and look at what came out.

The generator mimics the study layout: 12 participants, 4 sessions each
(1 or 2 helicopters x Greek or English), a 30 s pre-task baseline and a
182 s task window per session. "Fast" sessions are drawn with higher heart
rate, lower beat-to-beat variability and more skin conductance responses
than "slow" ones.
"""

import collections

from timesense import ingest

config = ingest.SynthConfig(seed=7)
sessions = ingest.synth_dataset(config)

print(f"generated {len(sessions)} sessions "
      f"({config.participants} participants x {config.sessions_per_participant})")

# Which class did the generator aim for, per setting?
by_setting = collections.Counter()
for s in sessions:
    cls = ingest.intended_class(config, s.participant_id, s.setting)
    by_setting[(s.setting.helicopters, s.setting.language, cls)] += 1
for (heli, lang, cls), n in sorted(by_setting.items()):
    print(f"  {heli} helicopter(s), {lang:7s} -> {cls:4s} x{n}")

# The rating distribution encodes the intended label: slow sessions rate
# 1-2, fast sessions 4-5, so thresholding the rescaled ratings at 3
# reproduces the split exactly.
ratings = collections.Counter(s.rating for s in sessions)
print("ratings:", dict(sorted(ratings.items())))

one = sessions[0]
print(f"\nfirst session: participant {one.participant_id}, "
      f"{one.ppg.duration_s:.0f} s of PPG at {one.ppg.sampling_rate_hz} Hz, "
      f"EDA at {one.eda.sampling_rate_hz} Hz, "
      f"temperature at {one.thermopile.sampling_rate_hz} Hz")

# write_corpus lays the corpus out as channel CSVs plus a manifest.json,
# the same format the `extract` step consumes
manifest = ingest.write_corpus(sessions[:4], "timesense_demo_corpus")
print(f"wrote a 4-session sample corpus, manifest at {manifest}")

"""How much does running the two branches of each split in parallel save?

For each ground size, random coverage instances are solved and two numbers
are read off every split: |block| + |complement| (the serial SFM workload)
and max(|block|, |complement|) (the critical path if branches run
concurrently).  Their averages separate as n grows; the gap is the parallel
saving, counted in SFM workload rather than timed.
"""

import numpy as np

from swfair import ExperimentConfig, run_experiment

config = ExperimentConfig(n_min=3, n_max=24, repetitions=10, seed=1,
                          measure_time=False)
rows, csv_text = run_experiment(config)

print("%4s %12s %12s %8s" % ("n", "serial work", "parallel path", "ratio"))
for row in rows:
    ratio = row.mean_max_size / row.mean_sum_size if row.mean_sum_size else 0.0
    bar = "#" * int(round(row.mean_sum_size / 2))
    print("%4d %12.2f %12.2f %8.3f  %s" % (
        row.n, row.mean_sum_size, row.mean_max_size, ratio, bar))

mid = len(rows) // 2
early = np.mean([r.mean_max_size / r.mean_sum_size
                 for r in rows[:mid] if r.mean_sum_size])
late = np.mean([r.mean_max_size / r.mean_sum_size
                for r in rows[mid:] if r.mean_sum_size])
print("\nmean critical-path fraction: %.3f early vs %.3f late; anything "
      "below 1.0 is time saved by forking the branches." % (early, late))

out = "size_sweep.csv"
with open(out, "w") as fh:
    fh.write(csv_text)
print("full CSV written to", out)

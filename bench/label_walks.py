"""Regenerate walk_pool.json, the stratified tuple pool of the walks workload.

    python3 bench/label_walks.py

Draws POOL ordered 4-tuples of Q_6 vertices from the criterion-9
distribution with a fixed seed, runs the walk flow on each under the tracer,
and sorts them into strata by the walk-search nodes the flow spent. Every
round of the walks workload draws a fixed count from each stratum.

One exhausted search costs as much as ~100 cheap walks, so a plain random
draw makes throughput depend on how many exhausting tuples the seed
happened to pick. With the strata every round has the same mix while the
seed still chooses the tuples. The counts put 22 budget-outs and 14 found
walks in each round (61%; the pool has 51%): at an even split the median
would fall between the two modes. The labels are fixed when the file is
written, so a later change to the search does not change which tuples are
drawn.
"""

from __future__ import annotations

import json
import random
import sys

import program

program.load()
import tracer as tracing  # noqa: E402  (needs the program on the path)
import workloads  # noqa: E402
from workloads import WALK_BUDGET  # noqa: E402

POOL = 1400
POOL_SEED = "walks-pool"
BUDGET_OUT_AT = WALK_BUDGET + 1  # nodes of a direct search that ran out of budget
# (label, upper node bound, tuples per round); the last stratum is unbounded
STRATA = (
    ("found within 1000 nodes", 1000, 12),
    ("found after a longer search", WALK_BUDGET, 2),
    ("budget-out, short raise-K search", BUDGET_OUT_AT + 100, 16),
    ("budget-out, raise-K search up to 5000 nodes", BUDGET_OUT_AT + 5000, 5),
    ("budget-out, longer raise-K search", None, 1),
)


def main():
    flow = workloads.WalkFlow(load_pool=False)
    tuples = sorted(set(workloads.random_tuples(random.Random(POOL_SEED), POOL * 2)))
    random.Random(POOL_SEED).shuffle(tuples)
    tuples = tuples[:POOL]
    nodes = [0] * POOL
    t = tracing.Tracer()
    with t:
        for i, s in enumerate(tuples):
            t.active, t.request = True, i
            flow.run(s)
            t.active = False
    for sp in t.spans:
        if sp[tracing.NAME] == "search.find_subdivided_closed_walk":
            nodes[sp[tracing.REQUEST]] += sp[tracing.NODES]
    strata = [[] for _ in STRATA]
    for i in sorted(range(POOL), key=lambda i: (nodes[i], tuples[i])):
        b = next(j for j, (_, top, _) in enumerate(STRATA) if top is None or nodes[i] <= top)
        strata[b].append(i)
    summary = [{"label": label, "per_round": count, "pool_share": len(members) / POOL,
                "nodes": [nodes[members[0]], nodes[members[-1]]]}
               for (label, _, count), members in zip(STRATA, strata)]
    with open(workloads.WALK_POOL, "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": POOL_SEED, "walk_budget": WALK_BUDGET, "summary": summary,
                   "strata": [[list(tuples[i]) for i in members] for members in strata]},
                  fh, separators=(",", ":"))
        fh.write("\n")
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

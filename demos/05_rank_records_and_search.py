# -*- coding: utf-8 -*-
"""
Rank records, point search and the trust boundary
=================================================

Mordell-Weil ranks are the one ingredient certificates cannot prove. This
demo shows the source tiers (user > dataset > point search) and the naive
search producing honest lower bounds with witness points. An outside rank
table comes in as a dataset file (`load_dataset(path)`, `--dataset PATH`).
"""

from shavis import (
    RankSources,
    WeierstrassModel,
    load_dataset,
    minimal_model,
    point_search,
    quadratic_field,
    quadratic_twist,
    rank_over,
)

dataset = load_dataset()

###############################################################################
# The twist of the conductor-364 curve by 59 has rank 2, and its generators
# are small enough that the naive search finds them quickly.

E2 = WeierstrassModel.from_list([0, 0, 0, -584, 5444])
tw = minimal_model(quadratic_twist(E2, 59))[0]
points, lower_bound = point_search(tw, 1000)
print(f"twist {tw}")
print(f"rank lower bound {lower_bound} from points:")
for x, y in points:
    print(f"  ({x}, {y})")

###############################################################################
# On a rank-zero curve the search comes back provably empty-handed (every
# point it can find is torsion, and torsion is filtered by the Mazur bound).

E1 = WeierstrassModel.from_list([0, 0, 0, 1, -10])
tw1 = minimal_model(quadratic_twist(E1, 59))[0]
print("\nrank-0 twist search:", point_search(tw1, 500))

###############################################################################
# rank_over resolves through the tiers and records provenance; quadratic
# fields decompose into two rational ranks.

sources = RankSources(dataset=dataset)
rec = rank_over(E1, quadratic_field(59), sources)
print(f"\nrank(E1/Q(sqrt 59)) = {rec.rank} by {rec.provenance}")
for s in rec.summands:
    print(f"  summand rank {s.rank} ({s.provenance})")

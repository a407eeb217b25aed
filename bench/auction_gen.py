"""Seeded general XOR auctions for the general-auction workload.

Each instance has n bidders, 8 goods and 3 distinct XOR bids per bidder.
A bundle holds 2 to 4 goods drawn uniformly. With that shape the
coalition-table search costs nearly the same on every seed (about 4%
variation at n = 12), whereas drawing each good with probability 1/2 makes
it vary by a factor of two, which would show up as seed noise in wall_s.

Bid values lie on a 0.001 grid in [0.001, 1]. First-price payments are bid
values, and the CLI prints payments with six decimals, so a first-price
vector read back from `payments` output equals the bids exactly and
`core-check` can hold it to the library's 1e-9 tolerance.

The generator writes the JSON layout `instance_from_dict` reads and imports
nothing from coreselect, so the program only ever sees generated files.
"""

from __future__ import annotations

import random

SIZES = (6, 8, 10, 12)
GOODS = 8
BIDS_PER_BIDDER = 3
BUNDLE_SIZES = (2, 4)
VALUE_STEPS = 1000


def general_instance(rng: random.Random, n: int) -> dict:
    """One instance with n bidders, as the dict `instance_from_dict` accepts."""
    goods = [f"g{k}" for k in range(1, GOODS + 1)]
    bidders = []
    for bidder_id in range(1, n + 1):
        bundles: list[list[int]] = []
        while len(bundles) < BIDS_PER_BIDDER:
            bundle = sorted(rng.sample(range(GOODS), rng.randint(*BUNDLE_SIZES)))
            if bundle not in bundles:
                bundles.append(bundle)
        bids = [
            {
                "bundle": [goods[k] for k in bundle],
                "value": rng.randint(1, VALUE_STEPS) / VALUE_STEPS,
            }
            for bundle in bundles
        ]
        bidders.append({"id": bidder_id, "bids": bids})
    return {"goods": goods, "bidders": bidders}


def general_instances(seed: int) -> dict[int, dict]:
    """One instance per size in SIZES, all drawn from one stream seeded by `seed`."""
    rng = random.Random(seed)
    return {n: general_instance(rng, n) for n in SIZES}

"""Small combinatorial auction instances solved exactly.

Bids use XOR semantics: each bidder names alternative bundles and wins at
most one of them (winning none is worth zero). Instances are capped at 12
bidders and 8 goods. The efficient allocation, with its tie-broken
assignment, is found by a branch-and-bound search over feasible
assignments; the value of every bidder coalition comes from one dynamic
program over subsets of goods that reproduces that search's values, and
``coalitional_value`` reads that cached table. The allocation stays on the
search: the program's per-mask tie choice can differ from it once two prefix
sums within the tie tolerance collapse to one welfare after a later bid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

MAX_BIDDERS = 12
MAX_GOODS = 8

# Welfare gaps at or below this count as exact ties for the winner search.
TIE_TOLERANCE = 1e-12

LLG_GOODS = ("g1", "g2")


class SizeLimitError(ValueError):
    """Instance exceeds the engine's scale caps."""


class InvalidCoalitionError(ValueError):
    """A coalition names a bidder id the instance does not contain."""


@dataclass(frozen=True)
class Bid:
    bundle: frozenset[str]
    value: float


@dataclass(frozen=True)
class Bidder:
    id: int
    bids: tuple[Bid, ...]


@dataclass(frozen=True)
class LlgBidProfile:
    """Bid triple of the local-local-global domain.

    ``a`` and ``b`` are the local bidders' bids on good 1 and good 2;
    ``g`` is the global bidder's bid on the package of both goods.
    """

    a: float
    b: float
    g: float

    def __post_init__(self) -> None:
        # One chained test per bid: NaN, infinities and negatives all fail it.
        if not (0 <= self.a < math.inf and 0 <= self.b < math.inf and 0 <= self.g < math.inf):
            for name, value in (("a", self.a), ("b", self.b), ("g", self.g)):
                if not 0 <= value < math.inf:
                    raise ValueError(f"LLG bid {name} must be finite and non-negative, got {value}")

    def swapped(self) -> "LlgBidProfile":
        """Profile with the two local bids exchanged."""
        return LlgBidProfile(self.b, self.a, self.g)

    def locals_win(self) -> bool:
        """True when the engine awards both goods to the locals.

        This is the engine's own tie rule: the global bid must beat the
        locals' joint bid by more than ``TIE_TOLERANCE`` to win.
        """
        return self.a + self.b >= self.g - TIE_TOLERANCE

    def to_instance(self) -> "AuctionInstance":
        return llg_instance(self.a, self.b, self.g)


@dataclass(frozen=True)
class AuctionInstance:
    """An auction with named goods and XOR bidders with ids 1..n, in order.

    The efficient allocation, the realized bid values, the coalition value
    table and both Shapley payoff vectors are solved on first use and kept
    on the instance, as is each bidder's list of candidate awards; every
    payment rule and the core constraints read them from there.
    """

    goods: tuple[str, ...]
    bidders: tuple[Bidder, ...]

    def __post_init__(self) -> None:
        if len(set(self.goods)) != len(self.goods):
            raise ValueError("duplicate good identifiers")
        if len(self.goods) > MAX_GOODS:
            raise SizeLimitError(f"at most {MAX_GOODS} goods supported, got {len(self.goods)}")
        if len(self.bidders) > MAX_BIDDERS:
            raise SizeLimitError(f"at most {MAX_BIDDERS} bidders supported, got {len(self.bidders)}")
        ids = [bidder.id for bidder in self.bidders]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError(f"bidder ids must be 1..n in order, got {ids}")
        declared = set(self.goods)
        for bidder in self.bidders:
            for bid in bidder.bids:
                if not bid.bundle:
                    raise ValueError(f"bidder {bidder.id} bids on an empty bundle")
                if not bid.bundle <= declared:
                    raise ValueError(
                        f"bidder {bidder.id} bids on undeclared goods {sorted(bid.bundle - declared)}"
                    )
                if not math.isfinite(bid.value) or bid.value < 0:
                    raise ValueError(
                        f"bidder {bidder.id} has a bid value that is not a finite non-negative number"
                    )

    @property
    def n(self) -> int:
        return len(self.bidders)

    @property
    def m(self) -> int:
        return len(self.goods)

    def bidder_ids(self) -> tuple[int, ...]:
        return tuple(bidder.id for bidder in self.bidders)

    def bid_value(self, bidder_id: int, bundle: frozenset[str]) -> float:
        """Value the bidder declared for exactly this bundle (0 if empty or unlisted)."""
        if not bundle:
            return 0.0
        best = 0.0
        for bid in self.bidders[bidder_id - 1].bids:
            if bid.bundle == bundle and bid.value > best:
                best = bid.value
        return best

    @cached_property
    def allocation(self) -> "Allocation":
        """The efficient allocation, solved once."""
        return winner_determination(self)

    @cached_property
    def realized(self) -> tuple[float, ...]:
        """Each bidder's accepted bid value under ``allocation``, in id order."""
        allocation = self.allocation
        return tuple(self.bid_value(i, allocation.bundle_for(i)) for i in self.bidder_ids())

    @cached_property
    def coalition_values(self) -> tuple[float, ...]:
        """``coalition_value_table`` of the instance, solved once."""
        return tuple(coalition_value_table(self))

    @cached_property
    def shapley_values(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Shapley payoffs without and with the auctioneer as a player, solved once."""
        return _shapley_payoffs(self.n, self.coalition_values)

    @cached_property
    def options(self) -> tuple:
        """Each bidder's candidate awards (``_instance_options``), built once."""
        return _instance_options(self)


@dataclass
class Allocation:
    """A feasible assignment of bundles to bidders and the welfare it realises."""

    assignment: dict[int, frozenset[str]]
    welfare: float

    def bundle_for(self, bidder_id: int) -> frozenset[str]:
        return self.assignment.get(bidder_id, frozenset())

    def winners(self) -> tuple[int, ...]:
        return tuple(i for i, bundle in sorted(self.assignment.items()) if bundle)


def llg_instance(a: float, b: float, g: float) -> AuctionInstance:
    """Three-bidder LLG shorthand: locals bid on one good each, the global bidder on both."""
    return AuctionInstance(
        goods=LLG_GOODS,
        bidders=(
            Bidder(1, (Bid(frozenset({"g1"}), float(a)),)),
            Bidder(2, (Bid(frozenset({"g2"}), float(b)),)),
            Bidder(3, (Bid(frozenset({"g1", "g2"}), float(g)),)),
        ),
    )


def _bidder_options(bidder: Bidder, good_index: dict[str, int]):
    """Candidate awards for one bidder, in canonical order.

    Positive-value bundles come first, sorted by their good indices, then the
    empty award. Zero-value bundles are never awarded (winning them is
    indistinguishable from winning nothing). Duplicate bundles keep the
    highest value.
    """
    best_by_key: dict[tuple[int, ...], tuple[float, frozenset[str]]] = {}
    for bid in bidder.bids:
        if bid.value <= 0.0:
            continue
        key = tuple(sorted(good_index[good] for good in bid.bundle))
        current = best_by_key.get(key)
        if current is None or bid.value > current[0]:
            best_by_key[key] = (bid.value, bid.bundle)
    options = []
    for key in sorted(best_by_key):
        value, bundle = best_by_key[key]
        mask = 0
        for index in key:
            mask |= 1 << index
        options.append((mask, value, bundle))
    options.append((0, 0.0, frozenset()))
    return tuple(options)


def _instance_options(instance: AuctionInstance) -> tuple:
    """``_bidder_options`` of every bidder, in id order."""
    good_index = {good: i for i, good in enumerate(instance.goods)}
    return tuple(_bidder_options(bidder, good_index) for bidder in instance.bidders)


def _shapley_payoffs(
    n: int, table: tuple[float, ...]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Subset-weighted Shapley payoffs of both variants in one pass over the table.

    Bidder i's payoff sums, over the coalitions S without i in mask order,
    the weight of |S| times i's marginal value table[S + i] - table[S]. The
    auctioneer, when counted as a player, zeroes every coalition without
    her, which changes only the weights.
    """
    factorial = math.factorial
    plain = [factorial(s) * factorial(n - s - 1) / factorial(n) for s in range(n)]
    with_auctioneer = [
        factorial(s + 1) * factorial(n - s - 1) / factorial(n + 1) for s in range(n)
    ]
    without, with_ = [], []
    for i in range(n):
        bit = 1 << i
        total = total_with = 0.0
        for mask in range(1 << n):
            if mask & bit:
                continue
            size = mask.bit_count()
            marginal = table[mask | bit] - table[mask]
            total += plain[size] * marginal
            total_with += with_auctioneer[size] * marginal
        without.append(total)
        with_.append(total_with)
    return tuple(without), tuple(with_)


def _exhaustive_best(options: Sequence) -> tuple[float, list[frozenset[str]]]:
    """Welfare-maximal feasible choice of one option per bidder.

    ``options`` holds the ``_bidder_options`` of the participating bidders
    in id order; the result is the welfare and each one's awarded bundle.
    Ties are broken toward the lexicographically smallest assignment vector
    over bidder ids, with non-empty bundles ordered before the empty award,
    so lower bidder ids win ties and at an exact locals/global welfare tie in
    LLG the locals win.
    """
    suffix_max = [0.0] * (len(options) + 1)
    for i in range(len(options) - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + max(value for _, value, _ in options[i])

    best_welfare = -1.0
    best_choice: list[frozenset[str]] | None = None
    choice: list[frozenset[str]] = [frozenset()] * len(options)

    def walk(idx: int, used_mask: int, welfare: float) -> None:
        nonlocal best_welfare, best_choice
        if idx == len(options):
            # Enumeration follows the canonical option order, so the first
            # assignment reaching a welfare level is the tie-break winner.
            if welfare > best_welfare + TIE_TOLERANCE:
                best_welfare = welfare
                best_choice = choice.copy()
            return
        if welfare + suffix_max[idx] < best_welfare - TIE_TOLERANCE:
            return
        for mask, value, bundle in options[idx]:
            if mask & used_mask:
                continue
            choice[idx] = bundle
            walk(idx + 1, used_mask | mask, welfare + value)
        choice[idx] = frozenset()

    walk(0, 0, 0.0)
    assert best_choice is not None
    return max(best_welfare, 0.0), best_choice


def winner_determination(instance: AuctionInstance) -> Allocation:
    """Efficient allocation of the full instance, with deterministic tie-breaking."""
    welfare, choice = _exhaustive_best(instance.options)
    return Allocation(dict(zip(instance.bidder_ids(), choice)), welfare)


def _validated_coalition(instance: AuctionInstance, coalition: Iterable[int]) -> set[int]:
    ids = set(coalition)
    unknown = ids - set(instance.bidder_ids())
    if unknown:
        raise InvalidCoalitionError(f"unknown bidder ids in coalition: {sorted(unknown)}")
    return ids


def coalitional_value(instance: AuctionInstance, coalition: Iterable[int]) -> float:
    """Welfare the coalition achieves alone (other bids zeroed), from the cached table."""
    ids = _validated_coalition(instance, coalition)
    return instance.coalition_values[sum(1 << (i - 1) for i in ids)]


def realized_welfare(
    instance: AuctionInstance, coalition: Iterable[int], allocation: Allocation
) -> float:
    """Total bid value the coalition receives under the given (efficient) allocation."""
    ids = _validated_coalition(instance, coalition)
    return sum(instance.bid_value(i, allocation.bundle_for(i)) for i in ids)


def coalition_value_table(instance: AuctionInstance) -> list[float]:
    """Coalitional value of every bidder subset, indexed by bitmask (bit i = bidder id i+1).

    A dynamic program over goods masks (Rothkopf, Pekec and Harstad 1998)
    returns, bit for bit, the welfare ``_exhaustive_best`` finds for each
    subset. A layer holds, for every goods mask g, the best welfare the
    coalition reaches using only goods in g. Coalition S is built from S
    without its highest bidder h: for each of h's options, in
    ``_bidder_options`` order, every mask g that contains the bundle is
    relaxed from ``parent[g & ~bundle] + value``. Adding the highest bidder
    last makes every candidate the same id-order float sum the search
    forms, and since float addition is monotone, the best prefix plus a
    value is the best of the sums.

    The search's tie rule is carried as an integer key per mask: a
    mixed-radix number with one digit per bidder, bidder 1 most
    significant, where option k of a bidder with K options is the digit
    K - 1 - k, so the empty award is 0. A candidate replaces an entry when
    it is higher by more than ``TIE_TOLERANCE``, or within it and its key
    is larger, that is when its assignment comes first in the search's
    canonical order. Coalitions are walked depth first, so at most n + 1
    layers are live; a coalition holding bidder n is never extended, so
    only its full-mask entry is relaxed.
    """
    n = instance.n
    full = (1 << instance.m) - 1
    options = instance.options
    digit_weights = [1] * n
    for i in range(n - 2, -1, -1):
        digit_weights[i] = digit_weights[i + 1] * len(options[i + 1])
    # Per bidder and positive option: value, key increment, and the
    # (rest, goods) mask pairs it relaxes, for every goods mask and for the
    # full mask alone.
    relaxations = []
    for i, bidder_options in enumerate(options):
        last = len(bidder_options) - 1
        rows = []
        for k, (bundle, value, _) in enumerate(bidder_options[:last]):
            pairs = [(rest, rest | bundle) for rest in range(full + 1) if not rest & bundle]
            rows.append((value, (last - k) * digit_weights[i], pairs, [(full & ~bundle, full)]))
        relaxations.append(rows)

    table = [0.0] * (1 << n)
    # Entries: coalition mask, index of the next bidder to add, its layer.
    stack = [(0, 0, [0.0] * (full + 1), [0] * (full + 1))]
    while stack:
        coalition, h, values, keys = stack[-1]
        if h == n:
            stack.pop()
            continue
        stack[-1] = (coalition, h + 1, values, keys)
        extended = h < n - 1
        child_values = values.copy()
        child_keys = keys.copy()
        for value, step, pairs, full_pair in relaxations[h]:
            for rest, goods in pairs if extended else full_pair:
                candidate = values[rest] + value
                best = child_values[goods]
                if candidate > best + TIE_TOLERANCE or (
                    candidate >= best - TIE_TOLERANCE and keys[rest] + step > child_keys[goods]
                ):
                    child_values[goods] = candidate
                    child_keys[goods] = keys[rest] + step
        child = coalition | 1 << h
        table[child] = child_values[full]
        if extended:
            stack.append((child, h + 1, child_values, child_keys))
    return table


def instance_from_dict(data: dict) -> AuctionInstance:
    """Build an instance from the JSON object layout.

    Expected shape::

        {"goods": ["g1", "g2"],
         "bidders": [{"id": 1, "bids": [{"bundle": ["g1"], "value": 0.4}]}, ...]}
    """
    try:
        goods = tuple(str(good) for good in data["goods"])
        bidders = []
        for entry in data["bidders"]:
            bids = tuple(
                Bid(frozenset(str(good) for good in bid["bundle"]), float(bid["value"]))
                for bid in entry["bids"]
            )
            bidders.append(Bidder(int(entry["id"]), bids))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance object: {exc}") from exc
    bidders.sort(key=lambda bidder: bidder.id)
    return AuctionInstance(goods, tuple(bidders))


def instance_from_json(text: str) -> AuctionInstance:
    return instance_from_dict(json.loads(text))


def instance_to_dict(instance: AuctionInstance) -> dict:
    order = {good: i for i, good in enumerate(instance.goods)}
    return {
        "goods": list(instance.goods),
        "bidders": [
            {
                "id": bidder.id,
                "bids": [
                    {"bundle": sorted(bid.bundle, key=order.get), "value": bid.value}
                    for bid in bidder.bids
                ],
            }
            for bidder in instance.bidders
        ],
    }


def instance_to_json(instance: AuctionInstance, indent: int | None = None) -> str:
    return json.dumps(instance_to_dict(instance), indent=indent)

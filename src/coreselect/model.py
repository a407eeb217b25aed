"""Small combinatorial auction instances solved exactly.

Bids use XOR semantics: each bidder names alternative bundles and wins at
most one of them (winning none is worth zero). Instances are capped at 12
bidders and 8 goods. One dynamic program over subsets of goods solves
them: run along the chain of bidders 1..n it gives the efficient
allocation, with its tie-broken assignment, and run over every bidder
coalition it gives the coalition value table that ``coalitional_value``
reads. Welfares within ``TIE_TOLERANCE`` times the instance's largest bid
of the best one tie with it, so the tie window scales with the bids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

MAX_BIDDERS = 12
MAX_GOODS = 8

# A welfare below the best one by at most this fraction of the instance's
# largest bid ties with it.
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

        This is the engine's comparison written out: the global bid wins only
        when it beats the locals' joint bid by more than ``TIE_TOLERANCE``
        times the largest bid. ``g`` serves as that scale. A local bid above
        ``g`` puts the locals' sum above ``g``, so they win at any tolerance;
        otherwise ``g`` is the largest bid. Taking ``g`` rather than a max of
        the three keeps this cheap on region maps, which call it per cell.
        """
        return self.g <= self.a + self.b + TIE_TOLERANCE * self.g

    def to_instance(self) -> "AuctionInstance":
        return llg_instance(self.a, self.b, self.g)


class _solved_once:
    """A value computed on first access and kept in the instance's ``__dict__``.

    ``functools.cached_property`` without its lock, which CPython 3.11
    takes on every first access; an instance fills up to six of these. The
    stored value shadows this non-data descriptor from then on.
    """

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner: type | None = None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class AuctionInstance:
    """An auction with named goods and XOR bidders with ids 1..n, in order.

    The efficient allocation, the realized bid values, the coalition value
    table and both Shapley payoff vectors are solved on first use and kept
    on the instance, as are each bidder's list of candidate awards and the
    goods-mask program's rows; every payment rule and the core constraints
    read them from there.
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

    @_solved_once
    def allocation(self) -> "Allocation":
        """The efficient allocation, solved once."""
        return winner_determination(self)

    @_solved_once
    def realized(self) -> tuple[float, ...]:
        """Each bidder's accepted bid value under ``allocation``, in id order."""
        allocation = self.allocation
        return tuple(self.bid_value(i, allocation.bundle_for(i)) for i in self.bidder_ids())

    @_solved_once
    def coalition_values(self) -> tuple[float, ...]:
        """``coalition_value_table`` of the instance, solved once."""
        return tuple(coalition_value_table(self))

    @_solved_once
    def shapley_values(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Shapley payoffs without and with the auctioneer as a player, solved once."""
        return _shapley_payoffs(self.n, self.coalition_values)

    @_solved_once
    def options(self) -> tuple:
        """Each bidder's candidate awards (``_instance_options``), built once."""
        return _instance_options(self)

    @_solved_once
    def _rows(self) -> tuple[list, float]:
        """``_program_rows`` of the instance, built once for both program runs."""
        return _program_rows(self)


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


def winner_determination(instance: AuctionInstance) -> Allocation:
    """Efficient allocation of the full instance, with deterministic tie-breaking.

    Assignments whose welfare is within the tie tolerance of the best one
    tie, and the first of them in the canonical order wins: the
    lexicographically smallest assignment vector over bidder ids, with
    non-empty bundles ordered before the empty award. So lower bidder ids
    win ties, and at an exact locals/global welfare tie in LLG the locals
    win. ``welfare`` is the winning assignment's welfare, the grand
    coalition's entry of ``coalition_value_table``. The goods-mask program
    runs along the chain of coalitions {1}, {1, 2}, ..., {1..n}.
    """
    options = instance.options
    table, picks = _goods_mask_program(instance, chain=True)
    bundles = [bidder_options[k][2] for bidder_options, k in zip(options, picks)]
    return Allocation(dict(zip(instance.bidder_ids(), bundles)), table[-1])


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

    Each entry is the welfare of the coalition's tie-broken assignment from
    the goods-mask program (``_goods_mask_program``), with the tie
    tolerance of the whole instance, so it is the welfare
    ``winner_determination`` would find for the coalition alone.
    """
    return _goods_mask_program(instance, chain=False)[0]


def _goods_mask_program(
    instance: AuctionInstance, chain: bool
) -> tuple[list[float], list[int]]:
    """The goods-mask dynamic program (Rothkopf, Pekec and Harstad 1998).

    Returns the welfare of each built coalition's tie-broken assignment,
    indexed by coalition bitmask, with 0.0 for coalitions it does not
    build; with ``chain`` set, also the option index each bidder takes in
    the grand coalition's assignment, in id order.

    A layer holds, for every goods mask g, the best welfare the coalition
    reaches using only goods in g and an upper bound on the welfare of
    every other assignment there, so a second assignment at the best
    welfare raises the bound to it. Coalition S is built from S without its highest bidder
    h: for each of h's options, every mask g that contains the bundle is
    relaxed from ``parent[g & ~bundle] + value``. Adding the highest bidder
    last makes every candidate the id-order float sum of its assignment,
    and since float addition is monotone, the best of the parent plus a
    value is the best of the sums. With ``chain`` set only the coalitions
    {1}, {1, 2}, ..., {1..n} are built; otherwise every coalition is, depth
    first, so only the layers on the current path, at most n + 1, are live.
    A coalition holding bidder n is never extended, so only its full-mask
    entry is relaxed.

    The tie tolerance is ``TIE_TOLERANCE`` times the instance's largest
    bid, the same for every coalition. Where no other welfare ties a
    coalition's best one, that is its tie-broken welfare; otherwise, and
    for the grand coalition of the chain, ``_tie_broken`` traces the
    assignment. The per-option rows and the tolerance come from
    ``_program_rows``, built once per instance for both runs.
    """
    n = instance.n
    full = (1 << instance.m) - 1
    options = instance.options
    relaxations, tol = instance._rows
    table = [0.0] * (1 << n)
    picks: list[int] = []
    # A layer is (best, upper bound on the others, index of the bidder added
    # last, the layer it was built from); the empty coalition's has no bidder.
    empty = ([0.0] * (full + 1), [-math.inf] * (full + 1), None, None)
    # Entries: coalition mask, index of the next bidder to add, its layer.
    stack = [(0, 0, empty)] if n else []
    while stack:
        coalition, h, layer = stack.pop()
        extended = h < n - 1
        if extended and not chain:
            # The coalition without bidder h goes on to bidder h + 1 next.
            stack.append((coalition, h + 1, layer))
        values, lower = layer[0], layer[1]
        child_values = values.copy()
        child_lower = lower.copy()
        for value, pairs, full_pair in relaxations[h]:
            for rest, goods in pairs if extended else full_pair:
                candidate = values[rest] + value
                best = child_values[goods]
                if candidate > best:
                    below = lower[rest] + value
                    child_lower[goods] = best if best > below else below
                    child_values[goods] = candidate
                elif candidate == best:
                    # Another assignment reaches the best welfare exactly.
                    child_lower[goods] = best
                elif candidate > child_lower[goods]:
                    child_lower[goods] = candidate
        child = coalition | 1 << h
        child_layer = (child_values, child_lower, h, layer)
        if extended:
            stack.append((child, h + 1, child_layer))
        if chain:
            if not extended:
                table[child], picks = _tie_broken(options, child_layer, full, tol)
        elif _ties(child_values[full], child_lower[full], tol):
            table[child] = _tie_broken(options, child_layer, full, tol)[0]
        else:
            table[child] = child_values[full]
    return table, picks


def _program_rows(instance: AuctionInstance) -> tuple[list, float]:
    """Per bidder and positive option, the goods-mask program's relaxation row.

    A row is the option's value, the (rest, goods) mask pairs it relaxes for
    every goods mask (None for bidder n, which is never extended) and the
    pair for the full mask alone. Also returns the tie tolerance,
    ``TIE_TOLERANCE`` times the instance's largest bid.
    """
    n = instance.n
    full = (1 << instance.m) - 1
    relaxations = []
    largest = 0.0
    for i, bidder_options in enumerate(instance.options):
        rows = []
        for bundle, value, _ in bidder_options[:-1]:
            pairs = (
                [(rest, rest | bundle) for rest in range(full + 1) if not rest & bundle]
                if i < n - 1
                else None
            )
            rows.append((value, pairs, [(full & ~bundle, full)]))
            if value > largest:
                largest = value
        relaxations.append(rows)
    return relaxations, TIE_TOLERANCE * largest


def _ties(best: float, welfare: float, tol: float) -> bool:
    """The engine's tie rule: ``best`` does not beat ``welfare`` by more than ``tol``."""
    return best <= welfare + tol


def _best_path(options: tuple, layer: tuple, goods: int) -> list[int]:
    """Each member's option index in the one assignment that reaches ``layer``'s best welfare.

    For a coalition where no other assignment ties the best one: going down
    from the highest member, each layer's entry is reached exactly by one
    option on top of the layer below, the one that assignment takes.
    """
    picks = []
    while True:
        _, _, h, parent = layer
        target = layer[0][goods]
        rest = parent[0]
        for k, (bundle, value, _) in enumerate(options[h]):
            if not bundle & ~goods and rest[goods & ~bundle] + value == target:
                break
        picks.append(k)
        goods &= ~bundle
        if parent[2] is None:
            picks.reverse()
            return picks
        layer = parent


def _tie_broken(options: tuple, layer: tuple, full: int, tol: float) -> tuple[float, list[int]]:
    """The first assignment in the canonical order whose welfare ties the coalition's best.

    ``layer`` is the coalition's layer from ``_goods_mask_program``; its
    links lead to the layers of the coalition without its highest member,
    without its two highest, and so on. The members choose from the highest
    id down, each among the options that still leave a tying assignment.
    The test is exact: the best welfare an option still allows is the next
    layer's entry for the goods left plus the option's value plus the
    higher members' values, in id order, since float addition is monotone.
    The first tying choice of the members below a given one depends only on
    the goods left and the higher members' nonzero values, so it is
    computed once per such state. Where no other assignment ties the best
    one, that one is read off the layers by ``_best_path``. Returns the
    assignment's welfare and each member's option index, in id order.
    """
    best = layer[0][full]
    if not _ties(best, layer[1][full], tol):
        return best, _best_path(options, layer, full)
    memo: dict = {}

    def first(layer: tuple, goods: int, later: tuple[float, ...]) -> tuple[tuple[int, ...], float]:
        _, _, h, parent = layer
        state = (h, goods, later)
        if state in memo:
            return memo[state]
        rest = parent[0]
        found = None
        for k, (bundle, value, _) in enumerate(options[h]):
            if bundle & ~goods:
                continue
            welfare = rest[goods & ~bundle] + value
            for higher in later:
                welfare += higher
            if not _ties(best, welfare, tol):
                continue
            if parent[2] is None:
                choice = ((k,), welfare)
            else:
                lower_picks, welfare = first(
                    parent, goods & ~bundle, (value, *later) if value else later
                )
                choice = ((*lower_picks, k), welfare)
            if found is None or choice < found:
                found = choice
        memo[state] = found
        return found

    picks, welfare = first(layer, full, ())
    return welfare, list(picks)


def instance_from_dict(data: dict) -> AuctionInstance:
    """Build an instance from the JSON object layout.

    Expected shape::

        {"goods": ["g1", "g2"],
         "bidders": [{"id": 1, "bids": [{"bundle": ["g1"], "value": 0.4}]}, ...]}
    """
    try:
        goods = tuple(str(good) for good in _field(data, "goods", list, "a JSON array"))
        bidders = []
        for entry in data["bidders"]:
            bids = tuple(
                Bid(
                    frozenset(str(good) for good in _field(bid, "bundle", list, "a JSON array")),
                    float(_field(bid, "value", (int, float), "a number")),
                )
                for bid in entry["bids"]
            )
            bidders.append(Bidder(_field(entry, "id", int, "a JSON integer"), bids))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed instance object: {exc}") from exc
    bidders.sort(key=lambda bidder: bidder.id)
    return AuctionInstance(goods, tuple(bidders))


def _field(data: dict, name: str, kinds: type | tuple[type, ...], kind: str):
    """``data[name]`` if it is one of ``kinds`` (a JSON true or false never is)."""
    value = data[name]
    if isinstance(value, bool) or not isinstance(value, kinds):
        got = json.dumps(value, default=repr)
        raise ValueError(f'instance field "{name}" must be {kind}, got {got}')
    return value


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

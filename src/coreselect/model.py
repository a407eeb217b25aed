"""Small combinatorial auction instances solved exactly.

Bids use XOR semantics: each bidder names alternative bundles and wins at
most one of them (winning none is worth zero). Instances are capped at 12
bidders and 8 goods. One dynamic program over subsets of goods solves
them, with one relaxation rule, stated in ``_relaxed``. ``_relaxed``
applies it to build a coalition's goods-mask layer from the layer of the
coalition without its highest bidder, and two walks use it:
``winner_determination`` along the chain of bidders 1..n, for the
efficient allocation and its tie-broken assignment, and
``coalition_value_table`` over every bidder coalition, for the table that
``coalitional_value`` reads. The table applies the same rule in place to
the one entry it reads of each coalition with bidder n. Each layer holds
only the goods masks it is ever read at (``_program_rows``), one entry per
slot of its highest bidder's read set, which leaves every entry that is
read bit-identical to relaxing all 2**m masks. Welfares within
``TIE_TOLERANCE`` times the instance's largest bid (``scale``) of the best
one tie with it, so the tie window scales with them.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable

MAX_BIDDERS = 12
MAX_GOODS = 8

# A welfare below the best one by at most this fraction of the instance's
# largest bid ties with it.
TIE_TOLERANCE = 1e-12

LLG_GOODS = ("g1", "g2")

# SHAPLEY_WEIGHTS[p][t] = t! (p - t - 1)! / p!: the share of the p! arrival
# orders of a p-player game in which a player finds a given t others there.
SHAPLEY_WEIGHTS = tuple(
    tuple(math.factorial(t) * math.factorial(p - t - 1) / math.factorial(p) for t in range(p))
    for p in range(MAX_BIDDERS + 2)
)


class SizeLimitError(ValueError):
    """Instance exceeds the engine's scale caps."""


class InvalidCoalitionError(ValueError):
    """A coalition names a bidder id the instance does not contain."""


def _is_bidder_id(value: object, n: int) -> bool:
    """The bidder-id rule: an ``int`` in 1..n, and never a ``bool``, which equals 0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= n


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
        # One chained test: NaN, infinities, negatives and an overflowing sum
        # all fail it, and with a finite sum every welfare sum is finite.
        a, b, g = self.a, self.b, self.g
        if not (0 <= a and 0 <= b and 0 <= g and a + b + g < math.inf):
            for name, value in (("a", a), ("b", b), ("g", g)):
                if not 0 <= value < math.inf:
                    raise ValueError(f"LLG bid {name} must be finite and non-negative, got {value}")
            raise ValueError(f"LLG bids must have a finite sum a + b + g, got {a} + {b} + {g}")

    def swapped(self) -> "LlgBidProfile":
        """Profile with the two local bids exchanged."""
        return LlgBidProfile(self.b, self.a, self.g)

    def locals_win(self) -> bool:
        """True when the engine awards both goods to the locals.

        The engine's tie rule (``_ties``) between the global bid and the
        locals' joint bid, with ``g`` as the scale: a local bid above ``g``
        puts the locals' sum above it, so they win at any tolerance, and
        otherwise ``g`` is the largest bid.
        """
        return _ties(self.g, self.a + self.b, TIE_TOLERANCE * self.g)

    def to_instance(self) -> "AuctionInstance":
        return llg_instance(self.a, self.b, self.g)


class _solved_once:
    """A value computed on first access and kept in the instance's ``__dict__``.

    ``functools.cached_property`` without its lock, which CPython 3.11
    takes on every first access; an instance fills up to five of these. The
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

    Construction reads each bid once: it checks it, and builds from the
    bids each bidder's candidate awards (``options``), the largest bid
    (``scale``) and the goods-mask program's rows. The efficient
    allocation, the realized bid values, the coalition value table, each
    coalition's lost welfare and both Shapley payoff vectors are solved on
    first use and kept on the instance; every payment rule and the core
    constraints read them from there.
    """

    goods: tuple[str, ...]
    bidders: tuple[Bidder, ...]
    scale: float = field(init=False, repr=False, compare=False)  # largest bid, 0.0 if none
    # Each bidder's candidate awards (``_bidder_options``), in id order.
    options: tuple = field(init=False, repr=False, compare=False)
    # ``_program_rows``: (slots, slot count, cuts, rows), for both walks.
    _program: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.goods)) != len(self.goods):
            raise ValueError("duplicate good identifiers")
        if len(self.goods) > MAX_GOODS:
            raise SizeLimitError(f"at most {MAX_GOODS} goods supported, got {len(self.goods)}")
        if len(self.bidders) > MAX_BIDDERS:
            raise SizeLimitError(f"at most {MAX_BIDDERS} bidders supported, got {len(self.bidders)}")
        ids = [bidder.id for bidder in self.bidders]
        if not all(_is_bidder_id(i, len(ids)) and i == k for k, i in enumerate(ids, 1)):
            raise ValueError(f"bidder ids must be 1..n in order, got {ids}")
        good_index = {good: i for i, good in enumerate(self.goods)}
        options = tuple(_bidder_options(bidder, good_index) for bidder in self.bidders)
        # The sum of each bidder's largest bid bounds every welfare the engine
        # sums, since float addition is monotone.
        total = scale = 0.0
        for bidder_options in options:
            largest = max(value for _, value, _ in bidder_options)
            total += largest
            scale = max(scale, largest)
        if not total < math.inf:
            raise ValueError("the bidders' largest bids must have a finite sum")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "options", options)
        object.__setattr__(self, "_program", _program_rows(self))

    @property
    def n(self) -> int:
        return len(self.bidders)

    @property
    def m(self) -> int:
        return len(self.goods)

    def bidder_ids(self) -> tuple[int, ...]:
        return tuple(bidder.id for bidder in self.bidders)

    def bid_value(self, bidder_id: int, bundle: frozenset[str]) -> float:
        """The bidder's highest bid on exactly this bundle (0 if empty or unlisted).

        Raises ``InvalidCoalitionError`` for an id that breaks ``_is_bidder_id``.
        """
        if not _is_bidder_id(bidder_id, self.n):
            raise InvalidCoalitionError(f"unknown bidder id: {bidder_id!r}")
        for _, value, award in self.options[bidder_id - 1]:
            if award == bundle:
                return value
        return 0.0

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
    def lost_welfare(self) -> tuple[float, ...]:
        """Each coalition's value minus its members' accepted bids, by mask, solved once.

        The entry of a blocking coalition is the core's bound on what everyone
        else must pay together; the entry of everyone but bidder i is i's VCG
        payment. The accepted bids are added by ``id_order_sums``.
        """
        return tuple(v - a for v, a in zip(self.coalition_values, id_order_sums(self.realized)))

    @_solved_once
    def shapley_values(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Shapley payoffs without and with the auctioneer as a player, solved once."""
        return _shapley_payoffs(self.n, self.coalition_values)


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
    """Candidate awards for one bidder, in canonical order, after checking each bid.

    Positive-value bundles come first, sorted by their good indices, then the
    empty award. Zero-value bundles are never awarded (winning them is
    indistinguishable from winning nothing). Duplicate bundles keep the
    highest value.
    """
    best_by_key: dict[tuple[int, ...], tuple[float, frozenset[str]]] = {}
    for bid in bidder.bids:
        if not bid.bundle:
            raise ValueError(f"bidder {bidder.id} bids on an empty bundle")
        if not bid.bundle <= good_index.keys():
            undeclared = sorted(good for good in bid.bundle if good not in good_index)
            raise ValueError(f"bidder {bidder.id} bids on undeclared goods {undeclared}")
        if not math.isfinite(bid.value) or bid.value < 0:
            raise ValueError(
                f"bidder {bidder.id} has a bid value that is not a finite non-negative number"
            )
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


def id_order_sums(values: Iterable[float]) -> list[float]:
    """The sum of ``values[i]`` over the set bits i of each mask, indexed by mask.

    Doubling the table once per value adds each mask's members one at a
    time in ascending index order, starting from 0.0, on every interpreter
    (``sum()`` compensates its rounding since CPython 3.12).
    """
    sums = [0.0]
    for value in values:
        sums += [total + value for total in sums]
    return sums


def _shapley_payoffs(
    n: int, table: tuple[float, ...]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Subset-weighted Shapley payoffs of both variants in one pass over the table.

    Bidder i's payoff sums, over the coalitions S without i in mask order,
    the weight of |S| times i's marginal value table[S + i] - table[S]. The
    auctioneer, as player n + 1, zeroes every coalition without her, which
    shifts the weights to those of |S| + 1 others among n + 1 players. The
    masks without bit i come in blocks of 2**i, one at each multiple of
    2**(i + 1), so the loops visit only those, and read each weight by mask
    (``_shapley_mask_weights``).
    """
    plain, with_auctioneer = _shapley_mask_weights(n)
    without, with_ = [], []
    for i in range(n):
        bit = 1 << i
        total = total_with = 0.0
        for base in range(0, 1 << n, bit << 1):
            for mask in range(base, base + bit):
                marginal = table[mask | bit] - table[mask]
                total += plain[mask] * marginal
                total_with += with_auctioneer[mask] * marginal
        without.append(total)
        with_.append(total_with)
    return tuple(without), tuple(with_)


@functools.cache
def _shapley_mask_weights(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Both variants' Shapley weights of each coalition of n bidders, by mask.

    Every mask but the full one, which never lacks a bidder; built once per n.
    """
    plain = SHAPLEY_WEIGHTS[n]
    with_auctioneer = SHAPLEY_WEIGHTS[n + 1][1:]
    sizes = [mask.bit_count() for mask in range((1 << n) - 1)]
    return tuple(plain[size] for size in sizes), tuple(with_auctioneer[size] for size in sizes)


def winner_determination(instance: AuctionInstance) -> Allocation:
    """Efficient allocation of the full instance, with deterministic tie-breaking.

    Assignments whose welfare is within the tie tolerance of the best one
    tie, and the first of them in the canonical order wins: the
    lexicographically smallest assignment vector over bidder ids, with
    non-empty bundles ordered before the empty award. So lower bidder ids
    win ties, and at an exact locals/global welfare tie in LLG the locals
    win. ``welfare`` is the winning assignment's welfare, the grand
    coalition's entry of ``coalition_value_table``. The goods-mask program
    builds only the coalitions {1}, {1, 2}, ..., {1..n}, and the grand
    coalition's assignment is read off its layers by ``_best_path``, or
    traced by ``_tie_broken`` where another welfare ties the best one.
    """
    if not instance.bidders:
        return Allocation({}, 0.0)
    full = (1 << instance.m) - 1
    options = instance.options
    tol = TIE_TOLERANCE * instance.scale
    slots, count, cuts, rows = instance._program
    layer = ([0.0] * count, [-math.inf] * count, None, None)
    for h, cut in enumerate(cuts):
        layer = _relaxed(layer, h, cut, rows[h])
    # Slot 0 holds the full goods mask.
    welfare = layer[0][0]
    if _ties(welfare, layer[1][0], tol):
        welfare, picks = _tie_broken(options, slots, layer, full, tol)
    else:
        picks = _best_path(options, slots, layer, full)
    bundles = [bidder_options[k][2] for bidder_options, k in zip(options, picks)]
    return Allocation(dict(zip(instance.bidder_ids(), bundles)), welfare)


def _validated_coalition(instance: AuctionInstance, coalition: Iterable[int]) -> set[int]:
    """The coalition's ids as a set, once each entry is checked by ``_is_bidder_id``.

    Each entry is checked before the set is built, where ``True`` would
    merge with 1 and ``1.0`` with 1. The unknown ones are reported in the
    coalition's order, so they need not be hashable or sortable.
    """
    ids = list(coalition)
    unknown = [i for i in ids if not _is_bidder_id(i, instance.n)]
    if unknown:
        raise InvalidCoalitionError(f"unknown bidder ids in coalition: {unknown}")
    return set(ids)


def coalitional_value(instance: AuctionInstance, coalition: Iterable[int]) -> float:
    """Welfare the coalition achieves alone (other bids zeroed), from the cached table."""
    ids = _validated_coalition(instance, coalition)
    return instance.coalition_values[sum(1 << (i - 1) for i in ids)]


def coalition_value_table(instance: AuctionInstance) -> list[float]:
    """Coalitional value of every bidder subset, indexed by bitmask (bit i = bidder id i+1).

    Each entry is the welfare of the coalition's tie-broken assignment,
    with the tie tolerance of the whole instance, so it is the welfare
    ``winner_determination`` would find for the coalition alone. The
    goods-mask program builds every coalition without bidder n, depth
    first: a coalition taken off the stack builds and pushes each child
    that adds one bidder above its highest and below bidder n, so at most
    n + 1 layers are live. A coalition with bidder n is never extended and its
    layer is read only at slot 0, where each of bidder n's rows is one
    (rest, 0) pair. So that entry is relaxed in place from the layer of the
    coalition without bidder n, by ``_relaxed``'s rule, and where its
    welfare ties, that entry and its bound make the one-slot layer
    ``_tie_broken`` reads.
    """
    n = instance.n
    full = (1 << instance.m) - 1
    slots, count, cuts, rows = instance._program
    tol = TIE_TOLERANCE * instance.scale
    table = [0.0] * (1 << n)
    if not n:
        return table
    last = n - 1
    top = 1 << last
    # Bidder n's rows as (value, rest slot): each relaxes slot 0 alone.
    leaf_rows = [(value, rest) for value, ((rest, _),) in rows[last]]
    # Entries: coalition mask, index of the lowest bidder it may add, its layer.
    stack = [(0, 0, ([0.0] * count, [-math.inf] * count, None, None))]
    while stack:
        coalition, low, layer = stack.pop()
        for h in range(low, last):
            child = coalition | 1 << h
            child_layer = _relaxed(layer, h, cuts[h], rows[h])
            stack.append((child, h + 1, child_layer))
            # Slot 0 holds the full goods mask.
            table[child] = best = child_layer[0][0]
            if _ties(best, child_layer[1][0], tol):
                table[child] = _tie_broken(instance.options, slots, child_layer, full, tol)[0]
        # The coalition with bidder n added, relaxed in place by _relaxed's rule.
        values, lower = layer[0], layer[1]
        best, bound = values[0], lower[0]
        for value, rest in leaf_rows:
            candidate = values[rest] + value
            if candidate > best:
                below = lower[rest] + value
                bound = best if best > below else below
                best = candidate
            elif candidate > bound:
                bound = candidate
        leaf = coalition | top
        table[leaf] = best
        if _ties(best, bound, tol):
            # The leaf's layer as _relaxed would build it: slot 0 is its read set.
            leaf_layer = ([best], [bound], last, layer)
            table[leaf] = _tie_broken(instance.options, slots, leaf_layer, full, tol)[0]
    return table


def _relaxed(layer: tuple, h: int, cut: slice, rows: list) -> tuple:
    """A coalition's layer, from the layer of the coalition without h, its highest bidder.

    A layer is (best, bound, h, parent). best and bound hold one entry per
    slot of bidder h's read set (``_program_rows``): the parent's entries
    cut to that prefix (``cut``), then relaxed. For the goods mask g in a
    slot, best is the best welfare the coalition reaches using only goods
    in g, and bound is an upper bound on the welfare of every other
    assignment there, so a second assignment at the best welfare raises
    the bound to it. h is the index of the bidder added last and parent
    the layer it was built from; the empty coalition's layer has None for
    both. Each of bidder h's rows relaxes its goods slots from
    ``parent[g & ~bundle] + value`` (Rothkopf, Pekec and Harstad 1998).
    Adding the highest bidder last makes every candidate the id-order float
    sum of its assignment, and since float addition is monotone, the best
    of the parent plus a value is the best of the sums.

    The relaxation rule, which ``coalition_value_table`` also applies in
    place to bidder n's entries, has two cases. A candidate above the
    entry's best becomes the best, and the bound becomes the larger of the
    old best and the candidate's own bound, the parent's bound at
    ``g & ~bundle`` plus the value. Otherwise, a candidate above the bound
    becomes the bound. A candidate equal to the best needs no case of its
    own, because a bound never exceeds its best: it starts at -inf, below
    the best of 0.0, and every write sets it to at most the entry's best
    (a candidate's own bound is at most the candidate, since float
    addition is monotone). So the second case raises the bound to such a
    candidate.
    """
    values, lower = layer[0], layer[1]
    child_values = values[cut]
    child_lower = lower[cut]
    for value, pairs in rows:
        for rest, goods in pairs:
            candidate = values[rest] + value
            best = child_values[goods]
            if candidate > best:
                below = lower[rest] + value
                child_lower[goods] = best if best > below else below
                child_values[goods] = candidate
            elif candidate > child_lower[goods]:
                child_lower[goods] = candidate
    return child_values, child_lower, h, layer


def _program_rows(instance: AuctionInstance) -> tuple[list, int, list, list]:
    """The goods-mask program: a slot per read goods mask, and per bidder a cut and rows.

    The read set of bidder i is every goods mask at which a layer whose
    highest member is i is ever read: ``full``, and ``full`` without any
    union of pairwise-disjoint positive option bundles of bidders above i,
    one bundle each. Bidder n's layers are read only at ``full``; bidder i's
    read set is bidder i + 1's plus the rest masks of bidder i + 1's pairs,
    so it is built walking the bidders from n down. ``full`` has slot 0,
    and the masks each bidder's rows add take the next slots, so every read
    set is a prefix of the slots and a layer holds one entry per slot of
    its highest member's read set. Returns ``slots``, which maps each goods
    mask to its slot (None for a mask nothing reads); the number of slots,
    the size of the empty coalition's layer; each bidder's cut,
    ``slice(size)`` of its read set, made once here because CPython 3.11
    slices a short list faster by a ready slice than by ``[:size]``; and
    each bidder's rows.

    A row is a positive option's value and the (rest_slot, goods_slot)
    pairs it relaxes: one for each goods mask in the bidder's read set
    that contains the bundle, in slot order, with rest = goods & ~bundle.
    A higher bidder relaxes its layer from a lower one's only at those rest
    masks, and the trace-backs (``_best_path``, ``_tie_broken``) go down
    from ``full`` the same way, so every entry that is read is relaxed, and
    a read outside a read set fails (an index out of range, or None). Each
    entry sees the same candidates in the same order as when every mask is
    relaxed, so tables, allocations and tie-breaks are bit-identical.
    """
    full = (1 << instance.m) - 1
    slots = [None] * (full + 1)
    slots[full] = 0
    masks = [full]  # by slot
    cuts = []
    relaxations = []
    for bidder_options in reversed(instance.options):
        size = len(masks)
        rows = []
        for bundle, value, _ in bidder_options[:-1]:
            pairs = []
            for goods_slot in range(size):
                goods = masks[goods_slot]
                if bundle & ~goods:
                    continue
                rest = goods & ~bundle
                rest_slot = slots[rest]
                if rest_slot is None:
                    rest_slot = slots[rest] = len(masks)
                    masks.append(rest)
                pairs.append((rest_slot, goods_slot))
            rows.append((value, pairs))
        cuts.append(slice(size))
        relaxations.append(rows)
    cuts.reverse()
    relaxations.reverse()
    return slots, len(masks), cuts, relaxations


def _ties(best: float, welfare: float, tol: float) -> bool:
    """The engine's tie rule: ``best`` does not beat ``welfare`` by more than ``tol``."""
    return best <= welfare + tol


def _best_path(options: tuple, slots: list, layer: tuple, goods: int) -> list[int]:
    """Each member's option index in the one assignment that reaches ``layer``'s best welfare.

    For a coalition where no other assignment ties the best one: going down
    from the highest member, each layer's entry is reached exactly by one
    option on top of the layer below, the one that assignment takes.
    ``slots`` maps goods masks to layer entries (``_program_rows``).
    """
    picks = []
    while True:
        _, _, h, parent = layer
        target = layer[0][slots[goods]]
        rest = parent[0]
        for k, (bundle, value, _) in enumerate(options[h]):
            if not bundle & ~goods and rest[slots[goods & ~bundle]] + value == target:
                break
        picks.append(k)
        goods &= ~bundle
        if parent[2] is None:
            picks.reverse()
            return picks
        layer = parent


def _tie_broken(
    options: tuple, slots: list, layer: tuple, full: int, tol: float
) -> tuple[float, list[int]]:
    """The first assignment in the canonical order whose welfare ties the coalition's best.

    For a coalition where another assignment ties the best one. ``layer``
    is the coalition's layer from ``_relaxed``; its links lead to the
    layers of the coalition without its highest member, without its two
    highest, and so on. The members choose from the highest id down, each
    among the options that still leave a tying assignment. The test is
    exact: the best welfare an option still allows is the next layer's
    entry for the goods left plus the option's value plus the higher
    members' values, in id order, since float addition is monotone. The
    first tying choice of the members below a given one depends only on
    the goods left and the higher members' nonzero values, so it is
    computed once per such state. ``slots`` maps goods masks to layer
    entries (``_program_rows``). Returns the assignment's welfare and each
    member's option index, in id order.
    """
    best = layer[0][slots[full]]
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
            welfare = rest[slots[goods & ~bundle]] + value
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
        goods = tuple(_field(data, "goods", list, "a JSON array of strings", str))
        bidders = []
        for entry in data["bidders"]:
            bids = tuple(
                Bid(
                    frozenset(_field(bid, "bundle", list, "a JSON array of strings", str)),
                    float(_field(bid, "value", (int, float), "a number")),
                )
                for bid in entry["bids"]
            )
            bidders.append(Bidder(_field(entry, "id", int, "a JSON integer"), bids))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed instance object: {exc}") from exc
    bidders.sort(key=lambda bidder: bidder.id)
    return AuctionInstance(goods, tuple(bidders))


def _field(
    data: dict, name: str, kinds: type | tuple[type, ...], kind: str, entries: type | None = None
):
    """``data[name]`` if it is one of ``kinds`` (a JSON true or false never is).

    With ``entries``, the value is an array and each of its entries must be one.
    """
    value = data[name]
    if (
        isinstance(value, bool)
        or not isinstance(value, kinds)
        or entries is not None
        and not all(isinstance(entry, entries) for entry in value)
    ):
        got = json.dumps(value, default=repr)
        raise ValueError(f'instance field "{name}" must be {kind}, got {got}')
    return value


def instance_from_json(text: str) -> AuctionInstance:
    try:
        data = json.loads(text)
    except RecursionError:
        # Raised by arrays or objects nested about a thousand deep.
        raise ValueError("instance JSON is nested too deeply to decode") from None
    return instance_from_dict(data)


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

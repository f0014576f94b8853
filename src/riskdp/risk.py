"""Coherent risk functionals on finite discrete distributions.

A distribution is a finite list of (value, probability) atoms.  The module
provides the tail-average risk (average value at risk) through two routes
(quantile integral and a greedy dual density), the mean absolute-deviation
risk (again primal and dual), and evaluation of the maximum over a finite
family of tail-average mixtures.  All functionals interpret larger values
as worse outcomes (costs).

Each risk kind is one ``RiskSpec`` class carrying its config name, its value,
its batched value over outcome rows and its dual density cap.

One greedy tail take (``_tail_take``) serves the tail-average primal, the
level-batched dual and ``_batch_avar``, which runs it atoms-major for the
exhaustive search's batched values.  The primal reads it through a bounded
cache per (level, worst-first probabilities).  The dual (``avar_duals``)
sorts a distribution once and forms the take once over a column of levels,
one level being a list of one.  ``mean_deviation_duals`` likewise forms
a distribution's mean and sign vector once for every ``kappa``.  A
dual's value is the expectation under the density it returns, so checking
it checks that density.  The independent check of the tail-average primal
and dual is the vertex-enumeration LP in ``riskdp.oracle``.

One-dimensional dot products are taken with ``ndarray.dot`` rather than
``@``: both run the same BLAS ddot, with bit-equal results on contiguous and
positive-stride vectors, but ``@`` pays matmul's dispatch, two to three
times the per-call cost of ``.dot`` on a few atoms (numpy 2.4).  On a
negative-stride view ``.dot`` sums a contiguous copy, where ``@`` sums the
view in another order.  On one atom ``.dot`` returns the lone product, so a
value of ``-0.0`` stays ``-0.0``, where ``@`` adds it to a ``+0.0``
accumulator; each ``.dot`` result therefore has ``0.0`` added, which turns
``-0.0`` into ``0.0`` and leaves every other float as it is.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "DiscreteDistribution",
    "DualDensity",
    "RiskSpec",
    "Expectation",
    "AVaR",
    "MeanDeviation",
    "KusuokaMixture",
    "avar_primal",
    "avar_duals",
    "mean_deviation_primal",
    "mean_deviation_duals",
    "kusuoka_evaluate",
    "evaluate",
]

#: probabilities must sum to one within this slack
PROB_TOL = 1e-12
#: read-only 0-d zero for the per-pair hot path: numpy 2 converts a Python
#: float operand on every call, which costs more than the work on a few atoms
_ZERO = np.zeros(())
_ZERO.setflags(write=False)


def _read_only_copy(array) -> np.ndarray:
    """A read-only float64 copy of ``array``, which a type checks and keeps:
    a later write to the caller's array cannot change what was checked."""
    copy = np.array(array, dtype=float)
    copy.setflags(write=False)
    return copy


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported distribution given by value and probability arrays.

    Atoms need not be sorted or distinct; every probability must be strictly
    positive and the probabilities must sum to one within ``PROB_TOL``.  The
    checks run on read-only copies of the arrays, which the distribution
    keeps.  One made by ``riskdp.model.successor_distribution`` has sorted,
    distinct atoms and carries a private marker saying so; ``avar_primal``
    then reads it worst first by reversing it, where any other is sorted.
    """

    values: np.ndarray
    probs: np.ndarray

    #: True (set by ``_trusted``, not a field) when the values ascend strictly
    _ascending = False

    def __post_init__(self):
        values = _read_only_copy(self.values)
        probs = _read_only_copy(self.probs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if values.ndim != 1 or probs.ndim != 1 or values.shape != probs.shape:
            raise ValueError("values and probs must be 1-d arrays of equal length")
        if len(values) == 0:
            raise ValueError("distribution needs at least one atom")
        _check_values(values)
        _check_probs(probs)

    @classmethod
    def _trusted(cls, values: np.ndarray, probs: np.ndarray, ascending: bool = False):
        """Distribution over 1-d float64 ``values`` and ``probs`` of one
        nonempty length that the caller made and checked, taken over without
        the dataclass ``__init__`` and made read-only, so the order the
        ``ascending`` marker promises cannot go stale.

        ``riskdp.model.successor_distribution`` checks its values at the two
        ends of their sorted list.  Its probabilities are positive kernel
        entries or noise probabilities, permuted or with subsets summed in
        atom order, whose total moves from the checked one by a few ulps,
        far inside ``PROB_TOL``.  ``riskdp.oracle._node_value`` checks both.
        """
        # ``setflags`` takes ``write`` positionally, which numpy parses in
        # well under half the time of the keyword
        values.setflags(False)
        probs.setflags(False)
        dist = object.__new__(cls)
        fields = dist.__dict__
        fields["values"] = values
        fields["probs"] = probs
        fields["_ascending"] = ascending
        return dist

    @property
    def atoms(self) -> list:
        """Atoms as a list of (value, probability) tuples."""
        return list(zip(self.values.tolist(), self.probs.tolist()))

    def __len__(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return float(self.values.dot(self.probs)) + 0.0


def _check_values(values: np.ndarray):
    """Every atom value is finite."""
    # ``count_nonzero`` skips the Python-level ``ndarray.all`` wrapper
    if np.count_nonzero(np.isfinite(values)) != len(values):
        raise ValueError("atom values must be finite")


def _check_probs(probs: np.ndarray):
    """Every probability is strictly positive (``>`` is False on a NaN) and
    they sum to one within ``PROB_TOL``."""
    if np.count_nonzero(probs > _ZERO) != len(probs):
        raise ValueError("atom probabilities must be strictly positive")
    total = float(np.add.reduce(probs))
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"atom probabilities sum to {total!r}, not 1")


@dataclass(frozen=True)
class DualDensity:
    """Nonnegative reweighting of atoms certifying a dual representation.

    ``weights[i]`` multiplies the probability of atom ``i``; a valid density
    has unit ``mass`` and is bounded by the cap of the risk functional that
    produced it.  The density keeps a read-only copy of the weights it
    checks.
    """

    weights: np.ndarray

    def __post_init__(self):
        weights = _read_only_copy(self.weights)
        object.__setattr__(self, "weights", weights)
        if weights.ndim != 1:
            raise ValueError("weights must be a 1-d array")
        # ``count_nonzero`` skips the Python-level ``all``/``any`` wrappers
        if np.count_nonzero(np.isfinite(weights)) != len(weights):
            raise ValueError("weights must be finite")
        if np.count_nonzero(weights < -1e-15):
            raise ValueError("weights must be nonnegative")

    def mass(self, dist: DiscreteDistribution) -> float:
        """Total reweighted probability mass against ``dist``."""
        return float(self.weights.dot(dist.probs)) + 0.0


class RiskSpec:
    """Base class for one-step risk functional specifications.

    Each kind has ``kind``, its config name (a class attribute); ``value(dist)``;
    ``batch_value(probs, outcomes)``, the value of each row of (T, k) outcomes
    under (k,) probabilities, or (P, T) values under a (P, k) stack of them
    (row ``p`` bit for bit the call with ``probs[p]``; the tail-average kinds
    sort once per call); and ``cap()``, the bound on its dual density weights.
    """

    __slots__ = ()

    def batch_value(self, probs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        if probs.ndim == 1:
            return self._batch_one(probs, outcomes)
        return np.array([self._batch_one(p, outcomes) for p in probs])


@dataclass(frozen=True)
class Expectation(RiskSpec):
    """Plain expectation (risk neutral)."""

    kind = "expectation"

    def value(self, dist: DiscreteDistribution) -> float:
        return float(dist.values.dot(dist.probs)) + 0.0

    def _batch_one(self, probs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        return outcomes @ probs

    def cap(self) -> float:
        return 1.0


@dataclass(frozen=True)
class AVaR(RiskSpec):
    """Tail-average risk at level ``alpha`` in [0, 1).

    Level 0 reduces to the expectation; levels near 1 approach the maximum.
    """

    kind = "avar"
    alpha: float

    def __post_init__(self):
        _check_level(self.alpha)

    def value(self, dist: DiscreteDistribution) -> float:
        return avar_primal(self.alpha, dist)

    def batch_value(self, probs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        return _batch_avar(self.alpha, *_worst_first(outcomes), probs)

    def cap(self) -> float:
        return 1.0 / (1.0 - self.alpha)


@dataclass(frozen=True)
class MeanDeviation(RiskSpec):
    """Expectation plus ``kappa`` times mean absolute deviation.

    ``kappa`` must lie in [0, 1/2]; beyond 1/2 the functional loses
    monotonicity and is rejected.
    """

    kind = "mean_deviation"
    kappa: float

    def __post_init__(self):
        _check_kappa(self.kappa)

    def value(self, dist: DiscreteDistribution) -> float:
        return mean_deviation_primal(self.kappa, dist)

    def _batch_one(self, probs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        means = outcomes @ probs
        dev = np.abs(outcomes - means[:, None]) @ probs
        return means + self.kappa * dev

    def cap(self) -> float:
        return 1.0 + 2.0 * self.kappa


@dataclass(frozen=True)
class KusuokaMixture(RiskSpec):
    """Convex mixture of tail-average functionals.

    ``components`` is a sequence of (level, weight) pairs with levels in
    [0, 1), nonnegative weights, and weights summing to one within 1e-12.
    """

    kind = "kusuoka"
    components: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        components = tuple((float(a), float(w)) for a, w in self.components)
        object.__setattr__(self, "components", components)
        if len(components) == 0:
            raise ValueError("mixture needs at least one (level, weight) component")
        total = 0.0
        for a, w in components:
            if not (0.0 <= a < 1.0):
                raise ValueError(f"mixture level must lie in [0, 1), got {a!r}")
            if not w >= 0.0:
                raise ValueError(f"mixture weight must be nonnegative, got {w!r}")
            total += w
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValueError(f"mixture weights sum to {total!r}, not 1")

    def value(self, dist: DiscreteDistribution) -> float:
        # ``__post_init__`` validated the components
        return sum(w * avar_primal(a, dist) for a, w in self.components)

    def batch_value(self, probs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        # one sort serves every component and every probability row
        order, values = _worst_first(outcomes)
        total = np.zeros(probs.shape[:-1] + outcomes.shape[:1])
        for alpha, weight in self.components:
            total += weight * _batch_avar(alpha, order, values, probs)
        return total

    def cap(self) -> float:
        return float(sum(w / (1.0 - a) for a, w in self.components))


def _check_level(alpha: float):
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha!r}")


def _check_kappa(kappa: float):
    if not (0.0 <= kappa <= 0.5):
        raise ValueError(f"kappa must lie in [0, 1/2], got {kappa!r}")


def _tail_take(alpha, sorted_probs: np.ndarray) -> np.ndarray:
    """Probability mass drawn from each atom (sorted worst first along the
    last axis) when the worst ``1 - alpha`` tail is collected greedily.

    This is ``min(max(t - (cum - p), 0), p)`` with ``t = 1 - alpha`` and
    ``cum`` the running sum of ``p``, evaluated in that order; ``alpha`` is
    a level or a (L, 1) column of float64 levels, whose row ``l`` is the
    take at level ``alpha[l, 0]`` bit for bit.  ``sorted_probs`` is never
    written.
    """
    # ``subtract`` takes its output positionally, which numpy parses faster
    # than ``out=``; ``maximum`` and ``minimum`` need the keyword
    cum = np.add.accumulate(sorted_probs, axis=-1)
    np.subtract(cum, sorted_probs, cum)
    take = np.subtract(1.0 - alpha, cum)
    np.maximum(take, _ZERO, out=take)
    np.minimum(take, sorted_probs, out=take)
    return take


def _worst_first(outcomes: np.ndarray):
    """Each (T, k) outcome row's atom order, worst value first (ties in atom
    order), in the smallest type indexing k, and its values so: both (k, T)."""
    k = outcomes.shape[1]
    order = np.argsort(-outcomes, axis=1, kind="stable").T.astype(np.min_scalar_type(k), order="C")
    return order, outcomes.take(order + np.arange(0, outcomes.size, k))  # row t starts at t * k


def _batch_avar(alpha: float, order, values, probs: np.ndarray) -> np.ndarray:
    """Tail-average risk of ``_worst_first``'s rows under (k,) probabilities
    or each row of a (P, k) stack.  ``_tail_take`` and the row sum run one
    operation per atom over up to 4096 (row, probability row) pairs, never a
    (P, T, k) array, adding in atom order from 0.0 as numpy's row sum does on
    at most 7 atoms (on 8 or more it adds pairwise, a few ulps apart)."""
    t = 1.0 - alpha
    out = np.empty(probs.shape[:-1] + order.shape[1:])
    step = max(1, 4096 * probs.shape[-1] // probs.size)
    buffers = np.empty((4,) + out[..., :step].shape)
    for lo in range(0, order.shape[1], step):
        piece = slice(lo, lo + step)
        total, cum, p, take = buffers[..., : out[..., piece].shape[-1]]
        total[...] = cum[...] = 0.0
        for col, vals in zip(order[:, piece], values[:, piece]):
            probs.take(col, axis=-1, out=p, mode="clip")  # no index clips
            cum += p
            np.subtract(cum, p, take)
            np.subtract(t, take, take)
            np.maximum(take, _ZERO, out=take)
            np.minimum(take, p, out=take)
            take *= vals
            total += take
        np.divide(total, t, out[..., piece])
    return out


#: probability vectors of at most this many atoms have their tail takes
#: cached by ``_cached_tail_take``
TAIL_TAKE_CACHE_ATOMS = 64
#: number of (level, probability vector) tail takes ``_cached_tail_take``
#: keeps, least recently used dropped first
TAIL_TAKE_CACHE_SIZE = 1024


# ``typed``: a level of another float type equal in value to a cached one
# may round ``1 - alpha`` differently, so it gets its own entry
@functools.lru_cache(maxsize=TAIL_TAKE_CACHE_SIZE, typed=True)
def _cached_tail_take(alpha: float, sorted_probs: bytes) -> np.ndarray:
    """``_tail_take`` of the float64 vector whose bytes are
    ``sorted_probs``, read-only, remembered per (level, bytes).

    The take depends on the level and the worst-first probabilities only,
    never on the values, and a solve sees few distinct probability vectors
    (13 in a cold ``lq-solve`` solve of 21,566 pairs), so ``avar_primal``
    reads it here.  A hit returns the array the one ``_tail_take`` computed
    for the same bits, so results are bit-identical by construction.
    Memory: at most ``TAIL_TAKE_CACHE_SIZE`` entries of at most
    ``TAIL_TAKE_CACHE_ATOMS`` atoms, each holding the key's bytes and the
    take (16 bytes an atom) and about 300 bytes of objects: measured with
    tracemalloc, 435 bytes an entry at 7 atoms and 1,298 at 64, so a full
    cache holds at most about 1.3 MB.
    """
    take = _tail_take(alpha, np.frombuffer(sorted_probs))
    take.setflags(False)
    return take


def avar_primal(alpha: float, dist: DiscreteDistribution) -> float:
    """Tail-average risk via the quantile integral.

    Averages the left-side quantile over levels in (alpha, 1], which for a
    finite distribution is the exact stepwise integral: the worst outcomes
    are collected until ``1 - alpha`` probability is exhausted, splitting
    the boundary atom fractionally, and their probability-weighted average
    is returned.  At ``alpha == 0`` this is the expectation.  Atoms known
    to be ascending and distinct (see ``DiscreteDistribution``) are read
    worst first in reverse; others are sorted, ties in input order.  The
    tail take of up to ``TAIL_TAKE_CACHE_ATOMS`` worst-first probabilities
    is read from ``_cached_tail_take``.
    """
    _check_level(alpha)
    if alpha == 0.0:
        return float(dist.values.dot(dist.probs)) + 0.0
    if dist._ascending:
        # a contiguous copy, so the values are summed worst first as a
        # sorted array would be, whatever a dot product does with a view
        values, probs = dist.values[::-1].copy(), dist.probs[::-1]
    else:
        order = (-dist.values).argsort(kind="stable")
        values, probs = dist.values[order], dist.probs[order]
    if len(probs) <= TAIL_TAKE_CACHE_ATOMS:
        take = _cached_tail_take(alpha, probs.tobytes())
    else:
        take = _tail_take(alpha, probs)
    return (float(values.dot(take)) + 0.0) / (1.0 - alpha)


def avar_duals(
    levels: Sequence[float], dist: DiscreteDistribution
) -> List[Tuple[float, DualDensity]]:
    """Tail-average risk via its dual at each of ``levels`` (read as
    float64), in one pass over ``dist``: for each level, the largest
    reweighted expectation over densities bounded by ``1 / (1 - alpha)``
    with unit total mass, and that density.

    The maximizer is greedy: atoms are scanned from worst value to best
    (ties in input order), each receiving the capped density until the unit
    mass budget is spent, with a fractional weight on the boundary atom;
    this is ``avar_primal``'s tail take divided by ``1 - alpha``.  Every
    level is checked before any arithmetic.  The atoms are sorted once, and
    one ``_tail_take`` over the column of levels forms every level's take,
    whose row ``l`` is the one-level take bit for bit.  Each level gets its
    own checked ``DualDensity`` (a row of one weight block, aligned with
    the atoms of ``dist``), and its value is the expectation of the atom
    values under that row's reweighted probabilities.
    """
    for alpha in levels:
        _check_level(alpha)
    alphas = np.array(levels, dtype=float).reshape(-1, 1)
    order = (-dist.values).argsort(kind="stable")
    probs_sorted = dist.probs[order]
    weights = np.zeros((len(alphas), len(dist)))
    weights[:, order] = _tail_take(alphas, probs_sorted) / probs_sorted / (1.0 - alphas)
    return _densities_and_values(weights, dist)


def _densities_and_values(weights: np.ndarray, dist: DiscreteDistribution) -> list:
    """One checked ``DualDensity`` per row of ``weights`` and the
    expectation of the atom values under it: the row times the
    probabilities, then that product's ``.dot`` with the values."""
    reweighted = weights * dist.probs
    values = dist.values
    return [
        (float(row.dot(values)) + 0.0, DualDensity(density))
        for row, density in zip(reweighted, weights)
    ]


def mean_deviation_primal(kappa: float, dist: DiscreteDistribution) -> float:
    """Expectation plus ``kappa`` times the mean absolute deviation.

    ``kappa`` must lie in [0, 1/2], the range on which the functional is
    monotone.
    """
    _check_kappa(kappa)
    mean = float(dist.values.dot(dist.probs)) + 0.0
    dev = float(np.abs(dist.values - mean).dot(dist.probs)) + 0.0
    return mean + kappa * dev


def mean_deviation_duals(
    kappas: Sequence[float], dist: DiscreteDistribution
) -> List[Tuple[float, DualDensity]]:
    """Mean-deviation risk via its dual reweighting at each of ``kappas``
    (read as float64), in one pass over ``dist``.

    The maximizing density is ``1 + h - sum(h * probs)`` where ``h`` is
    ``kappa`` times the sign of the deviation from the mean (zero on atoms
    equal to the mean).  Every ``kappa`` is checked before any arithmetic.
    The mean and the sign vector are formed once; each row's
    ``sum(h * probs)`` is its own ``.dot``, so each level's value and
    weights do not depend on the other levels, and each gets its own
    checked ``DualDensity``, aligned with the atoms of ``dist``.
    """
    for kappa in kappas:
        _check_kappa(kappa)
    probs = dist.probs
    mean = float(dist.values.dot(probs)) + 0.0
    h = np.array(kappas, dtype=float).reshape(-1, 1) * np.sign(dist.values - mean)
    shifts = np.array([float(row.dot(probs)) + 0.0 for row in h])
    return _densities_and_values(1.0 + h - shifts[:, None], dist)


MixtureLike = Sequence[Tuple[float, float]]


def kusuoka_evaluate(
    mixtures: Sequence[MixtureLike], dist: DiscreteDistribution
) -> float:
    """Maximum over a finite family of tail-average mixtures.

    Each mixture is a sequence of (level, weight) pairs with weights summing
    to one; its value is its ``KusuokaMixture``'s, the weighted sum of
    ``avar_primal`` at each level.  The maximum over the supplied family is
    returned.  An empty family is rejected.
    """
    if len(mixtures) == 0:
        raise ValueError("mixture family must be nonempty")
    best = -np.inf
    for mixture in mixtures:
        # ``np.maximum`` keeps a NaN member, which Python's ``max`` drops
        best = np.maximum(best, KusuokaMixture(mixture).value(dist))
    return float(best)


def evaluate(spec: RiskSpec, dist: DiscreteDistribution) -> float:
    """Value of a risk specification on a distribution: ``spec.value``."""
    return spec.value(dist)


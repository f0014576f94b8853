"""Controlled Markov models on finite state grids.

A model couples a strictly increasing state grid, a finite action set with
optional per-state admissibility, a transition mechanism (an explicit
tabular kernel over grid indices, or point dynamics driven by finite noise),
a nonnegative stage cost, and a discount factor in (0, 1).  Successor states
produced by dynamics are clamped to the grid range and value lookups between
grid points use piecewise-linear interpolation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .risk import PROB_TOL, DiscreteDistribution, _read_only_copy

__all__ = [
    "StateGrid",
    "ActionSet",
    "NoiseModel",
    "Tabular",
    "Dynamics",
    "MarkovModel",
    "InvestmentParams",
    "LQParams",
    "quantize_standard_normal",
    "interpolate",
    "successor_distribution",
    "build_investment",
    "build_lq",
    "build_tabular",
]


@dataclass(frozen=True)
class StateGrid:
    """Strictly increasing grid of at least two finite state points."""

    points: np.ndarray

    def __post_init__(self):
        # a read-only copy: the successor brackets a model keeps are only
        # valid for the points they were computed on
        points = _read_only_copy(self.points)
        object.__setattr__(self, "points", points)
        if points.ndim != 1 or len(points) < 2:
            raise ValueError("grid needs at least two points")
        if not np.all(np.isfinite(points)):
            raise ValueError("grid points must be finite")
        if not np.all(np.diff(points) > 0.0):
            raise ValueError("grid points must be strictly increasing")

    @property
    def lo(self) -> float:
        return float(self.points[0])

    @property
    def hi(self) -> float:
        return float(self.points[-1])

    def __len__(self) -> int:
        return len(self.points)

    def nearest_index(self, x: float) -> int:
        """Index of the grid point closest to ``x`` (lowest index on ties)."""
        return int(np.argmin(np.abs(self.points - x)))


@dataclass(frozen=True)
class ActionSet:
    """Finite list of action values with optional per-state admissibility.

    ``values`` is kept as a read-only copy, so a model's cost table and
    successors are made from the same actions.  ``admissible`` maps each
    state index to the sorted action indices allowed there; ``None`` allows
    every action everywhere.  Every admissible set must be nonempty, and
    each index an integer (of any integer type, or an integral float; a
    boolean is not one).
    """

    values: np.ndarray
    admissible: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self):
        values = _read_only_copy(self.values)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) == 0:
            raise ValueError("action set must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("action values must be finite")
        if self.admissible is not None:
            normalized = []
            for state, indices in enumerate(self.admissible):
                idx = tuple(sorted(_index(i, f"state {state}") for i in indices))
                if len(idx) == 0:
                    raise ValueError(f"state {state} has no admissible actions")
                if idx[0] < 0 or idx[-1] >= len(values):
                    raise ValueError(
                        f"state {state} lists an out-of-range action index"
                    )
                if len(set(idx)) != len(idx):
                    raise ValueError(f"state {state} repeats an action index")
                normalized.append(idx)
            object.__setattr__(self, "admissible", tuple(normalized))
        object.__setattr__(self, "_every_index", tuple(range(len(values))))

    def indices_for(self, state_index: int) -> Tuple[int, ...]:
        """Admissible action indices at a state, in increasing order."""
        if self.admissible is None:
            return self._every_index
        return self.admissible[state_index]

    def __len__(self) -> int:
        return len(self.values)


def _index(value, where: str) -> int:
    """``value`` as an action index, or a ``ValueError`` naming ``where``:
    an integer of any integer type, or a float with an integral value.  A
    boolean, which ``int`` reads as 0 or 1, and a fraction, which ``int``
    truncates, are rejected."""
    if type(value) is int:  # the common case, before the slower abstract-type checks
        return value
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise ValueError(f"{where} lists action index {value!r}, which is not an integer")


@dataclass(frozen=True)
class NoiseModel:
    """Finitely supported noise driving point dynamics: a
    ``DiscreteDistribution``, whose checked read-only copies a model's
    successors are made of with no further check."""

    dist: DiscreteDistribution

    def __post_init__(self):
        if not isinstance(self.dist, DiscreteDistribution):
            raise TypeError(f"noise must be a DiscreteDistribution, got {type(self.dist).__name__}")


@dataclass(frozen=True)
class Tabular:
    """Explicit transition kernel: ``kernel[i, a, j]`` is the probability of
    moving from grid index ``i`` to ``j`` under action index ``a``.  Every
    entry is finite and nonnegative, and every row sums to one within
    ``PROB_TOL``.  The kernel is a read-only copy, so the rows a model's
    successors are read from are the rows checked here."""

    kernel: np.ndarray

    def __post_init__(self):
        kernel = _read_only_copy(self.kernel)
        object.__setattr__(self, "kernel", kernel)
        if kernel.ndim != 3:
            raise ValueError("kernel must be a (states, actions, states) array")
        if np.any(kernel < 0.0) or not np.all(np.isfinite(kernel)):
            raise ValueError("kernel entries must be finite and nonnegative")
        sums = kernel.sum(axis=2)
        bad = np.argwhere(np.abs(sums - 1.0) > PROB_TOL)
        if len(bad):
            i, a = (int(v) for v in bad[0])
            raise ValueError(
                f"kernel row for state {i}, action {a} sums to {sums[i, a]!r}, not 1"
            )


@dataclass(frozen=True)
class Dynamics:
    """Point dynamics ``next_state(x, a, xi)`` driven by finite noise; the
    model clamps every successor state to the grid range."""

    next_state: Callable[[float, float, float], float]
    noise: NoiseModel


TransitionMechanism = Union[Tabular, Dynamics]


@dataclass
class MarkovModel:
    """Discounted controlled Markov model on a state grid.

    The stage cost is validated to be finite and nonnegative on every
    (grid point, admissible action) pair at construction time, and the
    resulting table is kept read-only.  The value bound ``max stage cost /
    (1 - discount)``, above every value iterate, must be finite.  Instances
    are treated as immutable after construction.

    Relying on that rule, the model also keeps a successor structure: the
    successors of every admissible (state, action) pair.  Construction
    leaves it empty; the first successor read builds it for every pair at
    once, in one pass over flat arrays, and every later read, sweep and
    policy evaluation shares it.  For dynamics the pass calls
    ``next_state`` once per (pair, noise atom), in state, action and atom
    order, and clamps the results.  Noise atoms of a pair whose clamped
    successor states are bit-identical (often several at each grid end)
    form one group: each pair holds the grid bracket of each distinct
    state (lower and upper grid index and interpolation weight), the group
    of each atom (``inverse``), each group's probability summed in atom
    order, and the noise probabilities.
    For a tabular kernel each pair holds the grid indices of the kernel
    row's support with their probabilities.  A sweep then only reads the
    grid values of the distinct states through the bracket.  Each input is
    checked once, by the type that holds its read-only copy: ``StateGrid``
    the points, ``ActionSet`` the actions, ``Tabular`` the kernel and the
    noise's ``DiscreteDistribution`` its atoms.  A pair's probabilities are
    the positive entries of a checked row or sums of subsets of the checked
    noise probabilities, so neither the pass nor a read checks them again;
    a read checks only that its values are finite.  Each pair's arrays are
    read-only views of the structure's.

    Because the pass covers every pair, a ``next_state`` that raises on one
    pair raises the same exception at the first read of any pair, and
    leaves the structure empty, so every later read raises it again.  A
    read of a pair that is out of range or inadmissible raises its
    ``ValueError`` first, before anything is built.
    """

    grid: StateGrid
    actions: ActionSet
    transition: TransitionMechanism
    cost: Callable[[float, float], float]
    discount: float

    def __post_init__(self):
        if not (0.0 < self.discount < 1.0):
            raise ValueError(f"discount must lie in (0, 1), got {self.discount!r}")
        n, m = len(self.grid), len(self.actions)
        # read on every successor read: a plain attribute, not a property
        # through ``StateGrid.__len__``
        self._n_states = n
        if self.actions.admissible is not None and len(self.actions.admissible) != n:
            raise ValueError("admissibility table length must match the grid")
        if isinstance(self.transition, Tabular):
            if self.transition.kernel.shape != (n, m, n):
                raise ValueError(
                    f"kernel shape {self.transition.kernel.shape} does not match "
                    f"{n} states and {m} actions"
                )
        table = np.full((n, m), np.nan)
        for i in range(n):
            x = float(self.grid.points[i])
            for a_idx in self.actions.indices_for(i):
                c = float(self.cost(x, float(self.actions.values[a_idx])))
                if not np.isfinite(c) or c < 0.0:
                    raise ValueError(
                        f"cost at state {x!r}, action "
                        f"{float(self.actions.values[a_idx])!r} is {c!r}; "
                        "costs must be finite and nonnegative"
                    )
                table[i, a_idx] = c
        # a coherent risk of successor values is at most their largest value;
        # a Python float overflows to inf without numpy's warning
        worst = float(np.nanmax(table))
        if worst / (1.0 - float(self.discount)) == math.inf:
            raise ValueError(
                f"value bound max stage cost / (1 - discount) overflows: largest "
                f"stage cost {worst!r} at discount {self.discount!r}"
            )
        table.setflags(write=False)
        self._cost_table = table
        # filled on the first successor read, by ``_build_successors``
        self._successors = {}

    @property
    def cost_table(self) -> np.ndarray:
        """Stage costs for every (state, action) pair, NaN where the action
        is inadmissible."""
        return self._cost_table

    @property
    def n_states(self) -> int:
        return self._n_states

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def cost_at(self, state_index: int, action_index: int) -> float:
        """Cached stage cost for a (state index, action index) pair."""
        return float(self._cost_table[state_index, action_index])

    def clamp(self, x: float) -> float:
        """Clamp a successor state into the grid range."""
        return float(min(max(x, self.grid.lo), self.grid.hi))

    def _successor_support(self, state_index, action_index):
        """Successors of one (state, action) pair.  For a tabular kernel,
        ``(indices, probs)``: the grid indices of the kernel row's support
        and their probabilities.  For dynamics, ``(query, probs, inverse,
        group_probs)``: the ``_GridQuery`` bracketing the distinct clamped
        successor states, the noise probabilities, the distinct state each
        noise atom reaches (``query`` reads atom ``j`` at ``inverse[j]``)
        and the summed probability of each distinct state, added in atom
        order by ``np.bincount``.  A pair missing from the successor
        structure is checked, with the errors ``successor_distribution``
        raises for a bad pair, and the first read builds the structure."""
        support = self._successors.get((state_index, action_index))
        if support is None:
            # holds for an integral index of any type (``1``, ``np.int64(1)``,
            # ``1.0``), where ``0 <= 1.5 < n`` would let ``1.5`` through
            if state_index not in range(self._n_states):
                raise ValueError(f"state index {state_index} out of range")
            # an admissibility mask is a tuple, which ``1.0`` cannot index
            if action_index not in self.actions.indices_for(int(state_index)):
                raise ValueError(
                    f"action index {action_index} is not admissible at state {state_index}"
                )
            if not self._successors:
                self._successors = self._build_successors()
            support = self._successors[state_index, action_index]
        return support

    def _successor_groups(self, stack: np.ndarray):
        """Each distinct (T, k) block of successor values read from the rows of
        the 2-d ``stack``, with the (state, action) ``pairs`` reading it and their
        (P, k) probabilities; tabular pairs whose rows share a support share one."""
        if not self._successors:
            self._successors = self._build_successors()
        if isinstance(self.transition, Dynamics):
            for pair, (query, probs, inverse, _) in self._successors.items():
                # C order, as stacked ``interpolate`` rows: ``@`` sums F order otherwise
                yield np.ascontiguousarray(query.read(stack)[:, inverse]), [pair], probs[None]
            return
        groups = {}
        for pair, (indices, probs) in self._successors.items():
            groups.setdefault(indices.tobytes(), []).append((pair, indices, probs))
        for members in groups.values():
            pairs, indices, probs = zip(*members)
            yield stack[:, indices[0]], list(pairs), np.array(probs)

    def _build_successors(self):
        """The successors of every admissible pair, keyed by (state index,
        action index), built in one pass over flat arrays; each pair holds
        read-only views of them.  The probabilities come from the checked
        kernel or noise distribution (see the class docstring), so they are
        not checked again."""
        pairs = [(i, a_idx) for i in range(self._n_states) for a_idx in self.actions.indices_for(i)]
        successors = {}
        if isinstance(self.transition, Tabular):
            rows = self.transition.kernel[tuple(zip(*pairs))]
            mask = rows > 0.0
            indices, probs = mask.nonzero()[1], rows[mask]
            for array in (indices, probs):
                array.setflags(False)
            offsets = np.concatenate(([0], mask.sum(axis=1).cumsum())).tolist()
            for key, start, stop in zip(pairs, offsets, offsets[1:]):
                successors[key] = (indices[start:stop], probs[start:stop])
            return successors
        noise_probs = self.transition.noise.dist.probs
        k = len(noise_probs)
        xis = self.transition.noise.dist.values.tolist()
        xs, acts = self.grid.points.tolist(), self.actions.values.tolist()
        next_state = self.transition.next_state
        succ = np.fromiter(
            (float(next_state(xs[i], acts[a_idx], xi)) for i, a_idx in pairs for xi in xis),
            dtype=float,
            count=len(pairs) * k,
        ).reshape(len(pairs), k)
        # ``clamp``'s ``min(max(x, lo), hi)``: NaN and either zero pass as
        # they come, and clamping commutes with rounding to a float
        lo, hi = self.grid.lo, self.grid.hi
        succ = np.where(lo > succ, lo, succ)
        succ = np.where(hi < succ, hi, succ)
        # group each pair's bit-identical states (so 0.0 and -0.0 stay
        # apart), which read bit-identical values from any grid values: in
        # the order of their int64 views where a pair's atoms merge, as
        # ``np.unique`` gives them, and in atom order where none do
        keys = succ.view(np.int64)
        order = keys.argsort(axis=1, kind="stable")
        ranked = np.take_along_axis(keys, order, axis=1)
        first = np.ones(succ.shape, dtype=bool)
        first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        groups = first.sum(axis=1)
        order[groups == k] = np.arange(k)
        inverse = np.empty_like(order)
        np.put_along_axis(inverse, order, first.cumsum(axis=1) - 1, axis=1)
        offsets = np.concatenate(([0], groups.cumsum()))
        # a ``bincount`` over (pair, group) adds each group's probabilities
        # in atom order from 0.0, as one pair's ``bincount`` does (a lone
        # atom's ``0.0 + p`` is ``p``)
        group_probs = np.bincount(
            (inverse + offsets[:-1, None]).ravel(), weights=np.tile(noise_probs, len(pairs))
        )
        query = _bracket(self.grid.points, np.take_along_axis(succ, order, axis=1)[first])
        for array in (inverse, group_probs):
            array.setflags(False)
        offsets = offsets.tolist()
        points, q_lo, q_hi, frac = query.points, query.lo, query.hi, query.frac
        for p, key in enumerate(pairs):
            start, stop = offsets[p], offsets[p + 1]
            pair_query = _GridQuery(points, q_lo[start:stop], q_hi[start:stop], frac[start:stop])
            successors[key] = (pair_query, noise_probs, inverse[p], group_probs[start:stop])
        return successors


def quantize_standard_normal(k: int) -> NoiseModel:
    """Quantize the standard normal into ``k`` equally likely atoms.

    Atom ``i`` (1-based) sits at the normal quantile of ``(2i - 1) / (2k)``.
    The construction mirrors the upper half so the support is exactly
    symmetric about zero and the mean is exactly zero.
    """
    if k < 1:
        raise ValueError(f"atom count must be at least 1, got {k!r}")
    nd = NormalDist()
    values = np.zeros(k)
    for i in range(k // 2):
        z = nd.inv_cdf((2 * (k - i) - 1) / (2.0 * k))
        values[k - 1 - i] = z
        values[i] = -z
    probs = np.full(k, 1.0 / k)
    return NoiseModel(DiscreteDistribution(values, probs))


def _grid_points(grid) -> np.ndarray:
    return grid.points if isinstance(grid, StateGrid) else np.asarray(grid, dtype=float)


class _GridQuery:
    """Fixed query points bracketed on one grid, made by ``_bracket``.

    ``read(v)`` interpolates grid values ``v`` at the points as
    ``v[lo] + frac * (v[hi] - v[lo])``.  ``v`` is one value vector or a 2-d
    stack of them, read row by row.  The arrays are read-only:
    ``_bracket``'s own, or views of them.
    """

    __slots__ = ("points", "lo", "hi", "frac")

    def __init__(self, points, lo, hi, frac):
        self.points, self.lo, self.hi, self.frac = points, lo, hi, frac

    def read(self, values: np.ndarray) -> np.ndarray:
        # one vector is the solver's hot path, and ``values[..., idx]``
        # gathers several times slower than ``values[idx]``
        if values.ndim == 1:
            lo, out = values[self.lo], values[self.hi]
        else:
            lo, out = values[:, self.lo], values[:, self.hi]
        # ``lo + frac * (hi - lo)`` in place, on the gathers' new arrays
        out -= lo
        out *= self.frac
        out += lo
        return out


def _bracket(points: np.ndarray, xs: np.ndarray) -> _GridQuery:
    """The queries ``xs``, clamped to the grid range, bracketed on
    ``points``."""
    xs = np.minimum(np.maximum(xs, points[0]), points[-1])
    # side="right" puts queries that hit a grid point exactly at frac == 0,
    # so on-grid lookups return the stored value with no rounding (and a
    # clamped query has at least one point at or below it); the last point
    # reads ``v[n-1] + 0.0 * 0.0`` too, where ``lo = n - 2`` can round
    hi = np.minimum(points.searchsorted(xs, side="right"), len(points) - 1)
    lo = hi - 1
    frac = (xs - points[lo]) / (points[hi] - points[lo])
    top = xs == points[-1]
    lo[top] = len(points) - 1
    frac[top] = 0.0
    for array in (lo, hi, frac):
        array.setflags(False)
    return _GridQuery(points, lo, hi, frac)


def interpolate(grid, values, x):
    """Piecewise-linear interpolation of grid values, clamping ``x`` to the
    grid range.  ``x`` may be a scalar or an array; a NaN in it raises a
    ``ValueError``, and ``-inf`` and ``inf`` clamp to the grid's ends.

    The values must be finite, and so is every result at a finite ``x``:
    where the difference of two bracketing values overflows, the point reads
    the convex form ``(1 - frac) * v[lo] + frac * v[hi]`` instead."""
    if isinstance(x, _GridQuery):
        # a model's successor bracket, on values ``successor_distribution`` checked
        if x.points is not _grid_points(grid):
            raise ValueError("query was bracketed on another grid")
        return x.read(values)
    points = _grid_points(grid)
    values = np.asarray(values, dtype=float)
    if values.shape != points.shape:
        raise ValueError("values must align with the grid")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    # clamping would carry a NaN query through to a NaN result
    if np.isnan(xs).any():
        raise ValueError(f"query x must not be NaN, got {x!r}")
    query = _bracket(points, xs)
    with np.errstate(over="ignore", invalid="ignore"):
        out = query.read(values)
        wild = ~np.isfinite(out)
        if wild.any():
            # only values of opposite signs overflow their difference, and
            # then the two terms have opposite signs and cannot overflow
            frac = query.frac[wild]
            out[wild] = (1.0 - frac) * values[query.lo[wild]] + frac * values[query.hi[wild]]
    return float(out[0]) if scalar else out


def successor_distribution(
    model: MarkovModel, state_index: int, action_index: int, v_next: np.ndarray
) -> DiscreteDistribution:
    """Distribution of next-step values seen from one (state, action) pair.

    For a tabular mechanism the atoms pair ``v_next[j]`` with the kernel row
    probabilities; for dynamics each noise atom is pushed through the
    transition map, clamped to the grid, and read off ``v_next`` by linear
    interpolation.  Atoms with identical values are merged, so the returned
    atoms are sorted ascending and distinct; their arrays are read-only, and
    ``avar_primal`` reads them worst first in that order instead of sorting
    them again.  Only the values are checked here, at the two ends of their
    sorted list, which hold any ``-inf`` first and any ``+inf`` or NaN last.

    For dynamics the atoms that reach one successor state were grouped when
    the model's successor structure was built, so only the distinct states
    are read and sorted, and each takes its group's probability.  The
    result is bit for bit that of ``_merge_atoms`` on every atom's value.
    Atoms in a group have bit-identical states, which read bit-identical
    values.  When the distinct states read distinct values, the groups are
    exactly the sets of equal values ``_merge_atoms`` merges, and
    ``np.bincount`` summed each group in atom order from 0.0, as
    ``_merge_atoms`` does (a lone atom's ``0.0 + p`` is ``p``).  When two
    distinct states read equal values (a chance tie), the values already
    read are expanded to every atom and handed to ``_merge_atoms``, with
    nothing read again.
    """
    # the successor structure holds exactly the admissible pairs, so only a
    # pair missing from it needs its indices checked
    support = model._successors.get((state_index, action_index))
    if support is None:
        support = model._successor_support(state_index, action_index)
    v_next = np.asarray(v_next, dtype=float)
    if v_next.shape != (model._n_states,):
        raise ValueError("v_next must align with the grid")
    if isinstance(model.transition, Tabular):
        indices, probs = support
        values, probs, listed = _merge_atoms(v_next[indices], probs)
    else:
        query, probs, inverse, group_probs = support
        values = interpolate(model.grid, v_next, query)
        order = values.argsort()
        ascending = values[order]
        # a set of Python floats keeps NaNs apart and merges 0.0 with -0.0, as
        # ``!=`` on adjacent sorted values does, and builds faster on a few atoms
        if len(set(listed := ascending.tolist())) == len(listed):
            values, probs = ascending, group_probs[order]
        else:
            # a chance tie: distinct successor states read equal values
            values, probs, listed = _merge_atoms(values[inverse], probs)
    if not (math.isfinite(listed[0]) and math.isfinite(listed[-1])):
        raise ValueError("atom values must be finite")
    return DiscreteDistribution._trusted(values, probs, True)


def _merge_atoms(values: np.ndarray, probs: np.ndarray):
    """Sorted distinct atom values with the summed probability of each.

    Equal to ``np.unique(values, return_inverse=True)`` followed by
    ``np.bincount(inverse, weights=probs)``, bit for bit: distinct atoms
    come back in sorted order untouched, and merged ones are summed by a
    ``bincount`` over the sorted atoms.  The sort is stable, so each group's
    atoms keep their input order and are added in the order the unsorted
    ``bincount`` adds them.  Both returned arrays are new.  The third item,
    the sorted values as a list before any merge, has the merged two ends.

    ``successor_distribution`` merges a tabular row's atoms here, and a
    dynamics pair's atoms only on a chance tie: its grouped probabilities
    are sums in the same order, so both routes give the same bits.
    """
    order = values.argsort(kind="stable")
    values = values[order]
    probs = probs[order]
    # ``successor_distribution``'s distinctness test
    if len(set(listed := values.tolist())) == len(listed):
        return values, probs, listed
    keep = np.concatenate(([True], values[1:] != values[:-1]))
    return values[keep], np.bincount(keep.cumsum() - 1, weights=probs), listed


#: largest ``grid_points * n_actions * noise_atoms`` of a parametric model:
#: the successor structure holds up to one bracketed successor per atom, and
#: a sweep reads them all (1001 x 41 x 15 is 615,615)
MAX_SUCCESSOR_ATOMS = 10 ** 7
#: largest ``grid_points * n_actions`` of a parametric model: the cost table,
#: the successor structure and each sweep grow per (state, action) pair, about
#: 1.2 to 1.5 KB a pair (1,427 bytes for the LQ model at 1001 x 41 x 15, where
#: 45% of the 41,041 pairs merge atoms, and 1,474 for the investment model;
#: measured with tracemalloc, numpy 2.4)
MAX_SUCCESSOR_PAIRS = 10 ** 6


def _check_shared_params(params):
    """Checks common to ``InvestmentParams`` and ``LQParams``, run after
    each class's own grid-bounds checks."""
    if params.sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if params.action_bound < 0.0:
        raise ValueError("action bound must be nonnegative")
    # the width of ``np.linspace(-b, b, n)``, which warns and builds NaN actions
    # when it overflows; one action sits at zero whatever the bound
    if params.n_actions > 1 and not math.isfinite(2.0 * params.action_bound):
        raise ValueError("action range 2 * action_bound must be finite")
    if params.grid_points < 2:
        raise ValueError("grid needs at least two points")
    if params.n_actions < 1:
        raise ValueError("need at least one action")
    if params.noise_atoms < 1:
        raise ValueError("need at least one noise atom")
    if params.grid_points * params.n_actions * params.noise_atoms > MAX_SUCCESSOR_ATOMS:
        raise ValueError(
            "grid_points * n_actions * noise_atoms exceeds the budget of "
            f"{MAX_SUCCESSOR_ATOMS} successor atoms"
        )
    if params.grid_points * params.n_actions > MAX_SUCCESSOR_PAIRS:
        raise ValueError(
            "grid_points * n_actions exceeds the budget of "
            f"{MAX_SUCCESSOR_PAIRS} (state, action) pairs"
        )


@dataclass(frozen=True)
class InvestmentParams:
    """Parameters of the wealth-investment model.

    Wealth evolves multiplicatively: a fraction ``a`` of wealth (bounded by
    ``action_bound`` in absolute value) earns the risky return while the
    rest earns the risk-free rate ``r``; the stage cost is current wealth.
    """

    mu: float
    r: float
    sigma: float
    action_bound: float
    wealth_lo: float
    wealth_hi: float
    grid_points: int
    n_actions: int
    noise_atoms: int

    def __post_init__(self):
        if self.wealth_lo < 0.0:
            raise ValueError("wealth grid lower bound must be nonnegative")
        if not self.wealth_hi > self.wealth_lo:
            raise ValueError("wealth grid upper bound must exceed the lower bound")
        # a width that overflows makes ``np.linspace`` warn and build NaN points
        if not math.isfinite(self.wealth_hi - self.wealth_lo):
            raise ValueError("wealth grid width wealth_hi - wealth_lo must be finite")
        _check_shared_params(self)


@dataclass(frozen=True)
class LQParams:
    """Parameters of the linear-state, quadratic-cost model.

    The state moves by the chosen action plus ``sigma`` times standard
    normal noise; the stage cost is ``x**2 + a**2``.
    """

    sigma: float
    action_bound: float
    x_lo: float
    x_hi: float
    grid_points: int
    n_actions: int
    noise_atoms: int

    def __post_init__(self):
        if not self.x_hi > self.x_lo:
            raise ValueError("state grid upper bound must exceed the lower bound")
        # a width that overflows makes ``np.linspace`` warn and build NaN points
        if not math.isfinite(self.x_hi - self.x_lo):
            raise ValueError("state grid width x_hi - x_lo must be finite")
        _check_shared_params(self)


def _uniform_actions(bound: float, n: int) -> np.ndarray:
    """``n`` actions uniformly spaced in [-bound, bound]; a single action
    sits at zero."""
    if n == 1:
        return np.zeros(1)
    return np.linspace(-bound, bound, n)


def _uniform_grid(lo: float, hi: float, n: int) -> StateGrid:
    """``n`` points uniformly spaced in [lo, hi], a width the params checked
    is finite.  Near the largest float the last step can still round past
    it, and ``np.linspace`` then overwrites that point with ``hi``: the
    overflow it would warn about never reaches the grid."""
    with np.errstate(over="ignore"):
        return StateGrid(np.linspace(lo, hi, n))


def build_investment(params: InvestmentParams, discount: float) -> MarkovModel:
    """Wealth model: ``x' = x * (1 + r + (mu - r) * a + sigma * a * xi)``
    with stage cost equal to wealth."""
    grid = _uniform_grid(params.wealth_lo, params.wealth_hi, params.grid_points)
    actions = ActionSet(_uniform_actions(params.action_bound, params.n_actions))
    noise = quantize_standard_normal(params.noise_atoms)
    mu, r, sigma = params.mu, params.r, params.sigma
    # wealth times a finite growth factor is finite or clamped; an infinite
    # one would make the successor of zero wealth NaN
    a, xi = actions.values[:, None], noise.dist.values
    with np.errstate(over="ignore", invalid="ignore"):
        growth = 1.0 + r + (mu - r) * a + sigma * a * xi
    if not np.isfinite(growth).all():
        raise ValueError(
            "growth factor 1 + r + (mu - r) * a + sigma * a * xi overflows; "
            "mu, r, sigma or the action bound are too large"
        )

    def next_state(x, a, xi):
        return x * (1.0 + r + (mu - r) * a + sigma * a * xi)

    def cost(x, a):
        return x

    return MarkovModel(grid, actions, Dynamics(next_state, noise), cost, discount)


def build_lq(params: LQParams, discount: float) -> MarkovModel:
    """Linear-quadratic model: ``x' = x + a + sigma * xi`` with stage cost
    ``x**2 + a**2``."""
    grid = _uniform_grid(params.x_lo, params.x_hi, params.grid_points)
    actions = ActionSet(_uniform_actions(params.action_bound, params.n_actions))
    noise = quantize_standard_normal(params.noise_atoms)
    sigma = params.sigma

    def next_state(x, a, xi):
        return x + a + sigma * xi

    def cost(x, a):
        return x * x + a * a

    return MarkovModel(grid, actions, Dynamics(next_state, noise), cost, discount)


def build_tabular(kernel, costs, discount: float) -> MarkovModel:
    """Model from an explicit kernel and cost table.

    States and actions are abstract indices embedded as the reals
    ``0 .. n-1``; ``kernel[i][a][j]`` are transition probabilities and
    ``costs[i][a]`` the stage costs.
    """
    mechanism = Tabular(kernel)
    n, m, _ = mechanism.kernel.shape
    # a copy: ``cost`` must keep answering as it did when the model checked it
    cost_table = np.array(costs, dtype=float)
    if cost_table.shape != (n, m):
        raise ValueError(
            f"cost table shape {cost_table.shape} does not match "
            f"{n} states and {m} actions"
        )
    grid = StateGrid(np.arange(n, dtype=float))
    actions = ActionSet(np.arange(m, dtype=float))

    def cost(x, a):
        return float(cost_table[int(round(x)), int(round(a))])

    return MarkovModel(grid, actions, mechanism, cost, discount)

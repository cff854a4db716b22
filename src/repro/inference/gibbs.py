"""Chromatic Gibbs sampling over grounded factor graphs.

Used when denial constraints are kept as factors (the DC-Factors variants
of Section 6.3.1).  The model is ``p(x) ∝ exp(Σ_v unary_v[x_v] +
Σ_f w_f · table_f[x])``; variables that share no factor are conditionally
independent given the rest, so a whole *colour class* of the variable
conflict graph is resampled in one set-at-a-time NumPy step.  That is a
sequence of single-site Gibbs updates taken in one go, so the stationary
distribution is the model's.  Evidence and one-candidate query variables
never change and are never drawn.  A free variable with no free
neighbour comes out as its exact softmax (the independent regime of
Section 5.2); for the rest, burn-in sweeps are discarded before marginal
averaging starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.ops import expand_ranges, segment_positions, sorted_unique
from repro.inference.factor_graph import FactorGraph
from repro.inference.numerics import segment_argmax, segment_softmax
from repro.inference.variables import Marginals
from repro.obs.trace import deep_span


@dataclass
class GibbsResult:
    """Estimated marginals and the resulting MAP assignment.

    ``moves`` / ``samples`` summarise chain mobility: of the
    ``samples`` single-site draws taken (burn-in included; only free
    variables — query variables with more than one candidate — are
    drawn), ``moves`` landed on a value different from the variable's
    previous state.  Their ratio is the acceptance-style diagnostic the
    run report publishes as ``infer.gibbs_move_rate``.
    """

    marginals: Marginals
    sweeps: int
    moves: int = 0
    samples: int = 0

    @property
    def move_rate(self) -> float:
        """Fraction of draws that changed the variable's value."""
        return self.moves / self.samples if self.samples else 0.0

    def map_index(self, vid: int) -> int:
        return int(np.argmax(self.marginals[vid]))


class GibbsSampler:
    """Set-at-a-time Gibbs sampler with fixed evidence.

    Parameters
    ----------
    graph:
        The grounded factor graph.
    unary_weights:
        Learned weights for the unary feature matrix.
    seed:
        RNG seed (colouring is a pure function of the graph and every
        draw comes from this generator, so output is fixed by the seed).

    ``colour[v]`` is the colour class of free variable ``v`` and ``-1``
    for fixed ones; ``num_free`` / ``num_colours`` count them.
    """

    def __init__(self, graph: FactorGraph, unary_weights: np.ndarray, seed: int = 0):
        self.graph = graph
        self.rng = np.random.default_rng(seed)
        with deep_span("infer.gibbs_setup", factors=len(graph.factors)):
            self._pack(unary_weights)

    # ------------------------------------------------------------------
    def _pack(self, unary_weights: np.ndarray) -> None:
        """Flatten tables, colour the free variables, sort by colour.

        An *incidence* is one (free variable, factor, position) membership;
        an *entry* is one candidate of one incidence.
        """
        variables, factors = self.graph.variables, self.graph.factors
        n = len(variables)
        self._starts = starts = self.graph.matrix.var_row_start
        unary = self.graph.matrix.scores(unary_weights)
        sizes = np.diff(starts)
        evidence, tuple_id = variables.is_evidence, variables.tids
        self._initial = variables.init_index.copy()
        missing = np.flatnonzero(self._initial < 0)  # initial value pruned away
        if evidence[missing].any():
            raise ValueError("an evidence variable lacks its observed value")
        rows = expand_ranges(starts[missing], sizes[missing])
        cuts = np.concatenate(([0], np.cumsum(sizes[missing])))
        self._initial[missing] = segment_argmax(unary[rows], cuts)
        free = ~evidence & (sizes > 1)

        # Factor members, table extents (their domain sizes) and strides,
        # padded to max arity.
        arity = np.diff(factors.var_indptr)
        present = np.arange(arity.max(initial=0)) < arity[:, None]
        members = np.zeros(present.shape, dtype=np.int64)
        members[present] = factors.var_ids
        extents = np.ones(present.shape, dtype=np.int64)
        extents[present] = sizes[factors.var_ids]
        spans = np.cumprod(extents[:, ::-1], axis=1)[:, ::-1]  # prod(extents[p:])
        strides = np.where(present, spans // extents, 0)  # C order; pads 0
        offsets, table_sizes = factors.cell_indptr[:-1], np.diff(factors.cell_indptr)
        self._table = np.repeat(factors.weights, table_sizes) * factors.cells

        is_free = present & free[members]
        self.colour = colour = _greedy_colouring(members, is_free, free, tuple_id)
        self.num_free = int(free.sum())
        self.num_colours = int(colour.max(initial=-1)) + 1

        # Free variables, their candidate rows, incidences and entries, each
        # sorted by colour: class ``c`` is one slice of every array, between
        # ``_cuts[c]`` and ``_cuts[c + 1]``.
        ids = np.flatnonzero(free)
        self._ids = ids = ids[np.argsort(colour[ids], kind="stable")]
        self._rows = expand_ranges(starts[ids], sizes[ids])
        self._unary = unary[self._rows]
        self._bounds = bounds = np.concatenate(([0], np.cumsum(sizes[ids])))
        inc_factor, inc_position = np.nonzero(is_free)
        order = np.argsort(colour[members[inc_factor, inc_position]], kind="stable")
        inc_factor, inc_position = inc_factor[order], inc_position[order]
        owner = members[inc_factor, inc_position]
        width = sizes[owner]
        classes = np.arange(self.num_colours + 1)
        var_cut = np.searchsorted(colour[ids], classes)
        inc_cut = np.searchsorted(colour[owner], classes)
        entry_cut = np.concatenate(([0], np.cumsum(width)))[inc_cut]
        row_cut = bounds[var_cut]
        self._cuts = np.column_stack((var_cut, row_cut, inc_cut, entry_cut)).tolist()
        self._members = members[inc_factor]  # variables of the incident factor
        self._strides = strides[inc_factor]  # 0 at the own position and at pads
        self._strides[np.arange(len(owner)), inc_position] = 0
        self._offsets = offsets[inc_factor]
        # Entries name their incidence and score row by position in the class.
        first_row = np.empty(n, dtype=np.int64)
        first_row[ids] = bounds[:-1] - row_cut[colour[ids]]
        candidate = segment_positions(width)
        incidence = np.arange(len(owner)) - inc_cut[colour[owner]]
        self._entry_incidence = np.repeat(incidence, width)
        self._entry_row = np.repeat(first_row[owner], width) + candidate
        own_stride = strides[inc_factor, inc_position]
        self._entry_shift = candidate * np.repeat(own_stride, width)

    # ------------------------------------------------------------------
    def initial_state(self) -> np.ndarray:
        """Evidence at observed values; queries at their initial value.

        Queries whose initial value was pruned from the domain start at
        their unary MAP instead.
        """
        return self._initial.copy()

    def _conditionals(self, lo: list[int], hi: list[int], state: np.ndarray):
        """Conditionals of one class as one flat vector, and its segments."""
        (v0, r0, i0, e0), (v1, r1, i1, e1) = lo, hi
        walk = state[self._members[i0:i1]] * self._strides[i0:i1]
        base = self._offsets[i0:i1] + walk.sum(axis=1)
        values = self._table[
            base[self._entry_incidence[e0:e1]] + self._entry_shift[e0:e1]
        ]
        scores = self._unary[r0:r1] + np.bincount(
            self._entry_row[e0:e1], weights=values, minlength=r1 - r0
        )
        segments = self._bounds[v0 : v1 + 1] - r0
        return segment_softmax(scores, segments), segments

    def _draw(self, p: np.ndarray, segments: np.ndarray) -> np.ndarray:
        """One inverse-CDF draw per segment of ``p`` from one uniform batch."""
        cdf = np.cumsum(p)
        target = self.rng.random(len(segments) - 1)
        target[1:] += cdf[segments[1:-1] - 1]
        drawn = np.searchsorted(cdf, target, side="right")
        return np.minimum(drawn, segments[1:] - 1) - segments[:-1]

    def run(self, burn_in: int = 10, sweeps: int = 50) -> GibbsResult:
        """Sample and return marginal estimates for all query variables.

        A free variable's marginal is the mean, over the counting sweeps,
        of the conditionals its draws were taken from (Rao-Blackwellised:
        same expectation as one-hot counts, lower variance).
        """
        if burn_in < 0 or sweeps < 0:
            raise ValueError(
                f"burn_in and sweeps must be >= 0, got {burn_in} and {sweeps}"
            )
        state = self.initial_state()
        cuts = self._cuts
        summed = np.zeros(len(self._rows))
        moves = 0
        for sweep in range(burn_in + sweeps):
            with deep_span(
                "infer.gibbs_sweep", sweep=sweep, burn_in=sweep < burn_in
            ) as sp:
                sweep_moves = 0
                for c in self.rng.permutation(self.num_colours):
                    lo, hi = cuts[c], cuts[c + 1]
                    p, segments = self._conditionals(lo, hi, state)
                    drawn = self._draw(p, segments)
                    vids = self._ids[lo[0] : hi[0]]
                    sweep_moves += int(np.count_nonzero(drawn != state[vids]))
                    state[vids] = drawn
                    if sweep >= burn_in:
                        summed[lo[1] : hi[1]] += p
                moves += sweep_moves
                if sp is not None:
                    sp.attributes["moves"] = sweep_moves
        # With zero counting sweeps fall back to the conditional at the
        # final state so callers always receive a distribution.
        if sweeps == 0:
            for lo, hi in zip(cuts, cuts[1:]):
                summed[lo[1] : hi[1]] = self._conditionals(lo, hi, state)[0]
        flat = np.zeros(int(self._starts[-1]))
        flat[self._starts[:-1][self.colour < 0]] = 1.0  # fixed: certain
        flat[self._rows] = summed / max(sweeps, 1)
        query = np.flatnonzero(~self.graph.variables.is_evidence)
        sizes = np.diff(self._starts)[query]
        return GibbsResult(
            marginals=Marginals(
                query,
                np.concatenate(([0], np.cumsum(sizes))),
                flat[expand_ranges(self._starts[query], sizes)],
            ),
            sweeps=sweeps,
            moves=moves,
            samples=(burn_in + sweeps) * self.num_free,
        )


def _greedy_colouring(
    members: np.ndarray, is_free: np.ndarray, free: np.ndarray, group: np.ndarray
) -> np.ndarray:
    """Colour per variable (``-1`` = not free): free variables sharing a
    factor differ.  Largest degree first, ties by variable id, each taking
    the smallest colour no neighbour holds — a function of the arrays only.

    Free variables of one ``group`` (a tuple's cells) differ as well.  A
    class is resampled as a block, so two cells of a tuple that explain
    its violations through a common neighbour would, sharing a colour,
    never have that neighbour resampled between them; the per-sweep class
    shuffle can order them freely only if they are apart.
    """
    n = len(free)
    first, second = np.triu_indices(members.shape[1], 1)
    linked = is_free[:, first] & is_free[:, second]
    pairs = [members[:, first][linked] * n + members[:, second][linked]]
    ids = np.flatnonzero(free)
    mates = ids[np.argsort(group[ids], kind="stable")]
    shift = 1  # sorted by group: one of m variables meets itself at shifts < m
    while (same := group[mates[shift:]] == group[mates[:-shift]]).any():
        pairs.append(mates[shift:][same] * n + mates[:-shift][same])
        shift += 1
    pairs = np.concatenate(pairs)
    edges = sorted_unique(np.concatenate((pairs, pairs % n * n + pairs // n)))
    neighbour = edges % n
    bounds = np.concatenate(([0], np.cumsum(np.bincount(edges // n, minlength=n))))
    order = ids[np.argsort(-np.diff(bounds)[ids], kind="stable")]
    colour = np.full(n, -1, dtype=np.int64)
    # repro: allow-loop sequential greedy colouring: one setup pass over free variables
    for vid in order.tolist():
        held = colour[neighbour[bounds[vid] : bounds[vid + 1]]]
        open_colours = np.ones(len(held) + 1, dtype=bool)
        open_colours[held[(held >= 0) & (held <= len(held))]] = False
        colour[vid] = np.argmax(open_colours)
    return colour

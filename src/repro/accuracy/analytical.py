"""Closed-form accuracy evaluation (the paper's ``EVALACC``).

Given the spec-independent site gains (``repro.accuracy.adjoint``) the
output noise power is a closed-form function of the fixed-point
specification:

``P(spec) = sum_i var_i(spec) * K2_i  +  (sum_i mean_i(spec) * K1_i)^2
            + dc(spec)' C dc(spec)``

Evaluation is vectorized numpy over the site tables, so a call costs
microseconds, and :meth:`AccuracyModel.noise_power` memoizes it on the
spec's state.  The searches ask most of their questions in batches,
as the rows of one closed-form matrix: a Tabu or ``max-1`` iteration
its neighbourhood of single-root moves
(:meth:`AccuracyModel.move_violations`), and a joint SLP round every
candidate's and every candidate pair's ``SETMAXWL`` trial, which is
what keeps the O(candidates^2) accuracy conflict detection of the
paper's Fig. 1c practical (:meth:`AccuracyModel.group_trials`).  Each
row carries a forward error bound, and a row too close to the
constraint to decide is re-asked exactly, so every decision is the one
a question-at-a-time evaluation gives.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.accuracy.adjoint import NoiseGains, extract_gains
from repro.accuracy.sites import Site, SiteKind, enumerate_sites
from repro.fixedpoint.quantize import QuantMode, quantize_value
from repro.fixedpoint.spec import NO_NARROW, FixedPointSpec, SlotMap
from repro.ir.program import Program
from repro.utils import power_to_db, remember

__all__ = ["AccuracyModel", "GroupTrials", "build_accuracy_model"]

#: Most memoized noise states per model, and separately most memoized
#: neighbourhoods and coefficient terms.  At ~0.5 KB of key per state
#: this caps a long-lived model (``repro serve``) near 10 MB; the cold
#: paper grid evaluates at most 36 distinct single states per kernel.
#: A neighbourhood (~1.5 KB) is asked once per search iteration, and
#: the paper grid holds ~500 of them per kernel.
_MEMO_CAP = 1 << 14

#: Most trial-table rows one model holds: 2^16 rows of two float64
#: bounds are 1 MB.  Each table is also charged ``_TABLE_KEY_ROWS`` rows
#: (1 KB) for its key and bookkeeping: the round's state (0.3-0.5 KB on
#: the paper kernels) and a small tuple per candidate group, whose lanes
#: the SLP index already holds.  So the tables of a long-lived model
#: (``repro serve``) take about 1 MB, and under 2 MB even with keys of
#: twice their charge.  The cold paper sweep builds 45 tables with
#: 12,551 rows (9,399 of them on conv's model).  A model that would
#: pass the cap empties its tables first.
_TABLE_ROW_CAP = 1 << 16
_TABLE_KEY_ROWS = 64

#: Most rows the batched closed form evaluates at once: its temporaries
#: are a few float arrays of rows x sites, so unchunked tables of a
#: hundred candidates would raise the peak memory of a sweep.
_ROW_CHUNK = 512

#: Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0 ** -53

#: Relative slack of a batched row's error bound that covers the
#: rounding of the dB conversion (``10 * log10``): it keeps a row that
#: the matrix decides at least ~4e-12 dB away from the constraint, far
#: beyond the few ulps either side's logarithm may err by.
_DB_SLACK = 2.0 ** -40


@dataclass(frozen=True)
class _SiteTables:
    """Numpy-packed site data, grouped by evaluation formula."""

    # ALIGN-class: from producer format to consumer node format.
    al_from: np.ndarray
    al_to: np.ndarray
    al_k2: np.ndarray
    al_k1: np.ndarray
    # MUL operand edges (lane narrowing).
    me_op: np.ndarray
    me_pos: np.ndarray
    me_prod: np.ndarray
    me_k2: np.ndarray
    me_k1: np.ndarray
    # MUL outputs.
    mo_op: np.ndarray
    mo_k2: np.ndarray
    mo_k1: np.ndarray
    # INPUT conversions.
    in_to: np.ndarray
    in_k2: np.ndarray
    in_k1: np.ndarray


def _pack_sites(sites: list[Site], gains: NoiseGains) -> _SiteTables:
    def select(kind: SiteKind) -> list[Site]:
        return [s for s in sites if s.kind is kind]

    def arrays(items: list[Site], *getters):
        return [
            np.array([g(s) for s in items], dtype=np.int64) for g in getters
        ]

    def gain_arrays(items: list[Site]) -> tuple[np.ndarray, np.ndarray]:
        k2 = np.array([gains.gain(s.gain_key)[0] for s in items])
        k1 = np.array([gains.gain(s.gain_key)[1] for s in items])
        return k2, k1

    align = select(SiteKind.ALIGN)
    medge = select(SiteKind.MUL_EDGE)
    mout = select(SiteKind.MUL_OUT)
    inputs = select(SiteKind.INPUT)

    al_from, al_to = arrays(align, lambda s: s.from_slot, lambda s: s.to_slot)
    al_k2, al_k1 = gain_arrays(align)
    me_op, me_pos, me_prod = arrays(
        medge, lambda s: s.opid, lambda s: s.pos, lambda s: s.from_slot
    )
    me_k2, me_k1 = gain_arrays(medge)
    mo_op, = arrays(mout, lambda s: s.opid)
    mo_k2, mo_k1 = gain_arrays(mout)
    in_to, = arrays(inputs, lambda s: s.to_slot)
    in_k2, in_k1 = gain_arrays(inputs)
    return _SiteTables(
        al_from, al_to, al_k2, al_k1,
        me_op, me_pos, me_prod, me_k2, me_k1,
        mo_op, mo_k2, mo_k1,
        in_to, in_k2, in_k1,
    )


def _moments(
    f_from: np.ndarray, f_to: np.ndarray, mode: QuantMode
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized quantization moments; inactive sites yield zeros."""
    active = f_from > f_to
    q_to = np.where(active, np.ldexp(1.0, -f_to), 0.0)
    q_from = np.where(active, np.ldexp(1.0, -f_from), 0.0)
    var = (q_to * q_to - q_from * q_from) / 12.0
    if mode is QuantMode.ROUND:
        mean = q_from / 2.0
    else:
        mean = -(q_to - q_from) / 2.0
    return np.where(active, mean, 0.0), var


class AccuracyModel:
    """Fast analytical evaluator of output quantization-noise power."""

    def __init__(
        self,
        program: Program,
        slotmap: SlotMap,
        gains: NoiseGains,
        quant_mode: QuantMode = QuantMode.TRUNCATE,
        input_mode: QuantMode = QuantMode.TRUNCATE,
        const_mode: QuantMode = QuantMode.ROUND,
        include_coeff_error: bool = True,
    ) -> None:
        self.program = program
        self.slotmap = slotmap
        self.gains = gains
        self.quant_mode = quant_mode
        self.input_mode = input_mode
        self.const_mode = const_mode
        self.include_coeff_error = include_coeff_error
        self.sites = enumerate_sites(program, slotmap)
        self._tables = t = _pack_sites(self.sites, gains)
        # Every multiply operand edge, gathered in one pass: the MUL_EDGE
        # sites, then the first and the second operand of each MUL_OUT
        # site.
        producers = np.array(
            [program.op(int(opid)).operands for opid in t.mo_op],
            dtype=np.int64,
        ).reshape(-1, 2)
        self._edge_op = np.concatenate((t.me_op, t.mo_op, t.mo_op))
        self._edge_pos = np.concatenate((
            t.me_pos, np.zeros_like(t.mo_op), np.ones_like(t.mo_op)
        ))
        self._edge_prod = np.concatenate(
            (t.me_prod, producers[:, 0], producers[:, 1])
        )
        # The ALIGN, MUL_EDGE, MUL_OUT and INPUT sites' slices of the
        # fused moment arrays, with their gains, in evaluation order.
        # The per-class gain arrays stay separate allocations: under
        # OpenBLAS's Prescott kernel, dotting against slices of the
        # concatenated gains below changes the last bit of some sums
        # (its ddot order depends on where an operand starts).
        n_al, n_me, n_mo = t.al_from.size, t.me_op.size, t.mo_op.size
        self._classes = [
            (lo, lo + n, k2, k1)
            for lo, n, k2, k1 in (
                (0, n_al, t.al_k2, t.al_k1),
                (n_al, n_me, t.me_k2, t.me_k1),
                (n_al + n_me, n_mo, t.mo_k2, t.mo_k1),
                (n_al + n_me + n_mo, t.in_to.size, t.in_k2, t.in_k1),
            )
            if n
        ]
        # All classes' gains, for the batched evaluation's one product
        # per sum.
        self._k2 = np.concatenate((t.al_k2, t.me_k2, t.mo_k2, t.in_k2))
        self._k1 = np.concatenate((t.al_k1, t.me_k1, t.mo_k1, t.in_k1))
        self._k1_abs = np.abs(self._k1)
        self._coeff_slots = np.array(
            [entry.slot for entry in gains.coeff_entries], dtype=np.int64
        )
        self._coeff_values = np.array(
            [entry.value for entry in gains.coeff_entries], dtype=np.float64
        )
        #: Per slot: whether it is the root of a tie group that holds a
        #: coefficient slot (only a write to such a root changes the
        #: coefficient term).
        self._coeff_root = np.zeros(slotmap.n_slots, dtype=bool)
        self._coeff_root[slotmap.root[self._coeff_slots]] = True
        # Any summation order of n products errs by at most
        # gamma_n = n u / (1 - n u) times their absolute sum; n counts
        # every site, plus slack for the sums that join the classes.
        n_terms = len(self.sites) + 8
        self._gamma = n_terms * _UNIT_ROUNDOFF / (1.0 - n_terms * _UNIT_ROUNDOFF)
        self._coeff_cache: dict[bytes, float] = {}
        self._memo: dict[bytes, float] = {}
        self._move_memo: dict[Hashable, np.ndarray] = {}
        self._trial_tables: dict[Hashable, GroupTrials] = {}
        self._table_lock = threading.Lock()
        #: :meth:`noise_power` calls (memo hits included): every
        #: question asked of a single state, exact rechecks of batched
        #: rows included.
        self.eval_count = 0
        #: Calls that missed the memo and evaluated the closed form.
        self.miss_count = 0
        #: :meth:`move_violations` calls, the neighbourhoods its memo
        #: answered, the rows the batched closed form evaluated, and the
        #: rows too close to the constraint to decide from the matrix
        #: (each re-asked through :meth:`noise_power`, so it also counts
        #: in ``eval_count``).
        self.batch_calls = 0
        self.batch_hits = 0
        self.batch_rows = 0
        self.batch_rechecks = 0
        #: The same for :meth:`group_trials`: calls (one per visit of a
        #: joint SLP round), tables built, their rows, and the rows
        #: re-asked exactly.
        self.table_visits = 0
        self.table_builds = 0
        self.table_rows = 0
        self.table_rechecks = 0

    # ------------------------------------------------------------------
    def noise_power(self, spec: FixedPointSpec) -> float:
        """Output noise power of ``spec`` (linear, not dB).

        Memoized on the spec's exact state (``spec.state_key()``): the
        searches revisit states constantly (every one starts from the
        all-max spec, Tabu moves are undone, SLP asks about one spec
        more than once), and the value is a pure function of (model,
        state).  The key ignores the slot map because it is a
        deterministic function of the program, and specs must belong to
        this model's program anyway.
        """
        self.eval_count += 1
        key = spec.state_key()
        found = self._memo.get(key)
        if found is None:
            self.miss_count += 1
            found = self._evaluate(spec)
            remember(self._memo, key, found, _MEMO_CAP)
        return found

    def move_violations(
        self,
        spec: FixedPointSpec,
        roots: Sequence[int],
        wls: Sequence[int],
        constraint_db: float,
    ) -> np.ndarray:
        """Whether each single-root move violates ``constraint_db``.

        Move ``m`` sets the word length of tie-group root ``roots[m]``
        to ``wls[m]``; entry ``m`` of the result is exactly what
        :meth:`violates` answers for ``spec`` after that move, and
        ``spec`` is left as it was.  The moves are evaluated as the
        rows of one closed-form matrix (:meth:`_row_bounds`), each row
        with a forward error bound on its reordered sums.  A row whose
        bounded noise lies wholly on one side of the constraint is
        decided by the matrix; a row within its bound of the constraint
        is re-asked through :meth:`noise_power`.

        The bounds are memoized on ``(spec.state_key(), roots, wls)``:
        a search revisits a neighbourhood under every constraint of a
        sweep panel, and the bounds do not depend on the constraint.
        """
        self.batch_calls += 1
        roots = np.asarray(roots, dtype=np.int64)
        wls = np.asarray(wls, dtype=np.int64)
        key = (spec.state_key(), roots.tobytes(), wls.tobytes())
        bounds = self._move_memo.get(key)
        if bounds is None:
            self.batch_rows += len(roots)
            bounds = self._move_bounds(spec, roots, wls)
            remember(self._move_memo, key, bounds, _MEMO_CAP)
        else:
            self.batch_hits += 1
        db_low, db_high = bounds
        violated = db_low > constraint_db
        for m in np.flatnonzero(~violated & ~(db_high <= constraint_db)).tolist():
            self.batch_rechecks += 1
            token = spec.save()
            spec.set_wl(int(roots[m]), int(wls[m]))
            violated[m] = self.violates(spec, constraint_db)
            spec.revert(token)
        return violated

    def group_trials(
        self,
        spec: FixedPointSpec,
        groups: tuple[tuple[tuple[int, ...], int], ...],
    ) -> GroupTrials:
        """The trial table of a joint SLP round (paper Fig. 1c).

        ``groups`` are the round's candidates as ``(lanes, wl)``, whose
        op kinds come from this model's program.  The table holds every
        candidate's validity trial (``SETMAXWL`` of its group on
        ``spec``) and every pair's trial (both groups, the first one
        first) as the rows of one batched closed form
        (:meth:`_row_bounds`), with per-row error bounds;
        :meth:`GroupTrials.violations` decides them against a
        constraint.  ``spec`` is not touched.

        Memoized on ``(spec.state_key(), groups)``: the constraints of a
        sweep panel replay the same rounds, and the bounds do not
        depend on the constraint.  The tables a model holds are capped
        by their rows (``_TABLE_ROW_CAP``).
        """
        self.table_visits += 1
        key = (spec.state_key(), groups)
        found = self._trial_tables.get(key)
        if found is None:
            self.table_builds += 1
            found = GroupTrials(self, groups, self._group_bounds(spec, groups))
            self.table_rows += found.bounds.shape[1]
            # Locked, so the cap holds under job threads; a racing thread
            # can only build a table twice.
            with self._table_lock:
                tables = self._trial_tables
                held = sum(table.charge for table in tables.values())
                if held + found.charge > _TABLE_ROW_CAP:
                    tables.clear()
                if found.charge <= _TABLE_ROW_CAP:
                    tables[key] = found
        return found

    def _move_bounds(
        self, spec: FixedPointSpec, roots: np.ndarray, wls: np.ndarray
    ) -> np.ndarray:
        """:meth:`_row_bounds` of single-root moves: row ``m`` is the
        spec's fwl vector with root ``roots[m]``'s tie group at word
        length ``wls[m]``."""
        fwl = spec.fwl_vector()
        iwl = spec.iwl_vector()
        edge = spec.edge_wl_matrix()
        roots = self.slotmap.root[roots]
        moved = (wls - iwl[roots]).astype(np.int32)

        def build(rows: slice):
            tied = self.slotmap.root == roots[rows, None]
            return np.where(tied, moved[rows, None], fwl), iwl, edge

        return self._row_bounds(len(roots), build, fwl, self._coeff_root[roots])

    def _group_bounds(
        self,
        spec: FixedPointSpec,
        groups: tuple[tuple[tuple[int, ...], int], ...],
    ) -> np.ndarray:
        """:meth:`_row_bounds` of a trial table's rows (see
        :class:`GroupTrials`): each row is the spec's flat state with
        one or two groups' :meth:`~FixedPointSpec.group_writes` applied,
        the later group's writes winning."""
        count = len(groups)
        # One trial state per group, and the entries its writes cover.
        trial = np.repeat(spec.state_vector()[None], count, axis=0)
        written = np.zeros(trial.shape, dtype=bool)
        for g, (lanes, wl) in enumerate(groups):
            writes = spec.group_writes(self.program, lanes)
            trial[g, writes] = wl
            written[g, writes] = True
        # Row r applies group first[r], then group second[r]; a
        # validity row applies its group twice, which changes nothing.
        first, second = np.triu_indices(count, 1)
        first = np.concatenate((np.arange(count), first))
        second = np.concatenate((np.arange(count), second))
        # A row changes a coefficient slot only if one of its groups does.
        fwl = spec.fwl_vector()
        coeff_fwl = spec.unpack(trial)[0][:, self._coeff_root]
        coeff = (coeff_fwl != fwl[self._coeff_root]).any(axis=1)

        def build(rows: slice):
            later = second[rows]
            return spec.unpack(
                np.where(written[later], trial[later], trial[first[rows]])
            )

        return self._row_bounds(
            first.size, build, fwl, coeff[first] | coeff[second]
        )

    def _row_bounds(
        self,
        count: int,
        build: Callable[[slice], tuple[np.ndarray, np.ndarray, np.ndarray]],
        base_fwl: np.ndarray,
        coeff_rows: np.ndarray,
    ) -> np.ndarray:
        """dB values of ``P - B`` and ``P + B`` per row, as a (2, count)
        array.

        ``build(rows)`` returns the states of a slice of at most
        ``_ROW_CHUNK`` rows as the ``fwl``, ``iwl`` and ``edge``
        arguments of :meth:`_site_moments` (each per row or shared);
        ``base_fwl`` is the fwl vector of the state they vary, whose
        coefficient term a row shares unless ``coeff_rows`` says it
        may change a coefficient slot.  ``P`` is a row's batched
        noise power and ``B`` bounds how far it may lie from
        :meth:`noise_power` of the row's spec.  The site moments of a
        row are the single state's elementwise floats; only the
        summation order differs (one matrix-vector product per sum,
        against per-class ``np.dot`` calls).  With ``V`` the variance
        sum, ``M`` the mean sum, ``A`` the absolute mean sum and ``C``
        the coefficient term, either order errs by at most ``gamma``
        times a sum's absolute sum.  Every variance term
        is ``>= 0`` (``K2`` gains are sums of squares), so ``|dV| <= 2
        gamma V`` and ``|dM| <= dM = 2 gamma A`` between the two
        evaluations, and

        ``B = 2 gamma V + dM (2|M| + dM) + 6 u P + 2^-40 P``

        where ``6 u P`` covers the three roundings of ``V + M*M + C`` on
        each side and ``2^-40 P`` the dB conversion.  A row with
        ``P - B <= 0`` gets NaN bounds, so it is always re-asked.
        """
        bounds = np.empty((2, count))
        coeff_terms = self.include_coeff_error and self._coeff_slots.size
        base_coeff = self._coeff_power(base_fwl) if coeff_terms else 0.0
        for start in range(0, count, _ROW_CHUNK):
            rows = slice(start, start + _ROW_CHUNK)
            fwl, iwl, edge = build(rows)
            mean, var = self._site_moments(fwl, iwl, edge)
            var_total = var @ self._k2
            mean_total = mean @ self._k1
            mean_abs = np.abs(mean) @ self._k1_abs
            coeff = np.full(len(fwl), base_coeff)
            if coeff_terms:
                for m in np.flatnonzero(coeff_rows[rows]).tolist():
                    coeff[m] = self._coeff_power(fwl[m])
            power = var_total + mean_total * mean_total + coeff
            gamma = self._gamma
            d_mean = 2.0 * gamma * mean_abs
            bound = (
                2.0 * gamma * var_total
                + d_mean * (2.0 * np.abs(mean_total) + d_mean)
                + (6.0 * _UNIT_ROUNDOFF + _DB_SLACK) * power
            )
            low = power - bound
            with np.errstate(divide="ignore", invalid="ignore"):
                bounds[:, rows] = 10.0 * np.log10(np.stack((low, power + bound)))
            bounds[:, rows][:, ~(low > 0.0)] = np.nan
        return bounds

    def _evaluate(self, spec: FixedPointSpec) -> float:
        """The closed-form noise power (the uncached :meth:`noise_power`).

        :meth:`_site_moments` covers every site in one pass; the
        per-class sums run over slices in a fixed order, so every float
        is the one a per-class evaluation gives.
        """
        fwl = spec.fwl_vector()
        mean, var = self._site_moments(
            fwl, spec.iwl_vector(), spec.edge_wl_matrix()
        )
        var_total = 0.0
        mean_total = 0.0
        for lo, hi, k2, k1 in self._classes:
            var_total += float(np.dot(var[lo:hi], k2))
            mean_total += float(np.dot(mean[lo:hi], k1))
        power = var_total + mean_total * mean_total
        if self.include_coeff_error and self._coeff_slots.size:
            power += self._coeff_power(fwl)
        return power

    def _site_moments(
        self, fwl: np.ndarray, iwl: np.ndarray, edge: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Quantization means and variances of every site (ALIGN,
        MUL_EDGE, MUL_OUT, INPUT along the last axis), for one state or
        for a matrix of them (one state per row).  ``fwl`` and ``iwl``
        are per-slot vectors and ``edge`` an (n_ops, 2) edge matrix, or
        a stack of them per row; a single one is shared by every row.
        All of it is elementwise, so a row's floats do not depend on the
        other rows.
        """
        t = self._tables
        # Fractional bits each multiply consumes its operands at: the
        # producer's, narrowed to the edge word length when one is set.
        f_prod = fwl[..., self._edge_prod]
        budget = edge[..., self._edge_op, self._edge_pos]
        f_cons = np.where(
            budget >= NO_NARROW,
            f_prod,
            np.minimum(f_prod, budget - iwl[..., self._edge_prod]),
        )
        n_me, n_mo = t.me_op.size, t.mo_op.size
        exact_product = f_cons[..., n_me:n_me + n_mo] + f_cons[..., n_me + n_mo:]
        mean, var = _moments(
            np.concatenate(
                (fwl[..., t.al_from], f_prod[..., :n_me], exact_product), axis=-1
            ),
            np.concatenate(
                (fwl[..., t.al_to], f_cons[..., :n_me], fwl[..., t.mo_op]), axis=-1
            ),
            self.quant_mode,
        )
        # Inputs arrive exact: the moments of quantizing from infinite
        # precision (what _moments gives with q_from = 0).
        q = np.ldexp(1.0, -fwl[..., t.in_to])
        in_mean = (
            -q / 2.0 if self.input_mode is QuantMode.TRUNCATE else np.zeros_like(q)
        )
        return (
            np.concatenate((mean, in_mean), axis=-1),
            np.concatenate((var, q * q / 12.0), axis=-1),
        )

    def _coeff_power(self, fwl: np.ndarray) -> float:
        """The coefficient-quantization term, memoized on the coefficient
        slots' fractional word lengths."""
        coeff_fwl = fwl[self._coeff_slots]
        key = coeff_fwl.tobytes()
        found = self._coeff_cache.get(key)
        if found is None:
            residues = np.array([
                quantize_value(v, f, self.const_mode) - v
                for v, f in zip(self._coeff_values, coeff_fwl.tolist())
            ])
            found = float(residues @ self.gains.coeff_cov @ residues)
            remember(self._coeff_cache, key, found, _MEMO_CAP)
        return found

    # ------------------------------------------------------------------
    def noise_db(self, spec: FixedPointSpec) -> float:
        """Output noise power in dB."""
        return power_to_db(self.noise_power(spec))

    def violates(self, spec: FixedPointSpec, constraint_db: float) -> bool:
        """True when ``spec`` exceeds the allowed noise power."""
        return self.noise_db(spec) > constraint_db

    def breakdown(self, spec: FixedPointSpec) -> list[tuple[str, float]]:
        """Per-site variance contributions, for diagnostics and tests."""
        contributions: list[tuple[str, float]] = []
        fwl = spec.fwl_vector()
        iwl = spec.iwl_vector()
        edge = spec.edge_wl_matrix()
        for site in self.sites:
            k2, _k1 = self.gains.gain(site.gain_key)
            f_from, f_to = self._site_precisions(site, fwl, iwl, edge)
            if f_from <= f_to:
                continue
            q_to = 2.0 ** -float(f_to)
            q_from = 0.0 if f_from > 10 ** 6 else 2.0 ** -float(f_from)
            var = (q_to * q_to - q_from * q_from) / 12.0
            contributions.append((site.describe(self.slotmap), var * k2))
        contributions.sort(key=lambda item: -item[1])
        return contributions

    def _site_precisions(self, site: Site, fwl, iwl, edge) -> tuple[int, int]:
        if site.kind is SiteKind.ALIGN:
            return int(fwl[site.from_slot]), int(fwl[site.to_slot])
        if site.kind is SiteKind.MUL_EDGE:
            f_prod = int(fwl[site.from_slot])
            budget = int(edge[site.opid, site.pos])
            if budget >= NO_NARROW:
                return f_prod, f_prod
            return f_prod, min(f_prod, budget - int(iwl[site.from_slot]))
        if site.kind is SiteKind.MUL_OUT:
            op = self.program.op(site.opid)
            total = 0
            for pos, producer in enumerate(op.operands):
                f_prod = int(fwl[producer])
                budget = int(edge[site.opid, pos])
                if budget >= NO_NARROW:
                    total += f_prod
                else:
                    total += min(f_prod, budget - int(iwl[producer]))
            return total, int(fwl[site.opid])
        # INPUT
        return 10 ** 7, int(fwl[site.to_slot])


class GroupTrials:
    """The trial table of one joint SLP round (see
    :meth:`AccuracyModel.group_trials`).

    Row ``i < K`` of ``bounds`` is candidate group ``i``'s validity
    trial; the rows after it are the pair trials ``(i, j)``, ``i < j``,
    in row-major order.  Each row holds the dB bounds
    :meth:`AccuracyModel._row_bounds` computed, or, once a visit has
    re-asked it, its exact dB twice.  Tables are shared by every visit
    of the round, across constraints and threads: a recheck only ever
    narrows a row to the value inside its bounds.
    """

    __slots__ = ("model", "groups", "bounds")

    def __init__(
        self,
        model: AccuracyModel,
        groups: tuple[tuple[tuple[int, ...], int], ...],
        bounds: np.ndarray,
    ) -> None:
        self.model = model
        self.groups = groups
        self.bounds = bounds

    @property
    def charge(self) -> int:
        """Rows this table counts against ``_TABLE_ROW_CAP``."""
        return self.bounds.shape[1] + _TABLE_KEY_ROWS

    def violations(
        self,
        spec: FixedPointSpec,
        constraint_db: float,
        first: np.ndarray | None = None,
        second: np.ndarray | None = None,
    ) -> np.ndarray:
        """Whether each validity trial (``first`` and ``second``
        omitted), or each pair trial ``(first[p], second[p])`` with
        ``first[p] < second[p]``, exceeds ``constraint_db``.

        Entry for entry, this is ``power_to_db(noise_power(trial)) >
        constraint_db`` of the trial on ``spec``, the state the table
        was built for.  A row whose bounds straddle the constraint is
        re-asked exactly: ``spec`` is saved, takes the trial's
        ``SETMAXWL`` writes and is reverted, and the row keeps the
        exact dB for later visits.
        """
        count = len(self.groups)
        if first is None:
            first = second = rows = np.arange(count)
        else:
            rows = count + first * (2 * count - first - 3) // 2 + second - 1
        low, high = self.bounds[:, rows]
        violated = low > constraint_db
        undecided = ~violated & ~(high <= constraint_db)
        for m in np.flatnonzero(undecided).tolist():
            exact = self._recheck(spec, int(first[m]), int(second[m]))
            self.bounds[:, rows[m]] = exact
            violated[m] = exact > constraint_db
        return violated

    def _recheck(self, spec: FixedPointSpec, first: int, second: int) -> float:
        """The exact dB of the trial that applies group ``first``, then
        group ``second`` (a validity trial applies its group twice,
        which changes nothing)."""
        model = self.model
        model.table_rechecks += 1
        token = spec.save()
        for lanes, wl in (self.groups[first], self.groups[second]):
            spec.write_all(spec.group_writes(model.program, lanes), wl)
        exact = model.noise_db(spec)
        spec.revert(token)
        return exact


def build_accuracy_model(
    program: Program,
    slotmap: SlotMap | None = None,
    n_ref_outputs: int = 4,
    seed: int = 90210,
    **kwargs,
) -> AccuracyModel:
    """Extract gains and build an :class:`AccuracyModel` in one call."""
    slotmap = slotmap or SlotMap(program)
    gains = extract_gains(program, slotmap, n_ref_outputs=n_ref_outputs,
                          seed=seed)
    return AccuracyModel(program, slotmap, gains, **kwargs)

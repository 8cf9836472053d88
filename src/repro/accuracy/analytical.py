"""Closed-form accuracy evaluation (the paper's ``EVALACC``).

Given the spec-independent site gains (``repro.accuracy.adjoint``) the
output noise power is a closed-form function of the fixed-point
specification:

``P(spec) = sum_i var_i(spec) * K2_i  +  (sum_i mean_i(spec) * K1_i)^2
            + dc(spec)' C dc(spec)``

Evaluation is vectorized numpy over the site tables, so a call costs
microseconds — which is what makes the O(candidates^2) accuracy
conflict detection of the paper's Fig. 1c practical, exactly as
ID.Fix's generated noise expression did for the original.  A search
that asks about a whole neighbourhood of single-root moves evaluates
them as the rows of one matrix (:meth:`AccuracyModel.move_violations`)
and gets the decisions a per-move loop would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.accuracy.adjoint import NoiseGains, extract_gains
from repro.accuracy.sites import Site, SiteKind, enumerate_sites
from repro.fixedpoint.quantize import QuantMode, quantize_value
from repro.fixedpoint.spec import NO_NARROW, FixedPointSpec, SlotMap
from repro.ir.program import Program
from repro.utils import power_to_db, remember

__all__ = ["AccuracyModel", "build_accuracy_model"]

#: Most memoized noise states per model, and separately most memoized
#: trial questions, neighbourhoods and coefficient terms.  The paper
#: grid touches at most ~5,300 distinct states per kernel; at ~0.5 KB
#: of key each this caps a long-lived model (``repro serve``) near
#: 10 MB.  Trial questions of one SLP round share their base-state key,
#: so each costs far less; a neighbourhood (~1.5 KB) is asked once per
#: search iteration, and the paper grid holds ~500 of them per kernel.
_MEMO_CAP = 1 << 14

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
        self._coeff_slots = np.array(
            [entry.slot for entry in gains.coeff_entries], dtype=np.int64
        )
        self._coeff_values = np.array(
            [entry.value for entry in gains.coeff_entries], dtype=np.float64
        )
        #: Per slot: whether it is the root of a tie group that holds a
        #: coefficient slot (only a move of such a root changes the
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
        self._trial_memo: dict[Hashable, float] = {}
        self._move_memo: dict[Hashable, np.ndarray] = {}
        #: Every accuracy question, counted once: each :meth:`noise_power`
        #: call (memo hits included) plus each trial question the trial
        #: memo answered (a trial miss counts through its
        #: :meth:`noise_power` call).
        self.eval_count = 0
        #: Calls that missed the memo and evaluated the closed form.
        self.miss_count = 0
        #: :meth:`trial_noise_power` questions, and those its memo answered.
        self.trial_questions = 0
        self.trial_hits = 0
        #: :meth:`move_violations` calls, the neighbourhoods its memo
        #: answered, the rows the batched closed form evaluated, and the
        #: rows too close to the constraint to decide from the matrix
        #: (each re-asked through :meth:`noise_power`, so it also counts
        #: in ``eval_count``).
        self.batch_calls = 0
        self.batch_hits = 0
        self.batch_rows = 0
        self.batch_rechecks = 0

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

    def trial_noise_power(
        self,
        spec: FixedPointSpec,
        question: Hashable,
        apply: Callable[[FixedPointSpec], None],
    ) -> float:
        """Noise power of ``spec`` after ``apply(spec)``; ``spec`` is kept.

        Memoized on ``question``, which must determine the trial state:
        callers build it from ``spec.state_key()`` and everything
        ``apply`` writes, so the answer is a pure function of (model,
        question) and may be shared like the state memo.  A miss saves
        the spec, applies the trial, asks :meth:`noise_power` and
        reverts; a hit does not touch ``spec``.
        """
        self.trial_questions += 1
        found = self._trial_memo.get(question)
        if found is not None:
            self.trial_hits += 1
            self.eval_count += 1
            return found
        token = spec.save()
        apply(spec)
        found = self.noise_power(spec)
        spec.revert(token)
        remember(self._trial_memo, question, found, _MEMO_CAP)
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
        rows of one closed-form matrix (:meth:`_move_bounds`), each row
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

    def _move_bounds(
        self, spec: FixedPointSpec, roots: np.ndarray, wls: np.ndarray
    ) -> np.ndarray:
        """dB values of ``P - B`` and ``P + B`` per move, as a (2, M) array.

        ``P`` is a row's batched noise power and ``B`` bounds how far it
        may lie from :meth:`noise_power` of the moved spec.  The site
        moments of a row are the single state's elementwise floats;
        only the summation order differs (one matrix-vector product per
        sum, against per-class ``np.dot`` calls).  With ``V`` the
        variance sum, ``M`` the mean sum, ``A`` the absolute mean sum
        and ``C`` the coefficient term, either order errs by at most
        ``gamma`` times a sum's absolute sum.  Every variance term is
        ``>= 0`` (``K2`` gains are sums of squares), so ``|dV| <= 2
        gamma V`` and ``|dM| <= dM = 2 gamma A`` between the two
        evaluations, and

        ``B = 2 gamma V + dM (2|M| + dM) + 6 u P + 2^-40 P``

        where ``6 u P`` covers the three roundings of ``V + M*M + C`` on
        each side and ``2^-40 P`` the dB conversion.  A row with
        ``P - B <= 0`` gets NaN bounds, so it is always re-asked.
        """
        count = len(roots)
        self.batch_rows += count
        roots = self.slotmap.root[roots]
        fwl = spec.fwl_vector()
        iwl = spec.iwl_vector()
        # Row m: the spec's fwl vector with root m's tie group moved.
        rows = np.where(
            self.slotmap.root == roots[:, None],
            (wls - iwl[roots]).astype(np.int32)[:, None],
            fwl,
        )
        mean, var = self._site_moments(rows, iwl, spec.edge_wl_matrix())
        var_total = var @ self._k2
        mean_total = mean @ self._k1
        mean_abs = np.abs(mean) @ np.abs(self._k1)
        coeff = np.zeros(count)
        if self.include_coeff_error and self._coeff_slots.size:
            # Moves of a root without a coefficient slot keep the base
            # state's term; the others look their own up.
            coeff[:] = self._coeff_power(fwl)
            for m in np.flatnonzero(self._coeff_root[roots]).tolist():
                coeff[m] = self._coeff_power(rows[m])
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
            bounds = 10.0 * np.log10(np.stack((low, power + bound)))
        bounds[:, ~(low > 0.0)] = np.nan
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
        MUL_EDGE, MUL_OUT, INPUT along the last axis), for one fwl vector
        or for a matrix of them (one state per row; ``iwl`` and ``edge``
        are shared).  All of it is elementwise, so a row's floats do not
        depend on the other rows.
        """
        t = self._tables
        # Fractional bits each multiply consumes its operands at: the
        # producer's, narrowed to the edge word length when one is set.
        f_prod = fwl[..., self._edge_prod]
        budget = edge[self._edge_op, self._edge_pos]
        f_cons = np.where(
            budget >= NO_NARROW,
            f_prod,
            np.minimum(f_prod, budget - iwl[self._edge_prod]),
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

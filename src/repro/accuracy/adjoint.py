"""Noise-gain extraction by reverse-mode differentiation.

The analytical accuracy model needs, for every quantization site, the
gain with which the site's error reaches the program output:
``K2 = sum_d h[d]^2`` (incoherent, white part) and ``K1 = sum_d h[d]``
(coherent, bias part), where ``h`` is the impulse response from the
site to the output.

These are extracted *once per program*: build the program's
:class:`~repro.ir.instances.InstanceGraph` (every executed instance with
its operand instances), evaluate it on one random stimulus, then
back-propagate adjoints from a few steady-state output instances.
Because each executed instance of a site injects an independent error
realization, ``K2`` is the sum of squared per-instance adjoints, while
values that are quantized once and reused (array cells, compile-time
constants) accumulate their adjoints coherently through the graph's
def-use links — reverse mode gets all of this right with no special
cases.

For constants/coefficients the error is deterministic, not white, so
instead of moments we extract the sensitivity covariance
``C[i][j] = E_o[g_i g_j]`` over reference outputs; the evaluator then
adds the exact deterministic power ``dc' C dc`` for the current
coefficient quantization residues ``dc``.

This is the first-order (Taylor/perturbation) model of the accuracy
literature the paper builds on; for linear kernels it is exact.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import AccuracyError
from repro.fixedpoint.spec import SlotMap
from repro.ir.optypes import OpKind
from repro.ir.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.instances import InstanceGraph

__all__ = ["CoeffEntry", "NoiseGains", "extract_gains"]

#: Instances per accumulation step of the per-site gain sums.  It bounds
#: the step's masks and gathered values to a few hundred KB; a
#: paper-sized program has about 60,000 instances per reference output.
_GAIN_CHUNK = 4096


@dataclass(frozen=True)
class CoeffEntry:
    """One deterministic (constant) value tracked for sensitivity."""

    slot: int
    value: float
    label: str


@dataclass
class NoiseGains:
    """Per-site noise gains to the program output."""

    node_k2: dict[int, float] = field(default_factory=dict)
    node_k1: dict[int, float] = field(default_factory=dict)
    edge_k2: dict[tuple[int, int], float] = field(default_factory=dict)
    edge_k1: dict[tuple[int, int], float] = field(default_factory=dict)
    input_k2: dict[str, float] = field(default_factory=dict)
    input_k1: dict[str, float] = field(default_factory=dict)
    coeff_entries: list[CoeffEntry] = field(default_factory=list)
    coeff_cov: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    n_ref_outputs: int = 0

    def gain(self, gain_key: tuple) -> tuple[float, float]:
        """(K2, K1) for a site's ``gain_key``."""
        kind = gain_key[0]
        if kind == "node":
            return (self.node_k2.get(gain_key[1], 0.0),
                    self.node_k1.get(gain_key[1], 0.0))
        if kind == "edge":
            key = (gain_key[1], gain_key[2])
            return self.edge_k2.get(key, 0.0), self.edge_k1.get(key, 0.0)
        if kind == "input":
            return (self.input_k2.get(gain_key[1], 0.0),
                    self.input_k1.get(gain_key[1], 0.0))
        raise AccuracyError(f"unknown gain key {gain_key!r}")


def _random_inputs(program: Program, rng: np.random.Generator) -> dict[str, np.ndarray]:
    inputs = {}
    for decl in program.input_arrays():
        lo, hi = decl.value_range  # type: ignore[misc]
        inputs[decl.name] = rng.uniform(lo, hi, size=decl.shape)
    return inputs


def _adjoints(walk: tuple, ref: int) -> list[float]:
    """Adjoint of every instance w.r.t. the value of instance ``ref``.

    ``walk`` holds each instance's two operand slots and their partials
    (see :func:`_walk_buffers`).  A visited instance adds to operand 0
    first, so a value used twice (``x * x``) takes its terms in operand
    order.  The adjoints are a list: ``+=`` on an ``array('d')`` item
    boxes and unboxes a float on every step.
    """
    first, second, partial_first, partial_second = walk
    adj = [0.0] * (len(first) + 1)
    adj[ref] = 1.0
    for i in range(ref, -1, -1):
        a = adj[i]
        if a == 0.0:
            continue
        adj[first[i]] += a * partial_first[i]
        adj[second[i]] += a * partial_second[i]
    return adj


def _walk_buffers(graph: InstanceGraph, partials: np.ndarray) -> tuple:
    """Read-only operand and partial buffers of the reverse walks.

    An absent operand points at an extra last adjoint slot with a zero
    partial, which no instance reads.  Flat ``array`` buffers hold 8
    bytes an entry, where lists would hold a boxed number each.
    """
    spare = graph.n_instances
    slots = np.where(graph.operands >= 0, graph.operands, spare)
    return (
        array("q", slots[0].tobytes()),
        array("q", slots[1].tobytes()),
        array("d", partials[0].tobytes()),
        array("d", partials[1].tobytes()),
    )


def extract_gains(
    program: Program,
    slotmap: SlotMap | None = None,
    n_ref_outputs: int = 4,
    seed: int = 90210,
) -> NoiseGains:
    """Extract noise gains for ``program``.

    ``n_ref_outputs`` steady-state output instances (the last ones
    produced) are back-propagated and the per-site gains averaged; for
    time-invariant kernels they agree, and averaging suppresses edge
    effects of finite analysis length.
    """
    # Imported on first use: every CLI start loads this module, and the
    # graph module's compile would add to each start's set-up time.
    from repro.ir.instances import instance_graph

    if n_ref_outputs < 1:
        raise AccuracyError(
            f"n_ref_outputs must be at least 1, got {n_ref_outputs}"
        )
    slotmap = slotmap or SlotMap(program)
    rng = np.random.default_rng(seed)
    graph = instance_graph(program)
    values = graph.values(_random_inputs(program, rng))

    if not graph.output_instances.size:
        raise AccuracyError(
            f"program {program.name!r} produced no output stores"
        )
    refs = graph.output_instances[-n_ref_outputs:].tolist()

    coeff_entries, coeff_cells = _collect_coeff_entries(program, slotmap, graph)
    input_cells = {
        decl.name: np.arange(
            graph.source[decl.name],
            graph.source[decl.name] + decl.size,
            dtype=np.int64,
        )
        for decl in program.input_arrays()
    }

    const_ops = [
        op.opid for op in program.all_ops() if op.kind is OpKind.CONST
    ]

    gains = NoiseGains(n_ref_outputs=len(refs))
    n_coeff = len(coeff_entries)
    cov = np.zeros((n_coeff, n_coeff), dtype=np.float64)

    partials = graph.partials(values)
    walk = _walk_buffers(graph, partials)
    sums = _InstanceGainSums(graph, partials)
    input_k2: dict[str, float] = {}
    input_k1: dict[str, float] = {}

    for ref in refs:
        adj = np.array(_adjoints(walk, ref))
        sums.add(adj, ref)
        for name, cells in input_cells.items():
            cell_adj = adj[cells]
            input_k2[name] = input_k2.get(name, 0.0) + float(
                np.dot(cell_adj, cell_adj)
            )
            input_k1[name] = input_k1.get(name, 0.0) + float(cell_adj.sum())
        g = np.zeros(n_coeff, dtype=np.float64)
        for idx, cell in enumerate(coeff_cells):
            if isinstance(cell, int):  # static CONST op: coherent sum
                g[idx] = _coherent_static_adjoint(graph, adj, cell, ref)
            else:  # pseudo instance id of a coefficient array cell
                g[idx] = adj[cell[1]]
        cov += np.outer(g, g)

    node_k2, node_k1, edge_k2, edge_k1 = sums.dicts()
    scale = 1.0 / len(refs)
    gains.node_k2 = {k: v * scale for k, v in node_k2.items()}
    gains.node_k1 = {k: v * scale for k, v in node_k1.items()}
    gains.edge_k2 = {k: v * scale for k, v in edge_k2.items()}
    gains.edge_k1 = {k: v * scale for k, v in edge_k1.items()}
    gains.input_k2 = {k: v * scale for k, v in input_k2.items()}
    gains.input_k1 = {k: v * scale for k, v in input_k1.items()}
    gains.coeff_entries = coeff_entries
    gains.coeff_cov = cov * scale
    # Coherent CONST gains were already folded into coeff_cov; drop the
    # spurious per-instance const aggregates (constants are not white
    # noise sources).
    for opid in const_ops:
        gains.node_k2.pop(opid, None)
        gains.node_k1.pop(opid, None)
    return gains


class _InstanceGainSums:
    """Per-site sums of per-instance adjoints over an instance graph.

    For every executed instance ``i`` of a static op ``s`` with a
    nonzero adjoint ``a``, node ``s`` gains ``a * a`` (K2) and ``a``
    (K1), and each operand edge ``(s, pos)`` gains ``g * g`` and ``g``
    with ``g = a * partials[i][pos]``.  ``np.add.at`` adds unbuffered
    in index order, so over chunks taken in instance order every key
    receives the same float additions in the same order as a loop over
    the instances would make.
    """

    def __init__(self, graph: InstanceGraph, partials: np.ndarray) -> None:
        n_static = graph.first_pseudo_id
        self.arity = int(graph.arity.max(initial=0))
        self.static = graph.static.astype(np.int32)
        self.n_partials = graph.arity
        self.partials = partials[:self.arity]
        self.node_k2 = np.zeros(n_static)
        self.node_k1 = np.zeros(n_static)
        self.node_seen = np.zeros(n_static, dtype=bool)
        self.edge_k2 = np.zeros((self.arity, n_static))
        self.edge_k1 = np.zeros((self.arity, n_static))
        self.edge_seen = np.zeros((self.arity, n_static), dtype=bool)

    def add(self, adj: np.ndarray, ref: int) -> None:
        """Add the instances ``0 .. ref`` of one reference's adjoints."""
        n_static = self.node_seen.size
        for start in range(0, ref + 1, _GAIN_CHUNK):
            stop = min(start + _GAIN_CHUNK, ref + 1)
            a = adj[start:stop]
            static = self.static[start:stop]
            keep = (a != 0.0) & (static >= 0) & (static < n_static)
            a = a[keep]
            sites = static[keep]
            np.add.at(self.node_k2, sites, a * a)
            np.add.at(self.node_k1, sites, a)
            self.node_seen[sites] = True
            n_partials = self.n_partials[start:stop][keep]
            for pos in range(self.arity):
                has = n_partials > pos
                g = a[has] * self.partials[pos, start:stop][keep][has]
                edge_sites = sites[has]
                np.add.at(self.edge_k2[pos], edge_sites, g * g)
                np.add.at(self.edge_k1[pos], edge_sites, g)
                self.edge_seen[pos, edge_sites] = True

    def dicts(self) -> tuple[dict, dict, dict, dict]:
        """Node K2/K1 and edge K2/K1 sums of every touched key."""
        nodes = np.flatnonzero(self.node_seen)
        positions, sites = np.nonzero(self.edge_seen)
        edges = list(zip(sites.tolist(), positions.tolist()))
        return (
            dict(zip(nodes.tolist(), self.node_k2[nodes].tolist())),
            dict(zip(nodes.tolist(), self.node_k1[nodes].tolist())),
            dict(zip(edges, self.edge_k2[positions, sites].tolist())),
            dict(zip(edges, self.edge_k1[positions, sites].tolist())),
        )


def _coherent_static_adjoint(
    graph: InstanceGraph, adj: np.ndarray, opid: int, ref: int
) -> float:
    """Coherent adjoint sum over all instances of a static op.

    Summed sequentially in instance order (``cumsum``, not the pairwise
    ``np.sum`` nor Python's compensated ``sum``), skipping zeros.
    """
    insts = graph.op_instances[opid]
    terms = adj[insts[insts <= ref]]
    terms = terms[terms != 0.0]
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def _collect_coeff_entries(
    program: Program, slotmap: SlotMap, graph: InstanceGraph
) -> tuple[list[CoeffEntry], list]:
    """Deterministic values to track: coeff cells, CONSTs, var inits.

    Returns parallel lists of entries and of "where to read the
    adjoint": either ``("cell", instance_id)`` for one-time pseudo
    sources or the static opid (int) for CONST ops whose instances must
    be summed coherently.
    """
    entries: list[CoeffEntry] = []
    cells: list = []
    for decl in program.coeff_arrays():
        slot = slotmap.slot_of_symbol(decl.name)
        first = graph.source[decl.name]
        assert decl.values is not None
        for flat, value in enumerate(decl.values.flat):
            entries.append(CoeffEntry(slot, float(value), f"{decl.name}[{flat}]"))
            cells.append(("cell", first + flat))
    for op in program.all_ops():
        if op.kind is OpKind.CONST:
            entries.append(CoeffEntry(op.opid, float(op.value), f"%{op.opid}"))  # type: ignore[arg-type]
            cells.append(op.opid)
    for var in program.variables.values():
        if var.init != 0.0:
            slot = slotmap.slot_of_symbol(var.name)
            entries.append(CoeffEntry(slot, var.init, f"${var.name}"))
            cells.append(("cell", graph.source["$" + var.name]))
    return entries, cells

"""Reference noise-gain extraction over the tracing interpreter.

This is how :func:`repro.accuracy.adjoint.extract_gains` computed its
gains before it moved onto the instance graph: run the tracing
:class:`~repro.ir.interp.Interpreter`, walk the trace once per
reference output with a numpy adjoint array, and sum per instance in
Python loops.  The tests hold every field of ``extract_gains`` to it
exactly, and ``benchmarks/test_bench_micro.py`` times it as the
``analysis_prefix`` baseline.
"""

from __future__ import annotations

import numpy as np

from repro.accuracy import adjoint
from repro.accuracy.adjoint import CoeffEntry, NoiseGains
from repro.ir import ExecutionTrace, Interpreter, OpKind


def backpropagate(trace: ExecutionTrace, ref: int) -> np.ndarray:
    """Adjoint of every instance w.r.t. the value of instance ``ref``."""
    adj = np.zeros(trace.n_instances, dtype=np.float64)
    adj[ref] = 1.0
    operands = trace.operands
    partials = trace.partials
    for i in range(ref, -1, -1):
        a = adj[i]
        if a == 0.0:
            continue
        for j, p in zip(operands[i], partials[i]):
            adj[j] += a * p
    return adj


def traced_adjoints(program, n_ref_outputs=4, seed=90210):
    """The tracing run plus one walk per reference output: the trace,
    the reference output instances and their adjoint arrays."""
    rng = np.random.default_rng(seed)
    trace = ExecutionTrace()
    Interpreter(program).run(adjoint._random_inputs(program, rng), trace=trace)
    refs = trace.output_instances[-n_ref_outputs:]
    return trace, refs, [backpropagate(trace, ref) for ref in refs]


def reference_gains(program, slotmap, n_ref_outputs=4, seed=90210) -> NoiseGains:
    """Every :class:`NoiseGains` field, summed instance by instance."""
    trace, refs, adjoints = traced_adjoints(program, n_ref_outputs, seed)
    pseudo_inst = {
        static: inst
        for inst, static in enumerate(trace.static)
        if static >= trace.first_pseudo_id
    }
    entries, cells = [], []
    for decl in program.coeff_arrays():
        slot = slotmap.slot_of_symbol(decl.name)
        for flat, value in enumerate(decl.values.flat):
            pseudo = trace.cell_sources[(decl.name, flat)]
            entries.append(CoeffEntry(slot, float(value), f"{decl.name}[{flat}]"))
            cells.append(("cell", pseudo_inst[pseudo]))
    const_ops = [op for op in program.all_ops() if op.kind is OpKind.CONST]
    for op in const_ops:
        entries.append(CoeffEntry(op.opid, float(op.value), f"%{op.opid}"))
        cells.append(("const", op.opid))
    for var in program.variables.values():
        if var.init != 0.0:
            pseudo = trace.cell_sources[("$" + var.name, 0)]
            slot = slotmap.slot_of_symbol(var.name)
            entries.append(CoeffEntry(slot, var.init, f"${var.name}"))
            cells.append(("cell", pseudo_inst[pseudo]))
    input_cells = {
        decl.name: np.array(sorted(
            pseudo_inst[pseudo]
            for (name, _flat), pseudo in trace.cell_sources.items()
            if name == decl.name
        ), dtype=np.int64)
        for decl in program.input_arrays()
    }

    sums: list[dict] = [{} for _ in range(6)]
    node_k2, node_k1, edge_k2, edge_k1, input_k2, input_k1 = sums
    cov = np.zeros((len(entries), len(entries)))
    for ref, adj in zip(refs, adjoints):
        for i in range(ref + 1):
            a = adj[i]
            if a == 0.0:
                continue
            s = trace.static[i]
            if s < 0 or s >= trace.first_pseudo_id:
                continue
            node_k2[s] = node_k2.get(s, 0.0) + a * a
            node_k1[s] = node_k1.get(s, 0.0) + a
            for pos, p in enumerate(trace.partials[i]):
                e = a * p
                edge_k2[(s, pos)] = edge_k2.get((s, pos), 0.0) + e * e
                edge_k1[(s, pos)] = edge_k1.get((s, pos), 0.0) + e
        for name, insts in input_cells.items():
            cell_adj = adj[insts]
            input_k2[name] = input_k2.get(name, 0.0) + float(
                np.dot(cell_adj, cell_adj)
            )
            input_k1[name] = input_k1.get(name, 0.0) + float(cell_adj.sum())
        g = np.zeros(len(entries))
        for idx, (kind, where) in enumerate(cells):
            if kind == "cell":
                g[idx] = adj[where]
                continue
            total = 0.0  # a CONST op: its instances' adjoints, in order
            for i in range(ref + 1):
                if trace.static[i] == where and adj[i] != 0.0:
                    total += adj[i]
            g[idx] = total
        cov += np.outer(g, g)

    scale = 1.0 / len(refs)
    node_k2, node_k1, edge_k2, edge_k1, input_k2, input_k1 = (
        {k: v * scale for k, v in d.items()} for d in sums
    )
    for op in const_ops:
        node_k2.pop(op.opid, None)
        node_k1.pop(op.opid, None)
    return NoiseGains(
        node_k2=node_k2, node_k1=node_k1, edge_k2=edge_k2, edge_k1=edge_k1,
        input_k2=input_k2, input_k1=input_k1, coeff_entries=entries,
        coeff_cov=cov * scale, n_ref_outputs=len(refs),
    )


def assert_same_gains(gains: NoiseGains, expected: NoiseGains) -> None:
    """Every field equal, the coefficient covariance byte for byte."""
    assert gains.node_k2 == expected.node_k2
    assert gains.node_k1 == expected.node_k1
    assert gains.edge_k2 == expected.edge_k2
    assert gains.edge_k1 == expected.edge_k1
    assert gains.input_k2 == expected.input_k2
    assert gains.input_k1 == expected.input_k1
    assert gains.coeff_entries == expected.coeff_entries
    assert gains.coeff_cov.shape == expected.coeff_cov.shape
    assert gains.coeff_cov.tobytes() == expected.coeff_cov.tobytes()
    assert gains.n_ref_outputs == expected.n_ref_outputs

"""The numpy-built instance graph against the tracing interpreter."""

import numpy as np
import pytest

from gain_reference import assert_same_gains, reference_gains
from repro.accuracy import adjoint, extract_gains
from repro.errors import InterpreterError
from repro.experiments.engine import KernelConfig, kernel_programs
from repro.fixedpoint import SlotMap
from repro.ir import (
    ExecutionTrace,
    Interpreter,
    ProgramBuilder,
    SymbolKind,
    loop_index,
)
from repro.ir.instances import instance_graph
from repro.kernels import kernel_names


def _assert_graph_equals_trace(program, inputs):
    trace = ExecutionTrace()
    outputs = Interpreter(program).run(inputs, trace=trace)
    graph = instance_graph(program)

    assert graph.n_instances == trace.n_instances
    assert graph.static.tolist() == trace.static
    assert graph.first_pseudo_id == trace.first_pseudo_id
    assert _pseudo_sources(program, graph) == trace.cell_sources
    assert graph.output_instances.tolist() == trace.output_instances
    operands = [
        tuple(row[:arity])
        for row, arity in zip(graph.operands.T.tolist(), graph.arity.tolist())
    ]
    assert operands == trace.operands
    static = np.array(trace.static)
    for opid, insts in graph.op_instances.items():
        assert insts.tolist() == np.flatnonzero(static == opid).tolist()

    values = graph.values(inputs)
    expected = np.zeros((2, trace.n_instances))
    for i, partials in enumerate(trace.partials):
        expected[:len(partials), i] = partials
    assert graph.partials(values).tobytes() == expected.tobytes()
    last_store = {}  # the last store into each output cell holds its value
    for inst in trace.output_instances:
        array = program.op(trace.static[inst]).array
        last_store[(array, trace.store_cell[inst])] = inst
    for (array, flat), inst in last_store.items():  # bits: signed zeros
        assert values[inst].tobytes() == outputs[array].flat[flat].tobytes()
    return graph


def _assert_graph_and_gains(program, inputs):
    """The graph equals the trace, and the gains the traced reference's
    (``tests/test_accuracy_adjoint.py`` checks the kernels' gains)."""
    graph = _assert_graph_equals_trace(program, inputs)
    slotmap = SlotMap(program)
    assert_same_gains(
        extract_gains(program, slotmap), reference_gains(program, slotmap)
    )
    return graph


def _pseudo_sources(program, graph):
    """(symbol, flat index) -> pseudo id of every pseudo-source instance,
    keyed as ``ExecutionTrace.cell_sources``."""
    found = {}
    for decl in program.arrays.values():
        if decl.kind not in (SymbolKind.INPUT, SymbolKind.COEFF):
            assert graph.static[graph.source[decl.name]] == -1
            continue
        first = graph.source[decl.name]
        for flat in range(decl.size):
            found[(decl.name, flat)] = int(graph.static[first + flat])
    for var in program.variables.values():
        static = int(graph.static[graph.source["$" + var.name]])
        if static >= graph.first_pseudo_id:
            found[("$" + var.name, 0)] = static
    return found


def _random_inputs(program, seed=90210):
    return adjoint._random_inputs(program, np.random.default_rng(seed))


class TestKernels:
    @pytest.mark.parametrize("kernel", ["fir", "iir", "conv"])
    def test_paper_twins(self, kernel):
        twin = kernel_programs(KernelConfig(), kernel)[1]
        _assert_graph_equals_trace(twin, _random_inputs(twin))

    @pytest.mark.parametrize("kernel", kernel_names())
    def test_small_kernels(self, small_kernels, kernel):
        program = small_kernels[kernel]
        _assert_graph_equals_trace(program, _random_inputs(program))


class TestBuiltPrograms:
    def test_state_array_stored_reloaded_and_overwritten(self):
        b = ProgramBuilder("delay")
        x = b.input_array("x", (6,), value_range=(-1.0, 1.0))
        s = b.state_array("s", (2,))
        y = b.output_array("y", (6,))
        i = loop_index("i")
        with b.loop("i", 6):
            with b.block("body"):
                old = b.load(s, 0)
                b.store(s, 0, b.load(s, 1))
                b.store(s, 1, b.add(b.load(x, i), old))
                again = b.load(s, 1)
                b.store(s, 1, b.mul(again, b.const(0.5)))
                b.store(y, i, b.add(b.load(s, 0), b.load(s, 1)))
        program = b.build()
        graph = _assert_graph_and_gains(program, _random_inputs(program))
        first_load = graph.op_instances[old.opid][0]
        assert graph.operands[0, first_load] == graph.source["s"]

    def test_variables_read_before_write_and_nonzero_init(self):
        b = ProgramBuilder("vars")
        x = b.input_array("x", (4,), value_range=(-1.0, 1.0))
        y = b.output_array("y", (4,))
        acc = b.scalar("acc")
        gain = b.scalar("gain", init=0.75)
        i = loop_index("i")
        with b.loop("i", 4):
            with b.block("body"):
                scaled = b.mul(b.getvar(acc), b.getvar(gain))
                b.setvar(acc, b.add(scaled, b.load(x, i)))
                b.store(y, i, b.getvar(acc))
            with b.block("tail"):
                b.setvar(gain, b.mul(b.getvar(gain), b.const(0.5)))
        program = b.build()
        graph = _assert_graph_and_gains(program, _random_inputs(program))
        sources = _pseudo_sources(program, graph)
        assert ("$gain", 0) in sources and ("$acc", 0) not in sources

    def test_operand_used_twice(self):
        """``v - v`` adds ``+1`` then ``-1`` to the adjoint 0.1 that the
        later ``v * 0.1`` gave ``v``: the order shows in its gains."""
        b = ProgramBuilder("square")
        x = b.input_array("x", (3,), value_range=(-1.0, 1.0))
        y = b.output_array("y", (3,))
        i = loop_index("i")
        with b.loop("i", 3):
            with b.block("body"):
                u = b.load(x, i)
                square = b.mul(u, u)
                v = b.load(x, i)
                zero = b.sub(v, v)
                scaled = b.mul(v, b.const(0.1))
                b.store(y, i, b.add(b.add(zero, square), scaled))
        program = b.build()
        graph = _assert_graph_and_gains(program, _random_inputs(program))
        for val in (square, zero):
            inst = graph.op_instances[val.opid][0]
            assert graph.operands[0, inst] == graph.operands[1, inst]
        assert extract_gains(program).node_k1[v.opid] == (0.1 + 1.0) - 1.0

    def test_min_max_ties_abs_of_zeros_neg_and_sub(self):
        b = ProgramBuilder("select")
        x = b.input_array("x", (4, 2), value_range=(-1.0, 1.0))
        y = b.output_array("y", (4, 6))
        i = loop_index("i")
        with b.loop("i", 4):
            with b.block("body"):
                lo, hi = b.load(x, i, 0), b.load(x, i, 1)
                b.store(y, (i, 0), b.min_(lo, hi))
                b.store(y, (i, 1), b.max_(lo, hi))
                b.store(y, (i, 2), b.abs_(lo))
                b.store(y, (i, 3), b.abs_(hi))
                b.store(y, (i, 4), b.neg(lo))
                b.store(y, (i, 5), b.sub(lo, hi))
        program = b.build()
        rows = [[0.5, 0.5], [0.0, -0.0], [-0.0, 0.0], [-0.25, 0.75]]
        _assert_graph_and_gains(program, {"x": np.array(rows)})

    def test_sibling_loops_reuse_a_variable(self):
        b = ProgramBuilder("siblings")
        x = b.input_array("x", (6,), value_range=(-1.0, 1.0))
        y = b.output_array("y", (2,))
        acc = b.scalar("acc")
        k = loop_index("k")
        with b.loop("n", 2):
            with b.block("init"):
                b.setvar(acc, b.const(0.0))
            with b.loop("k", 2):
                with b.block("first"):
                    b.setvar(acc, b.add(b.getvar(acc), b.load(x, k)))
            with b.loop("k", 3):
                with b.block("second"):
                    b.setvar(acc, b.sub(b.getvar(acc), b.load(x, k + 3)))
            with b.block("out"):
                b.store(y, loop_index("n"), b.getvar(acc))
        program = b.build()
        _assert_graph_and_gains(program, _random_inputs(program))

    def test_two_dimensional_array(self):
        b = ProgramBuilder("grid")
        img = b.input_array("img", (3, 4), value_range=(-1.0, 1.0))
        out = b.output_array("out", (2, 3))
        r, c = loop_index("r"), loop_index("c")
        with b.loop("r", 2):
            with b.loop("c", 3):
                with b.block("body"):
                    b.store(out, (r, c), b.add(
                        b.load(img, r, c), b.load(img, r + 1, c + 1)
                    ))
        program = b.build()
        _assert_graph_and_gains(program, _random_inputs(program))


class TestOutOfBounds:
    def test_extract_gains_raises_the_interpreter_error(self):
        b = ProgramBuilder("overrun")
        x = b.input_array("x", (4,), value_range=(-1.0, 1.0))
        y = b.output_array("y", (5,))
        i = loop_index("i")
        with b.loop("i", 4):
            with b.block("body"):
                b.store(y, i, b.mul(b.load(x, i), b.const(0.5)))
        program = b.build()
        program.schedule[0].trip = 5  # i = 4 reads past x's 4 cells
        with pytest.raises(InterpreterError) as expected:
            Interpreter(program).run(_random_inputs(program))
        with pytest.raises(InterpreterError) as raised:
            extract_gains(program)
        assert str(raised.value) == str(expected.value)
        assert "load x[4] out of bounds (4,)" in str(raised.value)

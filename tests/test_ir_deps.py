"""Dependence analysis tests."""

from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IRError, ValidationError
from repro.experiments import KernelConfig
from repro.ir import (
    OpKind,
    ProgramBuilder,
    build_dependence_graph,
    may_alias,
    validate_program,
)
from repro.ir import deps as deps_module
from repro.ir.deps import (
    DependenceGraph,
    is_loop_invariant_load,
    lexicographic_topological_order,
)
from repro.kernels import kernel_catalog


def _two_phase_program():
    """store x[0]; load x[0]; load x[1]; store y[0] — known dep shape."""
    b = ProgramBuilder("p")
    x = b.state_array("x", (2,))
    y = b.output_array("y", (1,))
    with b.block("blk"):
        c = b.const(0.5)
        b.store(x, 0, c)                 # op1
        first = b.load(x, 0)             # op2: RAW on store
        second = b.load(x, 1)            # op3: disjoint
        b.store(y, 0, b.add(first, second))
    return b.build()


class TestMayAlias:
    def test_same_cell(self):
        program = _two_phase_program()
        ops = program.blocks["blk"].ops
        store_x0 = ops[1]
        load_x0 = ops[2]
        load_x1 = ops[3]
        assert may_alias(store_x0, load_x0)
        assert not may_alias(store_x0, load_x1)

    def test_different_arrays_never_alias(self):
        program = _two_phase_program()
        ops = program.blocks["blk"].ops
        assert not may_alias(ops[1], ops[5])  # x store vs y store


class TestDependenceGraph:
    def test_raw_memory_edge(self):
        program = _two_phase_program()
        deps = build_dependence_graph(program.blocks["blk"])
        assert deps.depends(2, 1)        # load x[0] after store x[0]
        assert not deps.depends(3, 1)    # load x[1] independent

    def test_independence_symmetric(self):
        program = _two_phase_program()
        deps = build_dependence_graph(program.blocks["blk"])
        assert deps.independent(2, 3)
        assert deps.independent(3, 2)
        assert not deps.independent(1, 2)

    def test_scalar_var_ordering(self, tiny_program):
        body = tiny_program.blocks["body"]
        deps = build_dependence_graph(body)
        opids = [op.opid for op in body.ops]
        read = next(o for o in body.ops if o.kind is OpKind.READVAR)
        write = next(o for o in body.ops if o.kind is OpKind.WRITEVAR)
        assert deps.depends(write.opid, read.opid)
        assert opids  # sanity

    def test_transitive_closure(self, tiny_program):
        body = tiny_program.blocks["body"]
        deps = build_dependence_graph(body)
        load = next(o for o in body.ops if o.kind is OpKind.LOAD)
        write = next(o for o in body.ops if o.kind is OpKind.WRITEVAR)
        assert deps.depends(write.opid, load.opid)  # via the add

    def test_topological_order_respects_deps(self, small_fir):
        for block in small_fir.blocks.values():
            deps = build_dependence_graph(block)
            order = deps.topological_order()
            position = {opid: i for i, opid in enumerate(order)}
            for src, dst, _ in deps.edges():
                assert position[src] < position[dst]


class TestLoopInvariantLoads:
    def test_conv_kernel_loads_invariant(self, small_conv):
        body = small_conv.blocks["body"]
        ker_loads = [o for o in body.ops
                     if o.kind is OpKind.LOAD and o.array == "ker"]
        img_loads = [o for o in body.ops
                     if o.kind is OpKind.LOAD and o.array == "img"]
        assert ker_loads and img_loads
        assert all(is_loop_invariant_load(small_conv, o) for o in ker_loads)
        assert not any(is_loop_invariant_load(small_conv, o) for o in img_loads)

    def test_fir_coeff_loads_not_invariant(self, small_fir):
        """FIR's h[4k+j] varies with the tap loop: not hoistable."""
        body = small_fir.blocks["body"]
        h_loads = [o for o in body.ops
                   if o.kind is OpKind.LOAD and o.array == "h"]
        assert h_loads
        assert not any(is_loop_invariant_load(small_fir, o) for o in h_loads)

    def test_non_load_is_not_invariant(self, small_fir):
        body = small_fir.blocks["body"]
        mul = next(o for o in body.ops if o.kind is OpKind.MUL)
        assert not is_loop_invariant_load(small_fir, mul)


class TestCycleSafety:
    def test_kernel_blocks_are_dags(self, small_fir, small_iir, small_conv):
        for program in (small_fir, small_iir, small_conv):
            for block in program.blocks.values():
                deps = build_dependence_graph(block)
                graph = nx.DiGraph()
                graph.add_nodes_from(op.opid for op in block.ops)
                graph.add_edges_from((s, d) for s, d, _ in deps.edges())
                assert nx.is_directed_acyclic_graph(graph)

    def test_cycle_raises(self):
        with pytest.raises(IRError, match="cycle"):
            lexicographic_topological_order([1, 2, 3], [(1, 2), (2, 3), (3, 2)])
        with pytest.raises(IRError, match="cycle"):
            DependenceGraph(_fake_block(2), [(0, 1, "data"), (1, 0, "memory")])

    def test_validation_reports_a_cycle(self, monkeypatch):
        program = _two_phase_program()

        def cyclic(block):
            first, second = block.ops[0].opid, block.ops[1].opid
            return DependenceGraph(
                block, [(first, second, "data"), (second, first, "scalar")]
            )

        monkeypatch.setattr("repro.ir.validate.build_dependence_graph", cyclic)
        with pytest.raises(ValidationError, match="'blk' has a dependence cycle"):
            validate_program(program)


def _fake_block(n_ops: int):
    """A stand-in block: the graph only reads its ops' ids."""
    return SimpleNamespace(ops=[SimpleNamespace(opid=i) for i in range(n_ops)])


def _networkx_graph(block, edges) -> nx.DiGraph:
    """The graph the dependence analysis built with networkx."""
    graph = nx.DiGraph()
    for op in block.ops:
        graph.add_node(op.opid)
    for src, dst, dep in edges:
        graph.add_edge(src, dst, dep=dep)
    return graph


def _assert_matches_networkx(deps: DependenceGraph, graph: nx.DiGraph) -> None:
    assert deps.topological_order() == list(
        nx.lexicographical_topological_sort(graph)
    )
    assert list(deps.edges()) == list(graph.edges(data="dep"))
    for opid in graph:
        assert deps.ordering_predecessors(opid) == [
            pred
            for pred, _opid, data in graph.in_edges(opid, data=True)
            if data.get("dep") != "data"
        ]
        assert deps.descendants(opid) == nx.descendants(graph, opid)


#: Every catalog kernel at its default size, and the paper twins.
KERNEL_BUILDS = {
    **{name: factory for name, (factory, _doc) in kernel_catalog().items()},
    **{
        f"{name}-twin": twin
        for name, (_bench, twin) in KernelConfig().builders().items()
    },
}


class TestNetworkxParity:
    """The graph equals the networkx graph built from the same edges."""

    @pytest.mark.parametrize("kernel", sorted(KERNEL_BUILDS))
    def test_every_kernel_block(self, kernel):
        program = KERNEL_BUILDS[kernel]()
        for block in program.blocks.values():
            edges = list(deps_module._dependence_edges(block))
            deps = build_dependence_graph(block)
            _assert_matches_networkx(deps, _networkx_graph(block, edges))

    def test_repeated_pair_keeps_position_and_takes_later_class(self):
        b = ProgramBuilder("copy")
        acc = b.scalar("acc")
        out = b.output_array("y", (1,))
        with b.block("blk"):
            one = b.const(1.0)
            read = b.getvar(acc)
            write = b.setvar(acc, read)
            total = b.add(read, one)
            b.store(out, 0, total)
        block = b.build().blocks["blk"]
        edges = list(deps_module._dependence_edges(block))
        pair = (read.opid, write.opid)
        assert [dep for src, dst, dep in edges if (src, dst) == pair] == [
            "data",
            "scalar",
        ]
        deps = build_dependence_graph(block)
        # The pair keeps the position of its data edge, ahead of the
        # later data edge into the add, and takes the scalar class.
        assert [e for e in deps.edges() if e[0] == read.opid] == [
            (read.opid, write.opid, "scalar"),
            (read.opid, total.opid, "data"),
        ]
        assert deps.ordering_predecessors(write.opid) == [read.opid]
        _assert_matches_networkx(deps, _networkx_graph(block, edges))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_dags(self, data):
        n_ops = data.draw(st.integers(2, 14))
        forward = st.integers(0, n_ops - 2).flatmap(
            lambda a: st.tuples(st.just(a), st.integers(a + 1, n_ops - 1))
        )
        edges = data.draw(
            st.lists(
                st.tuples(forward, st.sampled_from(["data", "memory", "scalar"])),
                max_size=40,
            )
        )
        # Relabel so the block order is not the numeric order.
        labels = data.draw(st.permutations(range(100, 100 + n_ops)))
        block = SimpleNamespace(ops=[SimpleNamespace(opid=v) for v in labels])
        edges = [(labels[a], labels[b], dep) for (a, b), dep in edges]
        deps = DependenceGraph(block, edges)
        _assert_matches_networkx(deps, _networkx_graph(block, edges))

    def test_collapsed_tuple_nodes(self):
        nodes = [("s", 4), ("g", 1), ("s", 2), ("g", 0), ("s", 2)]
        edges = [(("s", 4), ("g", 0)), (("g", 1), ("s", 2)), (("g", 1), ("s", 2))]
        graph = nx.DiGraph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        assert lexicographic_topological_order(nodes, edges) == list(
            nx.lexicographical_topological_sort(graph)
        )

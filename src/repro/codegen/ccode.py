"""C code emission — the flow's source-to-source back-end (paper §IV).

Two emitters:

``emit_fixed_point_c``
    Bit-exact scalar fixed-point C: integer mantissas, explicit
    requantization shifts, wrap/saturate helpers.  Follows the
    interpreter discipline operation for operation, so a compiled
    binary reproduces :class:`~repro.fixedpoint.fxpinterp.FixedPointInterpreter`
    mantissa-for-mantissa (asserted by the integration tests when a C
    compiler is available).  Optionally embeds pre-quantized stimulus
    and a ``main`` that prints output mantissas.

``emit_simd_c``
    Fixed-point C over the abstract SIMD macro API the paper's
    back-end targets ("implements the SIMD groups using an abstract C
    macros API"): ``V2ADD``/``V4MUL_SHR``/``V2PACK``/... with a
    portable per-lane fallback header, so the output is compilable
    anywhere and retargetable by swapping the macro implementations
    for processor intrinsics.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import CodegenError
from repro.fixedpoint.fxpinterp import FxpConfig
from repro.fixedpoint.quantize import OverflowMode, QuantMode, float_to_mantissa
from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.block import BasicBlock
from repro.ir.deps import build_dependence_graph, lexicographic_topological_order
from repro.ir.index import AffineIndex
from repro.ir.ops import Operation
from repro.ir.optypes import OpKind
from repro.ir.program import BlockRef, LoopNode, Program
from repro.ir.symbols import SymbolKind
from repro.slp.groups import GroupSet, SIMDGroup, memory_lane_stride

__all__ = ["emit_fixed_point_c", "emit_simd_c"]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _c_index(index: tuple[AffineIndex, ...], shape: tuple[int, ...]) -> str:
    """Row-major flat C index expression for an affine subscript."""
    parts = []
    stride = 1
    strides = []
    for extent in reversed(shape):
        strides.append(stride)
        stride *= extent
    strides.reverse()
    for ix, dim_stride in zip(index, strides):
        term = _c_affine(ix)
        parts.append(term if dim_stride == 1 else f"({term}) * {dim_stride}")
    return " + ".join(parts) if parts else "0"


def _c_affine(ix: AffineIndex) -> str:
    parts = []
    for var, coeff in ix.terms:
        if coeff == 1:
            parts.append(var)
        else:
            parts.append(f"{coeff} * {var}")
    if ix.const or not parts:
        parts.append(str(ix.const))
    return " + ".join(parts).replace("+ -", "- ")


_PRELUDE = """\
#include <stdint.h>
#include <stdio.h>

/* Requantize v from (f_to + d) to f_to fractional bits.  d < 0 widens
 * (exact); ROUND_MODE selects truncation (0) or round-half-up (1). */
static inline int64_t requant(int64_t v, int d, int round_mode) {
    if (d <= 0) return v << (-d);
    if (round_mode) return (v + ((int64_t)1 << (d - 1))) >> d;
    return v >> d;  /* arithmetic shift: two's complement truncation */
}

static inline int32_t fit_wrap(int64_t v, int wl) {
    uint64_t span = (uint64_t)1 << wl;
    uint64_t m = (uint64_t)v & (span - 1);
    if (m >= span >> 1) return (int32_t)((int64_t)m - (int64_t)span);
    return (int32_t)m;
}

static inline int32_t fit_sat(int64_t v, int wl) {
    int64_t hi = ((int64_t)1 << (wl - 1)) - 1;
    int64_t lo = -((int64_t)1 << (wl - 1));
    if (v > hi) return (int32_t)hi;
    if (v < lo) return (int32_t)lo;
    return (int32_t)v;
}
"""


def _fit_call(config: FxpConfig) -> str:
    if config.overflow is OverflowMode.WRAP:
        return "fit_wrap"
    if config.overflow is OverflowMode.SATURATE:
        return "fit_sat"
    raise CodegenError(
        "C emission supports wrap/saturate overflow only "
        f"(got {config.overflow})"
    )


def _round_flag(mode: QuantMode) -> str:
    return "1" if mode is QuantMode.ROUND else "0"


def _array_initializer(values: list[int], per_line: int = 8) -> str:
    lines = []
    for start in range(0, len(values), per_line):
        chunk = ", ".join(str(v) for v in values[start:start + per_line])
        lines.append(f"    {chunk},")
    return "\n".join(lines)


def _declare_arrays(
    program: Program,
    spec: FixedPointSpec,
    config: FxpConfig,
    inputs: Mapping[str, np.ndarray] | None,
    lines: list[str],
) -> None:
    for decl in program.arrays.values():
        slot = spec.slotmap.slot_of_symbol(decl.name)
        fwl = spec.fwl(slot)
        size = decl.size
        if decl.kind is SymbolKind.COEFF:
            assert decl.values is not None
            mantissas = [
                float_to_mantissa(float(v), fwl, config.const_mode)
                for v in decl.values.flat
            ]
            lines.append(
                f"static const int32_t {decl.name}[{size}] = {{  /* Q fwl={fwl} */"
            )
            lines.append(_array_initializer(mantissas))
            lines.append("};")
        elif decl.kind is SymbolKind.INPUT and inputs is not None:
            data = np.asarray(inputs[decl.name], dtype=np.float64)
            mantissas = [
                float_to_mantissa(float(v), fwl, config.input_mode)
                for v in data.flat
            ]
            lines.append(
                f"static int32_t {decl.name}[{size}] = {{  /* Q fwl={fwl} */"
            )
            lines.append(_array_initializer(mantissas))
            lines.append("};")
        else:
            lines.append(
                f"static int32_t {decl.name}[{size}];  /* Q fwl={fwl} */"
            )
    for var in program.variables.values():
        slot = spec.slotmap.slot_of_symbol(var.name)
        mantissa = float_to_mantissa(var.init, spec.fwl(slot), config.const_mode)
        lines.append(f"static int32_t v_{var.name} = {mantissa};")


def _emit_structure(
    program: Program,
    emit_block,
    lines: list[str],
) -> None:
    def visit(items, depth: int) -> None:
        pad = "    " * depth
        for item in items:
            if isinstance(item, BlockRef):
                lines.append(f"{pad}/* block {item.name} */")
                emit_block(program.blocks[item.name], depth)
            elif isinstance(item, LoopNode):
                lines.append(
                    f"{pad}for (int {item.var} = 0; {item.var} < "
                    f"{item.trip}; {item.var}++) {{"
                )
                visit(item.body, depth + 1)
                lines.append(f"{pad}}}")

    visit(program.schedule, 1)


def _emit_main(program: Program, spec: FixedPointSpec, lines: list[str]) -> None:
    lines.append("")
    lines.append("int main(void) {")
    lines.append("    kernel();")
    for decl in program.output_arrays():
        lines.append(
            f"    for (int i = 0; i < {decl.size}; i++) "
            f'printf("%d\\n", {decl.name}[i]);'
        )
    lines.append("    return 0;")
    lines.append("}")


# ----------------------------------------------------------------------
# Scalar emitter
# ----------------------------------------------------------------------
def emit_fixed_point_c(
    program: Program,
    spec: FixedPointSpec,
    config: FxpConfig | None = None,
    inputs: Mapping[str, np.ndarray] | None = None,
    function_name: str = "kernel",
) -> str:
    """Emit bit-exact scalar fixed-point C for ``program``.

    With ``inputs`` supplied, stimulus is embedded pre-quantized and a
    ``main`` printing output mantissas (one per line) is appended — the
    form the compile-and-compare tests consume.
    """
    config = config or FxpConfig()
    fit = _fit_call(config)
    rq = _round_flag(config.quant_mode)
    lines: list[str] = [
        f"/* {program.name}: scalar fixed-point code generated by repro. */",
        _PRELUDE,
    ]
    _declare_arrays(program, spec, config, inputs, lines)
    lines.append("")
    lines.append(f"void {function_name}(void) {{")

    def emit_block(block: BasicBlock, depth: int) -> None:
        pad = "    " * depth
        for op in block.ops:
            lines.extend(
                f"{pad}{stmt}" for stmt in _scalar_statements(
                    program, spec, config, fit, rq, op
                )
            )

    _emit_structure(program, emit_block, lines)
    lines.append("}")
    if inputs is not None:
        _emit_main(program, spec, lines)
    return "\n".join(lines) + "\n"


def _scalar_statements(
    program: Program,
    spec: FixedPointSpec,
    config: FxpConfig,
    fit: str,
    rq: str,
    op: Operation,
) -> list[str]:
    kind = op.kind
    fwl = spec.fwl(op.opid)
    wl = spec.wl(op.opid)
    name = f"t{op.opid}"

    def operand(producer: int, target_fwl: int) -> str:
        delta = spec.fwl(producer) - target_fwl
        if delta == 0:
            return f"t{producer}"
        return f"requant(t{producer}, {delta}, {rq})"

    if kind is OpKind.CONST:
        mantissa = float_to_mantissa(float(op.value), fwl, config.const_mode)  # type: ignore[arg-type]
        return [f"int32_t {name} = {mantissa};  /* {op.value} @ fwl {fwl} */"]
    if kind is OpKind.LOAD:
        decl = program.arrays[op.array]  # type: ignore[index]
        index = _c_index(op.index or (), decl.shape)
        return [f"int32_t {name} = {op.array}[{index}];"]
    if kind is OpKind.STORE:
        decl = program.arrays[op.array]  # type: ignore[index]
        index = _c_index(op.index or (), decl.shape)
        value = operand(op.operands[0], fwl)
        return [f"{op.array}[{index}] = {fit}({value}, {wl});"]
    if kind is OpKind.READVAR:
        return [f"int32_t {name} = v_{op.var};"]
    if kind is OpKind.WRITEVAR:
        return [f"v_{op.var} = t{op.operands[0]};"]
    if kind is OpKind.MUL:
        f_a = spec.consumption_fwl(op.opid, 0)
        f_b = spec.consumption_fwl(op.opid, 1)
        a = operand(op.operands[0], f_a)
        b = operand(op.operands[1], f_b)
        delta = f_a + f_b - fwl
        return [
            f"int32_t {name} = {fit}(requant((int64_t){a} * {b}, "
            f"{delta}, {rq}), {wl});"
        ]
    if kind in (OpKind.ADD, OpKind.SUB, OpKind.MIN, OpKind.MAX):
        a = operand(op.operands[0], fwl)
        b = operand(op.operands[1], fwl)
        if kind is OpKind.ADD:
            expr = f"(int64_t){a} + {b}"
        elif kind is OpKind.SUB:
            expr = f"(int64_t){a} - {b}"
        else:
            fn = "<" if kind is OpKind.MIN else ">"
            return [
                f"int64_t a{op.opid} = {a}, b{op.opid} = {b};",
                f"int32_t {name} = {fit}(a{op.opid} {fn} b{op.opid} ? "
                f"a{op.opid} : b{op.opid}, {wl});",
            ]
        return [f"int32_t {name} = {fit}({expr}, {wl});"]
    if kind is OpKind.NEG:
        a = operand(op.operands[0], fwl)
        return [f"int32_t {name} = {fit}(-(int64_t){a}, {wl});"]
    if kind is OpKind.ABS:
        a = operand(op.operands[0], fwl)
        return [
            f"int64_t a{op.opid} = {a};",
            f"int32_t {name} = {fit}(a{op.opid} < 0 ? -a{op.opid} : "
            f"a{op.opid}, {wl});",
        ]
    raise CodegenError(f"cannot emit C for op kind {kind}")  # pragma: no cover


# ----------------------------------------------------------------------
# SIMD emitter (abstract macro API)
# ----------------------------------------------------------------------
_SIMD_HEADER = """\
/* Abstract SIMD macro API (paper Section IV).  The portable fallback
 * below implements 2x16 and 4x8 sub-word operations on a 32-bit word
 * with two's complement wrap lanes; a target back-end replaces these
 * with processor intrinsics (e.g. XENTIUM pack/add2, ST240 st220 ops).
 */
typedef uint32_t v32;

static inline v32 v2pack(int32_t hi, int32_t lo) {
    return ((uint32_t)(uint16_t)hi << 16) | (uint16_t)lo;
}
static inline int32_t v2lane(v32 v, int lane) {
    return (int16_t)(v >> (lane ? 16 : 0));
}
static inline v32 v2map(v32 a, v32 b, int op) {
    int32_t x0 = v2lane(a, 0), x1 = v2lane(a, 1);
    int32_t y0 = v2lane(b, 0), y1 = v2lane(b, 1);
    int32_t r0, r1;
    switch (op) {
        case 0: r0 = x0 + y0; r1 = x1 + y1; break;
        case 1: r0 = x0 - y0; r1 = x1 - y1; break;
        case 2: r0 = x0 * y0; r1 = x1 * y1; break;
        case 3: r0 = x0 < y0 ? x0 : y0; r1 = x1 < y1 ? x1 : y1; break;
        default: r0 = x0 > y0 ? x0 : y0; r1 = x1 > y1 ? x1 : y1; break;
    }
    return v2pack(r1, r0);
}
#define V2ADD(a, b) v2map((a), (b), 0)
#define V2SUB(a, b) v2map((a), (b), 1)
#define V2MUL(a, b) v2map((a), (b), 2)
#define V2MIN(a, b) v2map((a), (b), 3)
#define V2MAX(a, b) v2map((a), (b), 4)
#define V2PACK(hi, lo) v2pack((hi), (lo))
#define V2EXT(v, lane) v2lane((v), (lane))
static inline v32 v2shr(v32 v, int n) {
    return v2pack(v2lane(v, 1) >> n, v2lane(v, 0) >> n);
}
static inline v32 v2shl(v32 v, int n) {
    return v2pack(v2lane(v, 1) << n, v2lane(v, 0) << n);
}
#define V2SHR(v, n) v2shr((v), (n))
#define V2SHL(v, n) v2shl((v), (n))
#define V2LOAD(p) (*(const v32 *)(p))
#define V2STORE(p, v) (*(v32 *)(p) = (v))
"""


def emit_simd_c(
    program: Program,
    spec: FixedPointSpec,
    groups_by_block: dict[str, GroupSet],
    config: FxpConfig | None = None,
    function_name: str = "kernel_simd",
) -> str:
    """Emit fixed-point C with SIMD groups as abstract macro calls.

    Grouped operations render as ``V<N>...`` macro invocations over
    packed temporaries; ungrouped operations render exactly like the
    scalar emitter.  Memory layout note: vector loads/stores assume the
    16-bit storage the group word lengths imply — the emitted file is
    a faithful rendering of the back-end's output shape, compilable
    against the fallback header, and is primarily consumed by the
    structural tests and by humans.
    """
    config = config or FxpConfig()
    fit = _fit_call(config)
    rq = _round_flag(config.quant_mode)
    lines: list[str] = [
        f"/* {program.name}: SIMD fixed-point code (abstract macro API). */",
        _PRELUDE,
        _SIMD_HEADER,
    ]
    _declare_arrays(program, spec, config, None, lines)
    lines.append("")
    lines.append(f"void {function_name}(void) {{")

    def emit_block(block: BasicBlock, depth: int) -> None:
        pad = "    " * depth
        groups = groups_by_block.get(block.name) or GroupSet(block.name)
        for node in _emission_order(program, block, groups):
            if isinstance(node, SIMDGroup):
                statements = _group_statements(
                    program, spec, groups, node, rq
                )
            else:
                statements = _scalar_statements(
                    program, spec, config, fit, rq, node
                )
            lines.extend(f"{pad}{stmt}" for stmt in statements)

    _emit_structure(program, emit_block, lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emission_order(program, block, groups):
    """Topological C-statement order with groups as atomic nodes.

    Program order is not enough: a group's statements are emitted once
    for all lanes, so scalar consumers of an *early* lane must wait
    until the group (which also needs its *late* lanes' operands) has
    been placed.  Collapsing lanes into one node over the dependence
    graph and sorting topologically handles every case; group nodes
    are acyclic by SLP construction.
    """
    def node_key(opid: int):
        info = groups.group_of(opid)
        if info is None:
            return ("s", opid)
        return ("g", info[0].gid)

    keys = {op.opid: node_key(op.opid) for op in block.ops}
    order = lexicographic_topological_order(
        keys.values(),
        (
            (keys[src], keys[dst])
            for src, dst, _ in build_dependence_graph(block).edges()
            if keys[src] != keys[dst]
        ),
    )
    by_gid = {g.gid: g for g in groups}
    return [
        by_gid[key[1]] if key[0] == "g" else program.op(key[1])
        for key in order
    ]


def _group_statements(program, spec, groups, group, rq) -> list[str]:
    n = group.size
    vec = f"vg{group.gid}"
    kind = group.kind
    stmts: list[str] = [f"/* group g{group.gid}: {kind.value} x{n} @ {group.wl}b */"]
    if kind is OpKind.LOAD:
        stride = memory_lane_stride(program, group.lanes)
        first = program.op(group.lanes[0])
        decl = program.arrays[first.array]
        index = _c_index(first.index or (), decl.shape)
        if stride == 1:
            stmts.append(f"v32 {vec} = V{n}LOAD(&{first.array}[{index}]);")
        else:
            args = ", ".join(
                f"{program.op(o).array}[{_c_index(program.op(o).index or (), decl.shape)}]"
                for o in reversed(group.lanes)
            )
            stmts.append(f"v32 {vec} = V{n}PACK({args});")
        return stmts
    if kind is OpKind.STORE:
        first = program.op(group.lanes[0])
        decl = program.arrays[first.array]
        index = _c_index(first.index or (), decl.shape)
        value = _vector_operand(program, spec, groups, group, 0, rq, stmts)
        stmts.append(f"V{n}STORE(&{first.array}[{index}], {value});")
        return stmts
    macro = {
        OpKind.ADD: "ADD", OpKind.SUB: "SUB", OpKind.MUL: "MUL",
        OpKind.MIN: "MIN", OpKind.MAX: "MAX",
    }.get(kind)
    if macro is None:
        raise CodegenError(f"cannot emit SIMD C for kind {kind}")
    arity = len(program.op(group.lanes[0]).operands)
    operands = [
        _vector_operand(program, spec, groups, group, pos, rq, stmts)
        for pos in range(arity)
    ]
    stmts.append(f"v32 {vec} = V{n}{macro}({', '.join(operands)});")
    if kind is OpKind.MUL:
        deltas = {
            spec.consumption_fwl(o, 0) + spec.consumption_fwl(o, 1)
            - spec.fwl(o)
            for o in group.lanes
        }
        if deltas != {0}:
            amount = max(deltas)
            stmts.append(f"{vec} = V{n}SHR({vec}, {amount});")
    # Expose lanes for scalar consumers.
    for lane, opid in enumerate(group.lanes):
        stmts.append(f"int32_t t{opid} = V{n}EXT({vec}, {lane});")
    return stmts


def _vector_operand(program, spec, groups, group, pos, rq, stmts) -> str:
    producers = tuple(
        program.op(opid).operands[pos] for opid in group.lanes
    )
    source = groups.producer_group(producers)
    shifts = set()
    for opid in group.lanes:
        op = program.op(opid)
        producer = op.operands[pos]
        f_dst = (
            spec.consumption_fwl(opid, pos)
            if op.kind is OpKind.MUL else spec.fwl(opid)
        )
        shifts.add(spec.fwl(producer) - f_dst)
    if source is not None:
        expr = f"vg{source.gid}"
    else:
        args = ", ".join(f"t{p}" for p in reversed(producers))
        expr = f"V{group.size}PACK({args})"
    if shifts == {0}:
        return expr
    amount = max(shifts)
    if amount > 0:
        return f"V{group.size}SHR({expr}, {amount})"
    return f"V{group.size}SHL({expr}, {-amount})"

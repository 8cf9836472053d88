"""Loop-nest IR for DSP kernels.

The IR models the programs the paper operates on: counted loop nests
over basic blocks of scalar operations with affine array subscripts.
See :mod:`repro.ir.builder` for the construction API.
"""

from repro.ir.backend import (
    DEFAULT_BACKEND,
    BatchBackend,
    BigFloatBackend,
    EvaluationBackend,
    ScalarBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.ir.batch import (
    BatchInterpreter,
    FormatBatchInterpreter,
    OracleBatchInterpreter,
    run_program_batch,
)
from repro.ir.block import BasicBlock
from repro.ir.builder import ProgramBuilder, Val
from repro.ir.deps import (
    DependenceGraph,
    build_dependence_graph,
    dependence_graph,
    may_alias,
)
from repro.ir.index import AffineIndex, loop_index
from repro.ir.interp import ExecutionTrace, Interpreter, run_program
from repro.ir.ops import Operation
from repro.ir.optypes import (
    ARITHMETIC_KINDS,
    BINARY_KINDS,
    COMMUTATIVE_KINDS,
    MEMORY_KINDS,
    SIMDIZABLE_KINDS,
    UNARY_KINDS,
    OpKind,
)
from repro.ir.printer import format_block, format_op, format_program
from repro.ir.program import BlockRef, LoopNode, Program, block_memo
from repro.ir.symbols import ArrayDecl, SymbolKind, VarDecl
from repro.ir.validate import validate_program
from repro.ir.vectorize import VectorPlan, build_vector_plan, vector_plan

__all__ = [
    "AffineIndex",
    "ArrayDecl",
    "BasicBlock",
    "BatchBackend",
    "BatchInterpreter",
    "BigFloatBackend",
    "BlockRef",
    "DEFAULT_BACKEND",
    "EvaluationBackend",
    "FormatBatchInterpreter",
    "OracleBatchInterpreter",
    "ScalarBackend",
    "VectorPlan",
    "DependenceGraph",
    "ExecutionTrace",
    "Interpreter",
    "LoopNode",
    "Operation",
    "OpKind",
    "Program",
    "ProgramBuilder",
    "SymbolKind",
    "Val",
    "VarDecl",
    "ARITHMETIC_KINDS",
    "BINARY_KINDS",
    "COMMUTATIVE_KINDS",
    "MEMORY_KINDS",
    "SIMDIZABLE_KINDS",
    "UNARY_KINDS",
    "available_backends",
    "block_memo",
    "build_dependence_graph",
    "dependence_graph",
    "build_vector_plan",
    "format_block",
    "get_backend",
    "register_backend",
    "run_program_batch",
    "vector_plan",
    "format_op",
    "format_program",
    "loop_index",
    "may_alias",
    "run_program",
    "validate_program",
]

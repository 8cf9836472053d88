"""The fixed-point specification.

The paper's ``SPEC`` maps every *node* — operation, array, scalar
variable — to a fixed-point format.  Here each node owns a *slot*;
slots that must share a format are *tied* together (union-find) and the
authoritative values live at the tie-group root:

* a ``LOAD``/``STORE`` shares its array's format (memory has one
  layout);
* ``READVAR``/``WRITEVAR`` and the op *producing* the written value
  share the variable's format (register moves are free, so they cannot
  implement a format change — the accumulator chain of an unrolled
  kernel is physically one register);

In addition, MUL operand edges carry an optional *consumption word
length*: when SLP narrows a multiply to a 16-bit lane, its operands are
narrowed at the pack boundary even if their producers stay wide.  This
is the paper's eq. (1) acting on operands, and it is what makes the
accuracy-aware candidate checks of Fig. 1c meaningful.

All mutations are journaled; ``save()``/``revert()`` give the
checkpoint semantics used throughout Fig. 1 (``SPEC.save g1`` /
``SPEC.revert g1``, "revert WL of c", ...).
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.errors import FixedPointError
from repro.ir.optypes import OpKind
from repro.ir.program import Program
from repro.fixedpoint.qformat import QFormat

__all__ = ["SlotMap", "FixedPointSpec", "NO_NARROW"]

#: Edge consumption word length meaning "no narrowing at this edge".
NO_NARROW = 127


class SlotMap:
    """Slot numbering and tie groups for a program.

    Slots ``0 .. n_ops-1`` are operations (slot == opid); the following
    slots are symbols (arrays then variables, sorted by name).
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.n_ops = program.n_ops
        names = sorted(program.arrays) + sorted(program.variables)
        self.symbol_slot: dict[str, int] = {
            name: self.n_ops + i for i, name in enumerate(names)
        }
        self.n_slots = self.n_ops + len(names)
        self._slot_symbol = {slot: name for name, slot in self.symbol_slot.items()}

        parent = list(range(self.n_slots))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for op in program.all_ops():
            if op.kind in (OpKind.LOAD, OpKind.STORE):
                union(op.opid, self.symbol_slot[op.array])  # type: ignore[index]
            elif op.kind in (OpKind.READVAR, OpKind.WRITEVAR):
                union(op.opid, self.symbol_slot[op.var])  # type: ignore[index]
                if op.kind is OpKind.WRITEVAR:
                    union(op.operands[0], self.symbol_slot[op.var])  # type: ignore[index]

        self._roots = [find(i) for i in range(self.n_slots)]
        self.root = np.array(self._roots, dtype=np.int32)
        members: dict[int, list[int]] = {}
        for slot, root in enumerate(self._roots):
            members.setdefault(root, []).append(slot)
        self.group_members: dict[int, tuple[int, ...]] = {
            r: tuple(m) for r, m in members.items()
        }

    # ------------------------------------------------------------------
    def root_of(self, slot: int) -> int:
        """Tie-group root of ``slot``."""
        return self._roots[slot]

    def slot_of_symbol(self, name: str) -> int:
        try:
            return self.symbol_slot[name]
        except KeyError:
            raise FixedPointError(f"unknown symbol {name!r}") from None

    def describe(self, slot: int) -> str:
        """Readable description of a slot, for diagnostics."""
        if slot < self.n_ops:
            return f"op%{slot}({self.program.op(slot).kind.value})"
        return f"sym:{self._slot_symbol[slot]}"

    @property
    def roots(self) -> list[int]:
        """All tie-group roots in ascending order."""
        return sorted(self.group_members)


class FixedPointSpec:
    """Journaled per-slot fixed-point formats plus MUL edge narrowing.

    The whole state is one flat int16 buffer: the word lengths of all
    slots, then their integer word lengths, then the ``(n_ops, 2)``
    edge word lengths in row-major order.  Only tie-group roots are
    ever written, so the other slots keep their initial values.  A
    journal entry is ``(buffer index, old value)``.
    """

    def __init__(self, slotmap: SlotMap, max_wl: int = 32) -> None:
        self.slotmap = slotmap
        self.max_wl = max_wl
        n = slotmap.n_slots
        self._state = (
            array("h", [max_wl]) * n
            + array("h", [1]) * n
            + array("h", [NO_NARROW]) * (2 * slotmap.n_ops)
        )
        self._iwl_base = n
        self._edge_base = 2 * n
        self._root = slotmap._roots
        self._journal: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Scalar accessors (always resolved through the tie-group root)
    # ------------------------------------------------------------------
    def wl(self, slot: int) -> int:
        return self._state[self._root[slot]]

    def iwl(self, slot: int) -> int:
        return self._state[self._iwl_base + self._root[slot]]

    def fwl(self, slot: int) -> int:
        root = self._root[slot]
        return self._state[root] - self._state[self._iwl_base + root]

    def qformat(self, slot: int) -> QFormat:
        return QFormat(self.iwl(slot), self.fwl(slot))

    def set_wl(self, slot: int, value: int) -> None:
        if value < 1:
            raise FixedPointError(f"word length must be >= 1, got {value}")
        self._write(self._root[slot], value)

    def set_iwl(self, slot: int, value: int) -> None:
        self._write(self._iwl_base + self._root[slot], value)

    def set_fwl(self, slot: int, value: int) -> None:
        """Move the binary point, keeping the word length constant.

        This is SCALOPTIM's move: reducing ``fwl`` by k increases
        ``iwl`` by k (paper Section III-C).
        """
        self.set_iwl(slot, self.wl(slot) - value)

    def _write(self, index: int, value: int) -> None:
        old = self._state[index]
        if old != value:
            self._journal.append((index, old))
            self._state[index] = value

    def group_writes(self, program: Program, lanes: tuple[int, ...]) -> list[int]:
        """Buffer indices the paper's ``SETMAXWL`` writes for a group.

        Each lane's tie-group word length, then, for a multiply lane,
        both of its operand-edge word lengths.  ``program`` supplies the
        op kinds and must share op ids with the slot map's program.
        Applied to this spec by :meth:`write_all`, or to copies of
        :meth:`state_vector` by a batched evaluator.
        """
        writes = []
        for opid in lanes:
            writes.append(self._root[opid])
            if program.op(opid).kind is OpKind.MUL:
                edge = self._edge_base + 2 * opid
                writes += (edge, edge + 1)
        return writes

    def write_all(self, indices: list[int], value: int) -> None:
        """Journaled write of ``value`` to every buffer index (word
        lengths or edge word lengths, as :meth:`group_writes` lists)."""
        if value < 1:
            raise FixedPointError(f"word length must be >= 1, got {value}")
        for index in indices:
            self._write(index, value)

    # ------------------------------------------------------------------
    # MUL operand-edge consumption word lengths
    # ------------------------------------------------------------------
    def edge_wl(self, opid: int, pos: int) -> int:
        return self._state[self._edge_base + 2 * opid + pos]

    def set_edge_wl(self, opid: int, pos: int, value: int) -> None:
        self._write(self._edge_base + 2 * opid + pos, value)

    def consumption_fwl(self, opid: int, pos: int) -> int:
        """Fractional bits at which op ``opid`` consumes operand ``pos``.

        The producer's carried format, narrowed to the edge word length
        when one was set (keeping the producer's ``iwl`` so no range is
        lost, only precision).
        """
        producer = self.slotmap.program.op(opid).operands[pos]
        f_carried = self.fwl(producer)
        budget = self.edge_wl(opid, pos)
        if budget >= NO_NARROW:
            return f_carried
        return min(f_carried, budget - self.iwl(producer))

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def save(self) -> int:
        """Checkpoint; pass the token to :meth:`revert` to roll back."""
        return len(self._journal)

    def revert(self, token: int) -> None:
        """Undo all mutations recorded after ``token``."""
        journal = self._journal
        if token < 0 or token > len(journal):
            raise FixedPointError(f"bad journal token {token}")
        state = self._state
        while len(journal) > token:
            index, old = journal.pop()
            state[index] = old

    # ------------------------------------------------------------------
    # Vectorized views (used by the analytical accuracy evaluator)
    # ------------------------------------------------------------------
    def _view(self, start: int, count: int) -> np.ndarray:
        """The int16 buffer entries ``start .. start + count`` as an array
        view (built per call: nothing keeps a view of the buffer)."""
        return np.frombuffer(self._state, np.int16, count, 2 * start)

    def fwl_vector(self) -> np.ndarray:
        """Per-slot fractional word lengths, root-resolved (int32)."""
        n = self._iwl_base
        root = self.slotmap.root
        return (self._view(0, n)[root] - self._view(n, n)[root]).astype(np.int32)

    def iwl_vector(self) -> np.ndarray:
        """Per-slot integer word lengths, root-resolved (int32)."""
        n = self._iwl_base
        return self._view(n, n)[self.slotmap.root].astype(np.int32)

    def wl_vector(self) -> np.ndarray:
        """Per-slot word lengths, root-resolved (int32)."""
        return self._view(0, self._iwl_base)[self.slotmap.root].astype(np.int32)

    def edge_wl_matrix(self) -> np.ndarray:
        """(n_ops, 2) consumption word lengths (``NO_NARROW`` = none)."""
        n_ops = self.slotmap.n_ops
        edges = self._view(self._edge_base, 2 * n_ops).reshape(n_ops, 2)
        return edges.astype(np.int32)

    def state_vector(self) -> np.ndarray:
        """A copy of the flat buffer as an int16 array."""
        return self._view(0, len(self._state)).copy()

    def unpack(
        self, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row :meth:`fwl_vector`, :meth:`iwl_vector` and
        :meth:`edge_wl_matrix` (int32) of a matrix of flat buffer states
        of this slot map, one state per row."""
        n = self._iwl_base
        root = self.slotmap.root
        iwl = states[:, n:2 * n][:, root].astype(np.int32)
        fwl = states[:, :n][:, root] - iwl
        edges = states[:, self._edge_base:].astype(np.int32)
        return fwl, iwl, edges.reshape(len(states), self.slotmap.n_ops, 2)

    def state_key(self) -> bytes:
        """The exact format state as raw bytes, for memo keys.

        The flat int16 buffer: word lengths, integer word lengths and
        edge word lengths, concatenated.  Equal keys mean equal states
        of one slot map (the buffer has a fixed size per program), and
        no hashing is involved, so two distinct states never collide.
        """
        return self._state.tobytes()

    # ------------------------------------------------------------------
    def clone(self) -> "FixedPointSpec":
        """Independent deep copy (journal not carried over)."""
        twin = FixedPointSpec(self.slotmap, self.max_wl)
        twin._state = array("h", self._state)
        return twin

    def describe(self) -> str:
        """Readable dump of every tie group's format."""
        lines = []
        for root in self.slotmap.roots:
            members = self.slotmap.group_members[root]
            names = ", ".join(self.slotmap.describe(s) for s in members[:4])
            if len(members) > 4:
                names += f", ... ({len(members)} slots)"
            lines.append(f"  {self.qformat(root)} wl={self.wl(root):>2}  [{names}]")
        return "\n".join(lines)

"""Compiled warp traces: one kernel launch as flat per-op columns.

A :class:`CompiledTrace` holds a whole kernel launch as five flat int
columns — op kind / operand A / operand B / scoreboard tag / dependency
tag, in the micro-op encoding of :mod:`repro.gpusim.isa` — plus a
CSR-style ``warp_starts`` index.  It is the one kernel encoding: the
kernel builders (:mod:`repro.kernels`) emit it through a
:class:`TraceBuilder`, and the engine's loop indexes its columns
directly.

The one lowering-time optimization is *ALU fusion*: an ``OP_ALU`` op
directly following another ``OP_ALU`` with no dependency is merged into
its predecessor's cycle count.  The engine applies the identical rule
at runtime (see :mod:`repro.gpusim.engine`), so a fused and an unfused
trace of the same program produce identical statistics — fusion only
shrinks the op stream and the event count.

``None`` tags/deps are stored as ``-1`` so every column stays a plain
int column.

A trace also knows its :meth:`~CompiledTrace.fingerprint` — a content
hash over the packed columns — a stable identity for deduplication and
equivalence tests (``tests/golden/kernels.json`` pins every lowering by
it).  (The kernel-result memo in :mod:`repro.gpusim.memo` keys on the
*inputs* that produce a trace — workload content, build, lowering
constants — so cache hits never pay for trace construction; see
``run_table_kernel``.)
"""

from __future__ import annotations

import hashlib
from array import array

from repro.gpusim.isa import OP_ALU, OP_NAMES


class CompiledTrace:
    """One kernel launch, lowered to flat per-op columns.

    ``kind[i]``, ``a[i]``, ``b[i]``, ``tag[i]``, ``dep[i]`` describe
    micro-op ``i``; warp ``w`` owns ops ``warp_starts[w]`` (inclusive)
    through ``warp_starts[w + 1]`` (exclusive).  Tag/dep use ``-1`` for
    "none".
    """

    __slots__ = ("kind", "a", "b", "tag", "dep", "warp_starts",
                 "_fingerprint")

    def __init__(
        self,
        kind: list[int],
        a: list[int],
        b: list[int],
        tag: list[int],
        dep: list[int],
        warp_starts: list[int],
    ) -> None:
        n = len(kind)
        if not (len(a) == len(b) == len(tag) == len(dep) == n):
            raise ValueError("trace columns must have equal length")
        if not warp_starts or warp_starts[0] != 0 or warp_starts[-1] != n:
            raise ValueError("warp_starts must span [0, n_ops]")
        self.kind = kind
        self.a = a
        self.b = b
        self.tag = tag
        self.dep = dep
        self.warp_starts = warp_starts
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    @property
    def n_warps(self) -> int:
        return len(self.warp_starts) - 1

    @property
    def n_ops(self) -> int:
        return len(self.kind)

    def fingerprint(self) -> str:
        """Content hash of the trace (stable across processes/runs)."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            for column in (self.kind, self.a, self.b, self.tag, self.dep,
                           self.warp_starts):
                h.update(array("q", column).tobytes())
                h.update(b"|")
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledTrace):
            return NotImplemented
        return (
            self.kind == other.kind and self.a == other.a
            and self.b == other.b and self.tag == other.tag
            and self.dep == other.dep
            and self.warp_starts == other.warp_starts
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledTrace({self.n_warps} warps, {self.n_ops} ops, "
            f"{self.fingerprint()[:12]})"
        )


class TraceBuilder:
    """Incremental builder for :class:`CompiledTrace`.

    Structured kernel builders append ops warp by warp; consecutive ALU
    micro-ops are fused on the fly (``fuse=False`` keeps the stream
    verbatim, e.g. to pin down fused-versus-unfused equivalence in
    tests).
    """

    __slots__ = ("kind", "a", "b", "tag", "dep", "warp_starts", "fuse")

    def __init__(self, *, fuse: bool = True) -> None:
        self.kind: list[int] = []
        self.a: list[int] = []
        self.b: list[int] = []
        self.tag: list[int] = []
        self.dep: list[int] = []
        self.warp_starts: list[int] = [0]
        self.fuse = fuse

    def append(self, kind: int, a: int = 0, b: int = 0,
               tag: int = -1, dep: int = -1) -> None:
        """Append one micro-op to the current (last open) warp."""
        if kind not in OP_NAMES:
            raise ValueError(f"unknown micro-op kind {kind}")
        kinds = self.kind
        if (
            self.fuse
            and kind == OP_ALU
            and dep < 0
            and len(kinds) > self.warp_starts[-1]
            and kinds[-1] == OP_ALU
        ):
            self.a[-1] += a
            return
        kinds.append(kind)
        self.a.append(a)
        self.b.append(b)
        self.tag.append(tag)
        self.dep.append(dep)

    def end_warp(self) -> None:
        """Close the current warp (empty warps are legal)."""
        self.warp_starts.append(len(self.kind))

    def build(self) -> CompiledTrace:
        if self.warp_starts[-1] != len(self.kind):
            raise ValueError("unterminated warp: call end_warp() first")
        return CompiledTrace(
            self.kind, self.a, self.b, self.tag, self.dep, self.warp_starts
        )

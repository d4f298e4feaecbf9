"""Micro-op encoding for warp-level kernel programs.

Every warp-level instruction is one micro-op of five fields::

    (kind, a, b, tag, dep)

``kind`` selects the operation; ``a``/``b`` are operands (address +
sector count for memory ops, cycle count for ALU bursts); ``tag`` names
the destination scoreboard slot a load writes; ``dep`` names the
scoreboard slot this instruction must wait on (``None`` when independent).

The kernel builders (:mod:`repro.kernels`) emit micro-ops straight into
the flat columns of a :class:`~repro.gpusim.trace.CompiledTrace` (one
column per field, ``-1`` for "none"), which the engine executes.  The
helpers below build one micro-op as a plain 5-tuple, for hand-written
programs in tests; this module is the single place that documents the
encoding.

Kinds
-----
``OP_ALU``        ``a`` back-to-back ALU instructions; occupies the SMSP
                  issue port for ``a`` cycles and advances the warp by
                  ``a`` cycles (a dependent arithmetic burst).
``OP_LD_GLOBAL``  global-memory load of ``b`` 32-byte sectors at address
                  ``a``; completion posted to scoreboard slot ``tag``.
``OP_LD_LOCAL``   local-memory load (register spills / LMPF buffers);
                  same semantics, different address space statistics.
``OP_LD_SHARED``  shared-memory load: fixed-latency, posts to ``tag``.
``OP_ST_GLOBAL``  global store (fire-and-forget, counted not timed).
``OP_ST_SHARED``  shared-memory store (single issue slot).
``OP_ST_LOCAL``   local store; allocates the line in L1 so later local
                  loads hit (spill round-trips).
``OP_PREFETCH_L1``  ``prefetch.global.L1``: runs the full memory path and
                  fills L1, but writes no register (no scoreboard slot).
``OP_PREFETCH_L2``  ``prefetch.global.L2::evict_last``: fills the L2
                  set-aside partition and marks the line resident.
"""

from __future__ import annotations

OP_ALU = 0
OP_LD_GLOBAL = 1
OP_LD_LOCAL = 2
OP_LD_SHARED = 3
OP_ST_GLOBAL = 4
OP_ST_SHARED = 5
OP_ST_LOCAL = 6
OP_PREFETCH_L1 = 7
OP_PREFETCH_L2 = 8

OP_NAMES = {
    OP_ALU: "alu",
    OP_LD_GLOBAL: "ld.global",
    OP_LD_LOCAL: "ld.local",
    OP_LD_SHARED: "ld.shared",
    OP_ST_GLOBAL: "st.global",
    OP_ST_SHARED: "st.shared",
    OP_ST_LOCAL: "st.local",
    OP_PREFETCH_L1: "prefetch.global.L1",
    OP_PREFETCH_L2: "prefetch.global.L2::evict_last",
}

#: kinds that read from the memory hierarchy
LOAD_KINDS = frozenset({OP_LD_GLOBAL, OP_LD_LOCAL})
#: kinds that post a completion time to the warp scoreboard
SCOREBOARD_KINDS = frozenset({OP_LD_GLOBAL, OP_LD_LOCAL, OP_LD_SHARED})


def alu(cycles: int, dep: int | None = None) -> tuple:
    """An ALU burst of ``cycles`` dependent instructions."""
    return (OP_ALU, cycles, 0, None, dep)


def ld_global(addr: int, sectors: int, tag: int,
              dep: int | None = None) -> tuple:
    return (OP_LD_GLOBAL, addr, sectors, tag, dep)


def ld_local(addr: int, sectors: int, tag: int,
             dep: int | None = None) -> tuple:
    return (OP_LD_LOCAL, addr, sectors, tag, dep)


def ld_shared(tag: int, dep: int | None = None) -> tuple:
    return (OP_LD_SHARED, 0, 0, tag, dep)


def st_global(addr: int, sectors: int, dep: int | None = None) -> tuple:
    return (OP_ST_GLOBAL, addr, sectors, None, dep)


def st_shared(dep: int | None = None) -> tuple:
    return (OP_ST_SHARED, 0, 0, None, dep)


def st_local(addr: int, sectors: int, dep: int | None = None) -> tuple:
    return (OP_ST_LOCAL, addr, sectors, None, dep)


def prefetch_l1(addr: int, sectors: int, dep: int | None = None) -> tuple:
    return (OP_PREFETCH_L1, addr, sectors, None, dep)


def prefetch_l2(addr: int, sectors: int, dep: int | None = None) -> tuple:
    return (OP_PREFETCH_L2, addr, sectors, None, dep)

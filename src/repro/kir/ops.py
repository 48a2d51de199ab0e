"""KIR instruction and trace data structures.

A trace is a straight line of instructions over virtual registers.  Loops
are modelled by the builder extending the live range of loop-carried values
over the whole body (the standard conservative treatment a linear-scan
allocator applies to back edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class VReg:
    """A virtual register.

    ``width`` is the number of 32-bit hardware registers the value needs
    (pointers and 64-bit values take 2, as on real NVIDIA hardware).
    """

    vid: int
    name: str = ""
    width: int = 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"%{self.vid}:{self.name or 'v'}({self.width})"


@dataclass(frozen=True)
class Instr:
    """One instruction: defines ``dst`` registers, uses ``src`` registers."""

    op: str
    dst: Tuple[VReg, ...] = ()
    src: Tuple[VReg, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dsts = ", ".join(map(repr, self.dst))
        srcs = ", ".join(map(repr, self.src))
        return f"{dsts} = {self.op} {srcs}"


@dataclass
class Trace:
    """A straight-line instruction sequence plus pinned long-lived values."""

    name: str
    instrs: List[Instr] = field(default_factory=list)
    #: Values the builder pinned live for the whole trace (kernel
    #: parameters, loop-carried state).
    pinned: List[VReg] = field(default_factory=list)

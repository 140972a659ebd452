"""Tensor products of q-oscillator Fock modules.

Each of the l tensor slots carries one of the two standard q-oscillator Fock
modules over the algebra generated by b, bdag and the group-likes q**(nu N):

    chi_plus:   q**(nu N) v_m = q**(nu m) v_m,
                bdag v_m = v_{m+1},       b v_m = [m]_q v_{m-1}
    chi_minus:  q**(nu N) v_m = q**(-nu (m+1)) v_m,
                b v_m = v_{m+1},          bdag v_m = -[m]_q v_{m-1}

with v_{-1} = 0 in both.  States are finite QRational combinations of
occupation vectors m in Z_{>=0}^l.  The module type of every slot is fixed by
a slot pattern, the tuple of the l slot kinds (MINUS or PLUS); the pattern of
a tensor product is its factors' patterns concatenated.  RepSpec.pattern()
builds the pattern of each oscillator representation: l-a+1 minus slots
followed by a-1 plus slots, and for the mirrored counterparts the two counts
swapped.
"""

from __future__ import annotations

from .exactfield import QRational
from .record import Record

PLUS = "plus"
MINUS = "minus"


class FockState(Record):
    """A finite linear combination of occupation basis vectors; its terms are
    a dict, so it compares by value but has no hash."""

    __slots__ = ("l", "_terms")

    def __init__(self, l: int, terms=None):
        clean = {}
        for m, c in (terms or {}).items():
            if isinstance(c, int):
                c = QRational.from_int(c)
            if not c.is_zero():
                clean[m] = c
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "_terms", clean)

    @staticmethod
    def basis(m) -> "FockState":
        m = tuple(m)
        if not m or any(x < 0 for x in m):
            raise ValueError("occupation numbers must be >= 0")
        return FockState(len(m), {m: QRational.one()})

    @staticmethod
    def zero(l: int) -> "FockState":
        return FockState(l, {})

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = [f"({c!r})*v{list(m)}" for m, c in sorted(self._terms.items())]
        return " + ".join(parts)

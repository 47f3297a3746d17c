"""Tag arithmetic for start-time fair queuing.

SFQ tags are sums of ``length / weight`` terms.  Two arithmetic modes are
provided:

* **exact** (default): tags are canonical rationals — a Python ``int`` when
  the value is integral, otherwise a :class:`fractions.Fraction` in lowest
  terms.  The value decides the type, never the history: a sum of
  fractional terms that comes out whole is an ``int``.  ``int`` and
  ``Fraction`` compare, add and hash identically for equal values, and
  ``float()`` rounds both correctly, so the representation is invisible
  to callers.  The fairness theorem of the paper then holds *exactly* in
  tests, with no epsilon; and since most charges divide evenly (every
  weight-1 entity's do), most tags never build a ``Fraction`` at all.
* **float**: tags are machine floats.  Faster, and what a kernel would use;
  the drift it introduces is quantified by the EXP-AB4 ablation.

Both modes share the same interface so queues are generic over it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Tag = Union[int, Fraction, float]


class TagMath:
    """Strategy object for tag arithmetic.

    Parameters
    ----------
    exact:
        When True, tags are canonical rationals (``int`` when integral,
        else :class:`~fractions.Fraction`); otherwise floats.
    """

    __slots__ = ("exact",)

    def __init__(self, exact: bool = True) -> None:
        self.exact = exact

    def zero(self) -> Tag:
        """The initial value of every tag and of virtual time."""
        return 0 if self.exact else 0.0

    def ratio(self, length: int, weight: int) -> Tag:
        """``length / weight`` in this mode's representation."""
        if weight <= 0:
            raise ValueError("weight must be positive, got %r" % (weight,))
        if not self.exact:
            return length / weight
        if length % weight:
            return Fraction(length, weight)
        return length // weight

    def advance(self, tag: Tag, length: int, weight: int) -> Tag:
        """Return ``tag + length / weight`` — the finish-tag update rule."""
        if not self.exact:
            return tag + self.ratio(length, weight)
        if weight <= 0:
            raise ValueError("weight must be positive, got %r" % (weight,))
        numerator = tag.numerator
        denominator = tag.denominator
        if denominator == 1 and not length % weight:
            return numerator + length // weight
        total = Fraction(numerator * weight + length * denominator,
                         denominator * weight)
        if total.denominator == 1:
            return total.numerator
        return total

    def __repr__(self) -> str:
        return "TagMath(exact=%r)" % self.exact


#: Shared default instance (exact arithmetic).
EXACT = TagMath(exact=True)

#: Shared float-mode instance.
FLOAT = TagMath(exact=False)

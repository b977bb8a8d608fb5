"""Oracles for the truncated Witt rings and the bounded p-adics.

`WittRing.digits` writes a raw value as its N Teichmuller digits, canonical
ints of the residue field; `from_digits` sums them back, sum teich(d_i) p^i,
into a raw value, so the tests can hold the two to a round trip and rebuild a
Witt series from its JSON digits.  `div_p` makes the p-adics of negative
valuation that the package reaches only through inverses.
"""

from ltdl.errors import ParameterError
from ltdl.witt import BoundedPadic


def from_digits(ring, digits):
    if len(digits) != ring.N:
        raise ParameterError(f"need exactly {ring.N} digits")
    out = ring.zero()
    pk = 1
    for d in digits:
        out = ring.add(out, ring.from_coords(c * pk for c in ring.coords(ring.teichmuller(d))))
        pk *= ring.p
    return out


def div_p(x, k=1):
    """The BoundedPadic x / p^k: a valuation shift of x, exact zero kept."""
    if x.is_exact_zero():
        return x
    return BoundedPadic(x.params, x.val - k, x.unit, x.abs - k)

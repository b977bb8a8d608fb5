"""Digit-level oracle for the truncated Witt rings.

`WittRing.digits` writes a raw value as its N Teichmuller digits, canonical
ints of the residue field; `from_digits` sums them back, sum teich(d_i) p^i,
into a raw value, so the tests can hold the two to a round trip and rebuild a
Witt series from its JSON digits.
"""

from ltdl.errors import ParameterError


def from_digits(ring, digits):
    if len(digits) != ring.N:
        raise ParameterError(f"need exactly {ring.N} digits")
    out = ring.zero()
    pk = 1
    for d in digits:
        out = ring.add(out, ring.from_coords(c * pk for c in ring.coords(ring.teichmuller(d))))
        pk *= ring.p
    return out

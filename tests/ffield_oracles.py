"""Z/p as plain modular arithmetic, independent of the log/Zech kernel.

`PrimeField` has the add/neg/sub/mul/inv of `ffield.FieldDesc` on ints mod
p, so the `ffield.poly_*` functions and the matrix routines of `linalg` run
over it.  The tests use it where an oracle must not lean on the tables it
checks: schoolbook products in F_{p^f}, and determinants mod a split prime
ell whose field is never built.
"""


class PrimeField:
    def __init__(self, p):
        self.p = self.q = p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

"""Shared exception types and the one check-record shape."""


def check_entry(name, ok, details=""):
    """One check of a report: {"name", "status": "pass" | "fail", "details"}."""
    return {"name": name, "status": "pass" if ok else "fail", "details": str(details)}


class ParameterError(ValueError):
    """A parameter is outside the supported range (CLI exit code 2)."""


class BudgetError(RuntimeError):
    """An enumeration or size budget would be exceeded (CLI exit code 3)."""


class PrecisionError(ArithmeticError):
    """A result is not determined at the requested p-adic precision."""


class DenominatorOverflow(PrecisionError):
    """A p-adic valuation dropped below the configured denominator bound."""


class IntegralityError(ArithmeticError):
    """A coefficient that must be p-integral has negative valuation."""


class VerificationError(AssertionError):
    """A hard structural check failed (contradicts a verified identity)."""

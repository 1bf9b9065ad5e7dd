"""Exception types shared across the package."""


class ContractError(ValueError):
    """A call violates an interface contract (shape or dimension mismatch)."""


class InvalidConfigError(ValueError):
    """A configuration cannot produce a valid object."""


class ParseError(ValueError):
    """A document is syntactically malformed or missing required fields."""


class ValidationError(ValueError):
    """A structurally valid document violates model invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SlotCapacityError(ValueError):
    """A twin owns more devices than the padded feature slots can hold."""

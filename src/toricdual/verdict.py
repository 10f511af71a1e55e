"""Boolean verdicts that carry machine-checkable witnesses, and the
read-only base that every value record of the package shares."""


class ReadOnly:
    """Base of the records whose fields are set once, in ``__init__`` through
    ``object.__setattr__``, and then refuse assignment and deletion."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Verdict(ReadOnly):
    """A yes/no answer plus the evidence that produced it.

    ``criterion`` names the test that decided the question; ``witness`` is a
    JSON-ready dict (tagged by ``kind``) that an independent checker can
    re-verify: a violating line class, a join whose apex and repeat counts
    differ, a parity subset, a supporting functional, and so on.  Each
    verdict built without a witness gets its own empty dict.  Fields are
    read-only, and verdicts compare field by field.
    """

    __slots__ = ("value", "criterion", "witness")

    def __init__(self, value: bool, criterion: str, witness: dict = None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "criterion", criterion)
        object.__setattr__(self, "witness", {} if witness is None else witness)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value, self.criterion, self.witness) == (
            other.value,
            other.criterion,
            other.witness,
        )

    # the witness is a dict, so a verdict is unhashable
    __hash__ = None

    def __repr__(self):
        return (
            f"Verdict(value={self.value!r}, criterion={self.criterion!r}, "
            f"witness={self.witness!r})"
        )

    def __bool__(self) -> bool:
        return self.value

"""Boolean verdicts that carry machine-checkable witnesses."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Verdict:
    """A yes/no answer plus the evidence that produced it.

    ``criterion`` names the test that decided the question; ``witness`` is a
    JSON-ready dict (tagged by ``kind``) that an independent checker can
    re-verify: a violating line class, a join whose apex and repeat counts
    differ, a parity subset, a supporting functional, and so on.
    """

    value: bool
    criterion: str
    witness: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.value

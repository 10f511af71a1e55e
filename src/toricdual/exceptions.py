class InapplicableInput(ValueError):
    """The input violates a hypothesis of the requested criterion.

    The message names the hypothesis (non-pyramidal, repeat-free)
    so callers can tell a wrong-shaped question from a negative answer.
    Each hypothesis is worded once, by one of the functions below.
    """


class GuardExceeded(ValueError):
    """A brute-force enumeration guard was hit; the oracle refuses to run."""


def pyramidal_input(zero_rows, criterion: str) -> InapplicableInput:
    """The refusal of a criterion that needs a non-pyramidal configuration."""
    return InapplicableInput(
        f"pyramidal input (zero Gale rows at {list(zero_rows)}): "
        f"{criterion} requires a non-pyramidal configuration"
    )


def repeated_columns(criterion: str) -> InapplicableInput:
    """The refusal of a criterion that needs a repeat-free configuration."""
    return InapplicableInput(
        f"repeated columns: {criterion} requires a repeat-free configuration"
    )

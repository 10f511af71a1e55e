class InapplicableInput(ValueError):
    """The input violates a hypothesis of the requested criterion.

    The message names the hypothesis (non-pyramidal, regular, repeat-free,
    ...) so callers can tell a wrong-shaped question from a negative answer.
    """


class GuardExceeded(ValueError):
    """A brute-force enumeration guard was hit; the oracle refuses to run."""


def pyramidal_input(zero_rows, criterion: str) -> InapplicableInput:
    """The refusal of a criterion that needs a non-pyramidal configuration."""
    return InapplicableInput(
        f"pyramidal input (zero Gale rows at {list(zero_rows)}): "
        f"{criterion} requires a non-pyramidal configuration"
    )

"""The one error type that a caller tells apart from a refusal.

Every other deliberate refusal, of bad input or of an impossible
intermediate result, raises ValueError with a message that states the
broken rule.
"""


class Unreachable(Exception):
    """An oracle cell past the height cap, or a formula window past its budget."""

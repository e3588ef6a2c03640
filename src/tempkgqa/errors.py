"""The common base of every error the pipeline raises on bad input."""


class TempkgqaError(Exception):
    """Base of the module error classes; ``tempkgqa`` turns it into exit code 2."""

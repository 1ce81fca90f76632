class ConsistencyError(RuntimeError):
    """An internal cross-check failed; results cannot be trusted."""


class SearchExhaustedError(Exception):
    """No matching level was found below the configured energy ceiling."""

"""Statistics and plain-text reporting helpers for the experiments."""

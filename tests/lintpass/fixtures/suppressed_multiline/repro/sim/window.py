"""Fixture: a comment on a multi-line stmt's last line silences nothing."""

import time


def window() -> tuple:
    return (
        0.0,
        time.time(),
    )  # repro-lint: ignore[wall-clock]

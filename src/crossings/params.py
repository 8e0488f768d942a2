"""Protocol timing and distance parameters shared by formulas and controllers."""

from __future__ import annotations

from dataclasses import astuple, dataclass


@dataclass(frozen=True)
class ProtocolParams:
    d_c: float = 60.0     # crossing-ahead trigger distance, m
    max_se: float = 40.0  # fleet-wide maximum safety envelope, m
    t_o: float = 5.0      # claim-to-reserve timeout, s
    t_w: float = 0.5      # window the enquirer waits for helper answers, s
    t: float = 0.3        # bound for a helper's reply, s (t < t_w)
    t_cr: float = 10.0    # maximum duration of a crossing manoeuvre, s

    def __post_init__(self):
        # guard verdicts are keyed on the params, so every guard check hashes
        # them: hash the fields once
        object.__setattr__(self, "_hash", hash(astuple(self)))

    def __hash__(self):
        return self._hash

    @property
    def d_c_prime(self) -> float:
        """Trigger distance extended by the worst-case invisible envelope."""
        return self.d_c + self.max_se

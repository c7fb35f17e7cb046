"""The rank of the decay-weighted sample Value-at-Risk.

The VaR is a plain order statistic of the scenario P&L vector: the decay
factor enters only through the selected rank.  With beta at the usual 1%
and 250 scenarios the selected entry is the worst loss, which keeps the
measure strongly tail-driven.  No sign flip is applied; the quantile is
reported as-is (typically negative).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class VarConfig:
    beta: float
    decay: float
    count: int

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {self.decay}")
        if self.count < 1:
            raise ValueError(f"scenario count must be >= 1, got {self.count}")


def var_index(cfg: VarConfig) -> int:
    """1-based rank of the ascending-sorted P&L entry that defines the VaR.

    alpha = 1 - beta (1 - decay^s); rank = ceil(ln alpha / ln decay),
    clamped into [1, s] for degenerate parameter combinations.
    """
    alpha = 1.0 - cfg.beta * (1.0 - cfg.decay ** cfg.count)
    raw = math.ceil(math.log(alpha) / math.log(cfg.decay))
    clamped = min(max(raw, 1), cfg.count)
    if clamped != raw:
        log.warning("VaR rank %d clamped to %d (beta=%g decay=%g s=%d)",
                    raw, clamped, cfg.beta, cfg.decay, cfg.count)
    return clamped

"""Risk-aware trading portfolio optimization.

Given an initial book, historical risk scenarios and a universe of tradable
eligible instruments, find a constrained strategy of options, futures and
stock that minimizes a cost-adjusted P&L-over-VaR ratio.  The search runs an
integer particle swarm over precomputed instrument features; a brute-force
oracle certifies small instances and a synthetic data generator stands in
for proprietary market data.
"""

from .instruments import (
    Category,
    Kind,
    MarketData,
    Portfolio,
    ScenarioSet,
    UeiDescriptor,
    UnderlyingSpec,
    build_universe,
    descriptor_id,
    parse_descriptor_id,
)
from .features import FeatureLab, FeatureTable, InstrumentFeatures, PortfolioFeatures, aggregate
from .problem import (
    ConstraintSpec,
    EosStructure,
    ProblemInstance,
    SlotSpec,
    build_structure,
    decode,
    riskfree_pnl,
    round_magnitude,
    search_space_size,
)
from .risk import VarConfig, var_index
from .swarm import RandomMode, RatsConfig, RatsResult, StopReason, Swarm, run
from .oracle import OracleResult, enumerate_space

__all__ = [
    "Category", "Kind", "MarketData", "Portfolio", "ScenarioSet", "UeiDescriptor",
    "UnderlyingSpec", "build_universe", "descriptor_id", "parse_descriptor_id",
    "FeatureLab", "FeatureTable", "InstrumentFeatures", "PortfolioFeatures", "aggregate",
    "ConstraintSpec", "EosStructure", "ProblemInstance", "SlotSpec", "build_structure",
    "decode", "riskfree_pnl", "round_magnitude", "search_space_size",
    "VarConfig", "var_index",
    "RandomMode", "RatsConfig", "RatsResult", "StopReason", "Swarm", "run",
    "OracleResult", "enumerate_space",
]

__version__ = "0.1.0"

"""Pure Nash equilibria of quasi-proportional single-item auctions.

The package has three layers:

* :mod:`qpauction.mechanism`: game description and exact payoff algebra,
* :mod:`qpauction.analytic`: closed forms and limits for special cases,
* :mod:`qpauction.solver`: equilibrium computation with a verifiable
  epsilon-Nash certificate,

plus :mod:`qpauction.harness` (parameter sweeps to CSV),
:mod:`qpauction.acceptance` (the end-to-end verification suite) and
:mod:`qpauction.cli` (the ``qpauction`` command).
"""

from .analytic import (
    ManyBuyerLimit,
    TwoBidderAllPayEq,
    TwoBidderWinnersPayEq,
    UniformEq,
    allpay_two_bidder_power,
    logweight_bid_bound,
    manybuyer_limits,
    uniform_equilibrium,
    winnerpay_proportional_best_response,
    winnerpay_proportional_two_bidder,
)
from .errors import DegenerateProfileError, DomainError
from .harness import SweepRow, SweepSpec, format_csv, read_csv, run_sweep, write_csv
from .mechanism import (
    AuctionInstance,
    BidVector,
    PaymentRule,
    ValuationProfile,
    allocation_probabilities,
    efficiency,
    foc_residual,
    revenue,
    utility,
    utility_gradient,
    utility_gradients,
)
from .solver import (
    EquilibriumResult,
    Method,
    SolverConfig,
    aggregate_solve,
    best_response,
    best_response_gap,
    best_response_iteration,
    solve,
)
from .weights import WeightSpec

__version__ = "0.1.0"

__all__ = [
    "AuctionInstance",
    "BidVector",
    "DegenerateProfileError",
    "DomainError",
    "EquilibriumResult",
    "ManyBuyerLimit",
    "Method",
    "PaymentRule",
    "SolverConfig",
    "SweepRow",
    "SweepSpec",
    "TwoBidderAllPayEq",
    "TwoBidderWinnersPayEq",
    "UniformEq",
    "ValuationProfile",
    "WeightSpec",
    "aggregate_solve",
    "allocation_probabilities",
    "allpay_two_bidder_power",
    "best_response",
    "best_response_gap",
    "best_response_iteration",
    "efficiency",
    "foc_residual",
    "format_csv",
    "logweight_bid_bound",
    "manybuyer_limits",
    "read_csv",
    "revenue",
    "run_sweep",
    "solve",
    "uniform_equilibrium",
    "utility",
    "utility_gradient",
    "utility_gradients",
    "winnerpay_proportional_best_response",
    "winnerpay_proportional_two_bidder",
    "write_csv",
    "__version__",
]

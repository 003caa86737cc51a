"""PUF-backed permissioned ledger with a deterministic network simulator.

The package simulates hybrid oscillator arbiter PUFs, screens their
challenges by figures of merit, enrolls challenge-response pairs into a
registry only its one trusted node may read, and runs a proof-of-PUF consensus
flow (initiate, authenticate, accept-validated) over an append-only
hash-linked chain. A discrete-event simulator drives whole networks through
transaction schedules and adversarial injections, and a harness turns all
of it into files and metrics.
"""

from .harness import ScenarioConfig, run_scenario

__version__ = "0.1.0"

__all__ = ["ScenarioConfig", "run_scenario"]

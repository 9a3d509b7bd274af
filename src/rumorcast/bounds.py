"""Analytic lower bounds and slot-statistics expectations.

The message floor counts forced transmissions: every source must speak at
least once, and any schedule must push rumors across a minimum connected
dominating set, at most ``compression`` rumors per message.  The time floor
is the network diameter.  The slot expectations predict the behavior of the
randomized per-round transmission routines and serve as test oracles.
Closed forms that only tests compare against (the fractional message floor
and the star-path optimum) live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .backbone import BRUTE_FORCE_NODE_LIMIT, brute_force_mcds, greedy_cds
from .distributed import slots_per_half
from .model import NetworkGraph, diameter


def message_lower_bound(rumor_count: int, compression: int,
                        mcds_size: int) -> int:
    """Minimum messages any schedule needs: max(k, ceil(k*(m-1)/c)).

    Every one of the ``rumor_count`` sources transmits at least once, and
    every rumor must cross all but one of the ``mcds_size`` backbone relays
    packed at most ``compression`` to a message.
    """
    if compression < 1:
        raise ValueError(f"compression must be >= 1, got {compression}")
    if rumor_count < 1:
        raise ValueError(f"rumor count must be >= 1, got {rumor_count}")
    relay_msgs = -(-rumor_count * (mcds_size - 1) // compression)
    return max(rumor_count, relay_msgs)


@dataclass(frozen=True)
class CdExpectations:
    """Per-round predictions for the collision-detecting transmit routine."""

    slots: int
    success_prob: float
    exp_retx_bound: float
    exp_err_msgs: float
    approx_success_prob: float
    approx_err_msgs: float


def expected_cd_stats(degree: int, max_degree: int,
                      slot_factor: float) -> CdExpectations:
    """Expectations for one sender with ``degree`` listening neighbors.

    Slots per half-round: ceil(slot_factor * max_degree).  Each listener can
    be jammed by up to max_degree rivals picking the same slot, so the
    all-neighbors-receive probability is the exact product
    (1 - 1/slots)^(max_degree * degree); the e-based forms the analysis
    rounds to are reported alongside as approximations.  The expected
    retransmission count until success is bounded by exp(2*degree/slot_factor)
    and a round costs degree * (1 - (1 - 1/slots)^max_degree) error echoes.
    """
    if degree > max_degree:
        raise ValueError("degree cannot exceed max_degree")
    slots = slots_per_half(slot_factor, max_degree)
    per_listener = (1.0 - 1.0 / slots) ** max_degree
    success = per_listener ** degree
    retx = math.exp(2.0 * degree / slot_factor)
    err = degree * (1.0 - per_listener)
    return CdExpectations(
        slots=slots,
        success_prob=success,
        exp_retx_bound=retx,
        exp_err_msgs=err,
        approx_success_prob=math.exp(-degree / slot_factor),
        approx_err_msgs=degree * (1.0 - math.exp(-1.0 / slot_factor)),
    )


@dataclass(frozen=True)
class NoCdExpectations:
    """Per-round predictions for the acknowledgement-based transmit routine."""

    slots: int
    success_prob: float
    exp_neighbor_tx: float
    rounds_to_drain: int


def expected_nocd_stats(degree: int, max_degree: int,
                        slot_factor: float) -> NoCdExpectations:
    """Expectations for draining one sender's pending-listener list.

    An acknowledging listener must dodge both its own neighborhood and the
    sender's, giving per-round per-listener success exp(-2/slot_factor).
    Summing the expected survivors over rounds bounds total listener
    transmissions by exp(2/slot_factor) * degree, and the list is expected
    empty after the smallest j with degree*(1-exp(-2/slot_factor))^j < 1.
    """
    if degree > max_degree:
        raise ValueError("degree cannot exceed max_degree")
    slots = slots_per_half(slot_factor, max_degree)
    success = math.exp(-2.0 / slot_factor)
    neighbor_tx = math.exp(2.0 / slot_factor) * degree
    fail = 1.0 - success
    rounds = 0
    while degree * fail ** rounds >= 1.0:
        rounds += 1
    return NoCdExpectations(slots=slots, success_prob=success,
                            exp_neighbor_tx=neighbor_tx,
                            rounds_to_drain=rounds)


@dataclass(frozen=True)
class BoundReport:
    """Instance-level floors reported next to simulation results."""

    message_lb: int
    time_lb: int
    mcds_size: int
    mcds_is_exact: bool
    formulas_used: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {"message_lb": self.message_lb, "time_lb": self.time_lb,
                "mcds_size": self.mcds_size,
                "mcds_is_exact": self.mcds_is_exact,
                "formulas_used": list(self.formulas_used)}


def bound_report(g: NetworkGraph, rumor_count: int,
                 compression: int) -> BoundReport:
    """Compute the message and time floors for one instance.

    Uses the exact minimum connected dominating set when the network is
    small enough to enumerate, otherwise the greedy one, and flags which.
    Either set and the diameter, the time floor, are kept on the graph.
    On a one-node network the only node already holds every rumor, so the
    message floor is 0.
    """
    exact = len(g.node_ids) <= BRUTE_FORCE_NODE_LIMIT
    mcds = brute_force_mcds(g) if exact else greedy_cds(g)
    message_lb = message_lower_bound(rumor_count, compression, mcds.size)
    message_formula = "messages>=max(k,ceil(k*(mcds-1)/compression))"
    if len(g.node_ids) == 1:
        message_lb = 0
        message_formula = "messages>=0 (one node holds every rumor)"
    return BoundReport(
        message_lb=message_lb,
        time_lb=diameter(g),
        mcds_size=mcds.size,
        mcds_is_exact=exact,
        formulas_used=(message_formula, "rounds>=network-diameter"),
    )

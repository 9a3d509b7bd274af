"""Lower-bound formulas and slot-expectation oracles."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorcast.model import NetworkGraph
from rumorcast.bounds import (
    BoundReport,
    bound_report,
    expected_cd_stats,
    expected_nocd_stats,
    message_lower_bound,
)

from oracles import message_lower_bound_raw, time_lower_bound_star_path


# --- message floor ---------------------------------------------------------

def test_message_floor_single_relay_star():
    # one relay: the source-transmissions term dominates
    assert message_lower_bound(3, 1, 1) == 3


def test_message_floor_single_rumor():
    for mcds in (1, 2, 5):
        assert message_lower_bound(1, 1, mcds) == max(1, mcds - 1)


def test_message_floor_relay_term_dominates():
    assert message_lower_bound(4, 2, 5) == 8


def test_message_floor_raw_keeps_fractions():
    assert message_lower_bound_raw(4, 2, 5) == 8.0
    assert message_lower_bound_raw(3, 2, 2) == 3.0
    assert message_lower_bound_raw(2, 4, 3) == 2.0


def test_message_floor_rejects_bad_inputs():
    with pytest.raises(ValueError):
        message_lower_bound(3, 0, 2)
    with pytest.raises(ValueError):
        message_lower_bound(0, 1, 2)
    with pytest.raises(ValueError):
        message_lower_bound_raw(2, 0, 2)


@given(st.integers(1, 50), st.integers(1, 10), st.integers(1, 30))
def test_message_floor_is_at_least_the_rumor_count(k, c, mcds):
    assert message_lower_bound(k, c, mcds) >= k
    assert message_lower_bound(k, c, mcds) >= message_lower_bound_raw(
        k, c, mcds) - 1e-12


# --- time floor ------------------------------------------------------------

def test_time_floor_one_batch_just_walks_the_tail():
    assert time_lower_bound_star_path(3, 3, 2) == 2
    assert time_lower_bound_star_path(5, 5, 7) == 7


def test_time_floor_uncompressed():
    assert time_lower_bound_star_path(4, 1, 3) == 6


def test_time_floor_fractional_batching_rounds_up():
    assert time_lower_bound_star_path(5, 2, 1) == 3


def test_time_floor_rejects_bad_inputs():
    with pytest.raises(ValueError):
        time_lower_bound_star_path(0, 1, 2)
    with pytest.raises(ValueError):
        time_lower_bound_star_path(2, 1, 0)
    with pytest.raises(ValueError):
        time_lower_bound_star_path(2, 0, 2)


# --- collision-detection expectations ---------------------------------------

def test_cd_stats_pinned_example():
    stats = expected_cd_stats(4, 4, 4.0)
    assert stats.slots == 16
    assert stats.success_prob == pytest.approx((1 - 1 / 16) ** 16)
    assert stats.exp_retx_bound == pytest.approx(math.e ** 2)
    assert stats.exp_err_msgs == pytest.approx(4 * (1 - (1 - 1 / 16) ** 4))
    assert stats.approx_err_msgs == pytest.approx(4 * (1 - math.exp(-0.25)))
    assert stats.approx_success_prob == pytest.approx(math.exp(-1.0))


def test_cd_retransmission_bound_is_e_squared_when_factor_matches_degree():
    for d in (2, 3, 8):
        assert expected_cd_stats(d, d, float(d)).exp_retx_bound == \
            pytest.approx(math.e ** 2)


def test_cd_stats_degenerate_sender_with_no_listeners():
    stats = expected_cd_stats(0, 5, 2.0)
    assert stats.success_prob == 1.0
    assert stats.exp_err_msgs == 0.0
    assert stats.exp_retx_bound == 1.0


def test_cd_stats_input_validation():
    with pytest.raises(ValueError):
        expected_cd_stats(5, 4, 2.0)
    with pytest.raises(ValueError):
        expected_cd_stats(2, 4, 0.0)


@pytest.mark.parametrize("stats", [expected_cd_stats, expected_nocd_stats],
                         ids=["cd", "nocd"])
@pytest.mark.parametrize("factor", [math.nan, math.inf], ids=["nan", "inf"])
def test_stats_refuse_a_non_finite_slot_factor(stats, factor):
    # NaN raised a bare ValueError from ceil(), inf an OverflowError
    with pytest.raises(ValueError, match="slot_factor"):
        stats(2, 4, factor)


def test_cd_success_probability_matches_monte_carlo():
    # independent oracle: one sender, `degree` listeners, each listener
    # watched by `max_degree` rival transmitters on their own uniform slots;
    # a listener is clean iff no rival hits the sender's slot
    degree, max_degree, slot_factor = 3, 4, 2.0
    stats = expected_cd_stats(degree, max_degree, slot_factor)
    rng = random.Random(20240816)
    trials = 200_000
    hits = 0
    for _ in range(trials):
        sender_slot = rng.randrange(stats.slots)
        clean = True
        for _listener in range(degree):
            for _rival in range(max_degree):
                if rng.randrange(stats.slots) == sender_slot:
                    clean = False
        hits += clean
    observed = hits / trials
    stderr = math.sqrt(stats.success_prob * (1 - stats.success_prob) / trials)
    assert abs(observed - stats.success_prob) <= 4 * stderr


@given(st.integers(0, 8), st.integers(1, 8), st.floats(0.5, 8.0))
@settings(max_examples=150)
def test_cd_success_monotone_in_degree_and_slot_factor(degree, extra, factor):
    max_degree = degree + extra
    base = expected_cd_stats(degree, max_degree, factor)
    if degree + 1 <= max_degree:
        more_load = expected_cd_stats(degree + 1, max_degree, factor)
        assert more_load.success_prob <= base.success_prob + 1e-12
    more_room = expected_cd_stats(degree, max_degree, factor + 0.7)
    assert more_room.success_prob >= base.success_prob - 1e-12


# --- acknowledgement-mode expectations ---------------------------------------

def test_nocd_stats_pinned_example():
    stats = expected_nocd_stats(8, 8, 2.0)
    assert stats.success_prob == pytest.approx(math.exp(-1.0))
    assert stats.exp_neighbor_tx == pytest.approx(8 * math.e)
    assert stats.rounds_to_drain == 5
    assert stats.rounds_to_drain == math.ceil(
        math.log(1 / 8) / math.log(1 - math.exp(-1.0)))


def test_nocd_single_listener_drains_in_one_round():
    assert expected_nocd_stats(1, 4, 2.0).rounds_to_drain == 1


def test_nocd_no_listeners_drains_immediately():
    assert expected_nocd_stats(0, 4, 2.0).rounds_to_drain == 0


def test_nocd_stats_input_validation():
    with pytest.raises(ValueError, match="degree cannot exceed max_degree"):
        expected_nocd_stats(5, 4, 2.0)


@given(st.integers(2, 40), st.floats(0.5, 6.0))
@settings(max_examples=100)
def test_nocd_drain_rounds_match_closed_form(degree, factor):
    stats = expected_nocd_stats(degree, degree, factor)
    fail = 1 - math.exp(-2 / factor)
    closed = math.ceil(math.log(1 / degree) / math.log(fail))
    # the loop and the closed form may disagree only on exact-integer edges
    assert abs(stats.rounds_to_drain - closed) <= 1
    assert degree * fail ** stats.rounds_to_drain < 1
    if stats.rounds_to_drain:
        assert degree * fail ** (stats.rounds_to_drain - 1) >= 1


# --- per-instance report -----------------------------------------------------

def path4():
    return NetworkGraph.from_adjacency(
        {"a": ["b"], "b": ["a", "c"], "c": ["b", "d"], "d": ["c"]})


def test_bound_report_uses_exact_mcds_on_small_networks():
    report = bound_report(path4(), rumor_count=4, compression=2)
    assert report.mcds_size == 2
    assert report.mcds_is_exact
    assert report.message_lb == max(4, math.ceil(4 * 1 / 2))
    assert report.time_lb == 3
    assert report.message_lb >= 4


def test_bound_report_flags_estimated_mcds_on_big_networks():
    n = 18
    adj = {i: [(i - 1) % n, (i + 1) % n] for i in range(n)}
    g = NetworkGraph.from_adjacency(adj)
    report = bound_report(g, rumor_count=2, compression=1)
    assert not report.mcds_is_exact
    assert report.mcds_size >= 14  # a cycle needs n-2 members
    assert report.time_lb == 9


def test_bound_report_names_the_one_node_case():
    g = NetworkGraph.from_adjacency({"solo": []})
    report = bound_report(g, rumor_count=3, compression=2)
    assert report.message_lb == 0
    assert report.time_lb == 0
    assert report.formulas_used == ("messages>=0 (one node holds every rumor)",
                                    "rounds>=network-diameter")
    two = bound_report(path4(), rumor_count=3, compression=2)
    assert two.formulas_used[0] == (
        "messages>=max(k,ceil(k*(mcds-1)/compression))")


def test_bound_report_serializes():
    report = bound_report(path4(), rumor_count=2, compression=1)
    data = report.to_dict()
    assert data["message_lb"] == report.message_lb
    assert data["mcds_is_exact"] is True
    assert isinstance(data["formulas_used"], list)

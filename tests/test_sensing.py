import random

import pytest
from reference import WindowLedger

from hetsim.domain import ALL_NETWORKS, NetworkKind
from hetsim.sensing import LOSS_WINDOW_CYCLES, ReceptionLedger

DSRC = NetworkKind.DSRC
LTE = NetworkKind.LTE


def test_trailing_second_span():
    assert LOSS_WINDOW_CYCLES == 10


def heard_before(led, senders, net=DSRC):
    """Close a cycle in which `senders` were heard, so measure can compare."""
    led.begin_cycle()
    for sender in senders:
        led.record_reception(net, sender, 0.01)


def test_record_stores_delay():
    led = ReceptionLedger()
    heard_before(led, [1])
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.02)
    delay, _, _ = led.measure(DSRC)
    assert delay == pytest.approx(0.02)


def test_duplicate_sender_keeps_latest():
    led = ReceptionLedger()
    heard_before(led, [1])
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.02)
    led.record_reception(DSRC, 1, 0.05)
    delay, plr, jit = led.measure(DSRC)
    assert delay == pytest.approx(0.05)
    assert plr == 0.0
    assert jit == pytest.approx(0.04)
    assert led.distinct_senders(DSRC) == 1


def test_causality_violation_rejected():
    # A reception before its generation shows up as a negative delay; a
    # NaN or infinite one would reach the scores through measure().
    led = ReceptionLedger()
    led.begin_cycle()
    for delay in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"got {delay}"):
            led.record_reception(DSRC, 1, delay)
    assert led.distinct_senders(DSRC) == 0


def test_distinct_senders_three_cycle_union():
    led = ReceptionLedger()
    led.begin_cycle()  # t-2: empty
    led.begin_cycle()  # t-1: {2, 3}
    led.record_reception(DSRC, 2, 0.02)
    led.record_reception(DSRC, 3, 0.02)
    led.begin_cycle()  # t: {1, 2}
    led.record_reception(DSRC, 1, 0.02)
    led.record_reception(DSRC, 2, 0.02)
    assert led.distinct_senders(DSRC) == 3


def test_distinct_senders_empty_and_repeat():
    led = ReceptionLedger()
    led.begin_cycle()
    assert led.distinct_senders(DSRC) == 0
    for _ in range(3):
        led.begin_cycle()
        led.record_reception(DSRC, 7, 0.01)
    assert led.distinct_senders(DSRC) == 1


def test_window_drops_old_cycles():
    led = ReceptionLedger()
    led.begin_cycle()
    led.record_reception(DSRC, 9, 0.01)
    for _ in range(3):
        led.begin_cycle()
    assert led.distinct_senders(DSRC) == 0


def test_networks_kept_separate():
    led = ReceptionLedger()
    led.begin_cycle()
    led.record_reception(LTE, 1, 0.05)
    assert led.distinct_senders(LTE) == 1
    assert led.distinct_senders(DSRC) == 0


def test_measure_delay_mean_and_undefined():
    led = ReceptionLedger()
    heard_before(led, [1, 2])
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.02)
    led.record_reception(DSRC, 2, 0.04)
    delay, _, _ = led.measure(DSRC)
    assert delay == pytest.approx(0.03)
    assert led.measure(LTE) is None


def test_measure_delay_singleton():
    led = ReceptionLedger()
    heard_before(led, [5])
    led.begin_cycle()
    led.record_reception(DSRC, 5, 0.05)
    delay, _, _ = led.measure(DSRC)
    assert delay == pytest.approx(0.05)


def test_measure_plr_loss_over_trailing_second():
    led = ReceptionLedger()
    # 10 senders seen over the trailing second, 8 of them this cycle
    heard_before(led, range(10))
    led.begin_cycle()
    for sender in range(8):
        led.record_reception(DSRC, sender, 0.01)
    _, plr, _ = led.measure(DSRC)
    assert plr == pytest.approx(0.25)


def test_measure_plr_no_loss():
    led = ReceptionLedger()
    heard_before(led, range(7))
    led.begin_cycle()
    for sender in range(7):
        led.record_reception(DSRC, sender, 0.01)
    _, plr, _ = led.measure(DSRC)
    assert plr == 0.0


def test_measure_plr_trailing_window_boundary():
    # Sender 1 is heard every cycle; sender 2 last `back` cycles before the
    # current one.
    def plr_with_sender_2_heard(back):
        led = ReceptionLedger()
        heard_before(led, [1])
        heard_before(led, [1, 2])
        for _ in range(back):
            heard_before(led, [1])
        _, plr, _ = led.measure(DSRC)
        return plr, led

    inside, _ = plr_with_sender_2_heard(LOSS_WINDOW_CYCLES - 1)
    outside, led = plr_with_sender_2_heard(LOSS_WINDOW_CYCLES)
    assert inside == 1.0  # (2 heard - 1 now) / 1 now
    assert outside == 0.0
    # the sender window spans 3 cycles, not the trailing second
    assert led.distinct_senders(DSRC) == 1


def test_measure_plr_undefined_when_silent():
    led = ReceptionLedger()
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.01)
    led.begin_cycle()
    assert led.measure(DSRC) is None


def test_measure_jitter_mean_abs_change():
    led = ReceptionLedger()
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.02)
    led.record_reception(DSRC, 2, 0.05)
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.03)
    led.record_reception(DSRC, 2, 0.02)
    _, _, jit = led.measure(DSRC)
    assert jit == pytest.approx(0.02)  # mean(0.01, 0.03)


def test_measure_jitter_constant_delays():
    led = ReceptionLedger()
    for _ in range(2):
        led.begin_cycle()
        led.record_reception(DSRC, 1, 0.02)
    _, _, jit = led.measure(DSRC)
    assert jit == pytest.approx(0.0, abs=1e-12)


def test_measure_jitter_undefined_cases():
    led = ReceptionLedger()
    assert led.measure(DSRC) is None  # nothing heard yet
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.02)
    assert led.measure(DSRC) is None  # one cycle only
    led.begin_cycle()
    led.record_reception(DSRC, 2, 0.02)
    assert led.measure(DSRC) is None  # no sender in both cycles


def test_measure_requires_all_three():
    led = ReceptionLedger()
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.02)
    assert led.measure(DSRC) is None  # jitter undefined on the first cycle
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.03)
    delay, plr, jit = led.measure(DSRC)
    assert delay == pytest.approx(0.03)
    assert plr == 0.0
    assert jit == pytest.approx(0.01)


def test_adding_reception_never_decreases_distinct_count():
    led = ReceptionLedger()
    led.begin_cycle()
    count = led.distinct_senders(DSRC)
    for sender in (3, 1, 3, 8, 1):
        led.record_reception(DSRC, sender, 0.01)
        now = led.distinct_senders(DSRC)
        assert now >= count
        count = now


def test_measurements_are_pure():
    led = ReceptionLedger()
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.02)
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.04)
    first = (led.measure(DSRC), led.distinct_senders(DSRC))
    second = (led.measure(DSRC), led.distinct_senders(DSRC))
    assert first == second


def test_measure_after_release_raises():
    # end_cycle drops the previous cycle's delays, which measure compares
    # against: reading it again fails rather than measuring something else.
    led = ReceptionLedger()
    heard_before(led, [1])
    heard_before(led, [1, 2])
    led.end_cycle()
    with pytest.raises(TypeError):
        led.measure(DSRC)
    assert led.distinct_senders(DSRC) == 2
    heard_before(led, [2])
    assert led.measure(DSRC) == (0.01, 1.0, 0.0)  # sender 1 heard within the second


def replay_against_reference(rng, senders, n_cycles, release=False):
    """Drive a ReceptionLedger and a WindowLedger alike and compare every read.

    Each sender is heard with its own probability, sometimes twice in a
    cycle, and moves between networks; some cycles are silent. Receptions go
    through record_reception or, as the engine writes them, into the slots
    begin_cycle returns, stamped by stamp_heard with the masks of the senders
    in those slots, sometimes between writes. With `release`, end_cycle
    follows each cycle's reads, as the engine calls it; the reference keeps
    every slot.
    """
    led, ref = ReceptionLedger(), WindowLedger()

    def stamp(opened):
        led.stamp_heard([sum(1 << sender for sender in slot) for slot in opened])

    presence = [rng.uniform(0.1, 0.9) for _ in senders]
    network = [rng.choice(ALL_NETWORKS) for _ in senders]

    def same():
        for net in ALL_NETWORKS:
            assert led.measure(net) == ref.measure(net)
            assert led.distinct_senders(net) == ref.distinct_senders(net)

    same()
    for _ in range(n_cycles):
        opened = led.begin_cycle()
        ref.begin_cycle()
        silent = rng.random() < 0.15
        unstamped = False
        for index, (sender, p) in enumerate(zip(senders, presence)):
            if rng.random() < 0.2:
                network[index] = rng.choice(ALL_NETWORKS)
            if silent or rng.random() >= p:
                continue
            for _ in range(2 if rng.random() < 0.2 else 1):
                net, delay = network[index], rng.uniform(0.0, 0.1)
                ref.record_reception(net, sender, delay)
                if rng.random() < 0.5:
                    led.record_reception(net, sender, delay)
                else:
                    opened[ALL_NETWORKS.index(net)][sender] = delay
                    unstamped = True
                if unstamped and rng.random() < 0.1:
                    stamp(opened)
                    unstamped = False
        # Only slot writes need the stamp: a cycle of record_reception alone
        # must stamp its senders itself.
        if unstamped:
            stamp(opened)
        same()
        if release:
            led.end_cycle()
            for net in ALL_NETWORKS:
                with pytest.raises(TypeError):
                    led.measure(net)
                assert led.distinct_senders(net) == ref.distinct_senders(net)


@pytest.mark.parametrize("seed", range(52))
def test_ledger_matches_window_reference(seed):
    # 0..25 cycles, twice over, with 8 senders.
    replay_against_reference(random.Random(seed), range(8), seed % 26)


@pytest.mark.parametrize("seed", range(1, 26))
def test_released_ledger_matches_window_reference(seed):
    # The replays of seeds 1..25 above, each ledger released after every
    # cycle's reads: the next cycle measures what an unreleased one does.
    replay_against_reference(random.Random(seed), range(8), seed, release=True)


@pytest.mark.parametrize("seed", range(12))
def test_ledger_matches_window_reference_wide_sender_ids(seed):
    # Ids spread over 0..299, so the heard-sender masks span several int digits.
    rng = random.Random(1000 + seed)
    replay_against_reference(rng, rng.sample(range(300), 40), 14 + seed)


def test_negative_sender_rejected():
    led = ReceptionLedger()
    led.begin_cycle()
    with pytest.raises(ValueError, match="-3"):
        led.record_reception(DSRC, -3, 0.01)
    assert led.distinct_senders(DSRC) == 0

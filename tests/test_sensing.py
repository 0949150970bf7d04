import pytest

from hetsim.domain import NetworkKind
from hetsim.sensing import ReceptionLedger

DSRC = NetworkKind.DSRC
LTE = NetworkKind.LTE


def make_ledger(cycle_length=0.1):
    return ReceptionLedger(cycle_length)


def test_trailing_second_span():
    assert make_ledger(0.1).trailing_cycles == 10
    assert make_ledger(0.3).trailing_cycles == 4
    assert make_ledger(1.0).trailing_cycles == 1


def test_record_stores_delay():
    led = make_ledger()
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.02)
    assert led.measure_delay(DSRC) == pytest.approx(0.02)


def test_duplicate_sender_keeps_latest():
    led = make_ledger()
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.02)
    led.record_reception(DSRC, 1, 0.05)
    assert led.measure_delay(DSRC) == pytest.approx(0.05)
    assert led.distinct_senders(DSRC) == 1


def test_causality_violation_rejected():
    # A reception before its generation shows up as a negative delay.
    led = make_ledger()
    led.begin_cycle()
    with pytest.raises(ValueError):
        led.record_reception(DSRC, 1, -0.1)


def test_distinct_senders_three_cycle_union():
    led = make_ledger()
    led.begin_cycle()  # t-2: empty
    led.begin_cycle()  # t-1: {2, 3}
    led.record_reception(DSRC, 2, 0.02)
    led.record_reception(DSRC, 3, 0.02)
    led.begin_cycle()  # t: {1, 2}
    led.record_reception(DSRC, 1, 0.02)
    led.record_reception(DSRC, 2, 0.02)
    assert led.distinct_senders(DSRC) == 3


def test_distinct_senders_empty_and_repeat():
    led = make_ledger()
    led.begin_cycle()
    assert led.distinct_senders(DSRC) == 0
    for _ in range(3):
        led.begin_cycle()
        led.record_reception(DSRC, 7, 0.01)
    assert led.distinct_senders(DSRC) == 1


def test_window_drops_old_cycles():
    led = make_ledger()
    led.begin_cycle()
    led.record_reception(DSRC, 9, 0.01)
    for _ in range(3):
        led.begin_cycle()
    assert led.distinct_senders(DSRC) == 0


def test_networks_kept_separate():
    led = make_ledger()
    led.begin_cycle()
    led.record_reception(LTE, 1, 0.05)
    assert led.distinct_senders(LTE) == 1
    assert led.distinct_senders(DSRC) == 0


def test_measure_delay_mean_and_undefined():
    led = make_ledger()
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.02)
    led.record_reception(DSRC, 2, 0.04)
    assert led.measure_delay(DSRC) == pytest.approx(0.03)
    assert led.measure_delay(LTE) is None


def test_measure_delay_singleton():
    led = make_ledger()
    led.begin_cycle()
    led.record_reception(DSRC, 5, 0.05)
    assert led.measure_delay(DSRC) == pytest.approx(0.05)


def test_measure_plr_loss_over_trailing_second():
    led = make_ledger()
    # 10 senders seen over the trailing second, 8 of them this cycle
    led.begin_cycle()
    for sender in range(10):
        led.record_reception(DSRC, sender, 0.01)
    led.begin_cycle()
    for sender in range(8):
        led.record_reception(DSRC, sender, 0.01)
    assert led.measure_plr(DSRC) == pytest.approx(0.25)


def test_measure_plr_no_loss_and_clamp():
    led = make_ledger()
    led.begin_cycle()
    for sender in range(7):
        led.record_reception(DSRC, sender, 0.01)
    assert led.measure_plr(DSRC) == 0.0
    # more senders now than the trailing second held before: clamp at 0
    led2 = make_ledger(cycle_length=1.0)  # trailing second = 1 cycle
    led2.begin_cycle()
    for sender in range(6):
        led2.record_reception(DSRC, sender, 0.5)
    assert led2.measure_plr(DSRC) == 0.0


def test_measure_plr_undefined_when_silent():
    led = make_ledger()
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.01)
    led.begin_cycle()
    assert led.measure_plr(DSRC) is None


def test_measure_jitter_mean_abs_change():
    led = make_ledger()
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.02)
    led.record_reception(DSRC, 2, 0.05)
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.03)
    led.record_reception(DSRC, 2, 0.02)
    assert led.measure_jitter(DSRC) == pytest.approx(0.02)  # mean(0.01, 0.03)


def test_measure_jitter_constant_delays():
    led = make_ledger()
    for _ in range(2):
        led.begin_cycle()
        led.record_reception(DSRC, 1, 0.02)
    assert led.measure_jitter(DSRC) == pytest.approx(0.0, abs=1e-12)


def test_measure_jitter_undefined_cases():
    led = make_ledger()
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.02)
    assert led.measure_jitter(DSRC) is None  # one cycle only
    led.begin_cycle()
    led.record_reception(DSRC, 2, 0.02)
    assert led.measure_jitter(DSRC) is None  # no sender in both cycles


def test_measure_requires_all_three():
    led = make_ledger()
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
    led = make_ledger()
    led.begin_cycle()
    count = led.distinct_senders(DSRC)
    for sender in (3, 1, 3, 8, 1):
        led.record_reception(DSRC, sender, 0.01)
        now = led.distinct_senders(DSRC)
        assert now >= count
        count = now


def test_measurements_are_pure():
    led = make_ledger()
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.02)
    led.begin_cycle()
    led.record_reception(DSRC, 1, 0.04)
    first = (led.measure_delay(DSRC), led.measure_plr(DSRC), led.measure_jitter(DSRC))
    second = (led.measure_delay(DSRC), led.measure_plr(DSRC), led.measure_jitter(DSRC))
    assert first == second

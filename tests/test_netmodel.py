import random

import pytest
from reference import score

from hetsim.domain import CYCLE_S
from hetsim.evaluation import ground_truth_eval
from hetsim.netmodel import NetworkProfile, perf_at
from hetsim.sensing import HEARD, LOST, LinkSample, sample_link

#: A generation time whose round trip moves the last bits of most delays.
GEN_TIME = 37 * CYCLE_S

def profile(**kw):
    base = dict(d0=0.01, a=0.1, p0=0.02, b=0.05, g0=0.002, h=0.05, cap=50,
                exponent=2)
    base.update(kw)
    return NetworkProfile(**base)


def test_perf_at_zero_load_is_base():
    delay, plr, jit = perf_at(profile(), 0)
    assert delay == 0.01
    assert plr == 0.02
    assert jit == 0.002


def test_perf_at_full_cap():
    delay, _, _ = perf_at(profile(a=0.1, cap=50), 50)
    assert delay == pytest.approx(0.11, abs=1e-15)


def test_plr_clamped_at_one():
    _, plr, _ = perf_at(profile(p0=0.02, b=2.0, cap=50), 100)
    assert plr == 1.0  # raw value 8.02


def test_perf_rejects_negative_load():
    with pytest.raises(ValueError):
        perf_at(profile(), -1)


def test_perf_nondecreasing_and_convex():
    p = profile()
    for n in range(0, 200):
        d0, l0, j0 = perf_at(p, n)
        d1, l1, j1 = perf_at(p, n + 1)
        assert d1 >= d0 and l1 >= l0 and j1 >= j0


def test_eval_strictly_decreasing_and_concave():
    p = profile()
    evals = [ground_truth_eval(p, n) for n in range(0, 203)]
    for n in range(0, 200):
        assert evals[n + 1] < evals[n]
        # perf convex increasing + affine decreasing normalization
        assert evals[n + 2] - evals[n + 1] <= evals[n + 1] - evals[n] + 1e-12


def test_flat_profile_eval_constant():
    p = profile(a=0.0, b=0.0, h=0.0)
    assert ground_truth_eval(p, 0) == ground_truth_eval(p, 150)


def test_ground_truth_eval_matches_pipeline():
    p = profile()
    for n in (0, 7, 42):
        expected = score(perf_at(p, n), 0.0).score  # the reference's own scoring
        assert ground_truth_eval(p, n) == expected


def test_ground_truth_eval_at_thresholds_is_zero():
    p = profile(d0=0.1, a=0.0, p0=0.05, b=0.0, g0=0.1, h=0.0)
    assert ground_truth_eval(p, 1) == pytest.approx(0.0, abs=1e-15)


def test_ground_truth_eval_halfway():
    p = profile(d0=0.05, a=0.0, p0=0.025, b=0.0, g0=0.05, h=0.0)
    assert ground_truth_eval(p, 1) == pytest.approx(0.5, abs=1e-12)


# --- sensing.sample_link: one broadcast link drawn from these curves ----------

def link(p, curve, sender, slot_index=0):
    """The engine's packed link: (sender, slot_index, d0, delay, plr, -jitter,
    jitter + jitter), the last two the bounds of the jitter draw."""
    delay, plr, jitter = curve
    return (sender, slot_index, p.d0, delay, plr, -jitter, jitter + jitter)


def test_sample_link_certain_loss():
    rng = random.Random(1)
    p_full = profile(p0=0.5, b=2.0)  # plr clamps to 1 at n = 100
    slots = ({},)
    for sender in range(100):
        assert sample_link(link(p_full, perf_at(p_full, 100), sender), rng.random,
                           GEN_TIME, slots) is LOST
    assert slots == ({},)


def test_sample_link_degenerate_delay():
    p = profile(p0=0.0, b=0.0, g0=1e-12, h=0.0)
    rng = random.Random(2)
    slots = ({}, {}, {})
    assert sample_link(link(p, perf_at(p, 10), 4, slot_index=2), rng.random, 0.0, slots) is HEARD
    delay, _, _ = perf_at(p, 10)
    assert slots == ({}, {}, {4: pytest.approx(delay, abs=1e-9)})


def test_sample_link_delay_never_below_base():
    p = profile(h=2.0)  # jitter wide enough to push raw delays negative
    rng = random.Random(3)
    slot = {}
    for sender in range(2000):
        sample_link(link(p, perf_at(p, 5), sender), rng.random, 0.0, (slot,))
    assert slot and min(slot.values()) >= p.d0


def test_sample_link_delivery_rate_matches_plr():
    # plr(n) = 0.25 exactly with flat loss curve; 1e5 draws, 3 sigma band
    p = profile(p0=0.25, b=0.0)
    rng = random.Random(12345)
    trials = 100_000
    curve = perf_at(p, 10)
    slot = {}
    delivered = sum(sample_link(link(p, curve, s), rng.random, GEN_TIME, (slot,)).delivered
                    for s in range(trials))
    assert len(slot) == delivered
    rate = delivered / trials
    sigma = (0.75 * 0.25 / trials) ** 0.5
    assert abs(rate - 0.75) <= 3 * sigma
    assert abs(rate - 0.75) <= 0.01


def reference_sample_link(p, curve, rng, gen_time):
    """The draws, floor and written delay sample_link must match, spelled with
    rng.uniform and max: (delivered, reception time minus generation time)."""
    delay, plr, jitter = curve
    if rng.random() < plr:
        return False, None
    reception_time = gen_time + max(delay + rng.uniform(-jitter, jitter), p.d0)
    return True, reception_time - gen_time


@pytest.mark.parametrize("plr", [0.0, 0.3, 1.0])
def test_sample_link_matches_reference_draw_for_draw(plr):
    # delay - jitter = 0.002 < d0, so about 4 in 10 delivered packets hit the floor.
    p = profile()
    curve = (0.012, plr, 0.01)
    fast, ref = random.Random(2024), random.Random(2024)
    got = []
    for sender in range(10_000):
        slots = ({}, {})
        outcome = sample_link(link(p, curve, sender, slot_index=1), fast.random, GEN_TIME, slots)
        assert outcome is (HEARD if slots[1] else LOST)
        # HEARD leaves exactly one entry, the sender's, in its slot; LOST leaves none.
        got.append((True, slots[1].pop(sender)) if outcome.delivered else (False, None))
        assert slots == ({}, {})
    want = [reference_sample_link(p, curve, ref, GEN_TIME) for _ in range(10_000)]
    assert got == want
    assert fast.getstate() == ref.getstate()
    delays = [delay for delivered, delay in want if delivered]
    assert len(delays) == {0.0: 10_000, 0.3: pytest.approx(7_000, abs=300), 1.0: 0}[plr]
    if delays:
        floor = (GEN_TIME + p.d0) - GEN_TIME
        assert floor in delays and any(delay > floor for delay in delays)
        # The round trip moves the last bits, so a slot holding the plain delay fails.
        plain = random.Random(2024)
        assert want != [reference_sample_link(p, curve, plain, 0.0) for _ in range(10_000)]


def test_sample_link_returns_link_samples():
    p = profile()
    slots = ({},)
    lost = sample_link(link(p, (0.012, 1.0, 0.01), 3), random.Random(5).random, GEN_TIME, slots)
    heard = sample_link(link(p, (0.012, 0.0, 0.01), 3), random.Random(5).random, GEN_TIME, slots)
    assert LinkSample._fields == ("delivered",)
    assert (lost, heard) == (LinkSample(False), LinkSample(True))
    assert lost is LOST and heard is HEARD
    _, delay = reference_sample_link(p, (0.012, 0.0, 0.01), random.Random(5), GEN_TIME)
    assert slots == ({3: delay},)

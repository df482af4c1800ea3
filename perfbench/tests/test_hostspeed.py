import itertools

from hostspeed import NOMINAL_NS, HostSpeed, reference


def test_factor_scales_to_nominal_speed_around_an_instant():
    speed = HostSpeed.from_samples([100, 200, 300, 400, 500],
                                   [NOMINAL_NS, NOMINAL_NS, 2 * NOMINAL_NS, 2 * NOMINAL_NS, 2 * NOMINAL_NS])
    assert speed.factor(50) == 1.0            # nearest: the first two samples
    assert speed.factor(450) == 0.5           # a host twice as slow: halve the times
    assert speed.factor(250) == 2 / 3         # median of 200, 300 | 400 ... mixed window
    assert HostSpeed().factor(123) == 1.0     # no samples: no correction


def test_one_slow_sample_does_not_move_the_factor():
    speed = HostSpeed.from_samples([10, 20, 30, 40], [NOMINAL_NS, 9 * NOMINAL_NS, NOMINAL_NS, NOMINAL_NS])
    assert speed.factor(25) == 1.0


def test_sampling_is_due_every_interval_and_never_when_disabled():
    ticks = itertools.count(0, 5)
    speed = HostSpeed(every_ns=20, clock=lambda: next(ticks), work=lambda: None)
    assert speed.due(0)
    end = speed.sample()
    assert not speed.due(end + 19) and speed.due(end + 20)
    assert list(speed.ns) == [5]
    assert not HostSpeed(every_ns=None).due(10**12)


def test_reference_work_is_fixed():
    assert reference() == reference() == 400

import concurrent.futures
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from tslto import lanes
from tslto.lanes import INLINE, Lane, solve_lane, usable_cpus


@pytest.fixture
def lane():
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        yield Lane(pool)


def _chain(a, b, out, s):
    np.multiply(a, s, out=out)
    out -= b


class TestUsableCpus:
    # the affinity set itself is checked through grid's job cap
    # (tests/test_cli.py::TestGrid::test_jobs_capped)
    def test_falls_back_to_the_host_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3


class TestLane:
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_split_matches_inline(self, lane, order):
        rng = np.random.default_rng(0)
        a, b = (np.asarray(rng.standard_normal((7, 5, 3)), order=order)
                for _ in range(2))
        want, got = np.empty_like(a), np.empty_like(a)
        INLINE.split(_chain, a, b, want, s=1.5)
        lane.split(_chain, a, b, got, s=1.5)
        assert want.tobytes() == got.tobytes()

    def test_halves_cover_the_range_once(self, lane):
        seen = []
        lane.halves(seen.append, 9)
        assert sorted((p.start, p.stop) for p in seen) == [(0, 4), (4, 9)]
        seen.clear()
        INLINE.halves(seen.append, 9)
        assert seen == [slice(0, 9)]

    def test_both_returns_both_values(self, lane):
        side_thread = []
        side = lambda: side_thread.append(threading.current_thread()) or 1
        assert lane.both(side, lambda: 2) == (1, 2)
        assert side_thread[0] is not threading.main_thread()
        assert INLINE.both(lambda: 1, lambda: 2) == (1, 2)

    def test_both_waits_for_the_side_task_when_main_raises(self, lane):
        done = []

        def side():
            time.sleep(0.05)
            done.append(True)

        def main():
            raise KeyError("main")

        with pytest.raises(KeyError):
            lane.both(side, main)
        assert done == [True]

    def test_side_error_is_raised(self, lane):
        def side():
            raise KeyError("side")

        with pytest.raises(KeyError, match="side"):
            lane.both(side, lambda: None)


class TestSolveLane:
    def test_below_break_even_is_inline_and_unpinned(self, monkeypatch):
        monkeypatch.setattr(lanes, "_openblas", lambda: pytest.fail("pinned"))
        with solve_lane(lanes.LANE_MIN_ENTRIES - 1) as lane:
            assert lane is INLINE

    @pytest.mark.parametrize("cpus, child, threaded", [
        (2, False, True), (1, False, False), (2, True, False)])
    def test_worker_needs_a_free_cpu_outside_children(self, monkeypatch, cpus,
                                                      child, threaded):
        counts = []
        monkeypatch.setattr(lanes, "_openblas",
                            lambda: (lambda: 2, counts.append))
        monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(multiprocessing, "parent_process",
                            lambda: object() if child else None)
        with solve_lane(lanes.LANE_MIN_ENTRIES) as lane:
            assert (lane is not INLINE) == threaded
            assert counts == [1]
        assert counts == [1, 2]

    def test_no_openblas_is_inline(self, monkeypatch):
        monkeypatch.setattr(lanes, "_openblas", lambda: None)
        with solve_lane(lanes.LANE_MIN_ENTRIES) as lane:
            assert lane is INLINE


class TestBlasThreads:
    def test_overlapping_pins_hold_until_the_last_exits(self):
        found = lanes._openblas()
        if found is None:
            pytest.skip("no OpenBLAS thread setter found")
        get, put = found
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        inside_b = []

        def a():
            with lanes.blas_threads(1):
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def b():
            a_in.wait(10)
            with lanes.blas_threads(1):
                b_in.set()
                a_out.wait(10)
                inside_b.append(get())

        original = get()
        try:
            put(2)
            threads = [threading.Thread(target=f) for f in (a, b)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(20)
            assert a_out.is_set() and inside_b == [1]
            assert get() == 2
        finally:
            put(original)

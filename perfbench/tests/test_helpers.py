"""Tests for the benchmark's own helpers (run: python3 -m pytest perfbench/tests)."""

import math
import os
import random
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from loadgen import Connection, Request, poisson_arrivals, run_open_loop
from procs import process_tree, tree_cpu_s, tree_pss_kb
from stats import (
    backlog_growing,
    judge_rung,
    percentile,
    rate_at_slo,
    tail_percentile,
)
from workload import browse_schedule, distinct_searches, ladder_schedule, misspell


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, pct", [(100, 90.0), (200, 95.0), (1000, 99.0), (5000, 99.0), (40, 75.0)]
    )
    def test_highest_percentile_with_ten_beyond(self, n, pct):
        values = [float(v) for v in range(1, n + 1)]
        tail = tail_percentile(values)
        assert tail.pct == pct
        assert tail.n == n
        assert sum(v > tail.value for v in values) >= 10

    def test_few_samples_fall_back_to_median(self):
        tail = tail_percentile([3.0, 1.0, 2.0])
        assert (tail.pct, tail.value, tail.n) == (50.0, 2.0, 3)

    def test_failures_count_as_missing_the_limit(self):
        values = [0.01] * 95 + [math.inf] * 10
        assert tail_percentile(values).value == math.inf

    def test_percentile_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


class TestLadder:
    def _rung(self, rate, latency=0.01, failed=0, growing=False):
        n = 60
        due = [i / rate for i in range(n)]
        wait = [(0.02 * i if growing else 0.0) for i in range(n)]
        sent = [d + w for d, w in zip(due, wait)]
        return judge_rung(rate, due, sent, [latency] * n, failed, 0.5)

    def test_backlog_flat_under_bursty_but_sustained_load(self):
        rng = random.Random(1)
        due = sorted(rng.uniform(0, 5) for _ in range(200))
        sent = [d + rng.uniform(0, 0.03) for d in due]
        assert not backlog_growing(due, sent)

    def test_backlog_growing_when_waits_climb(self):
        due = [i * 0.02 for i in range(150)]
        sent = [d + 0.004 * i for i, d in enumerate(due)]
        assert backlog_growing(due, sent)

    def test_stop_at_first_failing_rung(self):
        verdicts = [
            self._rung(12.5),
            self._rung(25),
            self._rung(50, growing=True),
            self._rung(100),
        ]
        assert [v.passed for v in verdicts] == [True, True, False, True]
        assert rate_at_slo(verdicts) == 25

    def test_slow_or_failing_rung_fails(self):
        assert not self._rung(10, latency=0.6).passed
        assert not self._rung(10, failed=1).passed
        assert rate_at_slo([self._rung(10, failed=1), self._rung(20)]) == 0.0


class TestSeeding:
    def test_schedules_repeat_per_seed(self):
        rates, durations = [12.5, 25.0], [4.0, 2.0]
        assert ladder_schedule(7, rates, durations) == ladder_schedule(7, rates, durations)
        assert ladder_schedule(7, rates, durations) != ladder_schedule(8, rates, durations)

    def test_poisson_rate(self):
        offsets = poisson_arrivals(random.Random(3), 50.0, 20.0)
        assert 900 < len(offsets) < 1100
        assert offsets == sorted(offsets) and offsets[-1] < 20.0

    def test_queries_repeat_per_seed_and_are_distinct(self):
        from repro.data.synthetic import make_tiny_dataset

        corpus = make_tiny_dataset()
        first = distinct_searches(corpus, "search-miss:5", 60)
        again = distinct_searches(corpus, "search-miss:5", 60)
        other = distinct_searches(corpus, "search-miss:6", 60)
        assert first == again and first != other
        assert len({spec.key() for spec in first}) == 60
        sessions = browse_schedule(5, first[:8], 6.0, 60, 4)
        assert sessions == browse_schedule(5, first[:8], 6.0, 60, 4)
        assert len(sessions) == 60
        assert sum(item == "reload" for _, item in sessions) == 15

    def test_misspell_is_one_edit(self):
        rng = random.Random(0)
        for _ in range(100):
            word = misspell(rng, "macdonald")
            assert word != "macdonald" and abs(len(word) - 9) <= 1


class TestProcessTree:
    def test_pss_and_cpu_summed_over_forked_workers(self):
        children, pipes = [], []
        for _ in range(2):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # worker: touch 16 MiB of private memory, then wait
                os.close(read_fd)
                block = bytearray(16 << 20)
                for i in range(0, len(block), 4096):
                    block[i] = 1
                os.write(write_fd, b"x")
                signal.pause()
                os._exit(0)
            os.close(write_fd)
            os.read(read_fd, 1)
            children.append(pid)
            pipes.append(read_fd)
        try:
            me = os.getpid()
            assert set(children) <= set(process_tree(me))
            pss = tree_pss_kb(me)
            assert set(children) <= set(pss)
            for pid in children:
                assert pss[pid] >= 15 * 1024
            assert sum(pss.values()) >= pss[me] + 30 * 1024
            assert tree_cpu_s(me) > 0
        finally:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            for fd in pipes:
                os.close(fd)


class _Recorder(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    seen: list = []

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        _Recorder.seen.append((self.client_address[1], self.headers.get("Connection")))
        close = len(_Recorder.seen) == 3
        self.send_response(200)
        self.send_header("Content-Length", "2")
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


class TestLoadGenerator:
    def test_keep_alive_reconnect_and_due_time(self):
        _Recorder.seen = []
        server = ThreadingHTTPServer(("127.0.0.1", 0), _Recorder)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            arrivals = [(0.01 * i, Request("search", "POST", "/", b"{}")) for i in range(8)]
            pool = [Connection("127.0.0.1", server.server_address[1], 5.0)]
            outcomes = run_open_loop(pool, arrivals)
        finally:
            server.shutdown()
            server.server_close()
        assert len(outcomes) == 8 and all(o.ok for o in outcomes)
        assert all(header is None for _, header in _Recorder.seen)
        # One connection until the server closed it after request 3, then one more.
        assert len({port for port, _ in _Recorder.seen}) == 2
        for outcome in outcomes:
            assert outcome.sent >= outcome.due - 0.002
            assert outcome.latency >= outcome.rtt

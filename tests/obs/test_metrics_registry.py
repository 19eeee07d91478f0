"""The metrics registry: exactness under contention, quantile accuracy,
registration discipline, and collect-time views over an owner's number."""

import json
import random
import threading

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, MetricError, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounters:
    def test_exact_under_eight_thread_contention(self, registry):
        """The satellite regression: plain ``+=`` loses increments when the
        GIL switches between load and store; the CounterChild must not."""
        counter = registry.counter("pash_test_total", "contended")
        threads_n, per_thread = 8, 5_000
        barrier = threading.Barrier(threads_n)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == threads_n * per_thread

    def test_labelled_children_are_independent(self, registry):
        counter = registry.counter("pash_lab_total", "labelled", labels=("tenant",))
        counter.labels(tenant="a").inc(2)
        counter.labels(tenant="b").inc(3)
        assert counter.labels(tenant="a").value == 2
        assert counter.labels(tenant="b").value == 3

    def test_counters_reject_negative_increments(self, registry):
        counter = registry.counter("pash_neg_total", "monotonic")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_a_counter_can_be_a_view_over_its_owners_number(self, registry):
        """The view idiom: the owner keeps the integer, the registry reads it
        at collect time — per labelset, and a failing read is 0, not a raise."""
        owner = {"hits": 0, "misses": 0}
        family = registry.counter("pash_view_total", "", labels=("result",))
        family.labels(result="hit").set_function(lambda: owner["hits"])
        family.labels(result="miss").set_function(lambda: owner["misses"])
        family.labels(result="gone").set_function(lambda: owner["gone"])
        owner["hits"] += 3
        values = {
            entry["labels"]["result"]: entry["value"]
            for entry in registry.snapshot()["pash_view_total"]["values"]
        }
        assert values == {"hit": 3, "miss": 0, "gone": 0}

    def test_label_mismatch_is_an_error(self, registry):
        counter = registry.counter("pash_mismatch_total", "", labels=("tenant",))
        with pytest.raises(MetricError):
            counter.labels(nope="x")
        with pytest.raises(MetricError):
            counter.inc()  # declared labels: must go through .labels()


class TestRegistration:
    def test_idempotent_registration_returns_same_family(self, registry):
        first = registry.counter("pash_same_total", "one")
        second = registry.counter("pash_same_total", "one")
        assert first is second

    def test_retyping_a_name_raises(self, registry):
        registry.counter("pash_retype_total", "")
        with pytest.raises(MetricError):
            registry.gauge("pash_retype_total", "")

    def test_relabelling_a_name_raises(self, registry):
        registry.counter("pash_relabel_total", "", labels=("a",))
        with pytest.raises(MetricError):
            registry.counter("pash_relabel_total", "", labels=("b",))

    def test_illegal_names_and_labels_raise(self, registry):
        with pytest.raises(MetricError):
            registry.counter("9starts_with_digit", "")
        with pytest.raises(MetricError):
            registry.counter("pash_ok_total", "", labels=("__reserved",))


class TestGauges:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("pash_g", "")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_set_function_polls_at_collect_time(self, registry):
        box = {"depth": 0}
        gauge = registry.gauge("pash_depth", "")
        gauge.set_function(lambda: box["depth"])
        box["depth"] = 7
        assert gauge.value == 7

    def test_set_function_exceptions_read_as_zero(self, registry):
        gauge = registry.gauge("pash_boom", "")
        gauge.set_function(lambda: 1 / 0)
        assert gauge.value == 0.0


class TestHistograms:
    def test_quantiles_against_sorted_oracle(self, registry):
        """Interpolated p50/p95/p99 within one bucket of the exact value:
        with ~25% geometric spacing the estimate must land within 30%."""
        histogram = registry.histogram("pash_h_seconds", "")
        rng = random.Random(7)
        values = [rng.uniform(0.002, 2.0) for _ in range(5_000)]
        for value in values:
            histogram.observe(value)
        ordered = sorted(values)
        for q in (0.50, 0.95, 0.99):
            exact = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
            estimate = histogram.quantile(q)
            assert estimate == pytest.approx(exact, rel=0.30), q

    def test_count_sum_and_bounded_memory(self, registry):
        histogram = registry.histogram("pash_mem_seconds", "")
        for _ in range(1_000):
            histogram.observe(0.01)
        child = histogram._default_child()
        assert child.count == 1_000
        assert child.sum == pytest.approx(10.0)
        # Bounded memory: the counts list never grows with observations.
        assert len(child.bucket_counts()) == len(DEFAULT_BUCKETS) + 1

    def test_empty_histogram_quantile_is_zero(self, registry):
        histogram = registry.histogram("pash_empty_seconds", "")
        assert histogram.quantile(0.99) == 0.0

    def test_bad_buckets_raise(self, registry):
        with pytest.raises(MetricError):
            registry.histogram("pash_bad_seconds", "", buckets=())
        with pytest.raises(MetricError):
            registry.histogram("pash_dup_seconds", "", buckets=(1.0, 1.0))

    def test_thread_safety_count_is_exact(self, registry):
        histogram = registry.histogram("pash_conc_seconds", "")
        threads_n, per_thread = 8, 2_000

        def hammer():
            for _ in range(per_thread):
                histogram.observe(0.05)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == threads_n * per_thread


def test_snapshot_is_json_able_and_complete(registry):
    registry.counter("pash_a_total", "a").inc(3)
    registry.gauge("pash_b", "b").set(1.5)
    histogram = registry.histogram("pash_c_seconds", "c", labels=("tenant",))
    histogram.labels(tenant="t0").observe(0.02)
    snapshot = registry.snapshot()
    json.dumps(snapshot)  # must round-trip the wire protocol
    assert snapshot["pash_a_total"]["values"][0]["value"] == 3
    entry = snapshot["pash_c_seconds"]["values"][0]
    assert entry["labels"] == {"tenant": "t0"}
    assert entry["count"] == 1
    assert set(entry) >= {"p50", "p95", "p99", "sum"}

"""The bounded queue: policies, admission, batching, eligibility."""

import numpy as np
import pytest

from repro.errors import AdmissionError, ConfigurationError
from repro.serve import BoundedRequestQueue, InferenceRequest


def _request(request_id, arrival_ms=0.0, deadline_ms=None,
             avoid_device=None):
    return InferenceRequest(
        request_id=request_id,
        x=np.zeros(4, dtype=np.float32),
        arrival_ms=arrival_ms,
        deadline_ms=deadline_ms,
        avoid_device=avoid_device,
    )


class TestPolicies:
    def test_fifo_serves_in_arrival_order(self):
        queue = BoundedRequestQueue(policy="fifo", max_depth=8)
        for i in (0, 1, 2, 3):
            queue.offer(_request(i))
        batch = queue.take_batch(device_id=0, max_batch=4)
        assert [r.request_id for r in batch] == [0, 1, 2, 3]

    def test_edf_orders_by_deadline(self):
        queue = BoundedRequestQueue(policy="edf", max_depth=8)
        queue.offer(_request(0, deadline_ms=50.0))
        queue.offer(_request(1, deadline_ms=10.0))
        queue.offer(_request(2, deadline_ms=30.0))
        queue.offer(_request(3))                     # best-effort: last
        batch = queue.take_batch(device_id=0, max_batch=4)
        assert [r.request_id for r in batch] == [1, 2, 0, 3]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundedRequestQueue(policy="lifo")


class TestAdmission:
    def test_queue_full_is_typed_rejection(self):
        queue = BoundedRequestQueue(max_depth=2)
        queue.offer(_request(0))
        queue.offer(_request(1))
        with pytest.raises(AdmissionError) as excinfo:
            queue.offer(_request(2))
        assert excinfo.value.reason == "queue_full"

    def test_force_bypasses_depth_bound(self):
        queue = BoundedRequestQueue(max_depth=1)
        queue.offer(_request(0))
        queue.offer(_request(1), force=True)         # retry path
        assert queue.depth == 2

    def test_closed_queue_sheds_with_reason(self):
        queue = BoundedRequestQueue(max_depth=4)
        queue.close()
        with pytest.raises(AdmissionError) as excinfo:
            queue.offer(_request(0))
        assert excinfo.value.reason == "draining"


class TestBatchingAndDrain:
    def test_batch_size_bounded(self):
        queue = BoundedRequestQueue(max_depth=16)
        for i in range(6):
            queue.offer(_request(i))
        assert len(queue.take_batch(device_id=0, max_batch=4)) == 4
        assert len(queue.take_batch(device_id=0, max_batch=4)) == 2



class TestEligibility:
    def test_retry_not_taken_before_backoff_ends(self):
        queue = BoundedRequestQueue(max_depth=8)
        retry = _request(0, arrival_ms=1.0)
        retry.eligible_ms = 5.0
        queue.offer(retry, force=True)
        assert queue.ready_ms() == [5.0]
        assert queue.take_batch(0, max_batch=4, now_ms=4.999) == []
        assert queue.depth == 1
        batch = queue.take_batch(0, max_batch=4, now_ms=5.0)
        assert [r.request_id for r in batch] == [0]

    def test_only_eligible_requests_join_a_batch(self):
        queue = BoundedRequestQueue(max_depth=8)
        for i, arrival in enumerate((0.0, 2.0, 1.0)):
            queue.offer(_request(i, arrival_ms=arrival))
        batch = queue.take_batch(0, max_batch=4, now_ms=1.0)
        assert [r.request_id for r in batch] == [0, 2]   # policy order
        assert queue.ready_ms() == [2.0]

    def test_empty_queue_has_nothing_ready(self):
        queue = BoundedRequestQueue(max_depth=4, n_devices=2)
        assert queue.ready_ms() == [float("inf"), float("inf")]
class TestBrownoutAffinity:
    def test_avoided_device_skips_retry(self):
        queue = BoundedRequestQueue(max_depth=8, n_devices=2)
        queue.offer(_request(0, avoid_device=0), force=True)
        queue.offer(_request(1))
        batch = queue.take_batch(device_id=0, max_batch=4)
        assert [r.request_id for r in batch] == [1]
        assert queue.depth == 1                      # retry still queued
        other = queue.take_batch(device_id=1, max_batch=4)
        assert [r.request_id for r in other] == [0]

    def test_avoid_ignored_on_single_device_pool(self):
        queue = BoundedRequestQueue(max_depth=8, n_devices=1)
        queue.offer(_request(0, avoid_device=0), force=True)
        batch = queue.take_batch(device_id=0, max_batch=4)
        assert [r.request_id for r in batch] == [0]

    def test_avoid_holds_at_simulated_time(self):
        # The avoided device sees neither the retry's eligibility nor
        # the retry itself, even once it is the only ready request.
        queue = BoundedRequestQueue(max_depth=8, n_devices=2)
        queue.offer(_request(0, arrival_ms=1.0, avoid_device=0),
                    force=True)
        queue.offer(_request(1, arrival_ms=3.0))
        assert queue.ready_ms() == [3.0, 1.0]
        assert queue.take_batch(0, max_batch=4, now_ms=2.0) == []
        batch = queue.take_batch(1, max_batch=4, now_ms=2.0)
        assert [r.request_id for r in batch] == [0]

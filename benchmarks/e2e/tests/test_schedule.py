from collections import Counter
from itertools import islice

from e2e import service


def take(schedule, n):
    return list(islice(schedule, n))


def test_same_seed_same_schedule_other_seed_other_schedule():
    for make in (service.executed_schedule, service.cached_schedule):
        assert take(make(7, 0), 240) == take(make(7, 0), 240)
        assert take(make(7, 0), 240) != take(make(8, 0), 240)
        assert take(make(7, 0), 240) != take(make(7, 1), 240)


def test_executed_schedule_has_exact_per_cell_counts_for_any_seed():
    for seed in range(5):
        requests = take(service.executed_schedule(seed, 0), 240)
        counts = Counter(r["benchmark"] for r in requests)
        assert counts == {"IS": 48, "CG": 48, "FT": 144}
        # balanced in every block, so any prefix is within one block of it
        prefix = Counter(r["benchmark"] for r in requests[:102])
        assert prefix["IS"] in (20, 21) and prefix["CG"] in (20, 21)
        assert all(r["no_cache"] and r["wait"] for r in requests)


def test_cached_schedule_stays_inside_the_48_fingerprints():
    fingerprints = service.cached_fingerprints()
    assert len(fingerprints) == 48
    keys = {(f["benchmark"], f["dispatch_timeout"]) for f in fingerprints}
    assert len(keys) == 48
    requests = take(service.cached_schedule(3, 0), 3000)
    assert {(r["benchmark"], r["dispatch_timeout"]) for r in requests} == keys
    assert not any("no_cache" in r for r in requests)


def test_check_response_is_the_correctness_gate():
    reference = {"values": [1.5, 2.5], "op_count": 1.0}
    good = {"state": "done", "result": {"verified": True, "verification": [
        {"computed": 1.5}, {"computed": 2.5}]}}
    assert service.check_response(200, good, "done", reference) is None
    assert "HTTP 429" in service.check_response(429, {}, "done", reference)
    assert "state" in service.check_response(200, good, "cached", reference)
    unverified = {"state": "done", "result": {"verified": False}}
    assert service.check_response(
        200, unverified, "done", reference) == "unverified"
    drifted = {"state": "done", "result": {"verified": True, "verification": [
        {"computed": 1.5}, {"computed": 2.5000000000000004}]}}
    assert "differ" in service.check_response(200, drifted, "done", reference)

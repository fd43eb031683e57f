"""Cold AL runs reproduce the committed ``.bench_cache/`` results.

Every test-profile entry of the repo's ``.bench_cache/`` (d=96, the runs
the test suite requests) is re-run through the session ``runner``, whose
result cache is a fresh directory, and compared with the committed
entry on every key the entry stores except the wall-clock ones. Each
entry's file name must still be its ``Runner._cache_key``.
"""
import json
from pathlib import Path

import pytest

from repro.core.dial import ALConfig
from repro.exp.runner import TEST_CFG

BENCH_CACHE = Path(__file__).resolve().parents[1] / ".bench_cache"
TIMING_KEYS = {"times", "timings", "rt_seconds"}
DEFAULTS = vars(ALConfig(**TEST_CFG))


def _test_profile_entries() -> list[tuple[str, dict]]:
    out = []
    for p in sorted(BENCH_CACHE.glob("*.json")):
        entry = json.loads(p.read_text())
        if entry.get("config", {}).get("d") == TEST_CFG["d"]:
            out.append((p.stem, entry))
    return out


ENTRIES = _test_profile_entries()


def _like(got, want):
    """``got`` cut down to the keys ``want`` stores, less the timings."""
    if isinstance(want, dict) and isinstance(got, dict):
        return {k: _like(got.get(k), v) for k, v in want.items() if k not in TIMING_KEYS}
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [_like(g, w) for g, w in zip(got, want)]
    return got


def _overrides(entry) -> dict:
    """The entry's config knobs that differ from the test profile's."""
    return {k: v for k, v in entry["config"].items() if k != "blocking" and v != DEFAULTS[k]}


def _entry_id(item) -> str:
    _, entry = item
    over = [f"{k}={v}" for k, v in _overrides(entry).items()]
    return "-".join([entry["dataset"], entry["config"]["blocking"], *over])


def test_test_profile_entries_present():
    assert ENTRIES, f"no test-profile entries in {BENCH_CACHE}"


@pytest.mark.parametrize("key,entry", ENTRIES, ids=[_entry_id(e) for e in ENTRIES])
def test_cold_run_reproduces_committed_entry(runner, key, entry):
    name, blocking = entry["dataset"], entry["config"]["blocking"]
    over = _overrides(entry)
    if blocking == "rf_qbc":
        assert not over, "rf_result takes no overrides"
        assert runner._cache_key(name, runner.config(name), "rf_qbc") == key
        got = runner.rf_result(name)
    else:
        over["blocking"] = blocking
        assert runner._cache_key(name, runner.config(name, **over), "al") == key
        got = runner.al_result(name, **over)
    got = json.loads(json.dumps(got, default=float))  # as cache.store writes it
    assert _like(got, entry) == _like(entry, entry)

"""Tests for the guidelines and the experiment registry."""

import importlib
import inspect

import pytest

from repro.core import (
    AccessPlan, all_experiments, audit_access_pattern, get,
    recommend_store_instruction,
)


class TestAdvisor:
    def test_instruction_choice(self):
        assert recommend_store_instruction(64) == "clwb"
        assert recommend_store_instruction(256) == "clwb"
        assert recommend_store_instruction(4096) == "ntstore"


class TestAudit:
    def test_clean_plan_passes(self):
        plan = AccessPlan(access_bytes=4096, pattern="seq",
                          is_write=True, threads=4)
        assert audit_access_pattern(plan) == []

    def test_small_random_writes_flagged(self):
        plan = AccessPlan(access_bytes=64, pattern="rand", is_write=True)
        violations = audit_access_pattern(plan)
        assert any(v.guideline == 1 for v in violations)

    def test_working_set_escalates_severity(self):
        big = AccessPlan(access_bytes=64, pattern="rand", is_write=True,
                         working_set_bytes=1 << 30)
        v = [x for x in audit_access_pattern(big) if x.guideline == 1][0]
        assert v.severity == "high"

    def test_missing_flushes_flagged(self):
        plan = AccessPlan(access_bytes=4096, is_write=True,
                          flushes_promptly=False)
        assert any(v.guideline == 2 for v in audit_access_pattern(plan))

    def test_thread_oversubscription_flagged(self):
        plan = AccessPlan(access_bytes=4096, threads=24, dimms=6)
        assert any(v.guideline == 3 for v in audit_access_pattern(plan))

    def test_remote_mixed_flagged_high(self):
        plan = AccessPlan(access_bytes=4096, remote=True,
                          mixed_read_write=True)
        v = [x for x in audit_access_pattern(plan) if x.guideline == 4][0]
        assert v.severity == "high"

    def test_remote_single_thread_is_low(self):
        plan = AccessPlan(access_bytes=4096, remote=True, threads=1)
        v = [x for x in audit_access_pattern(plan) if x.guideline == 4][0]
        assert v.severity == "low"

    def test_violation_str(self):
        plan = AccessPlan(access_bytes=64, pattern="rand", is_write=True)
        text = str(audit_access_pattern(plan)[0])
        assert "G1" in text


class TestRegistry:
    def test_all_17_figures_registered(self):
        exps = all_experiments()
        assert len(exps) == 17
        assert [e.figure for e in exps][0] == "fig2"

    def test_lookup(self):
        assert get("fig10").section == "5.1"
        with pytest.raises(KeyError):
            get("fig11")          # mechanism diagram: not an experiment

    def test_every_runner_resolves(self):
        # Experiment.run() passes no arguments (``repro run``, ``repro
        # trace`` and regenerate_all.py), so every runner must accept
        # an empty call.
        for exp in all_experiments():
            module_name, _, func = exp.runner.partition(":")
            fn = getattr(importlib.import_module(module_name), func, None)
            assert callable(fn), exp.runner
            try:
                inspect.signature(fn).bind()
            except TypeError as exc:
                pytest.fail("%s: %s" % (exp.runner, exc))

    def test_run_dispatches(self):
        out = get("fig10").run(region_sizes=(16, 80), rounds=1)
        assert len(out) == 2

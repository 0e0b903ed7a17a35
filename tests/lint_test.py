#!/usr/bin/env python3
"""Tests for the osumac_lint framework: every rule gets a trigger and a
no-trigger fixture, the scanner's comment/string stripping is exercised,
the waiver path (inline comment + ledger reconciliation) is covered, and
the CLI is run against the real repository (which must be clean — the same
gate CI enforces).

Run directly or via ctest:  python3 tests/lint_test.py
"""
from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

from osumac_lint import cli                       # noqa: E402
from osumac_lint import waivers as waivers_mod    # noqa: E402
from osumac_lint.engine import run_rules          # noqa: E402
from osumac_lint.output import render_sarif       # noqa: E402
from osumac_lint.rules import (ALL_RULES, bare_assert, bench_direct_cell,  # noqa: E402
                               checks_always_on, float_tick, hot_alloc,
                               journal_hook_discipline, nondeterminism,
                               ordered_iteration, policy_layer_boundary,
                               raw_clock, raw_latency, raw_sanitize,
                               raw_stdout, rng_stream_discipline,
                               shared_state_annotation)
from osumac_lint.scanner import strip_code        # noqa: E402


class FixtureRepo:
    """A throwaway repository tree the rules run against."""

    def __init__(self):
        self._dir = tempfile.TemporaryDirectory()
        self.root = Path(self._dir.name)

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def cleanup(self) -> None:
        self._dir.cleanup()


class RuleTestCase(unittest.TestCase):
    def setUp(self):
        self.repo = FixtureRepo()
        self.addCleanup(self.repo.cleanup)

    def run_rule(self, rule):
        return run_rules(self.repo.root, [rule]).findings

    def assert_findings(self, rule, count, msg=None):
        findings = self.run_rule(rule)
        self.assertEqual(len(findings), count,
                         msg or f"findings: {[f.render() for f in findings]}")
        return findings


class ScannerTest(unittest.TestCase):
    def test_line_comments_and_strings_are_blanked(self):
        code = strip_code(['int x = rand();  // rand() here is prose',
                           'log("call rand() now");'])
        self.assertEqual(code[0], "int x = rand();  ")
        self.assertEqual(code[1], 'log("");')

    def test_block_comments_span_lines(self):
        code = strip_code(["a; /* begin", "still a comment rand()", "end */ b;"])
        self.assertEqual(code[0], "a; ")
        self.assertEqual(code[1], "")
        self.assertEqual(code[2], " b;")

    def test_quotes_inside_comments_do_not_open_strings(self):
        code = strip_code(['x; // it\'s fine', "y;"])
        self.assertEqual(code[0], "x; ")
        self.assertEqual(code[1], "y;")


class BareAssertTest(RuleTestCase):
    def test_trigger(self):
        self.repo.write("src/a.cc", "void f() { assert(x); }\n")
        self.assert_findings(bare_assert.RULE, 1)

    def test_no_trigger(self):
        self.repo.write("src/a.cc",
                        'static_assert(sizeof(int) == 4, "");\n'
                        "OSUMAC_CHECK(x);\n"
                        "// assert(x) in prose\n")
        self.assert_findings(bare_assert.RULE, 0)


class FloatTickTest(RuleTestCase):
    def test_trigger(self):
        self.repo.write("src/mac/a.cc", "double d = ticks * 0.5;\n")
        self.assert_findings(float_tick.RULE, 1)

    def test_to_seconds_exempt_and_waiver(self):
        self.repo.write(
            "src/mac/a.cc",
            "double s = ToSeconds(ticks);\n"
            "double d = ticks * 0.5;  // lint: allow-float-tick\n")
        self.assert_findings(float_tick.RULE, 0)

    def test_outside_scheduling_layers_ignored(self):
        self.repo.write("src/obs/a.cc", "double d = ticks * 0.5;\n")
        self.assert_findings(float_tick.RULE, 0)


class NondeterminismTest(RuleTestCase):
    def test_trigger(self):
        self.repo.write("src/a.cc", "int x = rand();\nsrand(1);\n")
        self.assert_findings(nondeterminism.RULE, 2)

    def test_no_trigger(self):
        self.repo.write("src/a.cc",
                        "int x = mystrand(1);\n"
                        "int y = runtime();\n")
        self.assert_findings(nondeterminism.RULE, 0)


class ChecksAlwaysOnTest(RuleTestCase):
    def test_trigger_ndebug_gated(self):
        self.repo.write("src/common/check.h",
                        "#ifdef NDEBUG\n"
                        "#define OSUMAC_CHECK(x) ((void)0)\n"
                        "#endif\n")
        self.assert_findings(checks_always_on.RULE, 1)

    def test_no_trigger(self):
        self.repo.write("src/common/check.h",
                        "#define OSUMAC_CHECK(x) DoCheck(x)\n")
        self.assert_findings(checks_always_on.RULE, 0)

    def test_missing_define_is_a_finding(self):
        self.repo.write("src/common/check.h", "// nothing\n")
        self.assert_findings(checks_always_on.RULE, 1)


class RawStdoutTest(RuleTestCase):
    def test_trigger(self):
        self.repo.write("src/a.cc", "std::cout << x;\nprintf(\"%d\", x);\n")
        self.assert_findings(raw_stdout.RULE, 2)

    def test_obs_exempt(self):
        self.repo.write("src/obs/a.cc", "std::cout << x;\n")
        self.assert_findings(raw_stdout.RULE, 0)

    def test_metrics_not_exempt(self):
        # src/metrics lost its table printer; it reports like any library.
        self.repo.write("src/metrics/experiment.cc", "printf(\"%d\", x);\n")
        self.assert_findings(raw_stdout.RULE, 1)


class RawLatencyTest(RuleTestCase):
    def test_trigger(self):
        self.repo.write("src/mac/a.cc", "auto d = now - ev.tick;\n")
        self.assert_findings(raw_latency.RULE, 1)

    def test_plain_assignment_ok(self):
        self.repo.write("src/mac/a.cc", "violation.tick = ev.tick;\n")
        self.assert_findings(raw_latency.RULE, 0)

    def test_obs_exempt(self):
        self.repo.write("src/obs/a.cc", "auto d = e.span.end - e.span.begin;\n")
        self.assert_findings(raw_latency.RULE, 0)


class RawClockTest(RuleTestCase):
    def test_chrono_triggers_in_tools(self):
        self.repo.write("tools/a.cc",
                        "#include <chrono>\n"
                        "auto t = std::chrono::steady_clock::now();\n")
        self.assert_findings(raw_clock.RULE, 2)

    def test_posix_clock_triggers_in_bench(self):
        self.repo.write("bench/b.cc",
                        "struct timespec ts; clock_gettime(CLOCK_MONOTONIC, &ts);\n")
        self.assert_findings(raw_clock.RULE, 1)

    def test_sanctioned_homes_exempt(self):
        self.repo.write("src/obs/wallclock.h",
                        "auto t = std::chrono::steady_clock::now();\n")
        self.repo.write("src/common/time.h", "#include <chrono>\n")
        self.assert_findings(raw_clock.RULE, 0)

    def test_stopwatch_use_and_waiver_ok(self):
        self.repo.write("tools/a.cc",
                        "const obs::Stopwatch stopwatch;\n"
                        "double s = stopwatch.Seconds();\n"
                        "#include <ctime>  // lint: allow-raw-clock\n")
        self.assert_findings(raw_clock.RULE, 0)


class RawSanitizeTest(RuleTestCase):
    def test_trigger(self):
        self.repo.write(".github/workflows/ci.yml",
                        "      run: cmake -DCMAKE_CXX_FLAGS=-fsanitize=address\n")
        self.assert_findings(raw_sanitize.RULE, 1)

    def test_no_trigger(self):
        self.repo.write(".github/workflows/ci.yml",
                        "      run: cmake -DOSUMAC_SANITIZE=address,undefined\n")
        self.assert_findings(raw_sanitize.RULE, 0)


class BenchDirectCellTest(RuleTestCase):
    def test_trigger(self):
        self.repo.write("bench/b.cc", "mac::Cell cell(config);\n")
        self.assert_findings(bench_direct_cell.RULE, 1)

    def test_config_and_extensions_ok(self):
        self.repo.write("bench/b.cc",
                        "mac::CellConfig config;\n"
                        "exp::NetworkScenarioRun run(spec);\n"
                        "mac::Network& site = run.network();\n")
        self.assert_findings(bench_direct_cell.RULE, 0)


class HotAllocTest(RuleTestCase):
    def test_trigger(self):
        self.repo.write("src/phy/channel.cc", "std::vector<int> v(n);\n")
        self.assert_findings(hot_alloc.RULE, 1)

    def test_reference_param_and_waiver_ok(self):
        self.repo.write("src/phy/channel.cc",
                        "void f(const std::vector<int>& v);\n"
                        "std::vector<int> w(n);  // lint: allow-hot-alloc\n")
        self.assert_findings(hot_alloc.RULE, 0)

    def test_codec_parse_path_scoped(self):
        self.repo.write("src/common/bitio.cc",
                        "std::vector<std::uint8_t> out = bytes_;\n")
        self.repo.write("src/mac/control_fields.cc",
                        "std::vector<fec::GfElem> bytes = block0;\n"
                        "std::optional<ControlFields> ParseControlFields(\n"
                        "    std::span<const fec::GfElem> block0);\n")
        self.assert_findings(hot_alloc.RULE, 2)

    def test_slot_path_scoped(self):
        self.repo.write("src/mac/packet.cc",
                        "std::vector<fec::GfElem> SerializeGpsPacket(const GpsPacket& p) {\n")
        self.repo.write("src/mac/substrate.cc",
                        "coded.codewords.push_back(std::vector<fec::GfElem>(n));\n")
        self.repo.write("src/mac/round_robin.cc",
                        "std::vector<SlotRun> runs;\n"
                        "void RoundRobinScheduler::Allocate(const std::map<UserId, int>& demand,\n"
                        "                                   std::vector<SlotRun>& runs) {\n")
        self.assert_findings(hot_alloc.RULE, 3)

    def test_other_files_unscoped(self):
        self.repo.write("src/mac/cell.cc", "std::vector<int> v(n);\n")
        self.assert_findings(hot_alloc.RULE, 0)


class JournalHookDisciplineTest(RuleTestCase):
    def test_vector_in_hook_body_triggers(self):
        self.repo.write("src/mac/cell.cc",
                        "void Cell::JournalCycle(std::int64_t n) {\n"
                        "  std::vector<int> scratch(n);\n"
                        "}\n")
        findings = self.assert_findings(journal_hook_discipline.RULE, 1)
        self.assertIn("JournalCycle", findings[0].message)

    def test_clock_in_hook_body_triggers(self):
        self.repo.write("src/obs/run_journal.cc",
                        "std::uint64_t CellJournal::JournalStamp() {\n"
                        "  auto t = std::chrono::steady_clock::now();\n"
                        "  return Fold(t);\n"
                        "}\n")
        self.assert_findings(journal_hook_discipline.RULE, 1)

    def test_clean_hook_call_site_and_declaration_ok(self):
        self.repo.write("src/mac/cell.cc",
                        "void Cell::JournalCycle(std::int64_t n);\n"  # decl
                        "void Cell::Step(std::int64_t n) {\n"
                        "  std::vector<int> plan(n);\n"  # not a Journal hook
                        "  if (journal_ != nullptr) JournalCycle(n);\n"
                        "}\n"
                        "void Cell::JournalCycle(std::int64_t n) {\n"
                        "  rec.slo = JournalHashSlo();\n"
                        "  journal_->Append(n, rec);\n"
                        "}\n")
        self.assert_findings(journal_hook_discipline.RULE, 0)

    def test_jsonl_serializers_and_other_dirs_exempt(self):
        self.repo.write("src/obs/run_journal.cc",
                        "bool WriteJournalJsonl(const RunJournal& j) {\n"
                        "  std::vector<const CellJournal*> ordered;\n"
                        "}\n")
        self.repo.write("tools/a.cc",
                        "void JournalHelper() { std::vector<int> v(3); }\n")
        self.assert_findings(journal_hook_discipline.RULE, 0)

    def test_multiline_signature_and_waiver(self):
        self.repo.write("src/mac/substrate.cc",
                        "std::uint64_t CellSubstrate::JournalHashSlo(\n"
                        "    const SloMonitor& slo) const {\n"
                        "  std::vector<int> v(3);"
                        "  // lint: allow-journal-hook-discipline\n"
                        "}\n")
        self.assert_findings(journal_hook_discipline.RULE, 0)


class RngStreamDisciplineTest(RuleTestCase):
    def test_literal_seed_triggers(self):
        self.repo.write("src/mac/a.cc", "Rng rng(42);\n")
        self.assert_findings(rng_stream_discipline.RULE, 1)

    def test_literal_splitmix_triggers(self):
        self.repo.write("src/mac/a.cc", "auto s = SplitMix64(1234);\n")
        self.assert_findings(rng_stream_discipline.RULE, 1)

    def test_std_engine_triggers(self):
        self.repo.write("src/mac/a.cc", "std::mt19937 gen(seed);\n")
        self.assert_findings(rng_stream_discipline.RULE, 1)

    def test_derived_seed_ok(self):
        self.repo.write(
            "src/mac/a.cc",
            "Rng rng(DeriveSeed(spec.seed, SeedStream::kChurn));\n"
            "Rng forked = parent.Fork();\n"
            "SplitMix64Rng s(fast_seed(node));\n")
        self.assert_findings(rng_stream_discipline.RULE, 0)

    def test_exp_layer_exempt_from_literals(self):
        self.repo.write("src/exp/seed.cc", "auto s = SplitMix64(0x9e3779b9);\n")
        self.assert_findings(rng_stream_discipline.RULE, 0)

    def test_additive_seed_arithmetic_triggers(self):
        self.repo.write(
            "src/mac/a.cc",
            "cfg.seed = config.seed + static_cast<std::uint64_t>(i)"
            " * 0x9E3779B9u;\n")
        self.assert_findings(rng_stream_discipline.RULE, 1)

    def test_additive_decimal_constant_triggers(self):
        self.repo.write("src/mac/a.cc", "auto s = seed + cell * 12345;\n")
        self.assert_findings(rng_stream_discipline.RULE, 1)

    def test_additive_literal_first_triggers(self):
        self.repo.write(
            "src/mac/a.cc",
            "cfg.seed = config.seed + 0x517CC1B7ull"
            " * static_cast<std::uint64_t>(i + 1);\n"
            "auto s = seed + 12345 * cell;\n")
        self.assert_findings(rng_stream_discipline.RULE, 2)

    def test_substream_derivation_ok(self):
        self.repo.write(
            "src/mac/a.cc",
            "cfg.seed = DeriveSubstreamSeed(config.seed, i);\n"
            "total = seed + offset;\n"
            "return SplitMix64(config_.seed +\n"
            "                  kSplitMix64Gamma * (100 + 2 * node));\n")
        self.assert_findings(rng_stream_discipline.RULE, 0)


class OrderedIterationTest(RuleTestCase):
    def test_unordered_triggers(self):
        self.repo.write("src/mac/a.h", "std::unordered_map<int, int> m_;\n")
        self.assert_findings(ordered_iteration.RULE, 1)

    def test_pointer_key_triggers(self):
        self.repo.write("src/mac/a.h", "std::map<Node*, int> owners_;\n")
        self.assert_findings(ordered_iteration.RULE, 1)

    def test_include_and_stable_keys_ok(self):
        self.repo.write("src/mac/a.h",
                        "#include <unordered_map>\n"
                        "std::map<std::string, int> by_name_;\n"
                        "std::map<NodeId, int> by_id_;\n")
        self.assert_findings(ordered_iteration.RULE, 0)

    def test_waiver(self):
        self.repo.write(
            "src/mac/a.h",
            "std::unordered_map<int, int> m_;  // lint: allow-ordered-iteration\n")
        self.assert_findings(ordered_iteration.RULE, 0)


SHARED_STATE_BAD = """\
class Pool {
 public:
  void Work();
 private:
  Mutex mu_;
  int unguarded_;
};
"""

SHARED_STATE_GOOD = """\
class Pool {
 public:
  void Work();
 private:
  const int count_;
  Mutex mu_;
  std::atomic<bool> stop_{false};
  int completed_ GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ GUARDED_BY(mu_);
};
"""


class SharedStateAnnotationTest(RuleTestCase):
    def test_unannotated_member_triggers(self):
        self.repo.write("src/exp/pool.h", SHARED_STATE_BAD)
        findings = self.assert_findings(shared_state_annotation.RULE, 1)
        self.assertIn("unguarded_", findings[0].message)

    def test_annotated_class_clean(self):
        self.repo.write("src/exp/pool.h", SHARED_STATE_GOOD)
        self.assert_findings(shared_state_annotation.RULE, 0)

    def test_class_without_sync_unchecked(self):
        self.repo.write("src/exp/pool.h",
                        "class Plain {\n int value_;\n std::string name_;\n};\n")
        self.assert_findings(shared_state_annotation.RULE, 0)

    def test_condvar_member_is_its_own_synchronization(self):
        self.repo.write("src/common/pool.h",
                        "class Pool {\n"
                        "  Mutex mu_;\n"
                        "  CondVar round_started_;\n"
                        "  std::condition_variable_any cv_;\n"
                        "  int round_ GUARDED_BY(mu_) = 0;\n"
                        "};\n")
        self.assert_findings(shared_state_annotation.RULE, 0)

    def test_members_inside_methods_ignored(self):
        self.repo.write("src/exp/pool.h",
                        "class Pool {\n"
                        "  Mutex mu_;\n"
                        "  int guarded_ GUARDED_BY(mu_);\n"
                        "  void F() { int local_ = 0; (void)local_; }\n"
                        "};\n")
        self.assert_findings(shared_state_annotation.RULE, 0)


class PolicyLayerBoundaryTest(RuleTestCase):
    def test_policy_reaching_below_the_seam_triggers(self):
        self.repo.write("src/mac/policies/p.h",
                        '#include "phy/channel.h"\n'
                        '#include "exp/scenario.h"\n'
                        '#include "sim/simulator.h"\n'
                        '#include "baselines/prma.h"\n')
        self.assert_findings(policy_layer_boundary.RULE, 4)

    def test_policy_over_the_seam_ok(self):
        self.repo.write("src/mac/policies/p.h",
                        "#include <vector>\n"
                        '#include "common/rng.h"\n'
                        '#include "mac/mac_policy.h"\n'
                        '#include "mac/cycle_layout.h"\n')
        self.assert_findings(policy_layer_boundary.RULE, 0)

    def test_substrate_naming_a_tenant_triggers(self):
        self.repo.write("src/mac/policy_cell.cc",
                        '#include "mac/policies/rqma_policy.h"\n')
        self.assert_findings(policy_layer_boundary.RULE, 1)

    def test_osu_driver_naming_a_tenant_triggers(self):
        self.repo.write("src/mac/cell.h",
                        '#include "mac/policies/rqma_policy.h"\n')
        self.assert_findings(policy_layer_boundary.RULE, 1)

    def test_factory_exemption_and_waiver(self):
        self.repo.write("src/mac/mac_policy.cc",
                        '#include "mac/policies/rqma_policy.h"\n')
        self.repo.write(
            "src/mac/policies/p.h",
            '#include "baselines/rqma.h"  // lint: allow-policy-layer-boundary\n')
        self.assert_findings(policy_layer_boundary.RULE, 0)

    def test_other_mac_files_unscoped(self):
        self.repo.write("src/mac/cell.cc", '#include "phy/channel.h"\n')
        self.assert_findings(policy_layer_boundary.RULE, 0)


class WaiverLedgerTest(RuleTestCase):
    def rule(self):
        return waivers_mod.make_rule({r.name for r in ALL_RULES})

    def ledger(self, obj):
        self.repo.write("tools/osumac_lint/waivers.json", json.dumps(obj))

    def test_matching_ledger_clean(self):
        self.repo.write("src/a.cc", "int x;  // lint: allow-hot-alloc\n")
        self.ledger({"hot-alloc": [
            {"file": "src/a.cc", "count": 1, "reason": "setup-time"}]})
        self.assert_findings(self.rule(), 0)

    def test_undeclared_inline_waiver(self):
        self.repo.write("src/a.cc", "int x;  // lint: allow-hot-alloc\n")
        self.ledger({})
        findings = self.assert_findings(self.rule(), 1)
        self.assertIn("not declared", findings[0].message)

    def test_count_drift(self):
        self.repo.write("src/a.cc",
                        "int x;  // lint: allow-hot-alloc\n"
                        "int y;  // lint: allow-hot-alloc\n")
        self.ledger({"hot-alloc": [
            {"file": "src/a.cc", "count": 1, "reason": "setup-time"}]})
        findings = self.assert_findings(self.rule(), 1)
        self.assertIn("drift", findings[0].message)

    def test_stale_entry(self):
        self.repo.write("src/a.cc", "int x;\n")
        self.ledger({"hot-alloc": [
            {"file": "src/a.cc", "count": 1, "reason": "setup-time"}]})
        findings = self.assert_findings(self.rule(), 1)
        self.assertIn("stale", findings[0].message)

    def test_missing_reason(self):
        self.repo.write("src/a.cc", "int x;  // lint: allow-hot-alloc\n")
        self.ledger({"hot-alloc": [{"file": "src/a.cc", "count": 1}]})
        findings = self.assert_findings(self.rule(), 1)
        self.assertIn("reason", findings[0].message)

    def test_unknown_rule_in_ledger(self):
        self.repo.write("src/a.cc", "int x;\n")
        self.ledger({"no-such-rule": [
            {"file": "src/a.cc", "count": 1, "reason": "?"}]})
        findings = self.assert_findings(self.rule(), 1)
        self.assertIn("unknown rule", findings[0].message)

    def test_unknown_inline_waiver(self):
        self.repo.write("src/a.cc", "int x;  // lint: allow-no-such-rule\n")
        self.ledger({})
        findings = self.assert_findings(self.rule(), 1)
        self.assertIn("unknown rule", findings[0].message)


class CliTest(unittest.TestCase):
    def test_real_repo_is_clean_and_sarif_valid(self):
        with tempfile.TemporaryDirectory() as tmp:
            sarif_path = Path(tmp) / "lint.sarif"
            json_path = Path(tmp) / "lint.json"
            rc = cli.main(["--repo", str(REPO),
                           "--sarif", str(sarif_path),
                           "--json", str(json_path)])
            self.assertEqual(rc, 0, "the repository must lint clean")
            sarif = json.loads(sarif_path.read_text())
            self.assertEqual(sarif["version"], "2.1.0")
            run = sarif["runs"][0]
            self.assertEqual(run["tool"]["driver"]["name"], "osumac-lint")
            rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
            self.assertIn("rng-stream-discipline", rule_ids)
            self.assertIn("waiver-ledger", rule_ids)
            self.assertEqual(run["results"], [])
            payload = json.loads(json_path.read_text())
            self.assertEqual(payload["findings"], [])

    def test_findings_fail_and_serialize(self):
        repo = FixtureRepo()
        self.addCleanup(repo.cleanup)
        repo.write("src/a.cc", "void f() { assert(x); }\n")
        repo.write("src/common/check.h", "#define OSUMAC_CHECK(x) X(x)\n")
        repo.write(".github/workflows/ci.yml", "jobs: {}\n")
        repo.write("tools/osumac_lint/waivers.json", "{}")
        with tempfile.TemporaryDirectory() as tmp:
            sarif_path = Path(tmp) / "lint.sarif"
            rc = cli.main(["--repo", str(repo.root),
                           "--sarif", str(sarif_path)])
            self.assertEqual(rc, 1)
            sarif = json.loads(sarif_path.read_text())
            results = sarif["runs"][0]["results"]
            self.assertEqual(len(results), 1)
            self.assertEqual(results[0]["ruleId"], "bare-assert")
            loc = results[0]["locations"][0]["physicalLocation"]
            self.assertEqual(loc["artifactLocation"]["uri"], "src/a.cc")
            self.assertEqual(loc["region"]["startLine"], 1)

    def test_list_rules(self):
        rc = cli.main(["--list-rules"])
        self.assertEqual(rc, 0)


class SarifRenderTest(unittest.TestCase):
    def test_rule_metadata_round_trips(self):
        text = render_sarif([], ALL_RULES)
        sarif = json.loads(text)
        driver = sarif["runs"][0]["tool"]["driver"]
        self.assertEqual(len(driver["rules"]), len(ALL_RULES))
        for rule in driver["rules"]:
            self.assertTrue(rule["shortDescription"]["text"])
            self.assertTrue(rule["fullDescription"]["text"])


if __name__ == "__main__":
    unittest.main()

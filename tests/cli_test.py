#!/usr/bin/env python3
"""End-to-end tests of the osumac_sim command line.

Hostile flags and scenario files must exit 1 quickly with a message naming
the flag or scenario key (never a CHECK abort), and three journal
signatures pin the single-OSU, single-policy and network run paths.
make_figures' and bench_baselines' arguments are held to the same
rule, and the lossy-channel sweep (scenarios/lossy_sweep.scn) must
reproduce tests/lossy_sweep.expected byte for byte at any --jobs value, so
any change to an RS decode outcome fails here.  make_figures' figure and
table CSVs keep their columns and row counts, every column that is one
point's field agrees with the same run's BENCH_sweeps.json, and the quiet
cell meets the paper's Section 2.1 registration targets.
CI's trace, flight and injected-divergence steps run here too, through
tools/check_trace.py and tools/osumac_diff.py.

Run via ctest, or directly:
  python3 tests/cli_test.py build/tools/osumac_sim build/tools/make_figures \
      build/bench/bench_baselines
"""
from __future__ import annotations

import csv
import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIM = None  # set from argv in main
FIGURES = None
BENCH = None  # a print-only bench that takes only --jobs


def run(*args: str, cwd: str | None = None, program: str | None = None,
        timeout: float = 60) -> subprocess.CompletedProcess:
    return subprocess.run([program or SIM, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def tool(name: str, *args: str, cwd: str) -> subprocess.CompletedProcess:
    """Runs tools/<name> (a Python checker) on files in `cwd`."""
    return run(str(REPO / "tools" / name), *args, cwd=cwd, program=sys.executable)


class HostileInputTest(unittest.TestCase):
    """Each input exits 1 in under a second, naming what is wrong."""

    def expect_rejected(self, args: list[str], named: str, cwd: str | None = None,
                        program: str | None = None):
        start = time.monotonic()
        proc = run(*args, cwd=cwd, program=program)
        elapsed = time.monotonic() - start
        self.assertEqual(proc.returncode, 1, f"{args}: {proc.stdout}{proc.stderr}")
        self.assertIn(named, proc.stderr, args)
        self.assertLess(elapsed, 1.0, args)

    def test_malformed_flag_values(self):
        for args, named in [
            (["--cycles", "abc"], "--cycles abc"),
            (["--rho", "abc"], "--rho abc"),
            (["--cells", "abc"], "--cells abc"),
            (["--cells", "2x"], "--cells 2x"),
            (["--seed", "-1"], "--seed -1"),
            (["--seed", "18446744073709551616"], "'seed'"),
            (["--ser", "0.02x", "--channel", "uniform"], "--ser 0.02x"),
            (["--rho"], "--rho needs a value"),
            (["--bogus"], "unknown option --bogus"),
            (["--flight-dir", "d", "--flight-cycles", "8"], "unknown option --flight-cycles"),
            (["--flight-dir", "d", "--flight-dump-on-exit"],
             "unknown option --flight-dump-on-exit"),
        ]:
            with self.subTest(args=args):
                self.expect_rejected(args, named)

    def test_flags_the_mode_does_not_honour(self):
        scn = str(REPO / "scenarios" / "load_sweep.scn")
        for args, named in [
            (["--cells", "2", "--rho", "0.9"], "--rho does not apply to network"),
            (["--scenario", scn, "--rho", "0.9"], "--rho does not apply to sweep"),
            (["--ser", "0.5"], "--ser 0.5"),
            (["--channel", "ge", "--ser", "0.1"], "--ser 0.1"),
            (["--mac", "rqma", "--arq"], "--arq does not apply to policy"),
            (["--threads", "2"], "--threads does not apply to osu"),
            (["--journal-every", "2"], "--journal-every needs --journal"),
        ]:
            with self.subTest(args=args):
                self.expect_rejected(args, named)

    def test_load_indices_are_finite_and_bounded(self):
        # inf and 1e9 used to spin until killed; nan silently turned the
        # uplink off.
        for args, named in [
            (["--rho", "inf"], "--rho inf"),
            (["--rho", "nan"], "--rho nan"),
            (["--rho", "1e9"], "--rho 1e9"),
            (["--downlink-rho", "inf"], "--downlink-rho inf"),
            (["--downlink-rho", "11"], "a load index must be at most 10"),
        ]:
            with self.subTest(args=args):
                self.expect_rejected([*args, "--cycles", "20"], named)

    def test_make_figures_jobs_must_be_a_count(self):
        with tempfile.TemporaryDirectory() as tmp:
            for args, named in [
                (["--jobs", "abc"], "--jobs abc"),
                (["--jobs", "2x"], "--jobs 2x"),
                (["--jobs", "-1"], "--jobs -1"),
                (["--jobs=abc"], "--jobs abc"),
                (["--jobs=2x"], "--jobs 2x"),
                (["--jobs=-1"], "--jobs -1"),
                (["--jobs"], "--jobs needs a value"),
                (["--jobs", "2", "-j", "4"], "--jobs given more than once"),
            ]:
                with self.subTest(args=args):
                    self.expect_rejected([tmp, *args], named, program=FIGURES)

    def test_make_figures_rejects_unknown_arguments(self):
        # Each used to run the whole sweep into ./results or out/.
        for args in (["--help"], ["out", "--jbos", "2"], ["out", "more"]):
            with self.subTest(args=args), tempfile.TemporaryDirectory() as tmp:
                self.expect_rejected(args, "usage: make_figures", cwd=tmp,
                                     program=FIGURES)
                self.assertEqual(list(Path(tmp).iterdir()), [])

    def test_print_only_bench_takes_only_jobs(self):
        # `--jbos 2` used to run the whole bench serially.
        for args, named in [
            (["--jbos", "2"], "usage: bench_baselines [--jobs N | -j N]"),
            (["extra"], "unexpected argument 'extra'"),
            (["--jobs", "2", "--verbose"], "unexpected argument '--verbose'"),
            (["--jobs", "x"], "--jobs x"),
            (["--jobs", "1", "--jobs", "x"], "--jobs given more than once"),
        ]:
            with self.subTest(args=args):
                self.expect_rejected(args, named, program=BENCH)

    def test_negative_cycle_counts(self):
        self.expect_rejected(["--warmup", "-5"], "--warmup -5")
        self.expect_rejected(["--cycles", "-1"], "--cycles -1")

    def test_spec_rules_on_flags(self):
        self.expect_rejected(["--gps", "9"], "mac.max_gps_users = 8")
        self.expect_rejected(["--mac", "rqma", "--data-users", "60"], "--data-users 60")

    def test_scenario_files_fail_to_parse(self):
        cases = {
            "registration_cycles = -1\n": "'registration_cycles' must be >= 0",
            "data_users = -1\n": "'data_users' must be >= 0",
            "gps_users = 9\n": "gps_users = 9",
            "mac.max_gps_users = -1\n": "mac.max_gps_users = -1",
            "mac.min_contention_slots = -4\n": "'mac.min_contention_slots'",
            "mac = rqma\ndata_users = 300\n": "data_users = 300",
            "churn.arrivals = 2\nchurn.gap_lo_cycles = 5\nchurn.gap_hi_cycles = 1\n":
                "churn.gap_lo_cycles = 5",
            "seed = -1\n": "'seed'",
        }
        with tempfile.TemporaryDirectory() as tmp:
            for text, named in cases.items():
                with self.subTest(text=text):
                    path = Path(tmp) / "hostile.scn"
                    path.write_text("[hostile]\n" + text)
                    self.expect_rejected(["--scenario", str(path)], named)


class RunTest(unittest.TestCase):
    def test_help(self):
        proc = run("--help")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("--rho X", proc.stdout)
        self.assertIn("[key rho; osu policy]", proc.stdout)

    def test_seed_takes_the_full_uint64_range(self):
        proc = run("--seed", "18446744073709551615", "--cycles", "1", "--warmup", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("seed=18446744073709551615 ", proc.stdout.splitlines()[0])

    def test_lossy_sweep_matches_its_golden(self):
        # Recorded before the RS codec's LFSR rewrite: every decode outcome
        # on the lossy channels must stay as it was.
        scn = str(REPO / "scenarios" / "lossy_sweep.scn")
        expected = (REPO / "tests" / "lossy_sweep.expected").read_bytes()
        with tempfile.TemporaryDirectory() as tmp:
            for jobs in ("1", "4"):
                with self.subTest(jobs=jobs):
                    out = Path(tmp) / f"lossy_j{jobs}.csv"
                    proc = run("--scenario", scn, "--jobs", jobs, "--out", str(out))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertEqual(out.read_bytes(), expected)

    def test_journal_signatures(self):
        # Recorded before the flags became scenario keys: the three run
        # paths must journal exactly as they did.  Re-recorded once for the
        # osumac-journal-v2 digests, which hash the same state differently.
        golden = [
            (["--rho", "0.8", "--cycles", "60", "--channel", "uniform", "--ser", "0.001"],
             "d28634d53437eb42"),
            (["--mac", "rqma", "--cycles", "60"], "a8d5a64b58cb507e"),
            (["--cells", "2", "--cycles", "30"], "ef903e630202d305"),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            for args, signature in golden:
                with self.subTest(args=args):
                    proc = run(*args, "--journal", "run.jsonl", cwd=tmp)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    found = re.search(r"signature ([0-9a-f]{16})", proc.stdout)
                    self.assertIsNotNone(found, proc.stdout)
                    self.assertEqual(found.group(1), signature)


class ObservabilityStepTest(unittest.TestCase):
    """CI's trace, flight and injected-divergence steps, command for
    command: osumac_sim's artifacts must pass the repo's own checkers."""

    def expect_exit(self, proc: subprocess.CompletedProcess, code: int):
        self.assertEqual(proc.returncode, code, proc.stdout + proc.stderr)

    def test_trace_smoke(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.expect_exit(run("--cycles", "50", "--trace", "out.json",
                                 "--metrics", "metrics.csv", "--audit", cwd=tmp), 0)
            self.expect_exit(tool("check_trace.py", "out.json", cwd=tmp), 0)

    def test_flight_smoke_names_the_blown_gps_gap(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.expect_exit(run("--cycles", "200", "--warmup", "10", "--gps", "4",
                                 "--channel", "ge", "--seed", "7",
                                 "--flight-dir", "flight_dump", cwd=tmp), 0)
            check = tool("check_trace.py", "--flight", "flight_dump", cwd=tmp)
            self.expect_exit(check, 0)
            self.assertIn("BLOWN BUDGET: node 10 inter-delivery gap 7.9688s",
                          check.stdout)

    def test_injected_divergence_is_localized(self):
        common = ["--rho", "0.8", "--cycles", "60", "--channel", "uniform",
                  "--ser", "0.001"]
        with tempfile.TemporaryDirectory() as tmp:
            self.expect_exit(run(*common, "--journal", "ref.jsonl", cwd=tmp), 0)
            self.expect_exit(run(*common, "--journal", "live.jsonl",
                                 "--journal-expect", "ref.jsonl", "--fault-cycle", "90",
                                 "--flight-dir", "flight_divergence", cwd=tmp), 3)
            diff = ["ref.jsonl", "live.jsonl", "--flight", "flight_divergence",
                    "--expect-divergence-at", "102", "--expect-cell", "0"]
            self.expect_exit(tool("osumac_diff.py", *diff, cwd=tmp), 0)
            self.expect_exit(tool("check_trace.py", "--flight", "flight_divergence",
                                  cwd=tmp), 0)

            # A malformed dump is malformed input (exit 2), not a traceback.
            dump = Path(tmp) / "flight_divergence"
            manifest = (dump / "MANIFEST.txt").read_text()
            self.assertRegex(manifest, r"\ncycle: \d+\n")
            for name, text in [
                ("MANIFEST.txt", re.sub(r"\ncycle: (\d+)\n", r"\ncycle: \g<1>x\n",
                                        manifest)),
                ("events.jsonl", (dump / "events.jsonl").read_text() + "{bad\n"),
            ]:
                with self.subTest(malformed=name):
                    shutil.rmtree(Path(tmp) / "broken", ignore_errors=True)
                    shutil.copytree(dump, Path(tmp) / "broken")
                    (Path(tmp) / "broken" / name).write_text(text)
                    diff[3] = "broken"
                    proc = tool("osumac_diff.py", *diff, cwd=tmp)
                    self.expect_exit(proc, 2)
                    self.assertNotIn("Traceback", proc.stderr)
                    self.assertIn(name, proc.stderr)


    def test_foreign_journal_schema_is_refused(self):
        # A journal of another schema hashes state differently: comparing
        # against it would report a divergence at its first record.
        common = ["--rho", "0.8", "--cycles", "20"]
        with tempfile.TemporaryDirectory() as tmp:
            self.expect_exit(run(*common, "--journal", "ref.jsonl", cwd=tmp), 0)
            ref = (Path(tmp) / "ref.jsonl").read_text()
            self.assertIn('"schema": "osumac-journal-v2"', ref.splitlines()[0])
            (Path(tmp) / "old.jsonl").write_text(
                ref.replace("osumac-journal-v2", "osumac-journal-v1", 1))

            proc = run(*common, "--journal-expect", "old.jsonl", cwd=tmp)
            self.expect_exit(proc, 1)
            self.assertIn("osumac-journal-v1", proc.stderr)
            self.assertIn("osumac-journal-v2", proc.stderr)

            proc = tool("osumac_diff.py", "ref.jsonl", "old.jsonl", cwd=tmp)
            self.expect_exit(proc, 2)
            self.assertNotIn("Traceback", proc.stderr)
            self.assertIn("schemas differ", proc.stderr)

    def test_sweep_digest_refuses_a_journal(self):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "two.jsonl").write_text('{"a": 1}\n{"b": 2}\n')
            proc = tool("sweep_digest.py", "two.jsonl", cwd=tmp)
            self.expect_exit(proc, 2)
            self.assertNotIn("Traceback", proc.stderr)
            self.assertIn("two.jsonl: not one JSON document", proc.stderr)


class FigureCsvTest(unittest.TestCase):
    """make_figures is the one definition of every scenario-sweep experiment:
    its CSVs keep their columns, and every column that is one point's field
    equals the same run's BENCH_sweeps.json."""

    # The leading columns of each CSV.  Plotting scripts read them by name,
    # so they stay first and unchanged; new columns go after them.
    HEADERS = {
        "fig8_utilization_delay.csv": "rho,offered,utilization,packet_delay_cycles,"
                                      "message_delay_cycles,p95_delay,drop_rate",
        "fig9_collision_reservation.csv": "rho,collision_probability,"
                                          "reservation_latency_cycles",
        "fig10_control_overhead.csv": "rho,control_overhead,reservation_packets,"
                                      "data_packets",
        "fig11_fairness.csv": "rho,fairness_index",
        "fig12a_cf2_gain.csv": "rho,cf2_gain,utilization_with_cf2,"
                               "utilization_without_cf2",
        "fig12b_slot_usage.csv": "rho,gps_users,dynamic,avg_data_slots_used",
        "robustness_grid.csv": "data_users,gps_users,utilization,packet_delay_cycles,"
                               "fairness,gps_max_access_s",
        "fig8_replications.csv": "rho,offered,util,util_sd,pkt_delay,delay_sd,"
                                 "msg_delay,drop_rate",
        "fig8_fixed120.csv": "rho,offered,util,pkt_delay,drop_rate",
        "registration_latency.csv": "cell,background_rho,p50,p80,p99,max,n",
        "ablation_contention.csv": "variant,p50,p90,max,registered,collisions",
        "ablation_arq.csv": "up_rho,variant,dl_loss,rev_util,up_delay,retx,acks",
        "ablation_erasures.csv": "mean_fade_sym,gps_loss,gps_loss_ei,data_fail,"
                                 "data_fail_ei",
    }
    ROWS = {
        "fig9_collision_reservation.csv": 6,
        "fig12a_cf2_gain.csv": 6,
        "robustness_grid.csv": 16,
        "fig8_replications.csv": 6,
        "fig8_fixed120.csv": 6,
        "registration_latency.csv": 2,
        "ablation_contention.csv": 2,
        "ablation_arq.csv": 6,
        "ablation_erasures.csv": 4,
    }

    @classmethod
    def setUpClass(cls):
        tmp = tempfile.TemporaryDirectory()
        cls.addClassCleanup(tmp.cleanup)
        # The temp dir is also the cwd, so the run cannot touch the
        # checkout's bench/history.jsonl.
        proc = run("figs", "--jobs", "2", "--no-journal", cwd=tmp.name,
                   program=FIGURES, timeout=600)
        if proc.returncode != 0:
            raise AssertionError(proc.stdout + proc.stderr)
        out = Path(tmp.name) / "figs"
        cls.fields = {}
        cls.rows = {}
        for name in cls.HEADERS:
            with open(out / name, newline="") as f:
                reader = csv.DictReader(f)
                cls.rows[name] = list(reader)
                cls.fields[name] = reader.fieldnames
        cls.points = {p["name"]: p for p in
                      json.loads((out / "BENCH_sweeps.json").read_text())["points"]}

    def assert_prints(self, row: dict, column: str, value: float, digits: int = 10):
        """A table cell equals `value` as the CSV prints it: %.10g for the
        tables, the stream default %g for the figure CSVs."""
        self.assertEqual(row[column], f"{value:.{digits}g}", column)

    def test_columns_and_row_counts(self):
        for name, header in self.HEADERS.items():
            with self.subTest(csv=name):
                old = header.split(",")
                self.assertEqual(self.fields[name][:len(old)], old)
                if name in self.ROWS:
                    self.assertEqual(len(self.rows[name]), self.ROWS[name])

    def test_bench_columns_match_the_sweep_record(self):
        points = self.points
        for row in self.rows["fig9_collision_reservation.csv"]:
            with self.subTest(fig=9, rho=row["rho"]):
                k = points["rho_" + row["rho"]]["counters"]
                self.assertEqual(int(row["collisions"]), k["collisions"])
                self.assertEqual(int(row["reservation_packets"]),
                                 k["reservation_packets_received"])
                self.assertEqual(int(row["piggybacked"]),
                                 k["data_packets_received"] - k["contention_data_received"])
        for row in self.rows["fig12a_cf2_gain.csv"]:
            with self.subTest(fig="12a", rho=row["rho"]):
                k = points["rho_" + row["rho"]]["counters"]
                self.assertEqual(int(row["last_slot_data_packets"]),
                                 k["last_slot_data_packets"])
                self.assertEqual(int(row["data_packets_received"]),
                                 k["data_packets_received"])
        for row in self.rows["robustness_grid.csv"]:
            with self.subTest(grid=(row["data_users"], row["gps_users"])):
                m = points[f"grid_d{row['data_users']}_g{row['gps_users']}"]["metrics"]
                self.assert_prints(row, "collision_probability",
                                   m["collision_probability"], digits=6)

    def test_tables_match_the_sweep_record(self):
        points = self.points
        for row in self.rows["fig8_replications.csv"]:
            with self.subTest(table="fig8_replications", rho=row["rho"]):
                reps = [points[f"rho_{row['rho']}#{r}"] for r in range(3)]
                # Replication 0 is the figure's own point, seed and all.
                for part in ("seed", "metrics", "counters", "slo"):
                    self.assertEqual(reps[0][part], points["rho_" + row["rho"]][part])
                utilization = [p["metrics"]["utilization"] for p in reps]
                self.assertAlmostEqual(float(row["util"]), sum(utilization) / 3,
                                       places=8)
        for row in self.rows["fig8_fixed120.csv"]:
            with self.subTest(table="fig8_fixed120", rho=row["rho"]):
                m = points[f"rho_{row['rho']}_fixed120"]["metrics"]
                self.assert_prints(row, "offered", m["offered_load"])
                self.assert_prints(row, "util", m["utilization"])
                self.assert_prints(row, "pkt_delay", m["mean_packet_delay_cycles"])
                self.assert_prints(row, "drop_rate", m["message_drop_rate"])
        for row in self.rows["registration_latency.csv"]:
            with self.subTest(table="registration_latency", cell=row["cell"]):
                self.assertEqual(int(row["n"]), 60)
        for row in self.rows["ablation_contention.csv"]:
            with self.subTest(table="ablation_contention", variant=row["variant"]):
                storm = [points[f"{row['variant']}#{r}"] for r in range(5)]
                self.assertAlmostEqual(
                    float(row["registered"]),
                    sum(p["metrics"]["churn_registered"] for p in storm) / 5, places=8)
                self.assertAlmostEqual(
                    float(row["collisions"]),
                    sum(p["counters"]["collisions"] for p in storm) / 5, places=8)
        for row in self.rows["ablation_arq.csv"]:
            with self.subTest(table="ablation_arq", up_rho=row["up_rho"],
                              variant=row["variant"]):
                p = points[f"{row['variant']}_rho{float(row['up_rho']):.6f}"]
                self.assert_prints(row, "rev_util", p["metrics"]["utilization"])
                self.assert_prints(row, "up_delay",
                                   p["metrics"]["mean_packet_delay_cycles"])
                self.assertEqual(int(row["retx"]), p["counters"]["forward_retransmissions"])
                self.assertEqual(int(row["acks"]), p["counters"]["forward_acks_received"])
        fades = ["0.300000", "0.150000", "0.080000", "0.040000"]
        for row, fade in zip(self.rows["ablation_erasures.csv"], fades):
            with self.subTest(table="ablation_erasures", fade=fade):
                plain = points["fade" + fade]["counters"]
                with_ei = points["fade" + fade + "_ei"]["counters"]
                self.assertEqual(int(row["data_fail"]), plain["decode_failures"])
                self.assertEqual(int(row["data_fail_ei"]), with_ei["decode_failures"])

    def test_registration_meets_section_2_1_at_the_design_point(self):
        # "80% of the registration requests can be approved in two
        # notification cycles, and 99% can be made in 10 cycles."
        quiet = next(r for r in self.rows["registration_latency.csv"]
                     if r["cell"] == "quiet")
        self.assertLessEqual(float(quiet["p80"]), 2.0)
        self.assertLessEqual(float(quiet["p99"]), 10.0)

    def test_history_is_appended_only_by_clean_builds(self):
        # A cwd holding bench/CMakeLists.txt looks like a checkout, where
        # make_figures appends its phase timings to bench/history.jsonl --
        # unless the binary was built from a dirty tree.
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "bench").mkdir()
            (Path(tmp) / "bench" / "CMakeLists.txt").write_text("")
            proc = run("figs", "--jobs", "2", "--no-journal", cwd=tmp,
                       program=FIGURES, timeout=600)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            history = Path(tmp) / "bench" / "history.jsonl"
            if "-dirty " in proc.stdout.splitlines()[0]:
                self.assertFalse(history.exists())
            else:
                lines = history.read_text().splitlines()
                self.assertEqual(len(lines), 1)
                self.assertNotIn("-dirty", lines[0])


if __name__ == "__main__":
    if len(sys.argv) < 4:
        sys.exit("usage: cli_test.py PATH/TO/osumac_sim PATH/TO/make_figures "
                 "PATH/TO/bench_baselines [unittest args]")
    # Absolute, because many tests run the binaries from a temporary cwd.
    SIM, FIGURES, BENCH = (str(Path(sys.argv.pop(1)).resolve()) for _ in range(3))
    unittest.main()

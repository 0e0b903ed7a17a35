// The repo's benchmark driver: runs one named workload through the public
// exp/mac APIs, checks the outputs, and prints one JSON result line.
//
//   perfbench_driver --workload figure_sweep|lossy_sweep|metro --seed N
//                    --seconds S --trace 0|1 [--perturb] [--spans-out FILE]
//
// --trace 0 times the workload untraced and prints the end-to-end metrics;
// --trace 1 runs it serially under obs::Profiler plus the driver's own spans
// and prints the per-layer metrics.  perfbench/README.md defines every
// metric, workload and check.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "osumac/osumac.h"

using namespace osumac;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// --- small statistics --------------------------------------------------------

/// Linear-interpolated quantile of `v` (copied; q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::size_t Hash(const std::string& s) { return std::hash<std::string>{}(s); }

// --- the driver's own spans -------------------------------------------------

/// One driver span: a public call the driver made, with its parent span
/// and the scenario point (or metro step) it belongs to.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  ///< index into the log, -1 at top level
  int point;   ///< point index / metro step, -1 when none
};

/// In-memory span log for the traced run.  Each span is also entered as a
/// zone of the calling thread's obs::Profiler (when one is installed), so
/// the program's zones nest under the driver's and self times are computed
/// on one tree.  A null log makes ScopedSpan a no-op.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int Open(const char* name, int point) {
    spans_.push_back({name, Now(), 0, open_.empty() ? -1 : open_.back(), point});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void Close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = Now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  bool WriteJsonl(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"point\":" << s.point << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int point = -1)
      : log_(log), zone_(log != nullptr ? name : nullptr) {
    if (log_ != nullptr) index_ = log_->Open(name, point);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  /// Optional profiler zone of the same name (constructed only when tracing).
  struct MaybeZone {
    explicit MaybeZone(const char* name) {
      if (name != nullptr) zone.emplace(name);
    }
    std::optional<obs::ProfileZone> zone;
  };

  SpanLog* log_;
  MaybeZone zone_;
  int index_ = -1;
};

// --- result line ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Totals every run reports, whatever the workload.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  ///< failed checks, printed to stderr

  void Fail(const std::string& why) { problems.push_back(why); }
};

/// Prints the failed checks and the failure rate to stderr and the result
/// line to stdout; returns the exit code (0 only when everything passed).
int Report(const Outcome& outcome, const std::vector<Metric>& metrics) {
  for (const std::string& p : outcome.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::fprintf(stderr, "perfbench: error_rate=%g (%lld/%lld)\n",
               Ratio(static_cast<double>(outcome.failed),
                     static_cast<double>(outcome.attempted)),
               static_cast<long long>(outcome.failed),
               static_cast<long long>(outcome.attempted));
  const bool correct = outcome.problems.empty() && outcome.failed == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- workload inputs -----------------------------------------------------------

constexpr int kMaxThreads = 4;

int Parallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, std::min(kMaxThreads, static_cast<int>(hw == 0 ? 1 : hw)));
}

/// Gives every spec its own seed, derived from the workload seed.
void DeriveSeeds(std::vector<exp::ScenarioSpec>& specs, std::uint64_t seed) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].seed = DeriveSubstreamSeed(seed, i);
  }
}

/// make_figures' default spec list (load sweep with/without CF2, the
/// fig 12(b) arms, the robustness grid) plus its --mac-matrix points.
std::vector<exp::ScenarioSpec> FigureSweepSpecs(std::uint64_t seed) {
  std::vector<exp::ScenarioSpec> specs;
  for (const double rho : exp::LoadSweep()) {
    exp::ScenarioSpec point = exp::LoadPoint(rho);
    specs.push_back(point);
    point.name += "_nocf2";
    point.mac.use_second_control_field = false;
    specs.push_back(point);
  }
  for (const double rho : exp::LoadSweep()) {
    for (const int gps : {1, 4}) {
      for (const bool dynamic : {true, false}) {
        exp::ScenarioSpec point = exp::LoadPoint(rho);
        point.name += "_gps" + std::to_string(gps) + (dynamic ? "_dyn" : "_static");
        point.gps_users = gps;
        point.mac.dynamic_gps_slots = dynamic;
        specs.push_back(point);
      }
    }
  }
  for (const int data_users : {5, 8, 11, 14}) {
    for (const int gps_users : {1, 3, 4, 8}) {
      exp::ScenarioSpec point = exp::LoadPoint(0.7);
      point.name = "grid_d" + std::to_string(data_users) + "_g" +
                   std::to_string(gps_users);
      point.data_users = data_users;
      point.gps_users = gps_users;
      point.measure_cycles = 500;
      specs.push_back(point);
    }
  }
  for (const std::string& policy : mac::KnownMacPolicies()) {
    for (const double rho : exp::LoadSweep()) {
      exp::ScenarioSpec point = exp::LoadPoint(rho);
      point.name = "mac_" + policy + "_" + point.name;
      point.mac_policy = policy;
      specs.push_back(point);
    }
  }
  DeriveSeeds(specs, seed);
  return specs;
}

// Error-prone channels for lossy_sweep.  At uniform SER 0.06 an RS(64,48)
// word (t = 8) fails with probability ~1e-2, so decode failures occur in
// every run; the Gilbert-Elliott bursts exceed t without erasure flags.
mac::ChannelModelConfig Uniform(double ser) {
  mac::ChannelModelConfig c;
  c.kind = mac::ChannelModelConfig::Kind::kUniform;
  c.symbol_error_prob = ser;
  return c;
}

mac::ChannelModelConfig Bursty(double p_good_to_bad, double p_bad_to_good,
                               double error_prob_bad) {
  mac::ChannelModelConfig c;
  c.kind = mac::ChannelModelConfig::Kind::kGilbertElliott;
  c.ge.p_good_to_bad = p_good_to_bad;
  c.ge.p_bad_to_good = p_bad_to_good;
  c.ge.error_prob_good = 1e-4;
  c.ge.error_prob_bad = error_prob_bad;
  return c;
}

struct ChannelArm {
  const char* name;
  mac::ChannelModelConfig forward;
  mac::ChannelModelConfig reverse;
  bool erasures;
};

std::vector<ChannelArm> LossyArms() {
  return {
      {"uniform", Uniform(0.02), Uniform(0.06), false},
      {"ge", Bursty(0.004, 0.05, 0.4), Bursty(0.01, 0.1, 0.5), false},
      {"ge_erasures", Bursty(0.004, 0.05, 0.4), Bursty(0.01, 0.1, 0.5), true},
  };
}

/// The load sweep under each lossy channel arm with downlink + ARQ on, plus
/// a churn (registration storm) arm on the uniform channel.
std::vector<exp::ScenarioSpec> LossySweepSpecs(std::uint64_t seed) {
  std::vector<exp::ScenarioSpec> specs;
  for (const ChannelArm& arm : LossyArms()) {
    for (const double rho : exp::LoadSweep()) {
      exp::ScenarioSpec point = exp::LoadPoint(rho);
      point.name += std::string("_") + arm.name;
      point.forward = arm.forward;
      point.reverse = arm.reverse;
      point.erasure_side_information = arm.erasures;
      point.workload.downlink_rho = 0.3;
      point.mac.downlink_arq = true;
      point.measure_cycles = 500;
      specs.push_back(point);
    }
  }
  for (const double rho : {0.5, 0.8}) {
    exp::ScenarioSpec point = exp::LoadPoint(rho);
    point.name += "_churn";
    point.forward = LossyArms()[0].forward;
    point.reverse = LossyArms()[0].reverse;
    point.workload.downlink_rho = 0.3;
    point.mac.downlink_arq = true;
    point.measure_cycles = 300;
    point.churn.arrivals = 20;
    point.churn.gap_lo_cycles = 2;
    point.churn.gap_hi_cycles = 5;
    point.churn.max_extra_wait_cycles = 40;
    specs.push_back(point);
  }
  DeriveSeeds(specs, seed);
  return specs;
}

/// Cell cycles one finished point simulated (registration + warm-up +
/// measured, churn gaps included).
std::int64_t PointCycles(const exp::ScenarioSpec& spec, const exp::RunResult& r) {
  return r.measured_cycles + (spec.reset_stats_after_warmup
                                  ? spec.registration_cycles + spec.warmup_cycles
                                  : 0);
}

// --- simulated QoS -----------------------------------------------------------------

/// The simulated end-to-end metrics: GPS deadline misses over the access-
/// delay and delivery-gap SLO classes (both with 4 s budgets), the worst
/// access delay, and capacity-weighted reverse-link utilization.
struct Qos {
  std::int64_t gps_samples = 0;
  std::int64_t gps_misses = 0;
  double gps_max_s = 0.0;
  std::int64_t payload_bytes = 0;
  std::int64_t capacity_bytes = 0;

  void AddSlo(const std::vector<obs::SloClassSummary>& slo) {
    const auto& g = slo[static_cast<std::size_t>(obs::SloClass::kGpsAccess)];
    const auto& gap = slo[static_cast<std::size_t>(obs::SloClass::kGpsDeliveryGap)];
    gps_samples += g.count + gap.count;
    gps_misses += g.misses + gap.misses;
    gps_max_s = std::max(gps_max_s, g.max_seconds);
  }
  double MetRatio() const {
    return gps_samples > 0 ? 1.0 - Ratio(static_cast<double>(gps_misses),
                                         static_cast<double>(gps_samples))
                           : 0.0;
  }
  double Utilization() const {
    return Ratio(static_cast<double>(payload_bytes),
                 static_cast<double>(capacity_bytes));
  }
};

// --- per-layer accounting ------------------------------------------------------

/// Self time and entry count per zone name, summed over the whole tree.
struct ZoneTotals {
  std::map<std::string, std::int64_t> self_ns;
  std::map<std::string, std::int64_t> calls;
  std::int64_t total_self_ns = 0;

  explicit ZoneTotals(const obs::Profiler& profiler) { Walk(profiler.root()); }

  double SelfS(const std::string& name) const {
    const auto it = self_ns.find(name);
    return it == self_ns.end() ? 0.0 : static_cast<double>(it->second) * 1e-9;
  }
  double Calls(const std::string& name) const {
    const auto it = calls.find(name);
    return it == calls.end() ? 0.0 : static_cast<double>(it->second);
  }

 private:
  void Walk(const obs::ZoneNode& node) {
    for (const auto& [name, child] : node.children) {
      self_ns[name] += child->self_ns();
      calls[name] += child->count;
      total_self_ns += child->self_ns();
      Walk(*child);
    }
  }
};

/// BsCounters summed over OSU points or cells.
void AddCounters(mac::BsCounters& sum, const mac::BsCounters& c) {
  sum.collisions += c.collisions;
  sum.contention_slot_cycles += c.contention_slot_cycles;
  sum.idle_contention_slots += c.idle_contention_slots;
  sum.data_slots_offered += c.data_slots_offered;
  sum.data_slots_used += c.data_slots_used;
  sum.forward_packets_sent += c.forward_packets_sent;
  sum.forward_retransmissions += c.forward_retransmissions;
  sum.registration_packets_received += c.registration_packets_received;
  sum.registrations_approved += c.registrations_approved;
  sum.decode_failures += c.decode_failures;
  sum.gps_packets_failed += c.gps_packets_failed;
  sum.data_packets_received += c.data_packets_received;
  sum.contention_data_received += c.contention_data_received;
  sum.reservation_packets_received += c.reservation_packets_received;
  sum.gps_packets_received += c.gps_packets_received;
}

void AddMacRatios(std::vector<Metric>& m, const mac::BsCounters& c) {
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  m.push_back({"mac.contention.collision_ratio",
               Ratio(d(c.collisions),
                     d(c.contention_slot_cycles - c.idle_contention_slots)),
               "ratio"});
  m.push_back({"mac.slot.used_ratio",
               Ratio(d(c.data_slots_used), d(c.data_slots_offered)), "ratio"});
  m.push_back({"mac.arq.retransmit_ratio",
               Ratio(d(c.forward_retransmissions), d(c.forward_packets_sent)),
               "ratio"});
  m.push_back({"mac.registration.approved_ratio",
               Ratio(d(c.registrations_approved),
                     d(c.registration_packets_received)),
               "ratio"});
  const double decoded =
      d(c.data_packets_received + c.contention_data_received +
        c.reservation_packets_received + c.registration_packets_received +
        c.gps_packets_received);
  const double failures = d(c.decode_failures + c.gps_packets_failed);
  m.push_back({"fec.decode.fail_ratio", Ratio(failures, failures + decoded),
               "ratio"});
}

/// Layer metrics read off the traced run's zone tree (program zones plus the
/// driver's spans), with `wall_s` the traced section's outer wall time.
void AddZoneMetrics(std::vector<Metric>& m, const ZoneTotals& z, double wall_s) {
  const auto self = [&](const char* name) { return z.SelfS(name); };
  m.push_back({"exp.populate.self_s", self("exp.populate"), "s"});
  m.push_back({"exp.warmup.self_s", self("exp.warmup"), "s"});
  m.push_back({"exp.measure.self_s", self("exp.measure"), "s"});
  m.push_back({"exp.finish.self_s", self("exp.finish"), "s"});
  m.push_back({"mac.plan.self_s", self("cell.plan"), "s"});
  m.push_back({"mac.cf.self_s", self("cell.cf"), "s"});
  m.push_back({"mac.cf.calls", z.Calls("cell.cf"), "count"});
  m.push_back({"mac.slot.self_s",
               self("cell.slot.gps") + self("cell.slot.data") +
                   self("cell.slot.forward") + self("cell.drain"),
               "s"});
  m.push_back({"mac.policy.self_s", self("policy.plan") + self("policy.slot"), "s"});
  m.push_back({"phy.channel.self_s", self("phy.channel"), "s"});
  m.push_back({"phy.channel.calls", z.Calls("phy.channel"), "count"});
  m.push_back({"fec.encode.self_s", self("fec.encode"), "s"});
  m.push_back({"fec.encode.calls", z.Calls("fec.encode"), "count"});
  m.push_back({"fec.decode.self_s", self("fec.decode"), "s"});
  m.push_back({"fec.decode.calls", z.Calls("fec.decode"), "count"});
  m.push_back({"net.cell.self_s", self("net.cell"), "s"});
  m.push_back({"net.barrier.self_s", self("net.barrier"), "s"});
  m.push_back({"net.route.self_s", self("net.route"), "s"});
  m.push_back({"net.route.calls", z.Calls("net.route"), "count"});
  m.push_back({"net.walk.self_s", self("net.walk"), "s"});
  m.push_back({"net.send.self_s", self("net.send"), "s"});
  m.push_back({"obs.emit.self_s", self("obs.emit"), "s"});
  m.push_back({"analysis.audit.self_s", self("analysis.audit"), "s"});
  double driver_s = 0.0;
  for (const auto& [name, ns] : z.self_ns) {
    if (name.rfind("drv.", 0) == 0) driver_s += static_cast<double>(ns) * 1e-9;
  }
  m.push_back({"driver.self_s", driver_s, "s"});
  m.push_back({"trace.wall_s", wall_s, "s"});
  m.push_back({"trace.attributed_ratio",
               Ratio(static_cast<double>(z.total_self_ns) * 1e-9, wall_s), "ratio"});
  const double net = self("net.cell") + self("net.barrier") + self("net.route") +
                     self("net.walk") + self("net.send");
  m.push_back({"share.phy_fec_decode",
               Ratio(self("phy.channel") + self("fec.decode"), wall_s), "ratio"});
  m.push_back({"share.mac", Ratio(self("cell.plan") + self("cell.cf") +
                                      self("cell.slot.gps") + self("cell.slot.data") +
                                      self("cell.slot.forward") + self("cell.drain"),
                                  wall_s),
               "ratio"});
  m.push_back({"share.mac_policy",
               Ratio(self("policy.plan") + self("policy.slot"), wall_s), "ratio"});
  m.push_back({"share.net", Ratio(net, wall_s), "ratio"});
}

// --- per-codeword phy/fec probes ----------------------------------------------

/// The channel arms a workload's points run on (one perfect arm for the
/// perfect-channel workloads).
std::vector<ChannelArm> ProbeArms(const std::string& workload) {
  if (workload == "lossy_sweep") return LossyArms();
  return {{"perfect", {}, {}, false}};
}

/// Times the public phy/fec calls over a workload's channel arms, so the
/// forward path (which has no zone of its own inside cell.cf) is measured
/// from outside.  Deterministic inputs from `seed`.
void AddProbeMetrics(std::vector<Metric>& m, const std::vector<ChannelArm>& arms,
                     std::uint64_t seed) {
  const fec::ReedSolomon& rs = fec::ReedSolomon::Osu6448();
  constexpr int kWords = 4000;
  constexpr int kBurst = 4;  // codewords per burst, as a data packet
  Rng rng(DeriveSubstreamSeed(seed, 0xfec));
  std::vector<std::vector<fec::GfElem>> data(kWords);
  std::vector<std::vector<fec::GfElem>> clean(kWords);
  std::vector<std::vector<fec::GfElem>> corrupt(kWords);
  for (int i = 0; i < kWords; ++i) {
    auto& d = data[static_cast<std::size_t>(i)];
    d.resize(static_cast<std::size_t>(rs.k()));
    for (auto& b : d) b = static_cast<fec::GfElem>(rng.UniformInt(0, 255));
    clean[static_cast<std::size_t>(i)] = rs.Encode(d);
    corrupt[static_cast<std::size_t>(i)] = clean[static_cast<std::size_t>(i)];
    for (int e = 0; e < 4; ++e) {  // inside t = 8: the full decode pipeline
      corrupt[static_cast<std::size_t>(i)][static_cast<std::size_t>(13 * (e + 1))] ^=
          static_cast<fec::GfElem>(rng.UniformInt(1, 255));
    }
  }

  const auto time_ns_per = [](int n, const std::function<void()>& body) {
    const Clock::time_point t = Clock::now();
    body();
    return SecondsSince(t) * 1e9 / n;
  };
  std::vector<fec::GfElem> out(static_cast<std::size_t>(rs.n()));
  fec::DecodeResult result;
  m.push_back({"fec.encode_ns_per_codeword", time_ns_per(kWords, [&] {
                 for (const auto& d : data) rs.EncodeInto(d, out);
               }), "ns"});
  m.push_back({"fec.decode_ns_per_codeword_clean", time_ns_per(kWords, [&] {
                 for (const auto& cw : clean) (void)rs.DecodeInto(cw, &result);
               }), "ns"});
  m.push_back({"fec.decode_ns_per_codeword_corrupt", time_ns_per(kWords, [&] {
                 for (const auto& cw : corrupt) (void)rs.DecodeInto(cw, &result);
               }), "ns"});

  // Forward path: phy::ApplyChannelInto, bursts of kBurst codewords.
  std::vector<std::vector<fec::GfElem>> burst(clean.begin(), clean.begin() + kBurst);
  std::vector<std::vector<fec::GfElem>> decoded;
  phy::ChannelScratch scratch;
  double forward_ns = 0.0;
  double reverse_ns = 0.0;
  for (std::size_t a = 0; a < arms.size(); ++a) {
    const ChannelArm& arm = arms[a];
    auto forward = arm.forward.Make(DeriveSubstreamSeed(seed, 4 * a));
    Rng forward_rng(DeriveSubstreamSeed(seed, 4 * a + 1));
    forward_ns += time_ns_per(kWords, [&] {
      for (int i = 0; i < kWords / kBurst; ++i) {
        (void)phy::ApplyChannelInto(burst, rs, *forward, forward_rng, scratch, decoded,
                                    nullptr, arm.erasures);
      }
    });

    // Reverse path: one burst per slot through ReverseChannel.
    auto reverse = arm.reverse.Make(DeriveSubstreamSeed(seed, 4 * a + 2));
    Rng reverse_rng(DeriveSubstreamSeed(seed, 4 * a + 3));
    phy::ReverseChannel channel;
    phy::SlotReception reception;
    const std::function<phy::SymbolErrorModel&(int)> model_for =
        [&reverse](int) -> phy::SymbolErrorModel& { return *reverse; };
    reverse_ns += time_ns_per(kWords, [&] {
      for (int i = 0; i < kWords / kBurst; ++i) {
        const Interval slot{Tick{i} * 1000, Tick{i} * 1000 + 900};
        channel.Transmit({slot, burst, 0, static_cast<std::uint64_t>(i)});
        channel.ResolveSlotPerSenderInto(slot, rs, model_for, reverse_rng, scratch,
                                         reception, arm.erasures);
      }
    });
  }
  const auto n = static_cast<double>(arms.size());
  m.push_back({"phy.forward_ns_per_codeword", forward_ns / n, "ns"});
  m.push_back({"phy.reverse_ns_per_codeword", reverse_ns / n, "ns"});
}


// --- sweeps: figure_sweep and lossy_sweep ----------------------------------------

/// The ProtocolAuditor behind a profiler zone of its own, so the auditor's
/// cost in the traced run is not charged to the mac zones it is called from.
class ZonedAuditor final : public mac::CellObserver {
 public:
  void OnCyclePlanned(const mac::Cell& cell, const mac::ControlFields& cf1,
                      std::int64_t cycle, Tick now) override {
    OSUMAC_PROFILE_ZONE("analysis.audit");
    auditor_.OnCyclePlanned(cell, cf1, cycle, now);
  }
  void OnControlFieldsDelivered(const mac::Cell& cell, const mac::ControlFields& cf,
                                bool second, Tick cycle_start, Tick now) override {
    OSUMAC_PROFILE_ZONE("analysis.audit");
    auditor_.OnControlFieldsDelivered(cell, cf, second, cycle_start, now);
  }
  const analysis::ProtocolAuditor& auditor() const { return auditor_; }

 private:
  analysis::ProtocolAuditor auditor_;
};

class ZonedPolicyAuditor final : public mac::PolicyCellObserver {
 public:
  void OnCyclePlanned(const mac::PolicyCell& cell, const mac::PolicyCyclePlan& plan,
                      std::int64_t cycle, Tick now) override {
    OSUMAC_PROFILE_ZONE("analysis.audit");
    auditor_.OnCyclePlanned(cell, plan, cycle, now);
  }
  void OnSlotResolved(const mac::PolicyCell& cell, const mac::PolicySlotPlan& plan,
                      const mac::PolicySlotResult& result, Interval abs,
                      Tick now) override {
    OSUMAC_PROFILE_ZONE("analysis.audit");
    auditor_.OnSlotResolved(cell, plan, result, abs, now);
  }
  const analysis::PolicyAuditor& auditor() const { return auditor_; }

 private:
  analysis::PolicyAuditor auditor_;
};

/// One point of the serial check run: the result, its audit and its event
/// count.
struct CheckedPoint {
  exp::RunResult result;
  std::size_t signature = 0;
  std::size_t violations = 0;
  std::uint64_t events = 0;
};

/// Runs one spec serially with the auditors attached through RunHooks.
/// `perturb_cycle` >= 0 burns one RNG draw at that cycle (Cell::PerturbRngAt).
CheckedPoint RunChecked(const exp::ScenarioSpec& spec, int index,
                        std::int64_t perturb_cycle, SpanLog* spans) {
  ZonedAuditor audit;
  ZonedPolicyAuditor policy_audit;
  CheckedPoint out;
  exp::RunHooks hooks;
  hooks.after_build = [&](mac::Cell& cell) {
    cell.AddObserver(&audit);
    if (perturb_cycle >= 0) cell.PerturbRngAt(perturb_cycle);
  };
  hooks.before_finish = [&](mac::Cell& cell) {
    out.events = cell.simulator().events_executed();
  };
  hooks.policy_after_build = [&](mac::PolicyCell& cell) {
    cell.AddObserver(&policy_audit);
  };
  hooks.policy_before_finish = [&](mac::PolicyCell& cell) {
    out.events = cell.simulator().events_executed();
  };
  {
    const ScopedSpan span(spans, "drv.point", index);
    out.result = exp::RunScenario(spec, hooks);
  }
  out.signature = Hash(exp::ResultSignature(out.result));
  out.violations = audit.auditor().violations().size() +
                   policy_audit.auditor().violations().size();
  return out;
}

/// Cycle at which perturbed runs burn their extra draw: early in the
/// measured window of every spec in these workloads.
std::int64_t PerturbCycle(const exp::ScenarioSpec& spec) {
  return spec.registration_cycles + spec.warmup_cycles + 5;
}

struct SweepCheck {
  std::vector<CheckedPoint> points;
  double wall_s = 0.0;
};

/// The serial check run over every spec.  With --perturb, point 0 of the
/// reference is perturbed, so every timed copy of it must fail the
/// signature comparison.
SweepCheck RunCheckSweep(const std::vector<exp::ScenarioSpec>& specs, bool perturb,
                         SpanLog* spans) {
  SweepCheck check;
  const Clock::time_point t = Clock::now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    check.points.push_back(RunChecked(specs[i], static_cast<int>(i),
                                      perturb && i == 0 ? PerturbCycle(specs[i]) : -1,
                                      spans));
  }
  check.wall_s = SecondsSince(t);
  return check;
}

/// One SweepRunner pass at `jobs`: per-point signatures, the host time of
/// each point (from each worker's consecutive completions) and the cell
/// cycles simulated.  Results are not kept, so memory does not grow with
/// the number of passes.
struct Lap {
  std::vector<std::size_t> signatures;
  std::vector<double> point_ms;
  double wall_s = 0.0;
  std::int64_t cycles = 0;
};

Lap RunLap(const std::vector<exp::ScenarioSpec>& specs, int jobs) {
  Lap lap;
  std::map<std::thread::id, Clock::time_point> last_done;
  const Clock::time_point start = Clock::now();
  // SweepRunner serializes the callback, so the map needs no lock.
  const std::vector<exp::RunResult> results =
      exp::SweepRunner(jobs).Run(specs, [&](int, int) {
        const Clock::time_point now = Clock::now();
        const auto it = last_done.try_emplace(std::this_thread::get_id(), start).first;
        lap.point_ms.push_back(
            std::chrono::duration<double, std::milli>(now - it->second).count());
        it->second = now;
      });
  lap.wall_s = SecondsSince(start);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    lap.signatures.push_back(Hash(exp::ResultSignature(results[i])));
    lap.cycles += PointCycles(specs[i], results[i]);
  }
  return lap;
}

/// Compares a lap's signatures against the check run; returns failed points.
std::int64_t CountMismatches(const Lap& lap, const SweepCheck& check) {
  std::int64_t failed = 0;
  for (std::size_t i = 0; i < lap.signatures.size(); ++i) {
    if (lap.signatures[i] != check.points[i].signature) ++failed;
  }
  return failed;
}

/// Output checks and workload self-checks on the serial check run.
void CheckSweepOutputs(const std::string& workload,
                       const std::vector<exp::ScenarioSpec>& specs,
                       const SweepCheck& check, Outcome& outcome) {
  mac::BsCounters bs;
  std::int64_t churn_registered = 0;
  std::map<std::string, std::int64_t> tenant_bytes;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const exp::ScenarioSpec& spec = specs[i];
    const CheckedPoint& p = check.points[i];
    if (p.violations > 0) {
      outcome.Fail(spec.name + ": auditor recorded " +
                   std::to_string(p.violations) + " violations");
    }
    const bool perfect = spec.forward.kind == mac::ChannelModelConfig::Kind::kPerfect &&
                         spec.reverse.kind == mac::ChannelModelConfig::Kind::kPerfect;
    const double gps_max =
        p.result.slo[static_cast<std::size_t>(obs::SloClass::kGpsAccess)].max_seconds;
    if (spec.mac_policy == "osu" && perfect && spec.gps_users <= 8 && gps_max > 4.0) {
      outcome.Fail(spec.name + ": GPS access delay " + std::to_string(gps_max) +
                   " s exceeds the paper's 4 s bound");
    }
    if (spec.mac_policy == "osu") AddCounters(bs, p.result.bs);
    churn_registered += p.result.churn_registered;
    tenant_bytes[spec.mac_policy] += p.result.unique_payload_bytes;
  }
  if (workload == "figure_sweep") {
    for (const std::string& tenant : mac::KnownMacPolicies()) {
      if (tenant_bytes[tenant] <= 0) {
        outcome.Fail("figure_sweep: tenant " + tenant + " delivered no payload");
      }
    }
  } else {
    if (bs.decode_failures + bs.gps_packets_failed <= 0) {
      outcome.Fail("lossy_sweep: no RS decode failures recorded");
    }
    if (bs.forward_retransmissions <= 0) {
      outcome.Fail("lossy_sweep: no ARQ retransmissions recorded");
    }
    if (churn_registered <= 0) {
      outcome.Fail("lossy_sweep: no churn registrations recorded");
    }
  }
}

/// The always-on negative self-test: point 0 re-run with a perturbed RNG
/// must not match its check-run signature, or the signature check is blind.
void CheckSignatureCanary(const std::vector<exp::ScenarioSpec>& specs,
                          const SweepCheck& check, bool perturb, Outcome& outcome) {
  if (perturb) return;  // the reference itself is the perturbed run
  const CheckedPoint canary = RunChecked(specs[0], 0, PerturbCycle(specs[0]), nullptr);
  if (canary.signature == check.points[0].signature) {
    outcome.Fail("canary: a perturbed run matched the reference signature");
  }
}

/// The simulated QoS of a sweep, from the check run (every timed pass
/// matched it, or the run failed).
Qos SweepQos(const SweepCheck& check) {
  Qos q;
  for (const CheckedPoint& p : check.points) {
    q.AddSlo(p.result.slo);
    q.payload_bytes += p.result.unique_payload_bytes;
    q.capacity_bytes += p.result.capacity_bytes;
  }
  return q;
}

std::vector<exp::ScenarioSpec> SweepSpecs(const std::string& workload,
                                          std::uint64_t seed) {
  return workload == "figure_sweep" ? FigureSweepSpecs(seed) : LossySweepSpecs(seed);
}

constexpr int kSetupReps = 5;

/// One set-up: build the spec list, then construct every point's cell and,
/// for OSU points, add and register its population
/// (ScenarioRun::BuildPopulation, the same phase metro's set-up runs).
/// SweepRunner repeats this work inside every timed pass.
double SweepSetupOnce(const std::string& workload, std::uint64_t seed) {
  const Clock::time_point t = Clock::now();
  for (const exp::ScenarioSpec& spec : SweepSpecs(workload, seed)) {
    if (spec.mac_policy == "osu") {
      exp::ScenarioRun run(spec);
      run.BuildPopulation();
    } else {
      const mac::PolicyCell cell(spec.BuildCellConfig(), mac::MakeMacPolicy(spec.mac_policy),
                                 exp::DeriveSeed(spec.seed, exp::SeedStream::kMacPolicy));
    }
  }
  return SecondsSince(t);
}

/// Tail percentile of the per-operation host time.  A 10 s run has 140
/// samples or more, so at least 14 lie beyond it; p99 moved by a quarter
/// between runs on a shared 4-core host, p90 by a few percent.
constexpr double kTailQuantile = 0.9;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool perturb = false;
  std::string spans_out;
};

int RunSweep(const Options& opt) {
  Outcome outcome;
  const int jobs = Parallelism();
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    setup_s.push_back(SweepSetupOnce(opt.workload, opt.seed));
  }
  const std::vector<exp::ScenarioSpec> specs = SweepSpecs(opt.workload, opt.seed);
  const auto points = static_cast<std::int64_t>(specs.size());

  std::vector<Metric> metrics;
  if (!opt.trace) {
    // Timed section: whole SweepRunner passes until the time is used up.
    std::vector<Lap> laps;
    const Clock::time_point t = Clock::now();
    while (laps.size() < 3 || SecondsSince(t) < opt.seconds) {
      laps.push_back(RunLap(specs, jobs));
    }
    const SweepCheck check = RunCheckSweep(specs, opt.perturb, nullptr);
    std::vector<double> rates;
    std::vector<double> op_ms;
    for (const Lap& lap : laps) {
      outcome.attempted += points;
      outcome.failed += CountMismatches(lap, check);
      rates.push_back(static_cast<double>(lap.cycles) / lap.wall_s);
      op_ms.insert(op_ms.end(), lap.point_ms.begin(), lap.point_ms.end());
    }
    CheckSweepOutputs(opt.workload, specs, check, outcome);
    CheckSignatureCanary(specs, check, opt.perturb, outcome);
    const Qos q = SweepQos(check);
    std::fprintf(stderr,
                 "perfbench: %s jobs=%d laps=%zu points/lap=%lld op samples=%zu "
                 "tail=p%g\n",
                 opt.workload.c_str(), jobs, laps.size(), static_cast<long long>(points),
                 op_ms.size(), kTailQuantile * 100);
    metrics = {
        {"cell_cycles_per_s", Median(rates), "cycles/s"},
        {"op_ms_p50", Median(op_ms), "ms"},
        {"op_ms_tail", Quantile(op_ms, kTailQuantile), "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"gps_deadline_met_ratio", q.MetRatio(), "ratio"},
        {"gps_access_max_s", q.gps_max_s, "s"},
        {"utilization", q.Utilization(), "ratio"},
    };
  } else {
    // Untraced serial check run, then the traced serial run, then one
    // parallel pass: all three must agree point for point.
    const SweepCheck check = RunCheckSweep(specs, opt.perturb, nullptr);
    SpanLog spans(Clock::now());
    obs::Profiler profiler;
    SweepCheck traced;
    {
      const obs::Profiler::ThreadScope scope(&profiler);
      traced = RunCheckSweep(specs, false, &spans);
    }
    const Lap lap = RunLap(specs, jobs);
    outcome.attempted = 2 * points;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (traced.points[i].signature != check.points[i].signature) ++outcome.failed;
    }
    outcome.failed += CountMismatches(lap, check);
    CheckSweepOutputs(opt.workload, specs, check, outcome);
    CheckSignatureCanary(specs, check, opt.perturb, outcome);

    const ZoneTotals zones(profiler);
    AddZoneMetrics(metrics, zones, traced.wall_s);
    std::uint64_t events = 0;
    mac::BsCounters bs;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      events += traced.points[i].events;
      if (specs[i].mac_policy == "osu") AddCounters(bs, traced.points[i].result.bs);
    }
    metrics.push_back({"sim.events", static_cast<double>(events), "count"});
    metrics.push_back({"sim.ns_per_event",
                       Ratio(traced.wall_s * 1e9, static_cast<double>(events)), "ns"});
    AddMacRatios(metrics, bs);
    metrics.push_back({"net.handoffs", 0.0, "count"});
    metrics.push_back({"net.backbone_messages", 0.0, "count"});
    metrics.push_back({"net.unrouted_ratio", 0.0, "ratio"});
    metrics.push_back({"net.speedup", 0.0, "ratio"});
    metrics.push_back({"obs.journal.overhead_ratio", 0.0, "ratio"});
    metrics.push_back({"trace.overhead_ratio", Ratio(traced.wall_s, check.wall_s), "ratio"});
    AddProbeMetrics(metrics, ProbeArms(opt.workload), opt.seed);
    if (!opt.spans_out.empty() && !spans.WriteJsonl(opt.spans_out)) {
      outcome.Fail("cannot write " + opt.spans_out);
    }
  }
  return Report(outcome, metrics);
}


// --- metro: the sharded mac::Network ------------------------------------------

constexpr int kMetroCells = 256;
constexpr int kMetroDataPerCell = 8;
constexpr int kMetroGpsPerCell = 2;
constexpr double kMetroHandoffProb = 0.01;  ///< per active mobile per step
constexpr int kMetroMessagesPerStep = 64;   ///< vs the spec default of 2
/// The timed section repeats fixed episodes (set-up, then this many steps)
/// until the time is used up, so memory, the reference replay and the
/// simulated QoS metrics do not depend on host speed.
constexpr int kMetroEpisodeSteps = 250;
constexpr int kMetroMinEpisodes = 2;
constexpr int kMetroTraceSteps = 200;
constexpr int kMetroCanarySteps = 20;
constexpr int kMetroChunkSteps = 50;  ///< throughput is a median over chunks

/// A metro network after set-up (construction, population, warm-up), driven
/// one lockstep step at a time through the public Network API.
class Metro {
 public:
  Metro(std::uint64_t seed, int threads, SpanLog* spans)
      : run_(Spec(seed, threads)), rng_(DeriveSubstreamSeed(seed, 1)) {
    const ScopedSpan span(spans, "drv.setup");
    run_.BuildPopulation();
    run_.Warmup();
  }

  mac::Network& network() { return run_.network(); }

  /// Cycle number of the first step (journals and perturbations key on it).
  std::int64_t first_step_cycle() const {
    return run_.spec().registration_cycles + run_.spec().warmup_cycles;
  }

  /// One step: a random-walk handoff pass, a burst of subscriber chatter,
  /// then one lockstep cycle of every cell.  Returns the cycle's host ms.
  double Step(int index, SpanLog* spans) {
    mac::Network& net = network();
    {
      const ScopedSpan span(spans, "net.walk", index);
      net.RandomWalk(kMetroHandoffProb, rng_);
    }
    {
      const ScopedSpan span(spans, "net.send", index);
      const int subscribers = net.subscriber_count();
      for (int k = 0; k < kMetroMessagesPerStep; ++k) {
        const int a = static_cast<int>(rng_.UniformInt(0, subscribers - 1));
        const int b = static_cast<int>(rng_.UniformInt(0, subscribers - 1));
        const int bytes = static_cast<int>(rng_.UniformInt(40, 300));
        if (a == b ||
            net.subscriber(a).state() != mac::MobileSubscriber::State::kActive) {
          continue;
        }
        (void)net.SendMessage(a, b, bytes);
      }
    }
    const ScopedSpan span(spans, "drv.cycle", index);
    const Clock::time_point t = Clock::now();
    net.RunCycles(1);
    return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
  }

  Qos ReadQos() {
    Qos q;
    q.AddSlo(network().SloRollup().Summary());
    for (int c = 0; c < network().cell_count(); ++c) {
      q.payload_bytes += network().cell(c).metrics().unique_payload_bytes;
      q.capacity_bytes += network().cell(c).metrics().capacity_bytes;
    }
    return q;
  }

  std::uint64_t Events() {
    std::uint64_t events = 0;
    for (int c = 0; c < network().cell_count(); ++c) {
      events += network().cell(c).simulator().events_executed();
    }
    return events;
  }

  mac::BsCounters Counters() {
    mac::BsCounters sum;
    for (int c = 0; c < network().cell_count(); ++c) {
      AddCounters(sum, network().cell(c).base_station().counters());
    }
    return sum;
  }

 private:
  static exp::NetworkScenarioSpec Spec(std::uint64_t seed, int threads) {
    exp::NetworkScenarioSpec spec;
    spec.name = "metro";
    spec.cells = kMetroCells;
    spec.data_users_per_cell = kMetroDataPerCell;
    spec.gps_users_per_cell = kMetroGpsPerCell;
    spec.seed = DeriveSubstreamSeed(seed, 0);
    spec.threads = threads;
    return spec;
  }

  exp::NetworkScenarioRun run_;
  Rng rng_;  ///< the driver's walk + chatter stream
};

/// One digest per step over every cell's journal chain at that step.
std::vector<std::uint64_t> StepDigests(const obs::RunJournal& journal, int steps) {
  std::vector<std::uint64_t> out;
  for (int k = 0; k < steps; ++k) {
    obs::Digest64 d;
    for (const auto& cell : journal.cells()) {
      const auto i = static_cast<std::size_t>(k);
      d.Mix(i < cell->records().size() ? cell->records()[i].chain : 0);
    }
    out.push_back(d.value());
  }
  return out;
}

/// Steps whose digests differ (chains are cumulative, so a divergence
/// fails every later step too).
std::int64_t DivergentSteps(const std::vector<std::uint64_t>& a,
                            const std::vector<std::uint64_t>& b) {
  std::int64_t failed = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (k >= b.size() || a[k] != b[k]) ++failed;
  }
  return failed;
}

/// Serial replay of `steps` steps with a journal attached.  `perturb`
/// burns one RNG draw in every cell one cycle into the replay (a single
/// cell's node 0 may have handed off and sit idle, hiding the burn).
void ReplaySerial(std::uint64_t seed, int steps, bool perturb, obs::RunJournal& journal,
                  std::vector<double>* step_ms = nullptr, SpanLog* spans = nullptr) {
  Metro metro(seed, 1, spans);
  for (int c = 0; perturb && c < metro.network().cell_count(); ++c) {
    metro.network().cell(c).PerturbRngAt(metro.first_step_cycle() + 1);
  }
  metro.network().AttachJournal(&journal);
  for (int k = 0; k < steps; ++k) {
    const double ms = metro.Step(k, spans);
    if (step_ms != nullptr) step_ms->push_back(ms);
  }
}

void CheckMetroCanary(std::uint64_t seed, const std::vector<std::uint64_t>& reference,
                      bool perturb, Outcome& outcome) {
  if (perturb) return;
  obs::RunJournal canary;
  ReplaySerial(seed, kMetroCanarySteps, true, canary);
  if (DivergentSteps(StepDigests(canary, kMetroCanarySteps), reference) == 0) {
    outcome.Fail("canary: a perturbed metro replay matched the reference journal");
  }
}

void CheckMetroExercised(mac::Network& net, Outcome& outcome) {
  if (net.counters().handoffs <= 0) outcome.Fail("metro: no handoffs recorded");
  if (net.counters().backbone_messages <= 0) {
    outcome.Fail("metro: no backbone messages recorded");
  }
}

int RunMetro(const Options& opt) {
  Outcome outcome;
  const int threads = Parallelism();
  std::vector<Metric> metrics;
  if (!opt.trace) {
    // Timed section: whole episodes until the time is used up.
    std::vector<double> setup_s;
    std::vector<double> step_ms;
    std::vector<double> rates;
    std::vector<std::vector<std::uint64_t>> episodes;  // step digests
    Qos qos;
    const Clock::time_point t = Clock::now();
    while (static_cast<int>(episodes.size()) < kMetroMinEpisodes ||
           SecondsSince(t) < opt.seconds) {
      obs::RunJournal journal;  // outlives the episode's network
      const Clock::time_point setup = Clock::now();
      Metro metro(opt.seed, threads, nullptr);
      setup_s.push_back(SecondsSince(setup));
      metro.network().AttachJournal(&journal);
      Clock::time_point chunk = Clock::now();
      for (int k = 0; k < kMetroEpisodeSteps; ++k) {
        step_ms.push_back(metro.Step(k, nullptr));
        if ((k + 1) % kMetroChunkSteps == 0) {
          rates.push_back(kMetroChunkSteps * kMetroCells / SecondsSince(chunk));
          chunk = Clock::now();
        }
      }
      if (episodes.empty()) {
        qos = metro.ReadQos();
        CheckMetroExercised(metro.network(), outcome);
      }
      episodes.push_back(StepDigests(journal, kMetroEpisodeSteps));
    }

    obs::RunJournal reference;
    ReplaySerial(opt.seed, kMetroEpisodeSteps, opt.perturb, reference);
    const std::vector<std::uint64_t> expected =
        StepDigests(reference, kMetroEpisodeSteps);
    for (const auto& episode : episodes) {
      outcome.attempted += kMetroEpisodeSteps;
      outcome.failed += DivergentSteps(episode, expected);
    }
    CheckMetroCanary(opt.seed, expected, opt.perturb, outcome);
    std::fprintf(stderr,
                 "perfbench: metro cells=%d threads=%d episodes=%zu tail=p%g "
                 "(%zu samples)\n",
                 kMetroCells, threads, episodes.size(), kTailQuantile * 100,
                 step_ms.size());
    metrics = {
        {"cell_cycles_per_s", Median(rates), "cycles/s"},
        {"op_ms_p50", Median(step_ms), "ms"},
        {"op_ms_tail", Quantile(step_ms, kTailQuantile), "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"gps_deadline_met_ratio", qos.MetRatio(), "ratio"},
        {"gps_access_max_s", qos.gps_max_s, "s"},
        {"utilization", qos.Utilization(), "ratio"},
    };
  } else {
    const int steps = kMetroTraceSteps;
    // Parallel with and without the journal, then serial untraced and
    // serial traced; every journaled pass must agree step for step.
    obs::RunJournal parallel;
    std::vector<double> parallel_ms;
    {
      Metro metro(opt.seed, threads, nullptr);
      metro.network().AttachJournal(&parallel);
      for (int k = 0; k < steps; ++k) parallel_ms.push_back(metro.Step(k, nullptr));
    }
    std::vector<double> unjournaled_ms;
    {
      Metro metro(opt.seed, threads, nullptr);
      for (int k = 0; k < steps; ++k) unjournaled_ms.push_back(metro.Step(k, nullptr));
    }
    obs::RunJournal serial;
    std::vector<double> serial_ms;
    Clock::time_point t = Clock::now();
    ReplaySerial(opt.seed, steps, opt.perturb, serial, &serial_ms);
    const double untraced_wall_s = SecondsSince(t);

    obs::RunJournal traced_journal;  // outlives the traced network
    SpanLog spans(Clock::now());
    obs::Profiler profiler;
    double traced_wall_s = 0.0;
    std::uint64_t events = 0;
    mac::BsCounters bs;
    mac::NetworkCounters net{};
    {
      const obs::Profiler::ThreadScope scope(&profiler);
      t = Clock::now();
      Metro metro(opt.seed, 1, &spans);
      metro.network().AttachJournal(&traced_journal);
      for (int k = 0; k < steps; ++k) (void)metro.Step(k, &spans);
      traced_wall_s = SecondsSince(t);
      events = metro.Events();
      bs = metro.Counters();
      net = metro.network().counters();
      CheckMetroExercised(metro.network(), outcome);
    }
    const std::vector<std::uint64_t> expected = StepDigests(serial, steps);
    outcome.attempted = 2 * steps;
    outcome.failed = DivergentSteps(StepDigests(parallel, steps), expected) +
                     DivergentSteps(StepDigests(traced_journal, steps), expected);
    CheckMetroCanary(opt.seed, expected, opt.perturb, outcome);

    const ZoneTotals zones(profiler);
    AddZoneMetrics(metrics, zones, traced_wall_s);
    metrics.push_back({"sim.events", static_cast<double>(events), "count"});
    metrics.push_back({"sim.ns_per_event",
                       Ratio(traced_wall_s * 1e9, static_cast<double>(events)), "ns"});
    AddMacRatios(metrics, bs);
    metrics.push_back({"net.handoffs", static_cast<double>(net.handoffs), "count"});
    metrics.push_back({"net.backbone_messages",
                       static_cast<double>(net.backbone_messages), "count"});
    metrics.push_back({"net.unrouted_ratio",
                       Ratio(static_cast<double>(net.backbone_unrouted),
                             static_cast<double>(net.backbone_messages +
                                                 net.backbone_unrouted)),
                       "ratio"});
    metrics.push_back({"net.speedup", Ratio(Median(serial_ms), Median(parallel_ms)),
                       "ratio"});
    metrics.push_back({"obs.journal.overhead_ratio",
                       Ratio(Median(parallel_ms), Median(unjournaled_ms)), "ratio"});
    metrics.push_back({"trace.overhead_ratio", Ratio(traced_wall_s, untraced_wall_s),
                       "ratio"});
    AddProbeMetrics(metrics, ProbeArms(opt.workload), opt.seed);
    if (!opt.spans_out.empty() && !spans.WriteJsonl(opt.spans_out)) {
      outcome.Fail("cannot write " + opt.spans_out);
    }
  }
  return Report(outcome, metrics);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload figure_sweep|lossy_sweep|metro "
               "--seed N --seconds S --trace 0|1 [--perturb] [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--spans-out" && has_value) {
      opt.spans_out = argv[++i];
    } else if (arg == "--perturb") {
      opt.perturb = true;
    } else {
      return Usage();
    }
  }
  if (opt.workload == "figure_sweep" || opt.workload == "lossy_sweep") {
    return RunSweep(opt);
  }
  if (opt.workload == "metro") return RunMetro(opt);
  return Usage();
}

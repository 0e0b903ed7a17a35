#include "exp/scenario_io.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>

#include "mac/mac_policy.h"

namespace osumac::exp {

namespace {

std::string Trim(const std::string& s) {
  const std::size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const std::size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

bool ParseBool(const std::string& value, bool* out) {
  if (value == "true" || value == "1" || value == "on") {
    *out = true;
    return true;
  }
  if (value == "false" || value == "0" || value == "off") {
    *out = false;
    return true;
  }
  return false;
}

/// A finite number, the whole of `value` ("inf" and "nan" are refused).
bool ParseDouble(const std::string& value, double* out) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == value.c_str() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

/// True when `in` holds nothing but whitespace past its last read.
bool AtEnd(std::istringstream& in) {
  std::string extra;
  return !(in >> extra);
}

/// "fixed 120" or "uniform 40 500".
bool ParseSizes(const std::string& value, traffic::SizeDistribution* out) {
  std::istringstream in(value);
  std::string kind;
  in >> kind;
  if (kind == "fixed") {
    int bytes = 0;
    if (!(in >> bytes) || bytes <= 0 || !AtEnd(in)) return false;
    *out = traffic::SizeDistribution::Fixed(bytes);
    return true;
  }
  if (kind == "uniform") {
    int lo = 0, hi = 0;
    if (!(in >> lo >> hi) || lo <= 0 || hi < lo || !AtEnd(in)) return false;
    *out = traffic::SizeDistribution::Uniform(lo, hi);
    return true;
  }
  return false;
}

/// "perfect", "uniform <ser>" or "ge <p_gb> <p_bg> <e_good> <e_bad>", every
/// number a probability in [0, 1].  Returns "" on success, else what is
/// wrong with the value.
std::string ParseChannel(const std::string& value, mac::ChannelModelConfig* out) {
  static constexpr const char* kUsage =
      "must be perfect | uniform SER | ge P_GB P_BG E_GOOD E_BAD";
  std::istringstream in(value);
  std::string kind;
  in >> kind;
  std::vector<double*> probabilities;
  if (kind == "perfect") {
    *out = {};
  } else if (kind == "uniform") {
    out->kind = mac::ChannelModelConfig::Kind::kUniform;
    probabilities = {&out->symbol_error_prob};
  } else if (kind == "ge") {
    out->kind = mac::ChannelModelConfig::Kind::kGilbertElliott;
    probabilities = {&out->ge.p_good_to_bad, &out->ge.p_bad_to_good,
                     &out->ge.error_prob_good, &out->ge.error_prob_bad};
  } else {
    return kUsage;
  }
  for (double* p : probabilities) {
    if (!(in >> *p)) return kUsage;
    if (!(*p >= 0.0 && *p <= 1.0)) return "probabilities must lie in [0, 1]";
  }
  return AtEnd(in) ? "" : kUsage;
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool ParseInt(const std::string& value, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == value.c_str()) return false;
  if (errno == ERANGE || v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool ApplyScenarioKey(ScenarioSpec& spec, const std::string& key,
                      const std::string& value, int* replications,
                      std::string* error) {
  auto set_double = [&](double* field) {
    return ParseDouble(value, field) ||
           Fail(error, "expected a finite number for '" + key + "'");
  };
  auto set_int = [&](int* field) {
    return ParseInt(value, field) ||
           Fail(error, "expected an integer for '" + key + "'");
  };
  auto set_bool = [&](bool* field) {
    return ParseBool(value, field) ||
           Fail(error, "expected true/false for '" + key + "'");
  };

  if (key == "rho") return set_double(&spec.workload.rho);
  if (key == "data_users") return set_int(&spec.data_users);
  if (key == "gps_users") return set_int(&spec.gps_users);
  if (key == "registration_cycles") return set_int(&spec.registration_cycles);
  if (key == "warmup_cycles") return set_int(&spec.warmup_cycles);
  if (key == "measure_cycles") return set_int(&spec.measure_cycles);
  if (key == "reset_stats") return set_bool(&spec.reset_stats_after_warmup);
  if (key == "erasure_side_information") {
    return set_bool(&spec.erasure_side_information);
  }
  if (key == "seed") {
    // Digits only: strtoull would take a sign and negate ("-1" -> 2^64 - 1).
    char* end = nullptr;
    errno = 0;
    spec.seed = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0])) ||
        *end != '\0' || errno == ERANGE) {
      return Fail(error, "expected an unsigned 64-bit integer for 'seed'");
    }
    return true;
  }
  if (key == "replications") {
    int n = 0;
    if (!ParseInt(value, &n) || n <= 0) {
      return Fail(error, "replications must be a positive integer");
    }
    if (replications != nullptr) *replications = n;
    return true;
  }
  if (key == "sizes") {
    return ParseSizes(value, &spec.workload.sizes) ||
           Fail(error, "sizes must be 'fixed B' or 'uniform LO HI'");
  }
  if (key == "downlink_rho") return set_double(&spec.workload.downlink_rho);
  if (key == "downlink_interarrival_cycles") {
    return set_double(&spec.workload.downlink_interarrival_cycles);
  }
  if (key == "downlink_sizes") {
    return ParseSizes(value, &spec.workload.downlink_sizes) ||
           Fail(error, "downlink_sizes must be 'fixed B' or 'uniform LO HI'");
  }
  if (key == "forward_channel" || key == "reverse_channel") {
    const std::string problem =
        ParseChannel(value, key == "forward_channel" ? &spec.forward : &spec.reverse);
    return problem.empty() || Fail(error, key + " " + problem);
  }
  if (key == "mac") {
    if (!mac::IsKnownMacPolicy(value)) {
      return Fail(error, "unknown MAC policy '" + value +
                             "' (expected one of: osu, rqma, pca)");
    }
    spec.mac_policy = value;
    return true;
  }
  if (key == "mac.second_cf") return set_bool(&spec.mac.use_second_control_field);
  if (key == "mac.dynamic_gps") return set_bool(&spec.mac.dynamic_gps_slots);
  if (key == "mac.dynamic_contention") {
    return set_bool(&spec.mac.dynamic_contention_slots);
  }
  if (key == "mac.arq") return set_bool(&spec.mac.downlink_arq);
  if (key == "mac.max_gps_users") return set_int(&spec.mac.max_gps_users);
  if (key == "mac.min_contention_slots") {
    return set_int(&spec.mac.min_contention_slots);
  }
  if (key == "mac.max_contention_slots") {
    return set_int(&spec.mac.max_contention_slots);
  }
  if (key == "churn.arrivals") return set_int(&spec.churn.arrivals);
  if (key == "churn.gap_lo_cycles") return set_int(&spec.churn.gap_lo_cycles);
  if (key == "churn.gap_hi_cycles") return set_int(&spec.churn.gap_hi_cycles);
  if (key == "churn.max_extra_wait_cycles") {
    return set_int(&spec.churn.max_extra_wait_cycles);
  }
  if (key == "churn.sign_off") return set_bool(&spec.churn.sign_off_after_sample);
  return Fail(error, "unknown key '" + key + "'");
}

std::vector<ScenarioSpec> ParseScenarios(std::istream& in, std::string* error) {
  std::vector<ScenarioSpec> out;
  ScenarioSpec defaults;
  ScenarioSpec current;
  int replications = 1;
  bool in_section = false;
  int section_line = 0;
  // The line that last set each key (for the current section: its own
  // lines over the defaults'), so a whole-spec error can point at it.
  std::map<std::string, int> default_lines;
  std::map<std::string, int> key_lines;

  // Validates the finished section (its `mac` line may follow the keys it
  // conflicts with) and appends its expansion.  The error blames the latest
  // line among the keys involved, or the section header.
  auto flush = [&]() {
    std::vector<std::string> keys;
    const std::string detail = SpecInputError(current, &keys);
    if (!detail.empty()) {
      int line = 0;
      for (const std::string& key : keys) {
        if (const auto it = key_lines.find(key); it != key_lines.end()) {
          line = std::max(line, it->second);
        }
      }
      if (error != nullptr) {
        *error = "line " + std::to_string(line > 0 ? line : section_line) +
                 ": scenario '" + current.name + "': " + detail;
      }
      return false;
    }
    const std::vector<ScenarioSpec> expanded =
        replications > 1 ? ExpandReplications(current, replications)
                         : std::vector<ScenarioSpec>{current};
    out.insert(out.end(), expanded.begin(), expanded.end());
    return true;
  };

  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    line = Trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        if (error != nullptr) {
          *error = "line " + std::to_string(lineno) + ": malformed section header";
        }
        return {};
      }
      if (in_section && !flush()) return {};
      current = defaults;
      current.name = Trim(line.substr(1, line.size() - 2));
      replications = 1;
      in_section = true;
      section_line = lineno;
      key_lines = default_lines;
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": expected 'key = value'";
      }
      return {};
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    std::string detail;
    ScenarioSpec& target = in_section ? current : defaults;
    if (!ApplyScenarioKey(target, key, value, in_section ? &replications : nullptr,
                          &detail)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": " + detail;
      }
      return {};
    }
    (in_section ? key_lines : default_lines)[key] = lineno;
  }
  if (!in_section) {
    // A sectionless file defines exactly one scenario from the defaults.
    current = defaults;
    if (current.name.empty()) current.name = "scenario";
    key_lines = default_lines;
  }
  if (!flush()) return {};
  if (error != nullptr) error->clear();
  return out;
}

}  // namespace osumac::exp

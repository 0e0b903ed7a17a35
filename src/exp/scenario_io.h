// Text scenario files: the data-only way to define sweeps for
// `osumac_sim --scenario FILE --jobs N` (and anything else that wants
// runnable scenarios without recompiling).
//
// Format (INI-flavoured, see docs/SCENARIOS.md for the full schema):
//
//   # lines before the first section set defaults for every scenario
//   measure_cycles = 400
//
//   [fig8_rho_0.8]            # one section per scenario; header is the name
//   rho = 0.8
//   seed = 2001
//   replications = 3          # expands into 3 seeded copies
//
//   [storm]
//   rho = 1.2
//   churn.arrivals = 6
//
// Booleans accept true/false/1/0/on/off.  Unknown keys are errors, not
// warnings: a typoed knob must not silently run the default scenario.
#pragma once

#include <istream>
#include <string>
#include <vector>

#include "exp/scenario.h"

namespace osumac::exp {

/// Parses scenario text.  On success returns the expanded spec list (one
/// per section, times its replications); on failure returns an empty
/// vector and sets `error` to "line N: what went wrong".  Each finished
/// section must pass SpecInputError.
std::vector<ScenarioSpec> ParseScenarios(std::istream& in, std::string* error);

/// Applies one "key = value" assignment to `spec`.  Returns false and sets
/// `error` if the key is unknown or the value malformed.  `replications`
/// (if non-null) receives the section's replication count.  The one
/// parser of run inputs: osumac_sim's model flags come through here too.
bool ApplyScenarioKey(ScenarioSpec& spec, const std::string& key,
                      const std::string& value, int* replications,
                      std::string* error);

/// Strict base-10 int: the whole of `value`, within int range.  The
/// parse behind every integer key and osumac_sim's integer flags.
bool ParseInt(const std::string& value, int* out);

}  // namespace osumac::exp

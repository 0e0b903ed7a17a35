#include "mac/mac_policy.h"

#include "common/check.h"
// The factory is the single substrate-layer file allowed to see concrete
// policies (the documented exemption in the `policy-layer-boundary` lint
// rule): name -> tenant resolution has to live somewhere, and keeping it
// here means no other substrate file ever includes mac/policies/.
#include "mac/policies/pca_policy.h"
#include "mac/policies/rqma_policy.h"

namespace osumac::mac {

const std::vector<std::string>& KnownMacPolicies() {
  static const std::vector<std::string> kNames = {"osu", "rqma", "pca"};
  return kNames;
}

bool IsKnownMacPolicy(const std::string& name) {
  for (const std::string& known : KnownMacPolicies()) {
    if (known == name) return true;
  }
  return false;
}

std::unique_ptr<MacPolicy> MakeMacPolicy(const std::string& name) {
  if (name == "rqma") return std::make_unique<RqmaPolicy>();
  OSUMAC_CHECK(name == "pca" && "not a grid MAC policy (osu runs on mac::Cell)");
  return std::make_unique<PcaPolicy>();
}

}  // namespace osumac::mac

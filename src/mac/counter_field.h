// One row of a counter ledger's field table.
//
// A ledger (BsCounters, PolicyCounters) is a struct of std::int64_t
// counters.  Next to it sits one constexpr table of {stable name, member
// pointer}, in declaration order, plus a static_assert that the table has
// one row per member.  The journal hash, the registry gauges and the sweep
// record all walk that table, so a new counter is one row and the compiler
// refuses a struct field that has none.
#pragma once

#include <cstdint>

namespace osumac::mac {

template <typename Ledger>
struct CounterField {
  const char* name;  ///< stable API: gauge "bs.<name>", sweep-record key
  std::int64_t Ledger::* member;
};

}  // namespace osumac::mac

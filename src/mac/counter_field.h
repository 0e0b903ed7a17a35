// One row of a counter ledger's field table.
//
// A ledger (BsCounters, PolicyCounters) is a struct of std::int64_t
// counters.  Next to it sits one constexpr table of {stable name, member
// pointer}, in declaration order, plus a static_assert that the table has
// one row per member.  The journal hash, the registry gauges and the sweep
// record all walk that table, so a new counter is one row and the compiler
// refuses a struct field that has none.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/rng.h"

namespace osumac::mac {

template <typename Ledger>
struct CounterField {
  const char* name;  ///< stable API: gauge "bs.<name>", sweep-record key
  std::int64_t Ledger::* member;
};

/// The journal's ledger fold: sum over the table's rows of value *
/// DigestKey(row), mod 2^64.  The products are independent, so the fold
/// pipelines instead of running one dependent mix chain, and +1 in any
/// single row changes it with certainty (the keys are odd).  A cell that
/// folds several ledgers of one type into one sum weighs each ledger's
/// fold by its own odd DigestKey, which keeps every row's key odd.
template <typename Ledger, std::size_t N>
std::uint64_t KeyedLedgerSum(const CounterField<Ledger> (&fields)[N],
                             const std::type_identity_t<Ledger>& ledger) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < N; ++i) {
    sum += static_cast<std::uint64_t>(ledger.*fields[i].member) * kDigestKeys<N>[i];
  }
  return sum;
}

}  // namespace osumac::mac

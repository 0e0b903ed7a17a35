#include "obs/run_journal.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace osumac::obs {

void Digest64::MixDouble(double v) { Mix(std::bit_cast<std::uint64_t>(v)); }

CellJournal::CellJournal(int cell) : CellJournal(cell, Config{}) {}

CellJournal::CellJournal(int cell, Config config)
    : cell_(cell), config_(config) {
  OSUMAC_CHECK_GE(config_.every, 1);
}

std::uint64_t CellJournal::Append(JournalRecord record) {
  Digest64 d;
  d.Mix(chain_);
  d.Mix(static_cast<std::uint64_t>(cell_));
  d.MixSigned(record.cycle);
  d.Mix(record.slot_grid);
  d.Mix(record.queues);
  d.Mix(record.counters);
  d.Mix(record.slo);
  d.Mix(record.events);
  chain_ = d.value();
  record.chain = chain_;
  if (!diverged_ && ref_pos_ < reference_.size()) {
    const JournalRecord& ref = reference_[ref_pos_++];
    int component = -2;  // -2: match
    if (ref.cycle != record.cycle) {
      component = -1;
    } else if (ref.slot_grid != record.slot_grid) {
      component = 0;
    } else if (ref.queues != record.queues) {
      component = 1;
    } else if (ref.counters != record.counters) {
      component = 2;
    } else if (ref.slo != record.slo) {
      component = 3;
    } else if (ref.events != record.events) {
      component = 4;
    } else if (ref.chain != record.chain) {
      component = -1;
    }
    if (component != -2) {
      diverged_ = true;
      if (on_divergence_) on_divergence_(record, ref, component);
    }
  }
  if (records_.size() < config_.max_records) records_.push_back(record);
  ++recorded_;
  return chain_;
}

void CellJournal::ExpectReference(
    std::vector<JournalRecord> reference,
    std::function<void(const JournalRecord&, const JournalRecord&, int)>
        on_divergence) {
  reference_ = std::move(reference);
  on_divergence_ = std::move(on_divergence);
  ref_pos_ = 0;
  diverged_ = false;
}

void CellJournal::Reset() {
  records_.clear();
  chain_ = 0;
  recorded_ = 0;
  ref_pos_ = 0;
  diverged_ = false;
}

RunJournal::RunJournal() : RunJournal(CellJournal::Config{}) {}

RunJournal::RunJournal(CellJournal::Config config) : config_(config) {}

CellJournal& RunJournal::AddCell(int cell) {
  if (CellJournal* existing = FindCell(cell)) return *existing;
  cells_.push_back(std::make_unique<CellJournal>(cell, config_));
  return *cells_.back();
}

CellJournal* RunJournal::FindCell(int cell) {
  for (const auto& j : cells_) {
    if (j->cell() == cell) return j.get();
  }
  return nullptr;
}

std::uint64_t RunJournal::Signature() const {
  // Wrapping sum of per-cell chains, each re-keyed by its cell id through
  // one more mix step: addition commutes, so merge order (and therefore
  // thread scheduling in a parallel Network) cannot change the signature.
  std::uint64_t sig = 0;
  for (const auto& j : cells_) {
    Digest64 d;
    d.Mix(static_cast<std::uint64_t>(j->cell()));
    d.Mix(j->chain());
    d.MixSigned(j->recorded());
    sig += d.value();
  }
  return sig;
}

void RunJournal::Reset() {
  for (const auto& j : cells_) j->Reset();
}

std::string JournalHex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf);
}

namespace {

std::string JsonEscapeMin(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Finds `"key": "<16 hex digits>"` in a JSONL line.  Returns false if the
/// key is absent or malformed.
bool FindHexField(const std::string& line, const char* key,
                  std::uint64_t* out) {
  const std::string needle = std::string("\"") + key + "\": \"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const auto start = pos + needle.size();
  if (start + 16 > line.size()) return false;
  std::uint64_t v = 0;
  for (std::size_t i = start; i < start + 16; ++i) {
    const char c = line[i];
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

/// Finds `"key": "<text without quotes>"` in a JSONL line.
bool FindStringField(const std::string& line, const char* key,
                     std::string* out) {
  const std::string needle = std::string("\"") + key + "\": \"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return false;
  *out = line.substr(start, end - start);
  return true;
}

bool FindIntField(const std::string& line, const char* key,
                  std::int64_t* out) {
  const std::string needle = std::string("\"") + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t i = pos + needle.size();
  bool neg = false;
  if (i < line.size() && line[i] == '-') {
    neg = true;
    ++i;
  }
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return false;
  std::int64_t v = 0;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    v = v * 10 + (line[i] - '0');
  }
  *out = neg ? -v : v;
  return true;
}

}  // namespace

bool WriteJournalJsonl(const RunJournal& journal, const std::string& path,
                       const std::string& provenance) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"schema\": \"" << kJournalSchema << "\", \"every\": " << journal.every()
      << ", \"cells\": " << journal.cells().size() << ", \"signature\": \""
      << JournalHex(journal.Signature()) << "\"";
  if (!provenance.empty()) {
    out << ", \"provenance\": \"" << JsonEscapeMin(provenance) << "\"";
  }
  out << "}\n";
  // Cells in id order so the file is byte-stable regardless of the order
  // AddCell was called in.
  std::vector<const CellJournal*> ordered;
  ordered.reserve(journal.cells().size());
  for (const auto& j : journal.cells()) ordered.push_back(j.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const CellJournal* a, const CellJournal* b) {
              return a->cell() < b->cell();
            });
  for (const CellJournal* j : ordered) {
    for (const JournalRecord& r : j->records()) {
      out << "{\"cell\": " << j->cell() << ", \"cycle\": " << r.cycle
          << ", \"slot_grid\": \"" << JournalHex(r.slot_grid)
          << "\", \"queues\": \"" << JournalHex(r.queues)
          << "\", \"counters\": \"" << JournalHex(r.counters)
          << "\", \"slo\": \"" << JournalHex(r.slo) << "\", \"events\": \""
          << JournalHex(r.events) << "\", \"chain\": \""
          << JournalHex(r.chain) << "\"}\n";
    }
    if (j->dropped() > 0) {
      out << "{\"cell\": " << j->cell() << ", \"dropped\": " << j->dropped()
          << "}\n";
    }
  }
  return static_cast<bool>(out);
}

bool LoadJournalJsonl(const std::string& path, LoadedJournal* out) {
  std::ifstream in(path);
  if (!in) return false;
  out->schema.clear();
  out->every = 1;
  out->signature = 0;
  out->cell_ids.clear();
  out->cell_records.clear();
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::int64_t cell = -1;
    if (!FindIntField(line, "cell", &cell)) {
      // The header line: a journal of another schema is refused outright.
      if (!FindStringField(line, "schema", &out->schema) ||
          out->schema != kJournalSchema) {
        return false;
      }
      std::int64_t every = 0;
      if (FindIntField(line, "every", &every) && every >= 1) {
        out->every = static_cast<int>(every);
      }
      FindHexField(line, "signature", &out->signature);
      saw_header = true;
      continue;
    }
    JournalRecord r;
    if (!FindIntField(line, "cycle", &r.cycle)) continue;  // drop marker
    if (!FindHexField(line, "slot_grid", &r.slot_grid) ||
        !FindHexField(line, "queues", &r.queues) ||
        !FindHexField(line, "counters", &r.counters) ||
        !FindHexField(line, "slo", &r.slo) ||
        !FindHexField(line, "events", &r.events) ||
        !FindHexField(line, "chain", &r.chain)) {
      return false;
    }
    std::size_t idx = 0;
    for (; idx < out->cell_ids.size(); ++idx) {
      if (out->cell_ids[idx] == static_cast<int>(cell)) break;
    }
    if (idx == out->cell_ids.size()) {
      out->cell_ids.push_back(static_cast<int>(cell));
      out->cell_records.emplace_back();
    }
    out->cell_records[idx].push_back(r);
  }
  return saw_header;
}

}  // namespace osumac::obs

#include "obs/profiler.h"

#include <vector>

#include "common/check.h"

namespace osumac::obs {

namespace {

/// The calling thread's active profiler.  A plain thread-local pointer:
/// installation is scoped (ThreadScope) and reading it is the entire
/// disabled-zone cost.
thread_local Profiler* g_current_profiler = nullptr;

}  // namespace

std::int64_t ZoneNode::self_ns() const {
  std::int64_t child_ns = 0;
  for (const auto& [_, child] : children) child_ns += child->total_ns;
  const std::int64_t self = total_ns - child_ns;
  return self > 0 ? self : 0;
}

Profiler::Profiler() : root_(std::make_unique<ZoneNode>()) {
  root_->name = "(root)";
  current_ = root_.get();
}

Profiler::~Profiler() {
  if (g_current_profiler == this) g_current_profiler = nullptr;
}

Profiler* Profiler::Current() { return g_current_profiler; }

Profiler::ThreadScope::ThreadScope(Profiler* profiler)
    : previous_(g_current_profiler) {
  g_current_profiler = profiler;
}

Profiler::ThreadScope::~ThreadScope() { g_current_profiler = previous_; }

void Profiler::EnterZone(const char* name) {
  if (current_->last_key == name) {
    current_ = current_->last_child;
    return;
  }
  // Fallback by text: two literals with equal text share one node.
  auto it = current_->children.find(name);
  if (it == current_->children.end()) {
    auto node = std::make_unique<ZoneNode>();
    node->name = name;
    node->parent = current_;
    it = current_->children.emplace(node->name, std::move(node)).first;
  }
  current_->last_key = name;
  current_->last_child = it->second.get();
  current_ = it->second.get();
}

void Profiler::ExitZone(std::int64_t elapsed_ns) {
  OSUMAC_CHECK(current_->parent != nullptr);  // Exit without matching Enter
  ++current_->count;
  current_->total_ns += elapsed_ns > 0 ? elapsed_ns : 0;
  current_ = current_->parent;
}

std::int64_t Profiler::total_ns() const {
  std::int64_t total = 0;
  for (const auto& [_, child] : root_->children) total += child->total_ns;
  return total;
}

int Profiler::open_depth() const {
  int depth = 0;
  for (const ZoneNode* n = current_; n->parent != nullptr; n = n->parent) ++depth;
  return depth;
}

namespace {

void MergeInto(ZoneNode& dst, const ZoneNode& src) {
  dst.count += src.count;
  dst.total_ns += src.total_ns;
  for (const auto& [name, src_child] : src.children) {
    auto it = dst.children.find(name);
    if (it == dst.children.end()) {
      auto node = std::make_unique<ZoneNode>();
      node->name = name;
      node->parent = &dst;
      it = dst.children.emplace(name, std::move(node)).first;
    }
    MergeInto(*it->second, *src_child);
  }
}

}  // namespace

void Profiler::Merge(const Profiler& other) {
  OSUMAC_CHECK_EQ(open_depth(), 0);
  OSUMAC_CHECK_EQ(other.open_depth(), 0);
  // Root nodes carry no time of their own; merge the children.
  for (const auto& [name, src_child] : other.root_->children) {
    auto it = root_->children.find(name);
    if (it == root_->children.end()) {
      auto node = std::make_unique<ZoneNode>();
      node->name = name;
      node->parent = root_.get();
      it = root_->children.emplace(name, std::move(node)).first;
    }
    MergeInto(*it->second, *src_child);
  }
}

void Profiler::Clear() {
  OSUMAC_CHECK_EQ(open_depth(), 0);
  root_->children.clear();
  // The cached child was one of the nodes just freed.
  root_->last_key = nullptr;
  root_->last_child = nullptr;
}

// --- export ----------------------------------------------------------------

namespace {

std::string JsonEscape(const std::string& s) {
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

/// Interns every distinct zone name in tree order; returns the index map.
void CollectFrames(const ZoneNode& node, std::map<std::string, int>& index,
                   std::vector<std::string>& names) {
  for (const auto& [name, child] : node.children) {
    if (index.emplace(name, static_cast<int>(names.size())).second) {
      names.push_back(name);
    }
    CollectFrames(*child, index, names);
  }
}

/// DFS over the tree laying nodes on a synthetic timeline: each node opens
/// at `cursor`, its children pack sequentially from there, and it closes
/// at cursor + total_ns (>= the children's end, since child time is
/// included in the parent's).
struct FlameEvent {
  enum class Kind { kOpen, kClose };
  Kind kind;
  int frame;
  std::int64_t at_ns;
};

void LayoutFlame(const ZoneNode& node, std::int64_t cursor,
                 const std::map<std::string, int>& index,
                 std::vector<FlameEvent>& events) {
  for (const auto& [name, child] : node.children) {
    const int frame = index.at(name);
    events.push_back({FlameEvent::Kind::kOpen, frame, cursor});
    LayoutFlame(*child, cursor, index, events);
    events.push_back({FlameEvent::Kind::kClose, frame, cursor + child->total_ns});
    cursor += child->total_ns;
  }
}

void CollapsedLines(const ZoneNode& node, const std::string& prefix,
                    std::ostream& out) {
  for (const auto& [name, child] : node.children) {
    const std::string path = prefix.empty() ? name : prefix + ";" + name;
    if (child->self_ns() > 0) out << path << ' ' << child->self_ns() << '\n';
    CollapsedLines(*child, path, out);
  }
}

}  // namespace

void WriteSpeedscope(std::ostream& out, const Profiler& profiler,
                     const std::string& name) {
  OSUMAC_CHECK_EQ(profiler.open_depth(), 0);
  std::map<std::string, int> index;
  std::vector<std::string> names;
  CollectFrames(profiler.root(), index, names);
  std::vector<FlameEvent> events;
  LayoutFlame(profiler.root(), 0, index, events);

  out << "{\"$schema\": \"https://www.speedscope.app/file-format-schema.json\",\n"
      << " \"shared\": {\"frames\": [";
  for (std::size_t i = 0; i < names.size(); ++i) {
    out << (i > 0 ? ", " : "") << "{\"name\": \"" << JsonEscape(names[i])
        << "\"}";
  }
  out << "]},\n \"profiles\": [{\"type\": \"evented\", \"name\": \""
      << JsonEscape(name) << "\", \"unit\": \"nanoseconds\",\n"
      << "   \"startValue\": 0, \"endValue\": " << profiler.total_ns()
      << ",\n   \"events\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlameEvent& e = events[i];
    out << "     {\"type\": \""
        << (e.kind == FlameEvent::Kind::kOpen ? 'O' : 'C')
        << "\", \"frame\": " << e.frame << ", \"at\": " << e.at_ns << '}'
        << (i + 1 < events.size() ? "," : "") << '\n';
  }
  out << "   ]}],\n \"name\": \"" << JsonEscape(name) << "\",\n"
      << " \"exporter\": \"osumac obs::Profiler\"\n}\n";
}

void WriteCollapsed(std::ostream& out, const Profiler& profiler) {
  OSUMAC_CHECK_EQ(profiler.open_depth(), 0);
  CollapsedLines(profiler.root(), "", out);
}

}  // namespace osumac::obs

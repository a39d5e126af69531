#include "core/trace.hpp"

#include <set>
#include <sstream>

#include "core/json.hpp"

namespace gdrshmem::core {

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void Tracer::set_capacity(std::size_t cap) {
  if (cap == 0) cap = 1;
  std::vector<TraceEvent> evs = events();
  if (evs.size() > cap) {
    dropped_ += evs.size() - cap;
    evs.erase(evs.begin(), evs.end() - static_cast<std::ptrdiff_t>(cap));
  }
  capacity_ = cap;
  ring_ = std::move(evs);
  head_ = 0;
}

std::string Tracer::to_csv() const {
  std::ostringstream os;
  os << "pe,kind,target,bytes,protocol,start_us,end_us\n";
  for (const TraceEvent& e : events()) {
    os << e.pe << ',' << to_string(e.kind) << ',' << e.target << ',' << e.bytes
       << ',' << (e.protocol == Protocol::kCount_ ? "?" : to_string(e.protocol))
       << ',' << e.start.to_us() << ',' << e.end.to_us() << '\n';
  }
  return os.str();
}

std::string Tracer::to_chrome_json() const {
  json::Writer w;
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  std::set<int> tracks;
  for (const TraceEvent& e : events()) {
    tracks.insert(e.pe);
    w.begin_object();
    bool slice = e.is_op() || e.is_coll();
    w.field("name", to_string(e.kind));
    w.field("cat", e.is_op() ? "op" : e.is_coll() ? "coll" : "fault");
    w.field("ph", slice ? "X" : "i");
    w.field_fixed("ts", e.start.to_us(), 3);  // Chrome ts unit: microseconds
    if (slice) {
      w.field_fixed("dur", (e.end - e.start).to_us(), 3);
    } else {
      w.field("s", "t");  // instant scoped to its thread (PE) track
    }
    w.field("pid", 0);
    w.field("tid", e.pe);
    w.key("args").begin_object();
    if (e.protocol != Protocol::kCount_) {
      w.field("protocol", to_string(e.protocol));
    }
    w.field("bytes", static_cast<std::uint64_t>(e.bytes));
    w.field("target", e.target);
    w.end_object();
    w.end_object();
  }
  // Name the per-PE tracks (service endpoints / nodes show their raw id).
  for (int pe : tracks) {
    w.begin_object();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", 0);
    w.field("tid", pe);
    w.key("args").begin_object();
    w.field("name", "PE " + std::to_string(pe));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("otherData").begin_object();
  w.field("recorded_events", static_cast<std::uint64_t>(size()));
  w.field("dropped_events", dropped_);
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace gdrshmem::core

#include "core/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "core/json.hpp"
#include "core/proxy.hpp"

namespace gdrshmem::core {

std::string format_report(Runtime& rt) {
  std::ostringstream os;
  const OpStats& st = rt.stats();
  os << "=== gdrshmem runtime report (" << to_string(rt.options().transport)
     << ", " << rt.num_pes() << " PEs on " << rt.cluster().num_nodes()
     << " nodes) ===\n";
  os << "ops: " << st.puts << " puts, " << st.gets << " gets, " << st.atomics
     << " atomics, " << st.barriers << " barrier entries\n";
  os << "virtual time: " << std::fixed << std::setprecision(2)
     << rt.engine().now().to_ms() << " ms ("
     << rt.engine().events_executed() << " events)\n";
  os << "functional copies: " << rt.functional_copy_bytes()
     << " payload bytes memcpy'd\n";
  os << std::left << std::setw(22) << "protocol" << std::right << std::setw(12)
     << "ops" << std::setw(16) << "bytes" << '\n';
  for (std::size_t i = 0; i < static_cast<std::size_t>(Protocol::kCount_); ++i) {
    if (st.ops_by_protocol[i] == 0) continue;
    os << std::left << std::setw(22) << to_string(static_cast<Protocol>(i))
       << std::right << std::setw(12) << st.ops_by_protocol[i] << std::setw(16)
       << st.bytes_by_protocol[i] << '\n';
  }
  os << "registration cache: " << rt.verbs().reg_cache().hits() << " hits, "
     << rt.verbs().reg_cache().misses() << " misses, "
     << rt.verbs().reg_cache().evictions() << " evictions (cap "
     << rt.verbs().reg_cache().capacity() << ")\n";
  os << "ib transport: " << rt.ib().name() << ", " << rt.ib().rails()
     << " rail(s)\n";
  if (rt.proxies_enabled()) {
    std::uint64_t gets = 0, puts = 0;
    for (int n = 0; n < rt.cluster().num_nodes(); ++n) {
      gets += rt.proxy(n).gets_served();
      puts += rt.proxy(n).puts_served();
    }
    os << "proxy daemons: " << gets << " gets, " << puts
       << " puts progressed\n";
  }
  if (rt.faults_enabled()) {
    const sim::FaultInjector& inj = rt.faults();
    os << "fault injection (plan: " << inj.plan().spec() << ")\n";
    os << std::left << std::setw(22) << "  event" << std::right << std::setw(12)
       << "count" << '\n';
    for (std::size_t i = 0; i < static_cast<std::size_t>(sim::FaultEvent::kCount_);
         ++i) {
      auto ev = static_cast<sim::FaultEvent>(i);
      os << std::left << std::setw(22)
         << ("  " + std::string(sim::to_string(ev))) << std::right
         << std::setw(12) << inj.count(ev) << '\n';
    }
  }
  std::size_t host_used = 0, gpu_used = 0, pmem_used = 0;
  for (int pe = 0; pe < rt.num_pes(); ++pe) {
    host_used += rt.heap(pe, Domain::kHost).used();
    gpu_used += rt.heap(pe, Domain::kGpu).used();
    pmem_used += rt.heap(pe, Domain::kPmem).used();
  }
  os << "symmetric heaps: " << host_used / 1024 << " KiB host, "
     << gpu_used / 1024 << " KiB GPU";
  if (rt.options().pmem_heap_bytes > 0) {
    os << ", " << pmem_used / 1024 << " KiB pmem";
  }
  os << " in use across PEs\n";
  if (rt.tracer().enabled()) {
    os << "trace: " << rt.tracer().size() << " events retained, "
       << rt.tracer().dropped() << " dropped (cap " << rt.tracer().capacity()
       << ")\n";
  }
  return os.str();
}

std::string format_report_json(Runtime& rt) {
  rt.snapshot_metrics();
  const OpStats& st = rt.stats();
  json::Writer w;
  w.begin_object();
  w.field("schema", 1);
  w.field("transport", to_string(rt.options().transport));
  w.field("pes", rt.num_pes());
  w.field("nodes", rt.cluster().num_nodes());
  w.field_fixed("virtual_time_us", rt.engine().now().to_us(), 3);
  w.field("events_executed", rt.engine().events_executed());
  w.field("functional_copy_bytes", rt.functional_copy_bytes());
  w.key("ops").begin_object();
  w.field("puts", st.puts);
  w.field("gets", st.gets);
  w.field("atomics", st.atomics);
  w.field("barriers", st.barriers);
  w.end_object();
  w.key("protocols").begin_array();
  for (std::size_t i = 0; i < static_cast<std::size_t>(Protocol::kCount_); ++i) {
    if (st.ops_by_protocol[i] == 0) continue;
    w.begin_object();
    w.field("name", to_string(static_cast<Protocol>(i)));
    w.field("ops", st.ops_by_protocol[i]);
    w.field("bytes", st.bytes_by_protocol[i]);
    w.end_object();
  }
  w.end_array();
  w.key("reg_cache").begin_object();
  w.field("hits", rt.verbs().reg_cache().hits());
  w.field("misses", rt.verbs().reg_cache().misses());
  w.field("evictions", rt.verbs().reg_cache().evictions());
  w.end_object();
  w.key("ib").begin_object();
  w.field("transport", rt.ib().name());
  w.field("rails", rt.ib().rails());
  w.end_object();
  if (rt.proxies_enabled()) {
    std::uint64_t gets = 0, puts = 0, restarts = 0;
    for (int n = 0; n < rt.cluster().num_nodes(); ++n) {
      gets += rt.proxy(n).gets_served();
      puts += rt.proxy(n).puts_served();
      restarts += static_cast<std::uint64_t>(rt.proxy(n).restarts());
    }
    w.key("proxy").begin_object();
    w.field("gets_served", gets);
    w.field("puts_served", puts);
    w.field("restarts", restarts);
    w.end_object();
  }
  if (rt.faults_enabled()) {
    const sim::FaultInjector& inj = rt.faults();
    w.key("faults").begin_object();
    w.field("plan", inj.plan().spec());
    w.key("counts").begin_object();
    for (std::size_t i = 0; i < static_cast<std::size_t>(sim::FaultEvent::kCount_);
         ++i) {
      auto ev = static_cast<sim::FaultEvent>(i);
      w.field(sim::to_string(ev), inj.count(ev));
    }
    w.end_object();
    w.end_object();
  }
  std::size_t host_used = 0, gpu_used = 0, pmem_used = 0;
  for (int pe = 0; pe < rt.num_pes(); ++pe) {
    host_used += rt.heap(pe, Domain::kHost).used();
    gpu_used += rt.heap(pe, Domain::kGpu).used();
    pmem_used += rt.heap(pe, Domain::kPmem).used();
  }
  w.key("heap").begin_object();
  w.field("host_used_bytes", static_cast<std::uint64_t>(host_used));
  w.field("gpu_used_bytes", static_cast<std::uint64_t>(gpu_used));
  w.field("pmem_used_bytes", static_cast<std::uint64_t>(pmem_used));
  w.end_object();
  w.key("trace").begin_object();
  w.field("enabled", rt.tracer().enabled());
  w.field("recorded", static_cast<std::uint64_t>(rt.tracer().size()));
  w.field("dropped", rt.tracer().dropped());
  w.field("capacity", static_cast<std::uint64_t>(rt.tracer().capacity()));
  w.end_object();
  const Metrics& m = rt.metrics();
  w.key("metrics").begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : m.counters()) w.field(name, c.value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : m.gauges()) {
    w.key(name).begin_object();
    w.field("value", g.value());
    w.field("max", g.max());
    w.end_object();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : m.histograms()) {
    w.key(name).begin_object();
    w.field("count", h.count());
    w.field("sum", h.sum());
    w.field("min", h.min());
    w.field("max", h.max());
    w.field("p50", h.percentile(0.50));
    w.field("p99", h.percentile(0.99));
    w.field("p999", h.percentile(0.999));
    // Sparse bins as [floor, count] pairs — 65 mostly-empty slots would
    // dwarf the payload.
    w.key("bins").begin_array();
    for (int i = 0; i < Histogram::kBins; ++i) {
      std::uint64_t n = h.bins()[static_cast<std::size_t>(i)];
      if (n == 0) continue;
      w.begin_array();
      w.value(Histogram::bin_floor(i));
      w.value(n);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

void print_report(Runtime& rt, std::ostream& os) { os << format_report(rt); }

}  // namespace gdrshmem::core

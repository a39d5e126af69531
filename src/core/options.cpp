// The GDRSHMEM_* environment surface: one table row per accepted key, parsed
// and validated here and nowhere else. RuntimeOptions::from_env walks the
// environment through the table; the default constructor applies only the
// rows marked as process defaults. Unknown GDRSHMEM_* names and empty values
// are errors — a silently ignored typo in a tuning knob is worse than a
// refusal to start.
#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/collectives.hpp"
#include "core/runtime.hpp"

extern char** environ;

namespace gdrshmem::core {
namespace {

[[noreturn]] void bad(std::string_view key, const std::string& why) {
  throw ShmemError(std::string(key) + ": " + why);
}

std::string quoted(std::string_view s) { return "\"" + std::string(s) + "\""; }

/// Decimal integer in [lo, hi].
long long integer(std::string_view key, const std::string& value,
                  long long lo, long long hi = LLONG_MAX) {
  long long v = 0;
  std::size_t used = 0;
  try {
    v = std::stoll(value, &used);
  } catch (const std::out_of_range&) {
    bad(key, "out of range: " + quoted(value));
  } catch (const std::invalid_argument&) {
    bad(key, "not an integer: " + quoted(value));
  }
  if (used != value.size()) bad(key, "trailing characters in " + quoted(value));
  if (v < lo || v > hi) {
    bad(key, "must be " +
                 (hi == LLONG_MAX ? ">= " + std::to_string(lo)
                                  : "in [" + std::to_string(lo) + ", " +
                                        std::to_string(hi) + "]") +
                 ", got " + quoted(value));
  }
  return v;
}

/// Byte size with an optional K/M/G suffix (powers of 1024): "4M", "512K".
std::size_t size(std::string_view key, const std::string& value,
                 std::size_t floor = 0) {
  std::string digits = value;
  unsigned shift = 0;
  switch (std::toupper(static_cast<unsigned char>(digits.back()))) {
    case 'K': shift = 10; break;
    case 'M': shift = 20; break;
    case 'G': shift = 30; break;
  }
  if (shift != 0) digits.pop_back();
  auto v = static_cast<std::size_t>(integer(key, digits, 0));
  if (v > (std::numeric_limits<std::size_t>::max() >> shift)) {
    bad(key, "size out of range: " + quoted(value) + " overflows");
  }
  v <<= shift;
  if (v < floor) {
    bad(key, "must be >= " + std::to_string(floor) + " bytes, got " +
                 quoted(value));
  }
  return v;
}

/// Real number >= lo (> lo when `open`).
double real(std::string_view key, const std::string& value, int lo,
            bool open = false) {
  double v = 0;
  std::size_t used = 0;
  try {
    v = std::stod(value, &used);
  } catch (const std::out_of_range&) {
    bad(key, "number out of range: " + quoted(value));
  } catch (const std::invalid_argument&) {
    bad(key, "not a number: " + quoted(value));
  }
  if (used != value.size()) bad(key, "trailing characters in " + quoted(value));
  if (!(open ? v > lo : v >= lo)) {
    bad(key, std::string("must be ") + (open ? "> " : ">= ") +
                 std::to_string(lo) + ", got " + quoted(value));
  }
  return v;
}

bool flag(std::string_view key, const std::string& value) {
  if (value == "1" || value == "true" || value == "on") return true;
  if (value == "0" || value == "false" || value == "off") return false;
  bad(key, "expected 0/1 (or true/false, on/off), got " + quoted(value));
}

/// The enumerator whose to_string is `value`. Every to_string in the runtime
/// returns "?" past its last enumerator, which ends the walk.
template <class E>
E enumerator(std::string_view key, std::string_view value) {
  std::string known;
  for (int i = 0;; ++i) {
    const std::string_view name = to_string(static_cast<E>(i));
    if (name == "?") break;
    if (name == value) return static_cast<E>(i);
    known += (i == 0 ? "" : " | ") + std::string(name);
  }
  bad(key, "expected " + known + ", got " + quoted(value));
}

/// sim/ reads its two keys itself, because the engine also runs without a
/// Runtime; their rows call those readers and re-raise as ShmemError.
template <class Read>
auto sim_reader(Read read) {
  try {
    return read();
  } catch (const std::invalid_argument& e) {
    throw ShmemError(e.what());
  }
}

/// Either a single algorithm name (applied to every collective kind that
/// implements it; the rest stay on auto selection) or a comma list of
/// kind=algo pairs: "bcast=ring,allreduce=recdbl".
void coll_algo(Tuning& t, std::string_view key, std::string_view value) {
  if (value.find('=') == std::string_view::npos) {
    const auto algo = enumerator<CollAlgo>(key, value);
    for (std::size_t k = 0; k < t.coll_force.size(); ++k) {
      if (coll::algo_supported(static_cast<CollKind>(k), algo)) {
        t.coll_force[k] = algo;
      }
    }
    return;
  }
  while (!value.empty()) {
    const auto comma = value.find(',');
    const auto pair = value.substr(0, comma);
    value = comma == std::string_view::npos ? "" : value.substr(comma + 1);
    const auto eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == pair.size()) {
      bad(key, "expected kind=algo pairs, got " + quoted(pair));
    }
    const auto kind = enumerator<CollKind>(key, pair.substr(0, eq));
    const auto algo = enumerator<CollAlgo>(key, pair.substr(eq + 1));
    if (!coll::algo_supported(kind, algo)) {
      bad(key, std::string(to_string(algo)) + " is not a " + to_string(kind) +
                   " algorithm");
    }
    t.coll_force[static_cast<std::size_t>(kind)] = algo;
  }
}

constexpr std::size_t kMinHeap = 64u << 10;

struct Row {
  const char* key;
  void (*apply)(RuntimeOptions&, std::string_view key,
                const std::string& value);
  /// Also applied by RuntimeOptions' default constructor, so options built
  /// in code honor the key: CI A/Bs whole suites by flipping these.
  bool process_default = false;
};

constexpr Row kRows[] = {
    {"GDRSHMEM_SIM_BACKEND",
     [](auto& o, auto, auto&) {
       o.sim_backend = sim_reader(sim::backend_from_env);
     },
     true},
    {"GDRSHMEM_SIM_STACK_KB",  // consumed by the fiber backend; checked eagerly
     [](auto&, auto, auto&) { sim_reader(sim::fiber_stack_bytes_from_env); }},
    {"GDRSHMEM_TRANSPORT",
     [](auto& o, auto k, auto& v) {
       o.transport = enumerator<TransportKind>(k, v);
     }},
    {"GDRSHMEM_HOST_HEAP",
     [](auto& o, auto k, auto& v) {
       o.host_heap_bytes = size(k, v, kMinHeap);
     }},
    {"GDRSHMEM_GPU_HEAP",
     [](auto& o, auto k, auto& v) { o.gpu_heap_bytes = size(k, v, kMinHeap); }},
    {"GDRSHMEM_PMEM_HEAP",
     [](auto& o, auto k, auto& v) {
       // 0 (the default) disables the pmem domain entirely; a present heap
       // obeys the same 64K floor as the host and GPU heaps.
       o.pmem_heap_bytes = size(k, v);
       if (o.pmem_heap_bytes != 0 && o.pmem_heap_bytes < kMinHeap) {
         bad(k, "must be 0 (no pmem domain) or >= " +
                    std::to_string(kMinHeap) + " bytes, got " + quoted(v));
       }
     }},
    {"GDRSHMEM_SERVICE_THREAD",
     [](auto& o, auto k, auto& v) { o.service_thread = flag(k, v); }},
    {"GDRSHMEM_SERVICE_THREAD_PENALTY",
     [](auto& o, auto k, auto& v) {
       o.service_thread_compute_penalty = real(k, v, 1);
     }},
    {"GDRSHMEM_USE_PROXY",
     [](auto& o, auto k, auto& v) { o.tuning.use_proxy = flag(k, v); }},
    {"GDRSHMEM_EAGER_LIMIT",
     [](auto& o, auto k, auto& v) { o.tuning.eager_limit = size(k, v); }},
    {"GDRSHMEM_PIPELINE_CHUNK",
     [](auto& o, auto k, auto& v) { o.tuning.pipeline_chunk = size(k, v, 1); }},
    {"GDRSHMEM_INLINE_PUT_LIMIT",
     [](auto& o, auto k, auto& v) { o.tuning.inline_put_limit = size(k, v); }},
    {"GDRSHMEM_LOOPBACK_GDR_WRITE_LIMIT",
     [](auto& o, auto k, auto& v) {
       o.tuning.loopback_gdr_write_limit = size(k, v);
     }},
    {"GDRSHMEM_LOOPBACK_GDR_READ_LIMIT",
     [](auto& o, auto k, auto& v) {
       o.tuning.loopback_gdr_read_limit = size(k, v);
     }},
    {"GDRSHMEM_DIRECT_GDR_WRITE_LIMIT",
     [](auto& o, auto k, auto& v) {
       o.tuning.direct_gdr_write_limit = size(k, v);
     }},
    {"GDRSHMEM_DIRECT_GDR_READ_LIMIT",
     [](auto& o, auto k, auto& v) {
       o.tuning.direct_gdr_read_limit = size(k, v);
     }},
    {"GDRSHMEM_INTER_SOCKET_GDR_DIVISOR",
     [](auto& o, auto k, auto& v) {
       o.tuning.inter_socket_gdr_divisor =
           static_cast<std::size_t>(integer(k, v, 1));
     }},
    {"GDRSHMEM_COLL_ALGO",
     [](auto& o, auto k, auto& v) { coll_algo(o.tuning, k, v); }},
    {"GDRSHMEM_COLL_CHUNK",
     [](auto& o, auto k, auto& v) {
       o.tuning.coll_chunk = size(k, v, 4u << 10);
     }},
    {"GDRSHMEM_MAX_SW_REPLAYS",
     [](auto& o, auto k, auto& v) {
       o.tuning.max_sw_replays = static_cast<int>(integer(k, v, 1, INT_MAX));
     }},
    {"GDRSHMEM_REPLAY_BACKOFF_US",
     [](auto& o, auto k, auto& v) {
       o.tuning.replay_backoff_base_us = real(k, v, 0, true);
     }},
    {"GDRSHMEM_PROXY_TIMEOUT_US",
     [](auto& o, auto k, auto& v) {
       o.tuning.proxy_timeout_us = real(k, v, 0, true);
     }},
    {"GDRSHMEM_PROXY_MAX_REISSUES",
     [](auto& o, auto k, auto& v) {
       o.tuning.proxy_max_reissues =
           static_cast<int>(integer(k, v, 1, INT_MAX));
     }},
    {"GDRSHMEM_DEVICE_BACKEND",
     [](auto& o, auto k, auto& v) {
       o.device_backend = enumerator<DeviceBackendKind>(k, v);
     },
     true},
    {"GDRSHMEM_DEVICE_QUEUE_DEPTH",
     [](auto& o, auto k, auto& v) {
       o.device_queue_depth = static_cast<std::size_t>(integer(k, v, 1));
     }},
    {"GDRSHMEM_IB_TRANSPORT",
     [](auto& o, auto k, auto& v) {
       o.ib_transport = enumerator<ib::QpKind>(k, v);
     },
     true},
    {"GDRSHMEM_IB_RAILS",
     [](auto& o, auto k, auto& v) {
       o.ib_rails = static_cast<int>(integer(k, v, 1, 2));
     },
     true},
    {"GDRSHMEM_IB_SRQ",
     [](auto& o, auto k, auto& v) { o.ib_srq = flag(k, v); }},
    {"GDRSHMEM_IB_SRD_SEED",
     [](auto& o, auto k, auto& v) {
       o.ib_srd_seed = static_cast<std::uint64_t>(integer(k, v, 0));
     }},
    {"GDRSHMEM_IB_SRD_JITTER_US",  // 0 disables jitter
     [](auto& o, auto k, auto& v) { o.ib_srd_jitter_us = real(k, v, 0); }},
    {"GDRSHMEM_FAULTS",
     [](auto& o, auto k, auto& v) {
       try {
         o.faults = sim::FaultPlan::parse(v);
       } catch (const std::invalid_argument& e) {
         bad(k, e.what());
       }
     }},
    {"GDRSHMEM_TRACE", [](auto& o, auto k, auto& v) { o.trace = flag(k, v); },
     true},
    {"GDRSHMEM_TRACE_CAP",
     [](auto& o, auto k, auto& v) {
       o.trace_cap = static_cast<std::size_t>(integer(k, v, 1));
     },
     true},
};

void apply(const Row& row, RuntimeOptions& opts, const std::string& value) {
  if (value.empty()) {
    bad(row.key, "empty value (unset the variable to keep the default)");
  }
  row.apply(opts, row.key, value);
}

}  // namespace

RuntimeOptions::RuntimeOptions() {
  for (const Row& row : kRows) {
    if (!row.process_default) continue;
    if (const char* value = std::getenv(row.key)) apply(row, *this, value);
  }
}

RuntimeOptions RuntimeOptions::from_env() {
  constexpr std::string_view kPrefix = "GDRSHMEM_";
  RuntimeOptions opts;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string_view entry(*env);
    const auto eq = entry.find('=');
    if (!entry.starts_with(kPrefix) || eq == std::string_view::npos) {
      continue;
    }
    const auto key = entry.substr(0, eq);
    const Row* row = std::find_if(std::begin(kRows), std::end(kRows),
                                  [&](const Row& r) { return r.key == key; });
    if (row == std::end(kRows)) {
      std::string known;
      for (std::string_view k : env_keys()) {
        known += (known.empty() ? "" : ", ") +
                 std::string(k.substr(kPrefix.size()));
      }
      bad(key, "unknown GDRSHMEM_* variable (known: " + known + ")");
    }
    apply(*row, opts, std::string(entry.substr(eq + 1)));
  }
  return opts;
}

std::vector<std::string_view> RuntimeOptions::env_keys() {
  std::vector<std::string_view> keys;
  for (const Row& row : kRows) keys.emplace_back(row.key);
  return keys;
}

}  // namespace gdrshmem::core

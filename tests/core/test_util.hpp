// Shared helpers for the core-runtime tests.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

#include "core/ctx.hpp"
#include "core/runtime.hpp"

namespace gdrshmem::core::testing {

inline hw::ClusterConfig make_cluster(int nodes, int ppn = 2,
                                      bool same_socket = true) {
  hw::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.pes_per_node = ppn;
  cfg.hca_gpu_same_socket = same_socket;
  return cfg;
}

inline RuntimeOptions make_options(TransportKind k) {
  RuntimeOptions o;
  o.transport = k;
  return o;
}

/// Run an SPMD program on a fresh runtime and return the runtime for
/// post-mortem inspection (stats, virtual time).
template <typename Fn>
std::unique_ptr<Runtime> run_spmd(const hw::ClusterConfig& cluster,
                                  const RuntimeOptions& opts, Fn&& body) {
  auto rt = std::make_unique<Runtime>(cluster, opts);
  rt->run([&](Ctx& ctx) { body(ctx); });
  return rt;
}

/// Sets (or, given nullptr, unsets) an environment variable for the current
/// scope and restores its previous state on exit. Scripts set keys such as
/// GDRSHMEM_SIM_BACKEND for a whole test binary; a test that pins one must
/// hand the same value back to the tests after it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    set(value);
  }
  ~ScopedEnv() { set(saved_ ? saved_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void set(const char* value) {
    if (value != nullptr) {
      ::setenv(name_.c_str(), value, 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

  std::string name_;
  std::optional<std::string> saved_;
};

}  // namespace gdrshmem::core::testing

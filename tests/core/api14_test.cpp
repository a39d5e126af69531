// The OpenSHMEM-1.4-shaped C API surface: new names vs the classic aliases
// (same bytes, same virtual time), shmem_calloc zeroing on both heaps, and
// RuntimeOptions::from_env validation of every GDRSHMEM_* variable.
// This file exercises the deprecated classic spellings on purpose.
#define GDRSHMEM_NO_DEPRECATE
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "gdrshmem/shmem.h"
#include "test_util.hpp"

namespace gdrshmem {
namespace {

using core::Ctx;
using core::Domain;
using core::RuntimeOptions;
using core::ShmemError;
using core::TransportKind;
using core::testing::make_cluster;
using core::testing::make_options;
using core::testing::run_spmd;
using core::testing::ScopedEnv;

// ---- 1.4 names vs classic aliases -----------------------------------------

/// The same SPMD program written against either the 1.4 names or the classic
/// aliases; returns the run's final virtual time so both spellings can be
/// checked for bit-identical cost.
std::int64_t capi_workload(bool classic) {
  constexpr std::size_t kN = 64;
  auto rt = run_spmd(
      make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr),
      [&](Ctx& ctx) {
        capi::Bind bind(ctx);
        const int np = capi::shmem_n_pes();
        const int me = capi::shmem_my_pe();
        const int target = (me + 1) % np;
        auto* d = static_cast<double*>(
            classic ? capi::shmalloc(kN * sizeof(double))
                    : capi::shmem_malloc(kN * sizeof(double)));
        auto* ctr = static_cast<long long*>(
            classic ? capi::shmalloc(sizeof(long long))
                    : capi::shmem_malloc(sizeof(long long)));
        *ctr = 0;
        double vals[kN];
        for (std::size_t i = 0; i < kN; ++i) vals[i] = me * 100.0 + i;
        capi::shmem_barrier_all();

        long long old;
        if (classic) {
          capi::shmem_double_put(d, vals, kN, target);
          old = capi::shmem_longlong_fadd(ctr, 5, target);
          capi::shmem_longlong_add(ctr, 2, target);
        } else {
          capi::shmem_put(d, vals, kN, target);
          old = capi::shmem_atomic_fetch_add(ctr, 5LL, target);
          capi::shmem_atomic_add(ctr, 2LL, target);
        }
        EXPECT_EQ(old, 0);
        capi::shmem_quiet();
        capi::shmem_barrier_all();

        const int from = (me + np - 1) % np;
        for (std::size_t i = 0; i < kN; ++i) {
          EXPECT_DOUBLE_EQ(d[i], from * 100.0 + i);
        }
        EXPECT_EQ(*ctr, 7);
        capi::shmem_barrier_all();
        if (classic) {
          capi::shfree(d);
          capi::shfree(ctr);
        } else {
          capi::shmem_free(d);
          capi::shmem_free(ctr);
        }
      });
  return rt->engine().now().count_ns();
}

TEST(Api14, AliasesMatchNewNamesBitForBit) {
  std::int64_t modern = capi_workload(/*classic=*/false);
  std::int64_t classic = capi_workload(/*classic=*/true);
  EXPECT_EQ(modern, classic)
      << "classic aliases must be zero-cost wrappers over the 1.4 names";
}

TEST(Api14, TypedOverloadsMoveTheRightBytes) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             capi::Bind bind(ctx);
             auto* ll = static_cast<long long*>(capi::shmem_malloc(4 * 8));
             auto* f = static_cast<float*>(capi::shmem_malloc(4 * 4));
             auto* ii = static_cast<int*>(capi::shmem_malloc(4 * 4));
             if (capi::shmem_my_pe() == 0) {
               long long lv[4] = {1, -2, 3, -4};
               float fv[4] = {0.5f, 1.5f, 2.5f, 3.5f};
               int iv[4] = {10, 20, 30, 40};
               capi::shmem_put(ll, lv, 4, 1);
               capi::shmem_put(f, fv, 4, 1);
               capi::shmem_put(ii, iv, 4, 1);
               capi::shmem_quiet();
             }
             capi::shmem_barrier_all();
             if (capi::shmem_my_pe() == 1) {
               EXPECT_EQ(ll[1], -2);
               EXPECT_FLOAT_EQ(f[3], 3.5f);
               EXPECT_EQ(ii[2], 30);
               long long back[4] = {};
               capi::shmem_get(back, ll, 4, 1);  // self-get via API
               EXPECT_EQ(back[3], -4);
             }
             capi::shmem_barrier_all();
           });
}

TEST(Api14, NbiOverloadsCompleteAtQuiet) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             capi::Bind bind(ctx);
             auto* d = static_cast<double*>(capi::shmem_malloc(8 * 8));
             if (capi::shmem_my_pe() == 0) {
               double v[8] = {1, 2, 3, 4, 5, 6, 7, 8};
               capi::shmem_put_nbi(d, v, 8, 1);
               capi::shmem_quiet();
             }
             capi::shmem_barrier_all();
             if (capi::shmem_my_pe() == 1) {
               EXPECT_DOUBLE_EQ(d[7], 8.0);
               double back[8] = {};
               capi::shmem_get_nbi(back, d, 8, 1);
               capi::shmem_quiet();
               EXPECT_DOUBLE_EQ(back[0], 1.0);
             }
             capi::shmem_barrier_all();
           });
}

TEST(Api14, CallocZeroesBothDomains) {
  run_spmd(make_cluster(1, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             capi::Bind bind(ctx);
             constexpr std::size_t kN = 4096;
             for (Domain dom : {Domain::kHost, Domain::kGpu}) {
               // Dirty a block, free it, then calloc: the (likely recycled)
               // memory must come back zeroed, not stale.
               auto* dirty =
                   static_cast<unsigned char*>(capi::shmem_malloc(kN, dom));
               for (std::size_t i = 0; i < kN; ++i) dirty[i] = 0xab;
               capi::shmem_free(dirty);
               auto* z = static_cast<unsigned char*>(
                   capi::shmem_calloc(kN / 8, 8, dom));
               for (std::size_t i = 0; i < kN; ++i) {
                 ASSERT_EQ(z[i], 0u) << "domain " << static_cast<int>(dom)
                                     << " byte " << i;
               }
               capi::shmem_free(z);
             }
           });
}

// ---- RuntimeOptions::from_env ---------------------------------------------

TEST(FromEnv, NoVariablesGivesDefaults) {
  RuntimeOptions opts = RuntimeOptions::from_env();
  RuntimeOptions def;
  EXPECT_EQ(opts.transport, def.transport);
  EXPECT_EQ(opts.host_heap_bytes, def.host_heap_bytes);
  EXPECT_EQ(opts.tuning.use_proxy, def.tuning.use_proxy);
  EXPECT_FALSE(opts.faults.enabled());
  // The process-default keys reach both paths alike, so this holds under
  // every value check_tier1.sh's A/B passes flip.
  EXPECT_EQ(opts.sim_backend, def.sim_backend);
  EXPECT_EQ(opts.trace, def.trace);
  EXPECT_EQ(opts.trace_cap, def.trace_cap);
  EXPECT_EQ(opts.device_backend, def.device_backend);
  EXPECT_EQ(opts.ib_transport, def.ib_transport);
  EXPECT_EQ(opts.ib_rails, def.ib_rails);
}

// The six keys CI flips for whole suites reach options built in code; the
// rest are from_env's alone.
TEST(FromEnv, ProcessDefaultKeysReachDefaultConstructedOptions) {
  ScopedEnv e1("GDRSHMEM_SIM_BACKEND", "threads");
  ScopedEnv e2("GDRSHMEM_TRACE", "on");
  ScopedEnv e3("GDRSHMEM_TRACE_CAP", "4096");
  ScopedEnv e4("GDRSHMEM_DEVICE_BACKEND", "reverse");
  ScopedEnv e5("GDRSHMEM_IB_TRANSPORT", "dc");
  ScopedEnv e6("GDRSHMEM_IB_RAILS", "2");
  ScopedEnv e7("GDRSHMEM_EAGER_LIMIT", "1K");
  RuntimeOptions programmatic;
  EXPECT_EQ(programmatic.sim_backend, sim::BackendKind::kThreads);
  EXPECT_TRUE(programmatic.trace);
  EXPECT_EQ(programmatic.trace_cap, 4096u);
  EXPECT_EQ(programmatic.device_backend,
            core::DeviceBackendKind::kReverseOffload);
  EXPECT_EQ(programmatic.ib_transport, ib::QpKind::kDc);
  EXPECT_EQ(programmatic.ib_rails, 2);
  EXPECT_EQ(programmatic.tuning.eager_limit, core::Tuning{}.eager_limit);
  EXPECT_EQ(RuntimeOptions::from_env().tuning.eager_limit, 1u << 10);
  // A bad process-default value is refused here too, not only by from_env.
  ScopedEnv e8("GDRSHMEM_TRACE_CAP", "-1");
  EXPECT_THROW(RuntimeOptions{}, ShmemError);
}

// GDRSHMEM_IB_TRANSPORT and GDRSHMEM_IB_RAILS are process-default rows:
// both from_env() and RuntimeOptions{} must read them the same way.
TEST(TransportEnv, KindParsesAndDefaults) {
  {
    ScopedEnv e("GDRSHMEM_IB_TRANSPORT", nullptr);
    EXPECT_EQ(RuntimeOptions::from_env().ib_transport, ib::QpKind::kRc);
    EXPECT_EQ(RuntimeOptions{}.ib_transport, ib::QpKind::kRc);
  }
  const std::pair<const char*, ib::QpKind> kinds[] = {
      {"rc", ib::QpKind::kRc},
      {"ud", ib::QpKind::kUd},
      {"dc", ib::QpKind::kDc},
      {"srd", ib::QpKind::kSrd},
  };
  for (const auto& [name, kind] : kinds) {
    ScopedEnv e("GDRSHMEM_IB_TRANSPORT", name);
    EXPECT_EQ(RuntimeOptions::from_env().ib_transport, kind) << name;
    EXPECT_EQ(RuntimeOptions{}.ib_transport, kind) << name;
  }
  {
    ScopedEnv e("GDRSHMEM_IB_TRANSPORT", "xrc");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
    EXPECT_THROW(RuntimeOptions{}, ShmemError);
  }
}

TEST(TransportEnv, RailsParseAndDefault) {
  {
    ScopedEnv e("GDRSHMEM_IB_RAILS", nullptr);
    EXPECT_EQ(RuntimeOptions::from_env().ib_rails, 1);
    EXPECT_EQ(RuntimeOptions{}.ib_rails, 1);
  }
  for (int rails : {1, 2}) {
    ScopedEnv e("GDRSHMEM_IB_RAILS", std::to_string(rails).c_str());
    EXPECT_EQ(RuntimeOptions::from_env().ib_rails, rails);
    EXPECT_EQ(RuntimeOptions{}.ib_rails, rails);
  }
  {
    ScopedEnv e("GDRSHMEM_IB_RAILS", "3");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
    EXPECT_THROW(RuntimeOptions{}, ShmemError);
  }
}

TEST(FromEnv, ParsesAndValidatesKnownKeys) {
  ScopedEnv e1("GDRSHMEM_TRANSPORT", "host-pipeline");
  ScopedEnv e2("GDRSHMEM_HOST_HEAP", "4M");
  ScopedEnv e3("GDRSHMEM_GPU_HEAP", "512K");
  ScopedEnv e4("GDRSHMEM_USE_PROXY", "off");
  ScopedEnv e5("GDRSHMEM_PIPELINE_CHUNK", "32K");
  ScopedEnv e6("GDRSHMEM_SIM_BACKEND", "threads");
  ScopedEnv e7("GDRSHMEM_FAULTS", "seed=5,wire_error_rate=1e-3,crash=1@250");
  RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_EQ(opts.transport, TransportKind::kHostPipeline);
  EXPECT_EQ(opts.host_heap_bytes, 4u << 20);
  EXPECT_EQ(opts.gpu_heap_bytes, 512u << 10);
  EXPECT_FALSE(opts.tuning.use_proxy);
  EXPECT_EQ(opts.tuning.pipeline_chunk, 32u << 10);
  EXPECT_EQ(opts.sim_backend, sim::BackendKind::kThreads);
  EXPECT_TRUE(opts.faults.enabled());
  EXPECT_EQ(opts.faults.seed, 5u);
  EXPECT_DOUBLE_EQ(opts.faults.wire_error_rate, 1e-3);
  ASSERT_EQ(opts.faults.crashes.size(), 1u);
  EXPECT_EQ(opts.faults.crashes[0].node, 1);
}

// README's env table lists exactly the keys from_env accepts: every accepted
// key has a line, every line names an accepted key, and every line's example
// value is accepted.
TEST(FromEnv, ReadmeDocumentsEveryAcceptedKey) {
  std::ifstream in(GDRSHMEM_SOURCE_DIR "/README.md");
  ASSERT_TRUE(in) << "cannot read README.md";
  const std::string readme(std::istreambuf_iterator<char>(in), {});
  const std::vector<std::string_view> accepted = RuntimeOptions::env_keys();
  const std::set<std::string, std::less<>> keys(accepted.begin(),
                                                accepted.end());
  EXPECT_EQ(keys.size(), accepted.size()) << "a key has two rows";
  for (std::string_view key : accepted) {
    EXPECT_NE(readme.find("\n" + std::string(key) + "="), std::string::npos)
        << key << " is accepted by from_env but missing from README";
  }
  const std::regex documented(R"re(\n(GDRSHMEM_[A-Z0-9_]+)=('[^']*'|\S+))re");
  int rows = 0;
  for (std::sregex_iterator it(readme.begin(), readme.end(), documented), end;
       it != end; ++it, ++rows) {
    const std::string key = (*it)[1].str();
    std::string value = (*it)[2].str();
    if (value.front() == '\'') value = value.substr(1, value.size() - 2);
    if (!keys.count(key)) {
      ADD_FAILURE() << key
                    << " is in README's env table but from_env rejects it";
      continue;
    }
    ScopedEnv e(key.c_str(), value.c_str());
    EXPECT_NO_THROW(RuntimeOptions::from_env()) << key << "=" << value;
  }
  EXPECT_EQ(rows, static_cast<int>(keys.size()))
      << "README no longer matches the env-table pattern";
}

// One rule for every key: `KEY=` is refused, naming the key, rather than
// read as unset.
TEST(FromEnv, EmptyValueIsAnErrorForEveryKey) {
  for (std::string_view key : RuntimeOptions::env_keys()) {
    const std::string name(key);
    ScopedEnv e(name.c_str(), "");
    try {
      RuntimeOptions::from_env();
      ADD_FAILURE() << name << "= was accepted";
    } catch (const ShmemError& err) {
      EXPECT_NE(std::string(err.what()).find(name), std::string::npos)
          << err.what();
    }
  }
}

TEST(FromEnv, UnknownVariableIsAnError) {
  ScopedEnv e("GDRSHMEM_PIPELINE_CHUNKS", "32K");  // note the typo
  EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
}

TEST(FromEnv, BadValuesAreErrors) {
  const std::pair<const char*, const char*> rows[] = {
      {"GDRSHMEM_TRANSPORT", "warp-drive"},
      {"GDRSHMEM_PIPELINE_CHUNK", "0"},
      {"GDRSHMEM_HOST_HEAP", "12Q"},
      {"GDRSHMEM_USE_PROXY", "maybe"},
      {"GDRSHMEM_SIM_BACKEND", "coroutines"},
      // Units are KiB per fiber; below the 64 KiB floor is an error, as is
      // trailing garbage.
      {"GDRSHMEM_SIM_STACK_KB", "32"},
      {"GDRSHMEM_SIM_STACK_KB", "256bogus"},
      {"GDRSHMEM_FAULTS", "wire_error_rate=2"},
      {"GDRSHMEM_TRACE", "maybe"},
      {"GDRSHMEM_TRACE_CAP", "0"},
      {"GDRSHMEM_TRACE_CAP", "lots"},
      // A signed count must not wrap to a 2^64-1 ring that never drops.
      {"GDRSHMEM_TRACE_CAP", "-1"},
      {"GDRSHMEM_IB_TRANSPORT", "xrc"},
      {"GDRSHMEM_IB_RAILS", "3"},
  };
  for (const auto& [key, value] : rows) {
    ScopedEnv e(key, value);
    try {
      RuntimeOptions::from_env();
      ADD_FAILURE() << key << "=" << value << " was accepted";
    } catch (const ShmemError& err) {
      EXPECT_NE(std::string(err.what()).find(key), std::string::npos)
          << err.what();
    }
  }
}

// The engine's queue, wakeup batching, fiber switch and stack pool are no
// longer chosen from the environment: a once-valid setting of any of them
// is refused as an unknown variable rather than silently ignored.
TEST(FromEnv, RetiredEngineKnobsAreUnknown) {
  const std::pair<const char*, const char*> retired[] = {
      {"GDRSHMEM_SIM_QUEUE", "heap"},
      {"GDRSHMEM_SIM_BATCH", "off"},
      {"GDRSHMEM_SIM_FIBER_SWITCH", "ucontext"},
      {"GDRSHMEM_SIM_STACK_POOL", "128"},
  };
  for (const auto& [key, value] : retired) {
    ScopedEnv e(key, value);
    try {
      RuntimeOptions::from_env();
      ADD_FAILURE() << key << " was accepted";
    } catch (const ShmemError& err) {
      EXPECT_NE(std::string(err.what()).find("unknown GDRSHMEM_* variable"),
                std::string::npos)
          << key << ": " << err.what();
    }
  }
}

TEST(FromEnv, OversizedHeapIsAnErrorNotSilentWraparound) {
  // 99999999999 * 2^30 overflows std::size_t; the old code wrapped silently
  // and produced a tiny (or huge) bogus heap.
  {
    ScopedEnv e("GDRSHMEM_HOST_HEAP", "99999999999G");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_GPU_HEAP", "99999999999999999M");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    // Near the boundary but representable: must still parse.
    ScopedEnv e("GDRSHMEM_HOST_HEAP", "8G");
    EXPECT_EQ(RuntimeOptions::from_env().host_heap_bytes,
              std::size_t{8} << 30);
  }
}

TEST(FromEnv, TraceKnobsFlowIntoOptions) {
  ScopedEnv e1("GDRSHMEM_TRACE", "on");
  ScopedEnv e2("GDRSHMEM_TRACE_CAP", "4096");
  RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_TRUE(opts.trace);
  EXPECT_EQ(opts.trace_cap, 4096u);
  // The default constructor applies the process-default keys too, so code-
  // built options (the bench path) honor the same knobs.
  RuntimeOptions programmatic;
  EXPECT_TRUE(programmatic.trace);
  EXPECT_EQ(programmatic.trace_cap, 4096u);
}

TEST(FromEnv, FaultPlanDrivesARun) {
  ScopedEnv e("GDRSHMEM_FAULTS", "seed=3,wire_error_rate=5e-3");
  RuntimeOptions opts = RuntimeOptions::from_env();
  opts.transport = TransportKind::kEnhancedGdr;
  auto rt = run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
    auto* h = static_cast<int*>(ctx.shmalloc(sizeof(int), Domain::kHost));
    if (ctx.my_pe() == 0) {
      for (int i = 0; i < 64; ++i) {
        int v = i;
        ctx.putmem(h, &v, sizeof(v), 1);
        ctx.quiet();
      }
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      EXPECT_EQ(*h, 63);
    }
  });
  EXPECT_TRUE(rt->faults_enabled());
  EXPECT_EQ(rt->faults().plan().seed, 3u);
}

TEST(FromEnv, CollAlgoSingleTokenForcesAllSupportingKinds) {
  ScopedEnv e("GDRSHMEM_COLL_ALGO", "ring");
  RuntimeOptions opts = RuntimeOptions::from_env();
  using core::CollAlgo;
  using core::CollKind;
  auto forced = [&](CollKind k) {
    return opts.tuning.coll_force[static_cast<std::size_t>(k)];
  };
  // Ring applies to bcast, allreduce, and fcollect; kinds that have no ring
  // variant keep auto selection.
  EXPECT_EQ(forced(CollKind::kBroadcast), CollAlgo::kRing);
  EXPECT_EQ(forced(CollKind::kAllreduce), CollAlgo::kRing);
  EXPECT_EQ(forced(CollKind::kFcollect), CollAlgo::kRing);
  EXPECT_EQ(forced(CollKind::kBarrier), CollAlgo::kAuto);
  EXPECT_EQ(forced(CollKind::kAlltoall), CollAlgo::kAuto);
}

TEST(FromEnv, CollAlgoPerKindListParses) {
  ScopedEnv e("GDRSHMEM_COLL_ALGO", "bcast=binomial,allreduce=recdbl");
  RuntimeOptions opts = RuntimeOptions::from_env();
  using core::CollAlgo;
  using core::CollKind;
  EXPECT_EQ(opts.tuning.coll_force[static_cast<std::size_t>(
                CollKind::kBroadcast)],
            CollAlgo::kBinomial);
  EXPECT_EQ(opts.tuning.coll_force[static_cast<std::size_t>(
                CollKind::kAllreduce)],
            CollAlgo::kRecDbl);
  EXPECT_EQ(opts.tuning.coll_force[static_cast<std::size_t>(
                CollKind::kFcollect)],
            CollAlgo::kAuto);
}

TEST(FromEnv, CollAlgoBadValuesAreErrors) {
  {
    ScopedEnv e("GDRSHMEM_COLL_ALGO", "quantum");  // no such algorithm
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_COLL_ALGO", "reduce=ring");  // no such kind
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_COLL_ALGO", "barrier=bruck");  // unsupported pair
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_COLL_ALGO", "pairwise");  // alltoall-only token is
    RuntimeOptions opts = RuntimeOptions::from_env();  // still a valid single
    EXPECT_EQ(opts.tuning.coll_force[static_cast<std::size_t>(
                  core::CollKind::kAlltoall)],
              core::CollAlgo::kPairwise);
  }
}

TEST(FromEnv, CollChunkParsesAndValidates) {
  {
    ScopedEnv e("GDRSHMEM_COLL_CHUNK", "8K");
    EXPECT_EQ(RuntimeOptions::from_env().tuning.coll_chunk, 8u << 10);
  }
  {
    ScopedEnv e("GDRSHMEM_COLL_CHUNK", "2K");  // below the 4K floor
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
}

TEST(FromEnv, CollAlgoFlowsIntoARun) {
  // Forcing the ring allreduce through the environment must actually steer
  // the engine: the per-algorithm metrics series appears in the report.
  ScopedEnv e("GDRSHMEM_COLL_ALGO", "allreduce=ring");
  RuntimeOptions opts = RuntimeOptions::from_env();
  opts.transport = TransportKind::kEnhancedGdr;
  auto rt = run_spmd(make_cluster(1, 4), opts, [&](Ctx& ctx) {
    auto* v = static_cast<std::int64_t*>(ctx.shmalloc(8));
    *v = ctx.my_pe();
    ctx.barrier_all();
    ctx.sum_to_all(v, v, 1);
    EXPECT_EQ(*v, 6);
    ctx.barrier_all();
  });
  const std::string report = core::format_report_json(*rt);
  EXPECT_NE(report.find("coll_bytes/allreduce/ring"), std::string::npos);
}

}  // namespace
}  // namespace gdrshmem

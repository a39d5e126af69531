// The OpenSHMEM-1.4-shaped C API surface: new names vs the classic aliases
// (same bytes, same virtual time), shmem_calloc zeroing on both heaps, and
// RuntimeOptions::from_env validation of every GDRSHMEM_* variable.
// This file exercises the deprecated classic spellings on purpose.
#define GDRSHMEM_NO_DEPRECATE
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <string>
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

/// Sets an environment variable for the current scope, restoring on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

TEST(FromEnv, NoVariablesGivesDefaults) {
  RuntimeOptions opts = RuntimeOptions::from_env();
  RuntimeOptions def;
  EXPECT_EQ(opts.transport, def.transport);
  EXPECT_EQ(opts.host_heap_bytes, def.host_heap_bytes);
  EXPECT_EQ(opts.tuning.use_proxy, def.tuning.use_proxy);
  EXPECT_FALSE(opts.faults.enabled());
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
// key has a line, and every line names an accepted key.
TEST(FromEnv, ReadmeDocumentsEveryAcceptedKey) {
  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot read " << path;
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string source = slurp(GDRSHMEM_SOURCE_DIR "/src/core/options.cpp");
  const std::string readme = slurp(GDRSHMEM_SOURCE_DIR "/README.md");
  const std::regex accepted(R"re(key == "(GDRSHMEM_[A-Z0-9_]+)")re");
  std::set<std::string> keys;
  for (std::sregex_iterator it(source.begin(), source.end(), accepted), end;
       it != end; ++it) {
    keys.insert((*it)[1].str());
    EXPECT_NE(readme.find("\n" + (*it)[1].str() + "="), std::string::npos)
        << (*it)[1] << " is accepted by from_env but missing from README";
  }
  EXPECT_GE(keys.size(), 30u) << "options.cpp no longer matches the key pattern";
  const std::regex documented(R"re(\n(GDRSHMEM_[A-Z0-9_]+)=)re");
  int rows = 0;
  for (std::sregex_iterator it(readme.begin(), readme.end(), documented), end;
       it != end; ++it, ++rows) {
    EXPECT_TRUE(keys.count((*it)[1].str()))
        << (*it)[1] << " is in README's env table but from_env rejects it";
  }
  EXPECT_GE(rows, 30) << "README no longer matches the env-table pattern";
}

TEST(FromEnv, UnknownVariableIsAnError) {
  ScopedEnv e("GDRSHMEM_PIPELINE_CHUNKS", "32K");  // note the typo
  EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
}

TEST(FromEnv, BadValuesAreErrors) {
  {
    ScopedEnv e("GDRSHMEM_TRANSPORT", "warp-drive");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_PIPELINE_CHUNK", "0");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_HOST_HEAP", "12Q");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_USE_PROXY", "maybe");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_SIM_BACKEND", "coroutines");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    // Units are KiB per fiber; below the 64 KiB floor is an error, as is
    // trailing garbage.
    ScopedEnv e("GDRSHMEM_SIM_STACK_KB", "32");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_SIM_STACK_KB", "256bogus");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_FAULTS", "wire_error_rate=2");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_TRACE", "maybe");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_TRACE_CAP", "0");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_TRACE_CAP", "lots");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
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
  // The defaulted members consult the environment too, so programmatically
  // constructed options (the bench path) honor the same knobs.
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

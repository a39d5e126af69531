// Runtime report formatting (text and machine-readable JSON).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;

TEST(Report, SummarizesProtocolsAndResources) {
  Runtime rt(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr));
  rt.run([&](Ctx& ctx) {
    void* g = ctx.shmalloc(1u << 20, Domain::kGpu);
    void* local = ctx.cuda_malloc(1u << 20);
    if (ctx.my_pe() == 0) {
      ctx.putmem(g, local, 8, 1);           // direct GDR
      ctx.putmem(g, local, 1u << 20, 1);    // pipeline
      ctx.getmem(local, g, 1u << 20, 1);    // proxy get
      ctx.quiet();
    }
    ctx.barrier_all();
  });
  std::string report = format_report(rt);
  EXPECT_NE(report.find("enhanced-gdr"), std::string::npos);
  EXPECT_NE(report.find("direct-gdr"), std::string::npos);
  EXPECT_NE(report.find("pipeline-gdr-write"), std::string::npos);
  EXPECT_NE(report.find("proxy-get"), std::string::npos);
  EXPECT_NE(report.find("registration cache"), std::string::npos);
  EXPECT_NE(report.find("proxy daemons: 1 gets"), std::string::npos);
  EXPECT_NE(report.find("symmetric heaps"), std::string::npos);
  EXPECT_NE(report.find("functional copies: "), std::string::npos);
}

TEST(Report, BaselineHasNoProxySection) {
  Runtime rt(make_cluster(1, 2), make_options(TransportKind::kHostPipeline));
  rt.run([&](Ctx& ctx) { ctx.barrier_all(); });
  std::string report = format_report(rt);
  EXPECT_EQ(report.find("proxy daemons"), std::string::npos);
  EXPECT_NE(report.find("host-pipeline"), std::string::npos);
}

TEST(ReportJson, WellFormedWithStableFieldOrder) {
  Runtime rt(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr));
  rt.run([&](Ctx& ctx) {
    void* g = ctx.shmalloc(1u << 20, Domain::kGpu);
    void* local = ctx.cuda_malloc(1u << 20);
    if (ctx.my_pe() == 0) {
      ctx.putmem(g, local, 8, 1);
      ctx.getmem(local, g, 1u << 20, 1);
      ctx.quiet();
    }
    ctx.barrier_all();
  });
  std::string json = format_report_json(rt);
  // Balanced structure.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // Top-level sections appear in their documented order.
  std::size_t last = 0;
  for (const char* key :
       {"\"schema\":1", "\"transport\":\"enhanced-gdr\"", "\"pes\":2",
        "\"virtual_time_us\":", "\"functional_copy_bytes\":", "\"ops\":", "\"protocols\":[",
        "\"reg_cache\":", "\"proxy\":", "\"heap\":", "\"trace\":",
        "\"metrics\":", "\"counters\":", "\"gauges\":", "\"histograms\":"}) {
    std::size_t pos = json.find(key, last);
    ASSERT_NE(pos, std::string::npos) << "missing or out of order: " << key;
    last = pos;
  }
  // The observability counters/gauges/histograms made it in.
  EXPECT_NE(json.find("\"reg_cache/hits\":"), std::string::npos);
  EXPECT_NE(json.find("\"proxy/queue_depth\":"), std::string::npos);
  EXPECT_NE(json.find("\"op_bytes/get/proxy-get\":"), std::string::npos);
  EXPECT_NE(json.find("\"op_latency_ns/put/direct-gdr\":"), std::string::npos);
  // Identical state serializes identically (byte-stable output).
  EXPECT_EQ(json, format_report_json(rt));
}

TEST(ReportJson, HistogramTotalsMatchProtocolTable) {
  Runtime rt(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr));
  rt.run([&](Ctx& ctx) {
    void* g = ctx.shmalloc(512u << 10, Domain::kGpu);
    void* h = ctx.shmalloc(4096);
    void* local = ctx.cuda_malloc(512u << 10);
    std::vector<std::byte> hbuf(4096);
    int peer = (ctx.my_pe() + 1) % ctx.n_pes();
    ctx.putmem(g, local, 8, peer);
    ctx.putmem(g, local, 512u << 10, peer);
    ctx.getmem(local, g, 64u << 10, peer);
    ctx.putmem(h, hbuf.data(), hbuf.size(), peer);
    auto* ctr = static_cast<std::int64_t*>(ctx.shmalloc(8));
    ctx.atomic_fetch_add(ctr, 1, peer);
    ctx.barrier_all();
  });
  (void)format_report_json(rt);  // snapshots metrics as a side effect
  // Every operation counted in the protocol table is recorded in exactly one
  // op_bytes histogram (count_protocol is the single chokepoint for both),
  // so per-protocol totals must agree.
  const OpStats& st = rt.stats();
  std::array<std::uint64_t, static_cast<std::size_t>(Protocol::kCount_)>
      hist_ops{};
  std::array<std::uint64_t, static_cast<std::size_t>(Protocol::kCount_)>
      hist_bytes{};
  for (const auto& [name, h] : rt.metrics().histograms()) {
    if (name.rfind("op_bytes/", 0) != 0) continue;
    std::string proto_name = name.substr(name.rfind('/') + 1);
    for (std::size_t i = 0; i < static_cast<std::size_t>(Protocol::kCount_);
         ++i) {
      if (proto_name == to_string(static_cast<Protocol>(i))) {
        hist_ops[i] += h.count();
        hist_bytes[i] += h.sum();
      }
    }
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(Protocol::kCount_); ++i) {
    EXPECT_EQ(hist_ops[i], st.ops_by_protocol[i])
        << "op count mismatch for " << to_string(static_cast<Protocol>(i));
    EXPECT_EQ(hist_bytes[i], st.bytes_by_protocol[i])
        << "byte count mismatch for " << to_string(static_cast<Protocol>(i));
  }
}

}  // namespace
}  // namespace gdrshmem::core

// Teams: split_strided membership and numbering, PE translation, nested
// splits, sync-pool slot lifecycle, and the team-variant collectives —
// including the C API handles.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gdrshmem/shmem.h"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

TEST(Team, WorldTeamShape) {
  run_spmd(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             Team& w = ctx.team_world();
             EXPECT_EQ(w.n_pes(), ctx.n_pes());
             EXPECT_EQ(w.my_pe(), ctx.my_pe());
             EXPECT_EQ(w.slot(), 0);
             EXPECT_TRUE(w.is_world());
             EXPECT_THROW(ctx.team_destroy(&w), ShmemError);
           });
}

TEST(Team, SplitStridedMembershipAndNumbering) {
  run_spmd(make_cluster(2, 3), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             // Odd PEs of 6: {1, 3, 5}.
             Team* odds = ctx.team_split_strided(ctx.team_world(), 1, 2, 3);
             if (ctx.my_pe() % 2 == 1) {
               ASSERT_NE(odds, nullptr);
               EXPECT_EQ(odds->n_pes(), 3);
               EXPECT_EQ(odds->my_pe(), ctx.my_pe() / 2);
               EXPECT_EQ(odds->world_pe(2), 5);
               EXPECT_EQ(odds->index_of_world(3), 1);
               EXPECT_EQ(odds->index_of_world(2), -1);
               ctx.team_destroy(odds);
             } else {
               EXPECT_EQ(odds, nullptr);
             }
             ctx.barrier_all();
           });
}

TEST(Team, TranslateBetweenTeams) {
  run_spmd(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             Team* evens = ctx.team_split_strided(ctx.team_world(), 0, 2, 2);
             Team* tail = ctx.team_split_strided(ctx.team_world(), 2, 1, 2);
             if (evens != nullptr) {
               // evens = {0, 2}; tail = {2, 3}. World 2 is evens#1, tail#0.
               EXPECT_EQ(Team::translate(*evens, 1, ctx.team_world()), 2);
               EXPECT_EQ(Team::translate(*evens, 0, ctx.team_world()), 0);
               if (tail != nullptr) {
                 EXPECT_EQ(Team::translate(*evens, 1, *tail), 0);
                 EXPECT_EQ(Team::translate(*evens, 0, *tail), -1);
               }
             }
             ctx.team_destroy(evens);
             ctx.team_destroy(tail);
             ctx.barrier_all();
           });
}

TEST(Team, NestedSplitComposesStride) {
  run_spmd(make_cluster(4, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             // evens = {0,2,4,6}; second-of-evens = {2, 6} (world stride 4).
             Team* evens = ctx.team_split_strided(ctx.team_world(), 0, 2, 4);
             Team* sub = nullptr;
             if (evens != nullptr) {
               sub = ctx.team_split_strided(*evens, 1, 2, 2);
             }
             if (sub != nullptr) {
               EXPECT_EQ(sub->n_pes(), 2);
               EXPECT_EQ(sub->world_pe(0), 2);
               EXPECT_EQ(sub->world_pe(1), 6);
               EXPECT_TRUE(ctx.my_pe() == 2 || ctx.my_pe() == 6);
               ctx.team_destroy(sub);
             }
             ctx.team_destroy(evens);
             ctx.barrier_all();
           });
}

TEST(Team, InvalidTripletThrows) {
  run_spmd(make_cluster(1, 4), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             EXPECT_THROW(ctx.team_split_strided(ctx.team_world(), 0, 1, 0),
                          ShmemError);
             EXPECT_THROW(ctx.team_split_strided(ctx.team_world(), 0, 2, 3),
                          ShmemError);
             EXPECT_THROW(ctx.team_split_strided(ctx.team_world(), -1, 1, 2),
                          ShmemError);
             EXPECT_THROW(ctx.team_split_strided(ctx.team_world(), 0, 0, 2),
                          ShmemError);
             ctx.barrier_all();
           });
}

TEST(Team, SlotExhaustionThrowsAndDestroyRecycles) {
  run_spmd(make_cluster(1, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             // 15 team slots beyond the world's; the 16th split must fail
             // identically on every PE.
             std::vector<Team*> teams;
             for (int i = 0; i < 15; ++i) {
               teams.push_back(
                   ctx.team_split_strided(ctx.team_world(), 0, 1, 2));
               ASSERT_NE(teams.back(), nullptr);
             }
             EXPECT_THROW(ctx.team_split_strided(ctx.team_world(), 0, 1, 2),
                          ShmemError);
             // Destroy frees the slots for reuse.
             for (Team* t : teams) ctx.team_destroy(t);
             for (int round = 0; round < 20; ++round) {
               Team* t = ctx.team_split_strided(ctx.team_world(), 0, 1, 2);
               ASSERT_NE(t, nullptr);
               std::int64_t v = ctx.my_pe() + 1;
               std::int64_t sum = 0;
               auto* src = static_cast<std::int64_t*>(ctx.shmalloc(8));
               auto* dst = static_cast<std::int64_t*>(ctx.shmalloc(8));
               *src = v;
               ctx.team_reduce(*t, dst, src, 1, ReduceOp::kSum);
               sum = *dst;
               EXPECT_EQ(sum, 3);
               ctx.shfree(dst);
               ctx.shfree(src);
               ctx.team_destroy(t);
             }
             ctx.barrier_all();
           });
}

TEST(Team, SyncWaitsForMembersOnly) {
  std::vector<int> phase(6, 0);
  run_spmd(make_cluster(3, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             // Even PEs of 6: {0, 2, 4}.
             Team* evens = ctx.team_split_strided(ctx.team_world(), 0, 2, 3);
             if (evens != nullptr) {
               for (int round = 0; round < 8; ++round) {
                 ctx.compute(sim::Duration::us(
                     static_cast<double>(1 + (ctx.my_pe() * 7 + round) % 11)));
                 phase[ctx.my_pe()] = round + 1;
                 ctx.team_sync(*evens);
                 for (int p = 0; p < 6; p += 2) {
                   ASSERT_GE(phase[p], round + 1) << "team PE " << p << " behind";
                 }
               }
               ctx.team_destroy(evens);
             } else {
               // Odd PEs are not members and never wait for the team: one
               // microsecond after the split, no member is past round 1.
               ctx.compute(sim::Duration::us(1));
               for (int p = 0; p < 6; p += 2) {
                 EXPECT_LT(phase[p], 2) << "non-member waited for team PE " << p;
               }
             }
             ctx.barrier_all();
           });
}

TEST(Team, CollectivesOnStridedTeam) {
  run_spmd(make_cluster(2, 3), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             constexpr std::size_t kN = 64;
             auto* buf = static_cast<std::int32_t*>(
                 ctx.shmalloc(kN * sizeof(std::int32_t)));
             auto* gathered = static_cast<std::int32_t*>(
                 ctx.shmalloc(3 * kN * sizeof(std::int32_t)));
             Team* odds = ctx.team_split_strided(ctx.team_world(), 1, 2, 3);
             if (odds != nullptr) {
               // Broadcast from team PE 1 (world 3).
               for (std::size_t i = 0; i < kN; ++i) {
                 buf[i] = ctx.my_pe() == 3 ? static_cast<std::int32_t>(1000 + i)
                                           : -1;
               }
               ctx.team_sync(*odds);
               ctx.team_broadcast(*odds, buf, buf, kN * sizeof(std::int32_t), 1);
               for (std::size_t i = 0; i < kN; ++i) {
                 ASSERT_EQ(buf[i], static_cast<std::int32_t>(1000 + i));
               }
               // Fcollect team-indexed blocks.
               for (std::size_t i = 0; i < kN; ++i) {
                 buf[i] = static_cast<std::int32_t>(100 * odds->my_pe() +
                                                    static_cast<int>(i % 7));
               }
               ctx.team_sync(*odds);
               ctx.team_fcollect(*odds, gathered, buf,
                                 kN * sizeof(std::int32_t));
               for (int p = 0; p < 3; ++p) {
                 for (std::size_t i = 0; i < kN; ++i) {
                   ASSERT_EQ(gathered[p * kN + i],
                             static_cast<std::int32_t>(100 * p +
                                                       static_cast<int>(i % 7)));
                 }
               }
               ctx.team_destroy(odds);
             }
             ctx.barrier_all();
           });
}

TEST(Team, DisjointTeamsReduceConcurrently) {
  run_spmd(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             // Rows of a 2x2 grid: {0,1} and {2,3}. Both teams run their
             // reduction with no cross-team ordering.
             Team* mine = nullptr;
             for (int r = 0; r < 2; ++r) {
               Team* t = ctx.team_split_strided(ctx.team_world(), 2 * r, 1, 2);
               if (t != nullptr) mine = t;
             }
             ASSERT_NE(mine, nullptr);
             auto* src = static_cast<std::int64_t*>(ctx.shmalloc(8));
             auto* dst = static_cast<std::int64_t*>(ctx.shmalloc(8));
             *src = 10 * ctx.my_pe() + 1;
             ctx.team_sync(*mine);
             ctx.team_reduce(*mine, dst, src, 1, ReduceOp::kSum);
             const std::int64_t expect = ctx.my_pe() < 2 ? 12 : 52;
             EXPECT_EQ(*dst, expect);
             ctx.team_destroy(mine);
             ctx.barrier_all();
           });
}

TEST(Team, CApiHandles) {
  run_spmd(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             capi::Bind bind(ctx);
             using capi::SHMEM_TEAM_INVALID;
             capi::shmem_team_t world = capi::shmem_team_world();
             EXPECT_EQ(capi::shmem_team_n_pes(world), 4);
             EXPECT_EQ(capi::shmem_team_my_pe(world), ctx.my_pe());
             EXPECT_EQ(capi::shmem_team_my_pe(SHMEM_TEAM_INVALID), -1);
             EXPECT_EQ(capi::shmem_team_n_pes(SHMEM_TEAM_INVALID), -1);

             capi::shmem_team_t evens = SHMEM_TEAM_INVALID;
             EXPECT_NE(capi::shmem_team_split_strided(SHMEM_TEAM_INVALID, 0, 2,
                                                      2, &evens),
                       0);
             EXPECT_EQ(capi::shmem_team_split_strided(world, 0, 2, 2, &evens),
                       0);
             if (ctx.my_pe() % 2 == 0) {
               ASSERT_NE(evens, SHMEM_TEAM_INVALID);
               EXPECT_EQ(capi::shmem_team_n_pes(evens), 2);
               EXPECT_EQ(capi::shmem_team_translate_pe(evens, 1, world), 2);
               EXPECT_EQ(capi::shmem_team_translate_pe(world, 1, evens), -1);
               capi::shmem_team_sync(evens);

               auto* src = static_cast<long long*>(capi::shmem_malloc(8));
               auto* dst = static_cast<long long*>(capi::shmem_malloc(8));
               *src = ctx.my_pe() + 1;
               capi::shmem_team_sync(evens);
               capi::shmem_long_sum_reduce(evens, dst, src, 1);
               EXPECT_EQ(*dst, 4);  // PEs 0 and 2 contribute 1 + 3
               capi::shmem_team_destroy(evens);
             } else {
               EXPECT_EQ(evens, SHMEM_TEAM_INVALID);
               // Non-members still made the collective shmalloc calls.
               auto* src = static_cast<long long*>(capi::shmem_malloc(8));
               auto* dst = static_cast<long long*>(capi::shmem_malloc(8));
               *src = 0;
               *dst = 0;
             }
             ctx.barrier_all();
           });
}

}  // namespace
}  // namespace gdrshmem::core

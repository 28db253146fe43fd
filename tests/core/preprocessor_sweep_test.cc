/**
 * @file
 * Parameterized property sweeps over the preprocessor: the bin
 * invariants must hold for every (superblock size, stream shape)
 * combination, and the future-link rate must track stream reuse.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/preprocessor.hh"
#include "util/rng.hh"
#include "workload/generator.hh"

namespace laoram::core {
namespace {

struct SweepCase
{
    std::uint64_t superblock;
    workload::DatasetKind kind;
    /**
     * Explicit, zero-initialised padding. gtest names each case by
     * dumping the struct's bytes; implicit padding would leak stack
     * garbage into the name and make it differ from run to run.
     */
    std::uint8_t pad[4]{};
    std::uint64_t numBlocks;

    SweepCase(std::uint64_t s, workload::DatasetKind k, std::uint64_t n)
        : superblock(s), kind(k), numBlocks(n)
    {
    }
};
static_assert(sizeof(SweepCase) == 24,
              "SweepCase must have no implicit padding");

class PrepSweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(PrepSweep, BinInvariantsHold)
{
    const auto p = GetParam();
    const auto trace =
        workload::makeTrace(p.kind, p.numBlocks, 3000, 11);
    Preprocessor prep(PreprocessorConfig{p.superblock, 256}, 7);
    const auto res = prep.run(trace.accesses);

    std::uint64_t raw_total = 0;
    std::unordered_map<BlockId, Leaf> next_path_of;
    for (std::size_t i = res.bins.size(); i-- > 0;) {
        const auto &bin = res.bins[i];
        ASSERT_EQ(validateBin(bin), "") << "bin " << i;
        EXPECT_LE(bin.members.size(), p.superblock);
        raw_total += bin.rawAccesses;
        // Future-path metadata must equal the backward-scan oracle.
        for (std::size_t j = 0; j < bin.members.size(); ++j) {
            auto it = next_path_of.find(bin.members[j]);
            const Leaf expect = it == next_path_of.end()
                                    ? kNoFuturePath
                                    : it->second;
            ASSERT_EQ(bin.nextPaths[j], expect)
                << "bin " << i << " member " << j;
        }
        for (BlockId id : bin.members)
            next_path_of[id] = bin.path;
    }
    EXPECT_EQ(raw_total, trace.accesses.size());
}

TEST_P(PrepSweep, AllBinsButLastAreFull)
{
    const auto p = GetParam();
    const auto trace =
        workload::makeTrace(p.kind, p.numBlocks, 3000, 13);
    Preprocessor prep(PreprocessorConfig{p.superblock, 256}, 9);
    const auto res = prep.run(trace.accesses);
    for (std::size_t i = 0; i + 1 < res.bins.size(); ++i) {
        EXPECT_EQ(res.bins[i].members.size(), p.superblock)
            << "bin " << i;
    }
}

/** Members summed over bins, and the share of them with a future path. */
std::pair<std::uint64_t, double>
linkRate(const PreprocessResult &res)
{
    std::uint64_t members = 0;
    for (const auto &b : res.bins)
        members += b.members.size();
    const double rate = members == 0
        ? 0.0
        : static_cast<double>(res.futureLinked)
            / static_cast<double>(members);
    return {members, rate};
}

TEST_P(PrepSweep, FutureLinkRateTracksReuse)
{
    // Every member but a block's last occurrence has a later bin to link
    // to, so the link count is members minus distinct blocks: the rate
    // follows the stream's reuse, and a no-reuse stream (permutation
    // within one epoch) links nothing.
    const auto p = GetParam();
    Preprocessor prep(PreprocessorConfig{p.superblock, 256}, 3);

    const auto hot =
        workload::makeTrace(p.kind, p.numBlocks, 3000, 17);
    const auto res_hot = prep.run(hot.accesses);
    const auto [hot_members, hot_rate] = linkRate(res_hot);
    const std::unordered_set<BlockId> distinct(hot.accesses.begin(),
                                               hot.accesses.end());
    EXPECT_EQ(res_hot.futureLinked, hot_members - distinct.size());

    const auto cold = workload::makeTrace(
        workload::DatasetKind::Permutation, 60000, 3000, 17);
    const auto res_cold = prep.run(cold.accesses);
    EXPECT_EQ(res_cold.futureLinked, 0u);

    // Repeats merged inside one bin lower the rate below the stream's raw
    // reuse fraction, but with 3000 accesses and superblocks of at most
    // 16 they are rare: high-reuse streams (xnli) still link a far larger
    // member fraction than the no-reuse stream.
    const double reuse = 1.0
        - static_cast<double>(distinct.size())
            / static_cast<double>(hot.accesses.size());
    EXPECT_LE(hot_rate, reuse);
    EXPECT_GE(hot_rate, 0.9 * reuse);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PrepSweep,
    ::testing::Values(
        SweepCase{1, workload::DatasetKind::Kaggle, 1 << 14},
        SweepCase{2, workload::DatasetKind::Kaggle, 1 << 14},
        SweepCase{4, workload::DatasetKind::Kaggle, 1 << 14},
        SweepCase{8, workload::DatasetKind::Kaggle, 1 << 14},
        SweepCase{16, workload::DatasetKind::Kaggle, 1 << 14},
        SweepCase{4, workload::DatasetKind::Permutation, 1 << 12},
        SweepCase{4, workload::DatasetKind::Gaussian, 1 << 12},
        SweepCase{4, workload::DatasetKind::Xnli, 1 << 12},
        SweepCase{8, workload::DatasetKind::Xnli, 1 << 12}));

} // namespace
} // namespace laoram::core

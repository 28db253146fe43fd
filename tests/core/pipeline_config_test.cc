/**
 * @file
 * PipelineConfig validation: the validate() pass that rejects
 * incoherent knob combinations with a clear fatal error instead of
 * silent fallback.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"

namespace laoram::core {
namespace {

TEST(PipelineConfig, DefaultsValidate)
{
    PipelineConfig pc;
    pc.validate(); // must not exit
    pc.mode = PipelineMode::Simulated;
    pc.validate();
    pc.mode = PipelineMode::Concurrent;
    pc.prepThreads = 8;
    pc.queueDepth = 1;
    pc.validate();
}

TEST(PipelineConfigDeathTest, RejectsZeroWindow)
{
    PipelineConfig pc;
    pc.windowAccesses = 0;
    EXPECT_EXIT(pc.validate(), ::testing::ExitedWithCode(1),
                "windowAccesses");
}

TEST(PipelineConfigDeathTest, RejectsZeroQueueDepth)
{
    PipelineConfig pc;
    pc.queueDepth = 0;
    EXPECT_EXIT(pc.validate(), ::testing::ExitedWithCode(1),
                "queueDepth");
}

TEST(PipelineConfigDeathTest, RejectsZeroPrepThreads)
{
    PipelineConfig pc;
    pc.prepThreads = 0;
    EXPECT_EXIT(pc.validate(), ::testing::ExitedWithCode(1),
                "prepThreads");
}

TEST(PipelineConfigDeathTest, RejectsNegativeCosts)
{
    PipelineConfig cost;
    cost.preprocessNsPerAccess = -1.0;
    EXPECT_EXIT(cost.validate(), ::testing::ExitedWithCode(1),
                "preprocessNsPerAccess");
    PipelineConfig load;
    load.prepLoadNsPerAccess = -1.0;
    EXPECT_EXIT(load.validate(), ::testing::ExitedWithCode(1),
                "prepLoadNsPerAccess");
}

TEST(PipelineConfigDeathTest, RejectsSimulatedWithPrepPool)
{
    // Simulated mode spawns no threads; a pool request would be
    // silently ignored — exactly the fallback validate() forbids.
    PipelineConfig pc;
    pc.mode = PipelineMode::Simulated;
    pc.prepThreads = 4;
    EXPECT_EXIT(pc.validate(), ::testing::ExitedWithCode(1),
                "Simulated");
}

TEST(PipelineConfigDeathTest, RejectsSimulatedWithPrepLoad)
{
    PipelineConfig pc;
    pc.mode = PipelineMode::Simulated;
    pc.prepLoadNsPerAccess = 10.0;
    EXPECT_EXIT(pc.validate(), ::testing::ExitedWithCode(1),
                "prepLoadNsPerAccess");
}

TEST(PipelineConfigDeathTest, BatchPipelineValidatesOnConstruction)
{
    LaoramConfig cfg;
    cfg.base.numBlocks = 64;
    cfg.base.seed = 3;
    Laoram engine(cfg);
    PipelineConfig pc;
    pc.mode = PipelineMode::Simulated;
    pc.prepThreads = 2;
    EXPECT_EXIT(
        {
            BatchPipeline pipe(engine, pc);
            (void)pipe;
        },
        ::testing::ExitedWithCode(1), "Simulated");
}

} // namespace
} // namespace laoram::core

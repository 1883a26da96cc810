/**
 * @file
 * Bitwise pins for both chain-placement advisors: the single-server
 * search on decompress -> REM -> KVS under a tight p99, and the rack
 * search on a double REM scan that only a rack-spanning placement
 * can serve. Each pin covers the picks, the rationale, the full
 * heuristic-key candidate order, and every DES-evaluated candidate's
 * capacity, p99, watts and TCO as hexfloats, so any change to how
 * the search enumerates, ranks, simulates or prices shows up here as
 * an exact mismatch.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "core/advisor.hh"

using namespace snic;
using namespace snic::core;

namespace {

constexpr hw::Platform H = hw::Platform::HostCpu;
constexpr hw::Platform S = hw::Platform::SnicCpu;
constexpr hw::Platform E = hw::Platform::SnicAccel;

/** One candidate, in heuristic-key order. */
struct CandidatePin
{
    std::vector<hw::Platform> where;
    /** Rack members (empty for the single-server advisor). */
    std::vector<unsigned> member;
    double combinedKey;
    bool evaluated;
    // DES results; zero when not evaluated.
    double capacityGbps;
    double p99Us;
    double watts;
    double tco5yrUsd;
    unsigned serversForDemand;
    bool meetsSlo;
};

/** Check the fields both candidate types share. */
template <typename Candidate>
void
expectCandidate(const Candidate &c, double watts, const CandidatePin &pin)
{
    EXPECT_EQ(c.where, pin.where);
    EXPECT_EQ(c.key.combined, pin.combinedKey);
    EXPECT_EQ(c.evaluated, pin.evaluated);
    EXPECT_EQ(c.capacityGbps, pin.capacityGbps);
    EXPECT_EQ(c.p99Us, pin.p99Us);
    EXPECT_EQ(watts, pin.watts);
    EXPECT_EQ(c.tco5yrUsd, pin.tco5yrUsd);
    EXPECT_EQ(c.serversForDemand, pin.serversForDemand);
    EXPECT_EQ(c.meetsSlo, pin.meetsSlo);
}

} // anonymous namespace

TEST(AdvisorPins, ChainDecompressScanStoreTightP99)
{
    ChainAdvisorOptions opts;
    opts.desBudget = 2;
    opts.targetSamples = 400;
    const ChainAdvice a = adviseChainPlacement(
        {"comp_app_dec", "rem_exe", "redis_a"}, SloConstraint{60.0, 1.0},
        opts);

    EXPECT_EQ(a.heuristicPick, 0);
    EXPECT_EQ(a.desPick, 1);
    EXPECT_TRUE(a.sloFeasible);
    EXPECT_EQ(a.rationale,
              "DES-backed pick host+host+host meets the SLO; the "
              "heuristic baseline snic_accel+snic_accel+snic_cpu does "
              "not");

    const CandidatePin pins[] = {
        {{E, E, S}, {}, 0x1.24cbdbde4b9ep-8, true, 0x1.b02ca38d7868fp+5,
         0x1.23810e8858ff7p+7, 0x1.00e38f325163p+8,
         0x1.d1515ef111378p+14, 3, false},
        {{H, H, H}, {}, 0x1.ddc04f413d27dp-5, true, 0x1.7fc7607c419ap+6,
         0x1.f10667f90d9d7p+4, 0x1.3510731da502ap+8,
         0x1.372ff880619dcp+14, 2, true},
        {{E, E, H}, {}, 0x1.08f01530ceb3dp-3, false, 0, 0, 0, 0, 0, false},
        {{E, H, H}, {}, 0x1.0c0ed75ca0283p-3, false, 0, 0, 0, 0, 0, false},
        {{H, E, S}, {}, 0x1.70d6e35efa64ep-3, false, 0, 0, 0, 0, 0, false},
        {{H, H, S}, {}, 0x1.7660ddc640766p-3, false, 0, 0, 0, 0, 0, false},
        {{E, H, S}, {}, 0x1.14597bbbb6c71p-2, false, 0, 0, 0, 0, 0, false},
        {{H, E, H}, {}, 0x1.4aff42a727963p-2, false, 0, 0, 0, 0, 0, false},
        {{S, E, S}, {}, 0x1.7f384f750ba2ep-1, false, 0, 0, 0, 0, 0, false},
        {{S, E, H}, {}, 0x1.be498a35924a6p-1, false, 0, 0, 0, 0, 0, false},
        {{S, H, H}, {}, 0x1.bee58906326e8p-1, false, 0, 0, 0, 0, 0, false},
        {{S, H, S}, {}, 0x1.ffd44e45abc72p-1, false, 0, 0, 0, 0, 0, false},
    };
    ASSERT_EQ(a.candidates.size(), std::size(pins));
    for (std::size_t i = 0; i < std::size(pins); ++i) {
        SCOPED_TRACE(i);
        expectCandidate(a.candidates[i], a.candidates[i].serverWatts,
                        pins[i]);
    }
}

TEST(AdvisorPins, RackDoubleRemScanPerUnitFloor)
{
    RackChainAdvisorOptions opts;
    opts.maxMembers = 2;
    opts.desBudget = 2;
    opts.targetSamples = 400;
    const RackChainAdvice a = adviseRackChainPlacement(
        {"rem_img", "rem_img"}, SloConstraint{150.0, 25.0}, opts);

    EXPECT_EQ(a.heuristicPick, 1);
    EXPECT_EQ(a.desPick, 1);
    EXPECT_TRUE(a.sloFeasible);
    EXPECT_EQ(a.rationale,
              "DES-backed pick snic_accel@0+snic_accel@1 (rack-spanning) "
              "meets the SLO (agrees with the heuristic baseline)");
    EXPECT_EQ(a.enumerated, 8u);
    EXPECT_EQ(a.desEligible, 8u);

    const CandidatePin pins[] = {
        {{E, E}, {0, 0}, 0x1.aac498b6e20edp-3, false, 0, 0, 0, 0, 0,
         false},
        {{E, E}, {0, 1}, 0x1p-2, true, 0x1.44ef240fa9c13p+5,
         0x1.98f1d3ed527e5p+5, 0x1.fd0ccb12e816p+8,
         0x1.35b00f5a5a8f5p+16, 8, true},
        {{H, E}, {0, 0}, 0x1.954ed9d2477c6p-2, false, 0, 0, 0, 0, 0,
         false},
        {{E, H}, {0, 0}, 0x1.954ed9d2477c6p-2, false, 0, 0, 0, 0, 0,
         false},
        {{H, E}, {0, 1}, 0x1.0aa76ce923be3p-1, false, 0, 0, 0, 0, 0,
         false},
        {{E, H}, {0, 1}, 0x1.0aa76ce923be3p-1, false, 0, 0, 0, 0, 0,
         false},
        {{H, H}, {0, 1}, 0x1.577439b5f08bp-1, false, 0, 0, 0, 0, 0,
         false},
        // The all-host anchor: a single-member candidate.
        {{H, H}, {0, 0}, 0x1.8p-1, true, 0x1.4b78cc9a77e5fp+3,
         0x1.cb46bacf7446fp+4, 0x1.435920c856c05p+8,
         0x1.130f71ba98386p+17, 14, false},
    };
    ASSERT_EQ(a.candidates.size(), std::size(pins));
    for (std::size_t i = 0; i < std::size(pins); ++i) {
        SCOPED_TRACE(i);
        const RackChainPlacementCandidate &c = a.candidates[i];
        EXPECT_EQ(c.member, pins[i].member);
        expectCandidate(c, c.rackWatts, pins[i]);
    }
}

/**
 * @file
 * Program content identity: the digest that keys snapshots, pipe
 * traces and the on-disk result cache. Golden values pin the exact
 * byte stream (existing FF_CACHE_DIR entries must keep hitting), and
 * the memo on isa::Program must follow every data-image change, ride
 * along with copies, and be safe to fill from many threads at once.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hh"
#include "sim/harness.hh"
#include "sim/metrics.hh"
#include "sim/pipe_trace.hh"
#include "sim/result_cache.hh"
#include "sim/snapshot.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ff;

const workloads::Workload &
mcf100()
{
    static const workloads::Workload w =
        workloads::buildWorkload("181.mcf", 100);
    return w;
}

/** A byte inside the first page of @p prog's data image. */
Addr
firstDataByte(const isa::Program &prog)
{
    return prog.dataImage().pages().begin()->first + 8;
}

TEST(ContentHash, GoldenScheduledMcf)
{
    // Scheduled 181.mcf at scale 100: a 4 MiB data image, the largest
    // the cache keys.
    const isa::Program prog = mcf100().program;
    EXPECT_EQ(sim::programContentHash(prog), 0xec89b67842cb8b20ULL);
    EXPECT_EQ(sim::resultCacheKey(prog, sim::CpuKind::kTwoPass,
                                  sim::table1Config(),
                                  sim::kDefaultMaxCycles),
              "1644fafd9bb0ffd06f8b9a959d039d43"
              "78126714095aa051765828f2332e21d8");
}

TEST(ContentHash, GoldenPipeTraceBytes)
{
    // The FFPT container of a small traced 2P run, byte for byte.
    const workloads::Workload w = workloads::buildWorkload("181.mcf", 6);
    const cpu::CoreConfig cfg = sim::table1Config();
    sim::MetricsOptions opt;
    opt.pipeview = true;
    const sim::SimOutcome o =
        sim::simulate(w.program, sim::CpuKind::kTwoPass, cfg,
                      sim::kDefaultMaxCycles, opt);
    ASSERT_TRUE(o.metrics);
    const sim::PipeTrace t = sim::buildPipeTrace(
        w.program, cfg, sim::CpuKind::kTwoPass, o.run.cycles,
        o.metrics->pipeEvents, o.metrics->pipeDropped, w.name);
    const std::vector<std::uint8_t> bytes = sim::encodePipeTrace(t);
    EXPECT_EQ(Sha256::hex(bytes.data(), bytes.size()),
              "1aacd86fccd30351dbee75d67408a910"
              "93b84c29e4bd98704e3a52f544b77d84");
}

TEST(ContentHash, PokeAfterHashingChangesDigestAndCopiesFollow)
{
    isa::Program a = mcf100().program;
    const Addr addr = firstDataByte(a);
    const std::uint8_t old = a.dataImage().read(addr);
    const std::uint64_t before = sim::programContentHash(a);
    const isa::Program copy = a; // carries the filled memo along
    EXPECT_EQ(sim::programContentHash(copy), before);

    const std::uint8_t flipped = old ^ 0x5a;
    a.pokeBytes(addr, &flipped, 1);
    const std::uint64_t after = sim::programContentHash(a);
    EXPECT_NE(after, before);
    EXPECT_EQ(sim::programContentHash(copy), before);

    // A copy taken after the poke agrees with the poked original, and
    // writing the old bytes back restores the old identity.
    const isa::Program poked = a;
    EXPECT_EQ(sim::programContentHash(poked), after);
    a.pokeBytes(addr, &old, 1);
    EXPECT_EQ(sim::programContentHash(a), before);

    isa::Program assigned;
    assigned = poked;
    EXPECT_EQ(sim::programContentHash(assigned), after);
}

TEST(ContentHash, ConcurrentFirstUseAgrees)
{
    // Eight threads race to fill the memo of one fresh program; every
    // one must see the single-threaded digest (run under TSan in CI).
    const isa::Program reference = mcf100().program;
    const std::uint64_t want = sim::programContentHash(reference);
    const Addr addr = firstDataByte(reference);
    const std::uint8_t same = reference.dataImage().read(addr);
    for (int round = 0; round < 3; ++round) {
        isa::Program fresh = reference;
        fresh.pokeBytes(addr, &same, 1); // drops the memo, same bytes
        std::vector<std::uint64_t> got(8, 0);
        std::vector<std::thread> threads;
        threads.reserve(got.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            threads.emplace_back([&fresh, &got, i] {
                got[i] = sim::programContentHash(fresh);
            });
        for (std::thread &th : threads)
            th.join();
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], want) << "thread " << i;
    }
}

} // namespace

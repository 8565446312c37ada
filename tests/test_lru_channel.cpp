/**
 * @file
 * Tests for the sender/receiver protocol state machines, driven
 * manually (no scheduler) so the exact op sequences of Algorithms 1-3
 * can be asserted.  The sampling-clock check runs over every receiver
 * design, not only the LRU one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "channel/dirty_channel.hpp"
#include "channel/flush_reload.hpp"
#include "channel/lru_channel.hpp"
#include "channel/multi_spy.hpp"
#include "channel/prime_probe.hpp"

using namespace lruleak;
using namespace lruleak::channel;
using exec::Op;
using exec::OpKind;
using exec::OpResult;

namespace {

/** Feed a fake L1-hit result back for an access op. */
void
ack(exec::ThreadProgram &prog, const Op &op, std::uint64_t now,
    std::uint32_t measured = 35)
{
    OpResult res;
    res.kind = op.kind;
    res.level = sim::HitLevel::L1;
    res.measured = measured;
    res.tsc = now;
    prog.onResult(res);
}

} // namespace

TEST(Receiver, Algorithm1OpSequence)
{
    const ChannelLayout layout;
    ReceiverConfig cfg;
    cfg.alg = LruAlgorithm::Alg1Shared;
    cfg.d = 8;
    cfg.tr = 600;
    cfg.max_samples = 2;
    LruReceiver recv(layout, cfg);

    std::uint64_t now = 0;

    // Prewarm: 7 chase accesses.
    for (int i = 0; i < 7; ++i) {
        const Op op = recv.next(now);
        ASSERT_EQ(op.kind, OpKind::Access);
        EXPECT_EQ(layout.layout().setIndex(op.ref.vaddr),
                  layout.chaseSet());
        ack(recv, op, now);
        now += 15;
    }

    // Init: lines 0..d-1 of the target set, in order.
    for (std::uint32_t i = 0; i < 8; ++i) {
        const Op op = recv.next(now);
        ASSERT_EQ(op.kind, OpKind::Access);
        EXPECT_EQ(layout.layout().setIndex(op.ref.vaddr),
                  layout.targetSet());
        EXPECT_EQ(op.ref.paddr,
                  layout.receiverLine(cfg.alg, i).paddr)
            << "init must walk lines in order, i = " << i;
        ack(recv, op, now);
        now += 15;
    }

    // Sleep until Tlast + Tr.
    const Op sleep = recv.next(now);
    ASSERT_EQ(sleep.kind, OpKind::SpinUntil);
    now = sleep.until;

    // Decode: Algorithm 1 walks lines d..N (just line 8 for d = 8).
    const Op decode = recv.next(now);
    ASSERT_EQ(decode.kind, OpKind::Access);
    EXPECT_EQ(decode.ref.paddr, layout.receiverLine(cfg.alg, 8).paddr);
    ack(recv, decode, now);

    // Chain warm (7 accesses) then the timed measure of line 0.
    for (int i = 0; i < 7; ++i) {
        const Op op = recv.next(now);
        ASSERT_EQ(op.kind, OpKind::Access);
        ack(recv, op, now);
    }
    const Op measure = recv.next(now);
    ASSERT_EQ(measure.kind, OpKind::Measure);
    EXPECT_EQ(measure.ref.paddr, layout.receiverLine(cfg.alg, 0).paddr);
    EXPECT_EQ(measure.chain_levels.size(), 7u);
    ack(recv, measure, now, 35);

    ASSERT_EQ(recv.samples().size(), 1u);
    EXPECT_EQ(recv.samples()[0].latency, 35u);
}

TEST(Receiver, Algorithm2DecodeStopsAtNMinus1)
{
    const ChannelLayout layout;
    ReceiverConfig cfg;
    cfg.alg = LruAlgorithm::Alg2Disjoint;
    cfg.d = 4;
    cfg.max_samples = 1;
    LruReceiver recv(layout, cfg);

    std::uint64_t now = 0;
    for (int i = 0; i < 7; ++i)
        ack(recv, recv.next(now), now); // prewarm
    for (int i = 0; i < 4; ++i)
        ack(recv, recv.next(now), now); // init 0..3
    const Op sleep = recv.next(now);
    ASSERT_EQ(sleep.kind, OpKind::SpinUntil);
    now = sleep.until;
    // Decode: lines 4..7 only (N-d = 4 accesses).
    for (std::uint32_t i = 4; i < 8; ++i) {
        const Op op = recv.next(now);
        ASSERT_EQ(op.kind, OpKind::Access);
        EXPECT_EQ(op.ref.paddr, layout.receiverLine(cfg.alg, i).paddr);
        ack(recv, op, now);
    }
    // Next op batch: chain warm, not another decode access.
    const Op op = recv.next(now);
    ASSERT_EQ(op.kind, OpKind::Access);
    EXPECT_EQ(layout.layout().setIndex(op.ref.vaddr), layout.chaseSet());
}

TEST(Receiver, StopsAfterMaxSamples)
{
    const ChannelLayout layout;
    ReceiverConfig cfg;
    cfg.max_samples = 1;
    LruReceiver recv(layout, cfg);
    std::uint64_t now = 0;
    for (int guard = 0; guard < 100; ++guard) {
        const Op op = recv.next(now);
        if (op.kind == OpKind::Done)
            break;
        if (op.kind == OpKind::SpinUntil) {
            now = op.until;
            continue;
        }
        ack(recv, op, now);
        now += 15;
    }
    EXPECT_EQ(recv.samples().size(), 1u);
    EXPECT_EQ(recv.next(now).kind, OpKind::Done);
}

// ------------------------------------------------ the sampling clock

namespace {

/** One receiver design under the Algorithm 3 clock test. */
struct ClockCase
{
    const char *name;
    std::function<std::unique_ptr<Receiver>(const SamplingConfig &)> make;
    /**
     * Tlast before the first wait, when every op costs one cycle from
     * TSC 0: LRU marks at the end of prewarm, F+R at the flush-init
     * step, spy j at Tr * j / K past its prewarm, the others at 0.
     */
    std::uint64_t first_mark;
    /** Samples one iteration records (a holder spy: its slice). */
    std::uint64_t samples_per_iteration;
};

void
PrintTo(const ClockCase &c, std::ostream *os)
{
    *os << c.name;
}

constexpr std::uint64_t kTr = 1000;

/**
 * Step @p recv, every access or readout costing one cycle, until it
 * yields a spin or Done; @p nows collects the TSC of every call.
 */
Op
stepToSpin(Receiver &recv, std::uint64_t &now,
           std::vector<std::uint64_t> &nows)
{
    for (int guard = 0; guard < 1000; ++guard) {
        nows.push_back(now);
        const Op op = recv.next(now);
        if (op.kind == OpKind::SpinUntil || op.kind == OpKind::Done)
            return op;
        ack(recv, op, now);
        ++now;
    }
    ADD_FAILURE() << "receiver never waited";
    return Op::done();
}

std::unique_ptr<Receiver>
makeSpy(const SamplingConfig &clock, std::uint32_t index, bool pinned)
{
    static const ChannelLayout layout;
    return std::make_unique<SpyReceiver>(
        layout, MultiSpyConfig{clock, 3, pinned}, index);
}

const ClockCase kClockCases[] = {
    {"LruAlg1",
     [](const SamplingConfig &c) -> std::unique_ptr<Receiver> {
         return std::make_unique<LruReceiver>(
             ChannelLayout{}, ReceiverConfig{c, LruAlgorithm::Alg1Shared, 8});
     },
     7, 1},
    {"LruAlg2",
     [](const SamplingConfig &c) -> std::unique_ptr<Receiver> {
         return std::make_unique<LruReceiver>(
             ChannelLayout{},
             ReceiverConfig{c, LruAlgorithm::Alg2Disjoint, 5});
     },
     7, 1},
    {"FlushReloadMem",
     [](const SamplingConfig &c) -> std::unique_ptr<Receiver> {
         return std::make_unique<FrReceiver>(
             ChannelLayout{}, FrReceiverConfig{c, FlushKind::ToMemory});
     },
     7, 1},
    {"FlushReloadL1", // 7 chase + 8 eviction accesses before the mark
     [](const SamplingConfig &c) -> std::unique_ptr<Receiver> {
         return std::make_unique<FrReceiver>(
             ChannelLayout{}, FrReceiverConfig{c, FlushKind::FromL1});
     },
     15, 1},
    {"PrimeProbe",
     [](const SamplingConfig &c) -> std::unique_ptr<Receiver> {
         return std::make_unique<PpReceiver>(ChannelLayout{}, c);
     },
     0, 1},
    {"DirtyEvict",
     [](const SamplingConfig &c) -> std::unique_ptr<Receiver> {
         return std::make_unique<DirtyEvictReceiver>(ChannelLayout{}, c);
     },
     0, 1},
    {"FlushDirty",
     [](const SamplingConfig &c) -> std::unique_ptr<Receiver> {
         return std::make_unique<FlushDirtyReceiver>(ChannelLayout{}, c);
     },
     0, 1},
    // A team of three on the 8-way L1: holders 0 and 1 split the first
    // seven probe lines 3 + 4, spy 2 is the trigger (one canary access
    // of prewarm before its mark).
    {"SpyHolder0",
     [](const SamplingConfig &c) { return makeSpy(c, 0, false); }, 0, 3},
    {"SpyHolder1Pinned",
     [](const SamplingConfig &c) { return makeSpy(c, 1, true); },
     kTr * 1 / 3, 4},
    {"SpyTrigger",
     [](const SamplingConfig &c) { return makeSpy(c, 2, false); },
     1 + kTr * 2 / 3, 1},
    {"SpyTriggerPinned",
     [](const SamplingConfig &c) { return makeSpy(c, 2, true); },
     1 + kTr * 2 / 3, 1},
};

class ReceiverClock : public ::testing::TestWithParam<ClockCase>
{};

} // namespace

TEST_P(ReceiverClock, WaitsForTlastPlusTrSnapsWhenLateStopsOnBudget)
{
    // Algorithm 3 for every receiver: spin until Tlast + Tr; a receiver
    // already past the deadline does not spin and takes now as Tlast;
    // stop once the budget is spent (for spies: iterations).
    const ClockCase &c = GetParam();
    constexpr std::uint64_t kBudget = 8;
    const auto recv = c.make(SamplingConfig{kTr, kBudget});
    std::uint64_t now = 0;
    std::vector<std::uint64_t> nows;

    // On time: each deadline is the previous one (Tlast) plus Tr.
    std::uint64_t tlast = c.first_mark;
    for (int k = 0; k < 3; ++k) {
        const Op spin = stepToSpin(*recv, now, nows);
        ASSERT_EQ(spin.kind, OpKind::SpinUntil) << "wait " << k;
        EXPECT_EQ(spin.until, tlast + kTr) << "wait " << k;
        tlast = spin.until;
        now = spin.until;
    }

    // Wake five periods late: the next wait finds its deadline passed,
    // so Tlast snaps to the TSC of that call instead of catching up on
    // the old grid, and the following wait ends one Tr after it.
    const std::uint64_t wake = now + 5 * kTr + 3;
    now = wake;
    nows.clear();
    const Op spin = stepToSpin(*recv, now, nows);
    ASSERT_EQ(spin.kind, OpKind::SpinUntil);
    const std::uint64_t snapped = spin.until - kTr;
    EXPECT_GT(snapped, wake);
    EXPECT_NE(std::find(nows.begin(), nows.end(), snapped), nows.end())
        << "Tlast " << snapped << " is not a TSC the receiver ran at";
    now = spin.until;

    // Run out the budget.
    for (int guard = 0; guard < 100; ++guard) {
        const Op op = stepToSpin(*recv, now, nows);
        if (op.kind == OpKind::Done)
            break;
        now = op.until;
    }
    EXPECT_EQ(recv->samples().size(), kBudget * c.samples_per_iteration);
    EXPECT_EQ(recv->next(now).kind, OpKind::Done);
    EXPECT_EQ(recv->next(now + kTr).kind, OpKind::Done);
}

INSTANTIATE_TEST_SUITE_P(
    AllReceivers, ReceiverClock, ::testing::ValuesIn(kClockCases),
    [](const ::testing::TestParamInfo<ClockCase> &info) {
        return std::string(info.param.name);
    });

TEST(Sender, SendsOneWhenBitIsOne)
{
    const ChannelLayout layout;
    SenderConfig cfg;
    cfg.message = Bits{1};
    cfg.ts = 1000;
    cfg.encode_gap = 100;
    cfg.stack_lines = 0;
    LruSender sender(layout, cfg);

    std::uint64_t now = 0;
    const Op prewarm = sender.next(now);
    ASSERT_EQ(prewarm.kind, OpKind::Access);
    EXPECT_EQ(prewarm.ref.paddr,
              layout.senderLine(LruAlgorithm::Alg1Shared).paddr);

    // Encode iterations: access line 0, spin, repeat until Ts expires.
    int encodes = 0;
    for (int guard = 0; guard < 100; ++guard) {
        const Op op = sender.next(now);
        if (op.kind == OpKind::Done)
            break;
        if (op.kind == OpKind::SpinUntil) {
            now = op.until;
            continue;
        }
        ASSERT_EQ(op.kind, OpKind::Access);
        EXPECT_EQ(op.ref.paddr,
                  layout.senderLine(LruAlgorithm::Alg1Shared).paddr);
        ++encodes;
        ack(sender, op, now);
        now += 10;
    }
    // Ts = 1000, gap = 100: about ten encode accesses.
    EXPECT_GE(encodes, 8);
    EXPECT_LE(encodes, 12);
}

TEST(Sender, SilentWhenBitIsZero)
{
    const ChannelLayout layout;
    SenderConfig cfg;
    cfg.message = Bits{0};
    cfg.ts = 1000;
    cfg.encode_gap = 100;
    cfg.stack_lines = 0;
    cfg.prewarm = false;
    LruSender sender(layout, cfg);

    std::uint64_t now = 0;
    for (int guard = 0; guard < 100; ++guard) {
        const Op op = sender.next(now);
        if (op.kind == OpKind::Done)
            break;
        ASSERT_NE(op.kind, OpKind::Access)
            << "sending 0 must not touch the target set";
        if (op.kind == OpKind::SpinUntil)
            now = op.until;
    }
}

TEST(Sender, StackWorkDoesNotTouchTargetSet)
{
    const ChannelLayout layout;
    SenderConfig cfg;
    cfg.message = Bits{0, 1};
    cfg.ts = 500;
    cfg.encode_gap = 100;
    cfg.stack_lines = 3;
    cfg.prewarm = false;
    LruSender sender(layout, cfg);

    std::uint64_t now = 0;
    const auto sender_line = layout.senderLine(cfg.alg);
    for (int guard = 0; guard < 200; ++guard) {
        const Op op = sender.next(now);
        if (op.kind == OpKind::Done)
            break;
        if (op.kind == OpKind::SpinUntil) {
            now = op.until;
            continue;
        }
        if (op.ref.paddr != sender_line.paddr) {
            EXPECT_NE(layout.layout().setIndex(op.ref.vaddr),
                      layout.targetSet())
                << "stack accesses must avoid the target set";
        }
        ack(sender, op, now);
        now += 10;
    }
}

TEST(Sender, BitPacingFollowsTs)
{
    const ChannelLayout layout;
    SenderConfig cfg;
    cfg.message = Bits{1, 0, 1};
    cfg.ts = 1000;
    cfg.encode_gap = 200;
    cfg.stack_lines = 0;
    cfg.prewarm = false;
    LruSender sender(layout, cfg);

    std::uint64_t now = 0;
    std::vector<std::uint64_t> encode_times;
    for (int guard = 0; guard < 300; ++guard) {
        const Op op = sender.next(now);
        if (op.kind == OpKind::Done)
            break;
        if (op.kind == OpKind::SpinUntil) {
            now = op.until;
            continue;
        }
        encode_times.push_back(now);
        ack(sender, op, now);
        now += 10;
    }
    const auto start = sender.startTsc();
    for (auto t : encode_times) {
        const auto bit = (t - start) / cfg.ts;
        EXPECT_NE(bit, 1u) << "no encode accesses during the 0 bit";
        EXPECT_LT(bit, 3u);
    }
}

TEST(Sender, SentBitsRepeats)
{
    const ChannelLayout layout;
    SenderConfig cfg;
    cfg.message = Bits{1, 0};
    cfg.repeats = 3;
    LruSender sender(layout, cfg);
    EXPECT_EQ(bitsToString(sender.sentBits()), "101010");
}

TEST(Sender, LockRequestOnPrewarm)
{
    const ChannelLayout layout;
    SenderConfig cfg;
    cfg.message = Bits{1};
    cfg.lock_line = true;
    LruSender sender(layout, cfg);
    const Op op = sender.next(0);
    ASSERT_EQ(op.kind, OpKind::Access);
    EXPECT_EQ(op.lock_req, sim::LockReq::Lock);
}

TEST(Sender, EncodeLevelsRecorded)
{
    const ChannelLayout layout;
    SenderConfig cfg;
    cfg.message = Bits{1};
    cfg.ts = 300;
    cfg.encode_gap = 100;
    cfg.stack_lines = 0;
    cfg.prewarm = false;
    LruSender sender(layout, cfg);
    std::uint64_t now = 0;
    for (int guard = 0; guard < 50; ++guard) {
        const Op op = sender.next(now);
        if (op.kind == OpKind::Done)
            break;
        if (op.kind == OpKind::SpinUntil) {
            now = op.until;
            continue;
        }
        ack(sender, op, now);
        now += 10;
    }
    EXPECT_FALSE(sender.encodeLevels().empty());
    for (auto level : sender.encodeLevels())
        EXPECT_EQ(level, sim::HitLevel::L1);
}

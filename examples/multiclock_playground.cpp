/**
 * @file
 * Multi-clock playground: the paper's Figure 4 example, built on the
 * public event-driven engine API.
 *
 * Three clock domains with periods 2 ns, 3 ns and 2.5 ns (phases 0.5,
 * 1.0 and 0.0 ns) tick side by side; domains 1 and 3 exchange tokens
 * through an asynchronous FIFO so you can watch the synchronizer
 * latency and the full/empty flag conservatism in action.
 *
 * Usage: multiclock_playground [ns-to-simulate]
 */

#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>

#include "core/channel.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"

using namespace gals;

namespace
{

/** @p text as a positive whole number of nanoseconds that fits in
 *  ticks, or false: "8x", "-1", "" and overflowing values are
 *  rejected rather than read as a prefix or wrapped. */
bool
parseNanoseconds(const char *text, Tick &ns)
{
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, ns);
    return ec == std::errc() && ptr == end && ns > 0 &&
           ns <= std::numeric_limits<Tick>::max() / 1000;
}

} // namespace

int
main(int argc, char **argv)
{
    Tick ns = 20;
    if (argc > 2 || (argc == 2 && !parseNanoseconds(argv[1], ns))) {
        std::fprintf(stderr,
                     "usage: multiclock_playground [ns-to-simulate]\n"
                     "  ns-to-simulate: a positive whole number "
                     "(default 20)\n");
        return 2;
    }
    const Tick horizon = ns * 1000;

    EventQueue eq("playground");

    // The three clocks of paper Figure 4 (picosecond ticks).
    ClockDomain clk1(eq, "clock1", 2000, 500);
    ClockDomain clk2(eq, "clock2", 3000, 1000);
    ClockDomain clk3(eq, "clock3", 2500, 0);

    // An asynchronous FIFO from domain 1 to domain 3.
    Channel<int> fifo("fifo.1to3", ChannelMode::asyncFifo, clk1, clk3,
                      4, 2);

    int next_token = 0;
    clk1.addTicker([&] {
        std::printf("%7.1f ns  clock1 edge (cycle %llu)",
                    eq.now() / 1000.0,
                    static_cast<unsigned long long>(clk1.cycle()));
        if (fifo.canPush()) {
            fifo.push(next_token);
            std::printf("  -> push token %d", next_token);
            ++next_token;
        } else {
            std::printf("  (fifo full-flag set)");
        }
        std::printf("\n");
    });

    clk2.addTicker([&] {
        std::printf("%7.1f ns  clock2 edge (cycle %llu)\n",
                    eq.now() / 1000.0,
                    static_cast<unsigned long long>(clk2.cycle()));
    });

    clk3.addTicker([&] {
        std::printf("%7.1f ns  clock3 edge (cycle %llu)",
                    eq.now() / 1000.0,
                    static_cast<unsigned long long>(clk3.cycle()));
        while (!fifo.empty()) {
            std::printf("  <- pop token %d (waited %.1f ns)",
                        fifo.front(),
                        (eq.now() - fifo.frontPushTick()) / 1000.0);
            fifo.pop();
        }
        std::printf("\n");
    });

    clk1.start();
    clk2.start();
    clk3.start();
    eq.runUntil(horizon);

    std::printf("\nprocessed %llu events; fifo moved %llu tokens, "
                "mean residency %.2f ns\n",
                static_cast<unsigned long long>(eq.processedCount()),
                static_cast<unsigned long long>(fifo.pops()),
                fifo.pops() ? fifo.totalResidency() / 1000.0 /
                                  static_cast<double>(fifo.pops())
                            : 0.0);
    return 0;
}

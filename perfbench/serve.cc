/**
 * @file
 * serve-zipf-node: online serving of an encrypted embedding table
 * whose ORAM tree lives on a laoram_node over loopback TCP, driven by
 * one open-loop generator thread.
 *
 * Phases, all against one ServeFrontend:
 *   warm-up     reference rate, not measured
 *   capacity    closed loop, kClosedLoopBatches batches in flight
 *               -> accesses_per_s (see Generator::closedLoop)
 *   ladder      open loop at every rate of kLadder, ascending; the
 *               reference rung runs first, in kInterleave blocks that
 *               alternate with the capacity blocks
 *               -> serve.p50_ms and serve.p99_ms (reference rung),
 *               serve.max_rate_ops_s (highest rung meeting the p99
 *               limit, see PhaseStats::meetsLimit)
 *
 * Batch latency runs from the batch's due time to the moment its
 * future resolved, so a stall also delays every batch due behind it.
 * A collector thread waits on the futures; the generator thread only
 * submits and flushes.
 *
 * Correctness: every session owns a disjoint key set, so each lookup
 * must return exactly the last value its own session wrote to that
 * key, or zeros. A rejected batch may have been partly admitted; its
 * updates then make both the old and the new value acceptable.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <iostream>
#include <iterator>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <csignal>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hh"
#include "obs/metrics.hh"
#include "serve/frontend.hh"
#include "util/rng.hh"
#include "workload/zipf_gen.hh"

extern char **environ;

namespace perfbench {

namespace {

using laoram::oram::BlockId;

constexpr std::uint64_t kRows = 1ULL << 18;
constexpr std::uint64_t kPayload = 64;
constexpr std::uint64_t kWindowOps = 256;
constexpr std::uint64_t kSuperblock = 4;
constexpr std::uint64_t kCacheBytes = 2ULL << 20;
constexpr std::uint64_t kEngineSeed = 1;
constexpr std::uint32_t kSessions = 4;
constexpr std::size_t kBatchOps = 8;
constexpr double kUpdateFrac = 0.10;
constexpr double kZipfSkew = 0.99;
constexpr std::int64_t kFlushPeriodNs = 1000000;
constexpr double kP99LimitMs = 25.0;
constexpr double kLadder[] = {2000, 4000, 6000, 8000, 10000};
constexpr double kReferenceRate = 4000;
constexpr std::size_t kClosedLoopBatches = 32;
constexpr double kClosedLoopMaxRate = 40000; ///< input sizing bound
constexpr int kSetupReps = 5;
constexpr int kInterleave = 4; ///< capacity / reference blocks each
/** Share of --seconds each phase gets. */
constexpr double kWarmupShare = 0.05;
constexpr double kCapacityShare = 0.15;
constexpr double kReferenceShare = 0.40;
constexpr double kRungShare = 0.15;

/** The bytes update @p version of @p key writes (version 0 = zeros). */
void
pattern(std::uint32_t key, std::uint32_t version, std::uint8_t *out)
{
    if (version == 0) {
        std::memset(out, 0, kPayload);
        return;
    }
    for (std::size_t i = 0; i < kPayload / 8; ++i) {
        std::uint64_t state =
            ((static_cast<std::uint64_t>(key) << 32) | version)
                * 0x9E3779B97F4A7C15ULL
            + i;
        const std::uint64_t w = laoram::splitMix64(state);
        std::memcpy(out + 8 * i, &w, 8);
    }
}

void
sleepUntilNs(std::int64_t target)
{
    const std::int64_t d = target - nowNs();
    if (d > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

/**
 * A laoram_node child process listening on an ephemeral loopback
 * port. Stopped with SIGTERM (SIGKILL if it does not exit) and reaped
 * on every exit path.
 */
class NodeProcess
{
  public:
    NodeProcess(const std::string &bin, std::uint64_t blocks)
    {
        int fds[2];
        if (::pipe(fds) != 0)
            throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, fds[0]);
        posix_spawn_file_actions_addclose(&fa, fds[1]);
        const std::string blocksArg = std::to_string(blocks);
        const std::string payloadArg = std::to_string(kPayload);
        std::vector<std::string> args = {
            bin,          "--listen",    "127.0.0.1:0", "--blocks",
            blocksArg,    "--payload",   payloadArg,    "--bucket-z",
            "4",          "--encrypt",   "--log-level", "warn"};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid, bin.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(fds[1]);
        out = fds[0];
        if (rc != 0) {
            pid = -1;
            ::close(out);
            throw std::runtime_error("cannot start " + bin);
        }
        // First stdout line: "laoram_node serving ... on HOST:PORT".
        std::string line;
        while (line.empty() || line.back() != '\n') {
            struct pollfd p = {out, POLLIN, 0};
            char c = 0;
            if (::poll(&p, 1, 20000) <= 0 || ::read(out, &c, 1) != 1) {
                stop();
                throw std::runtime_error("laoram_node did not start");
            }
            line += c;
        }
        const std::size_t at = line.rfind(" on ");
        if (at == std::string::npos) {
            stop();
            throw std::runtime_error("unexpected laoram_node banner: "
                                     + line);
        }
        ep = line.substr(at + 4, line.size() - at - 5);
    }

    ~NodeProcess() { stop(); }

    NodeProcess(const NodeProcess &) = delete;
    NodeProcess &operator=(const NodeProcess &) = delete;

    const std::string &endpoint() const { return ep; }

    /** SIGTERM, wait up to 5 s, then SIGKILL; always reaps. */
    void
    stop()
    {
        if (pid > 0) {
            ::kill(pid, SIGTERM);
            int status = 0;
            bool reaped = false;
            for (int i = 0; i < 500 && !reaped; ++i) {
                reaped = ::waitpid(pid, &status, WNOHANG) == pid;
                if (!reaped)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
            }
            if (!reaped) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &status, 0);
            }
            pid = -1;
        }
        if (out >= 0) {
            ::close(out);
            out = -1;
        }
    }

  private:
    pid_t pid = -1;
    int out = -1;
    std::string ep;
};

/** The planned traffic: every batch, pre-built before timing. */
struct Inputs
{
    struct PlannedOp
    {
        std::uint32_t key = 0;
        std::uint32_t version = 0; ///< update version (0 for lookups)
        bool update = false;
    };

    std::vector<laoram::serve::Batch> batches;   ///< moved out on submit
    std::vector<std::vector<PlannedOp>> plan;    ///< same, for checking
    std::vector<std::uint32_t> sessionOf;
};

Inputs
makeInputs(const Options &opt, std::size_t nBatches)
{
    Inputs in;
    in.batches.resize(nBatches);
    in.plan.resize(nBatches);
    in.sessionOf.resize(nBatches);

    // Each session draws Zipf ranks over its own quarter of the key
    // space: key = local * kSessions + session, so sessions are
    // disjoint and the union is Zipf over all rows.
    const std::size_t perSession = nBatches / kSessions + 1;
    std::vector<std::vector<BlockId>> keys(kSessions);
    for (std::uint32_t s = 0; s < kSessions; ++s) {
        laoram::workload::ZipfParams zp;
        zp.numBlocks = kRows / kSessions;
        zp.accesses = perSession * kBatchOps;
        zp.skew = kZipfSkew;
        zp.scatterRanks = true;
        std::uint64_t state = opt.seed * 0x9E3779B97F4A7C15ULL + s;
        zp.seed = laoram::splitMix64(state);
        keys[s] = laoram::workload::makeZipfTrace(zp).accesses;
    }
    laoram::Rng rng(opt.seed ^ 0x5E12E5EEDULL);
    std::vector<std::size_t> cursor(kSessions, 0);
    std::vector<std::uint32_t> version(kSessions, 0);
    for (std::size_t b = 0; b < nBatches; ++b) {
        const std::uint32_t s = static_cast<std::uint32_t>(b % kSessions);
        in.sessionOf[b] = s;
        for (std::size_t i = 0; i < kBatchOps; ++i) {
            Inputs::PlannedOp p;
            p.key = static_cast<std::uint32_t>(
                keys[s][cursor[s]++] * kSessions + s);
            p.update = rng.nextBool(kUpdateFrac);
            if (p.update) {
                p.version = ++version[s];
                std::vector<std::uint8_t> bytes(kPayload);
                pattern(p.key, p.version, bytes.data());
                in.batches[b].ops.push_back(
                    laoram::serve::Op::update(p.key, std::move(bytes)));
            } else {
                in.batches[b].ops.push_back(
                    laoram::serve::Op::lookup(p.key));
            }
            in.plan[b].push_back(p);
        }
    }
    return in;
}

/** What became of one submitted batch. */
struct Outcome
{
    int phase = -1;
    std::int64_t dueNs = 0;
    std::int64_t submitNs = 0;
    std::int64_t submitEndNs = 0;
    std::int64_t doneNs = 0;
    bool rejected = false;
    bool error = false;
    /** resultHash() of each op's result, in batch order. */
    std::array<std::uint64_t, kBatchOps> results{};
};

/** Hash of one op result: its block id and payload bytes. */
std::uint64_t
resultHash(std::uint64_t id, const std::uint8_t *payload, std::size_t n)
{
    return fnv1a(payload, n, fnv1a(&id, sizeof(id)));
}

/**
 * Waits on submitted futures, oldest first, and stamps each batch's
 * resolve time. With one shard, batches resolve in submission order
 * except those whose every op completed at admission (hot-cache fast
 * path); those resolve inside submit(), and the generator stamps them
 * itself right after the call.
 */
class Collector
{
  public:
    explicit Collector(std::vector<Outcome> &outcomes)
        : outcomes(outcomes), worker([this] { loop(); })
    {
    }

    ~Collector() { close(); }

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    void
    add(std::size_t batch, std::future<laoram::serve::BatchResult> fut)
    {
        std::lock_guard<std::mutex> lock(mu);
        incoming.push_back({batch, std::move(fut)});
        cv.notify_one();
    }

    /** Batches resolved so far. */
    std::uint64_t
    resolved() const
    {
        return nResolved.load(std::memory_order_acquire);
    }

    /** Wait for the outstanding futures, then stop the thread. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            closing = true;
            cv.notify_one();
        }
        if (worker.joinable())
            worker.join();
    }

  private:
    struct Pending
    {
        std::size_t batch;
        std::future<laoram::serve::BatchResult> fut;
    };

    void
    resolve(Pending &p)
    {
        Outcome &o = outcomes[p.batch];
        if (o.doneNs == 0)
            o.doneNs = nowNs();
        try {
            const laoram::serve::BatchResult res = p.fut.get();
            if (res.results.size() != kBatchOps)
                o.error = true;
            for (std::size_t i = 0; i < res.results.size() && !o.error;
                 ++i) {
                const laoram::serve::OpResult &op = res.results[i];
                o.results[i] = resultHash(op.id, op.payload.data(),
                                          op.payload.size());
            }
        } catch (const laoram::serve::RejectedError &) {
            o.rejected = true;
        } catch (...) {
            o.error = true;
        }
        nResolved.fetch_add(1, std::memory_order_release);
    }

    void
    loop()
    {
        std::deque<Pending> pending;
        while (true) {
            {
                std::unique_lock<std::mutex> lock(mu);
                if (pending.empty())
                    cv.wait(lock,
                            [&] { return !incoming.empty() || closing; });
                if (closing && incoming.empty() && pending.empty())
                    return;
                for (Pending &p : incoming)
                    pending.push_back(std::move(p));
                incoming.clear();
            }
            pending.front().fut.wait();
            resolve(pending.front());
            pending.pop_front();
            while (!pending.empty()
                   && pending.front().fut.wait_for(std::chrono::seconds(0))
                          == std::future_status::ready) {
                resolve(pending.front());
                pending.pop_front();
            }
        }
    }

    std::vector<Outcome> &outcomes;
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Pending> incoming;
    bool closing = false;
    std::atomic<std::uint64_t> nResolved{0};
    std::thread worker; ///< last: starts after the members it uses
};

/** Figures of one load phase. */
struct PhaseStats
{
    double rate = 0.0; ///< offered ops/s (0 = closed loop)
    std::size_t firstBatch = 0;
    std::size_t batches = 0;
    std::size_t served = 0; ///< batches neither refused nor failed
    std::uint64_t rejected = 0;
    std::uint64_t errors = 0;
    std::vector<double> latencyMs;
    std::vector<double> lateMs;
    std::vector<double> submitNs;
    std::vector<double> spanRates; ///< closed loop: see closedLoop()
    std::int64_t activeNs = 0;      ///< first due -> last resolved
    double achievedOpsS = 0.0;

    /** Fold another block of the same phase into this one. */
    void
    append(const PhaseStats &o)
    {
        batches += o.batches;
        rejected += o.rejected;
        errors += o.errors;
        activeNs += o.activeNs;
        served += o.served;
        for (auto [to, from] :
             {std::pair{&latencyMs, &o.latencyMs}, {&lateMs, &o.lateMs},
              {&submitNs, &o.submitNs}, {&spanRates, &o.spanRates}})
            to->insert(to->end(), from->begin(), from->end());
        achievedOpsS =
            rate == 0.0
                ? median(spanRates)
                : ratio(static_cast<double>(served * kBatchOps),
                        static_cast<double>(activeNs) / 1e9);
    }

    double p50() const { return quantile(latencyMs, 0.50); }
    double p99() const { return quantile(latencyMs, 0.99); }

    /**
     * A rung meets the limit when its p99 is at most kP99LimitMs and
     * no batch was refused or failed (a refused batch misses).
     */
    bool
    meetsLimit() const
    {
        return !latencyMs.empty() && rejected == 0 && errors == 0
               && p99() <= kP99LimitMs;
    }
};

/** The generator thread: submits planned batches and flushes. */
class Generator
{
  public:
    Generator(laoram::serve::ServeFrontend &frontend, Inputs &in,
              std::vector<Outcome> &outcomes, Collector &collector,
              Tracer &tracer)
        : frontend(frontend), in(in), outcomes(outcomes),
          collector(collector), tracer(tracer)
    {
        for (std::uint32_t s = 0; s < kSessions; ++s)
            sessions.push_back(frontend.session());
    }

    /** Open loop at @p rate ops/s for @p seconds, then drain. */
    PhaseStats
    openLoop(int phase, double rate, double seconds)
    {
        PhaseStats st;
        st.rate = rate;
        st.firstBatch = next;
        const std::int64_t interval = static_cast<std::int64_t>(
            1e9 * static_cast<double>(kBatchOps) / rate);
        const std::size_t n = std::min(
            static_cast<std::size_t>(seconds * rate / kBatchOps),
            in.batches.size() - next);
        // Flushes run on a fixed grid half a period after the due
        // grid, so a flush never races the submit due at the same
        // instant and every rung sees the same flush phase.
        const std::int64_t t0 = nowNs() + kFlushPeriodNs;
        nextFlush = t0 + kFlushPeriodNs / 2;
        for (std::size_t k = 0; k < n; ++k) {
            const std::int64_t due = t0 + static_cast<std::int64_t>(k)
                                              * interval;
            waitUntil(due);
            submit(phase, due);
        }
        drain();
        finish(st);
        return st;
    }

    /** Closed loop: keep kClosedLoopBatches in flight for @p seconds. */
    PhaseStats
    closedLoop(int phase, double seconds, std::size_t maxBatches)
    {
        PhaseStats st;
        st.firstBatch = next;
        const std::size_t last = std::min(next + maxBatches,
                                          in.batches.size());
        const std::int64_t t0 = nowNs();
        const std::int64_t end =
            t0 + static_cast<std::int64_t>(seconds * 1e9);
        nextFlush = t0 + kFlushPeriodNs;
        std::int64_t now = t0;
        while ((now = nowNs()) < end && next < last) {
            if (submitted - collector.resolved() < kClosedLoopBatches)
                submit(phase, now);
            else
                waitUntil(std::min(end, now + 100000));
        }
        drain();
        finish(st);
        // Rate over every run of kClosedLoopBatches consecutive
        // completions, i.e. one in-flight set (one window's worth of
        // ops); the median is robust to a stretch in which the host
        // took the CPU away, and spans of whole in-flight sets avoid
        // the quantisation of fixed time slices.
        std::vector<std::int64_t> done;
        for (std::size_t b = st.firstBatch; b < next; ++b)
            if (outcomes[b].doneNs <= end)
                done.push_back(outcomes[b].doneNs);
        std::sort(done.begin(), done.end());
        for (std::size_t i = kClosedLoopBatches; i < done.size(); ++i)
            st.spanRates.push_back(ratio(
                static_cast<double>(kClosedLoopBatches * kBatchOps),
                static_cast<double>(done[i] - done[i - kClosedLoopBatches])
                    / 1e9));
        st.achievedOpsS = median(st.spanRates);
        return st;
    }

    std::size_t used() const { return next; }

  private:
    /** Sleep until @p t, flushing every kFlushPeriodNs meanwhile. */
    void
    waitUntil(std::int64_t t)
    {
        while (true) {
            const std::int64_t now = nowNs();
            if (now >= nextFlush) {
                const std::int64_t f0 = nowNs();
                frontend.flush();
                const std::int64_t f1 = nowNs();
                if (tracer.enabled())
                    tracer.record({"serve.ServeFrontend.flush", f0, f1,
                                   "run", flushes, ""});
                ++flushes;
                do
                    nextFlush += kFlushPeriodNs; // skip missed slots
                while (nextFlush <= f1);
                continue;
            }
            if (now >= t)
                return;
            sleepUntilNs(std::min(t, nextFlush));
        }
    }

    void
    submit(int phase, std::int64_t due)
    {
        const std::size_t b = next++;
        Outcome &o = outcomes[b];
        o.phase = phase;
        o.dueNs = due;
        o.submitNs = nowNs();
        std::future<laoram::serve::BatchResult> fut =
            sessions[in.sessionOf[b]].submit(std::move(in.batches[b]));
        o.submitEndNs = nowNs();
        if (fut.wait_for(std::chrono::seconds(0))
            == std::future_status::ready)
            o.doneNs = o.submitEndNs;
        ++submitted;
        collector.add(b, std::move(fut));
    }

    /** Keep flushing until every submitted batch resolved. */
    void
    drain()
    {
        while (collector.resolved() < submitted)
            waitUntil(nowNs() + 200000);
        // Let the last window's boundary hook land before the next
        // phase starts.
        waitUntil(nowNs() + 20000000);
    }

    void
    finish(PhaseStats &st)
    {
        st.batches = next - st.firstBatch;
        std::int64_t firstDue = 0, lastDone = 0;
        for (std::size_t b = st.firstBatch; b < next; ++b) {
            const Outcome &o = outcomes[b];
            if (b == st.firstBatch)
                firstDue = o.dueNs;
            lastDone = std::max(lastDone, o.doneNs);
            st.rejected += o.rejected;
            st.errors += o.error;
            st.served += !(o.rejected || o.error);
            st.latencyMs.push_back(
                static_cast<double>(o.doneNs - o.dueNs) / 1e6);
            st.lateMs.push_back(
                static_cast<double>(o.submitNs - o.dueNs) / 1e6);
            st.submitNs.push_back(
                static_cast<double>(o.submitEndNs - o.submitNs));
        }
        st.activeNs = lastDone - firstDue;
        st.achievedOpsS =
            ratio(static_cast<double>(st.served * kBatchOps),
                  static_cast<double>(st.activeNs) / 1e9);
    }

    laoram::serve::ServeFrontend &frontend;
    Inputs &in;
    std::vector<Outcome> &outcomes;
    Collector &collector;
    Tracer &tracer;
    std::vector<laoram::serve::Session> sessions;
    std::size_t next = 0;
    std::uint64_t submitted = 0;
    std::uint64_t flushes = 0;
    std::int64_t nextFlush = 0;
};

/**
 * Check every lookup against the last value its session wrote (see
 * the file comment). Returns the number of mismatched lookups.
 */
std::uint64_t
verifySessions(const Inputs &in, const std::vector<Outcome> &outcomes,
               std::size_t used)
{
    std::uint64_t bad = 0;
    std::uint8_t want[kPayload];
    for (std::uint32_t s = 0; s < kSessions; ++s) {
        // key -> versions the row may hold (absent = never written).
        std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>
            acceptable;
        for (std::size_t b = s; b < used; b += kSessions) {
            const Outcome &o = outcomes[b];
            const std::vector<Inputs::PlannedOp> &plan = in.plan[b];
            if (o.rejected || o.error) {
                for (const Inputs::PlannedOp &p : plan)
                    if (p.update) {
                        auto &v = acceptable[p.key];
                        if (v.empty())
                            v.push_back(0);
                        v.push_back(p.version);
                    }
                continue;
            }
            for (std::size_t i = 0; i < plan.size(); ++i) {
                const Inputs::PlannedOp &p = plan[i];
                if (p.update) {
                    acceptable[p.key] = {p.version};
                    continue;
                }
                bool ok = false;
                const auto it = acceptable.find(p.key);
                const std::vector<std::uint32_t> never = {0};
                for (std::uint32_t v :
                     it == acceptable.end() ? never : it->second) {
                    pattern(p.key, v, want);
                    ok = ok
                         || o.results[i]
                                == resultHash(p.key, want, kPayload);
                }
                bad += !ok;
            }
        }
    }
    return bad;
}

/** Per-window mark recorded by the pipeline's windowBoundaryHook. */
struct WindowMark
{
    std::int64_t t = 0;
    std::uint64_t window = 0;
    laoram::storage::IoStats io;
    laoram::cache::CacheStats cache;
};

} // namespace

Result
runServeZipfNode(const Options &opt, Tracer &tracer)
{
    if (opt.nodeBin.empty())
        throw std::runtime_error("serve-zipf-node needs --node-bin");
    if (opt.trace)
        laoram::obs::setMetricsEnabled(true);

    const double S = opt.seconds;
    const double warmS = std::max(0.25, kWarmupShare * S);
    // At least a quarter second per capacity block, so short runs
    // still see many in-flight sets complete.
    const double capBlockS = std::max(0.25, kCapacityShare * S / kInterleave);
    const double refS = kReferenceShare * S;
    const double rungS = kRungShare * S;
    std::size_t nBatches = static_cast<std::size_t>(
        (warmS * kReferenceRate
         + kInterleave * capBlockS * kClosedLoopMaxRate)
        / kBatchOps);
    for (double rate : kLadder)
        nBatches += static_cast<std::size_t>(
            (rate == kReferenceRate ? refS : rungS) * rate / kBatchOps);
    Inputs in = makeInputs(opt, nBatches);
    std::vector<Outcome> outcomes(nBatches);

    NodeProcess node(opt.nodeBin, kRows);

    std::mutex marksMu;
    std::vector<WindowMark> marks;
    laoram::core::ShardedLaoram *live = nullptr;

    laoram::core::ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = kRows;
    cfg.engine.base.payloadBytes = kPayload;
    cfg.engine.base.profile = laoram::oram::BucketProfile::uniform(4);
    cfg.engine.base.encrypt = true;
    cfg.engine.base.seed = kEngineSeed;
    cfg.engine.superblockSize = kSuperblock;
    cfg.engine.cache.capacityBytes = kCacheBytes;
    cfg.engine.cache.policy = laoram::cache::CachePolicy::Lru;
    cfg.numShards = 1;
    cfg.pipeline.windowAccesses = kWindowOps;
    cfg.pipeline.mode = laoram::core::PipelineMode::Concurrent;
    cfg.pipeline.prepThreads = 1;
    cfg.shardEndpoints = {node.endpoint()};
    if (opt.trace) {
        cfg.pipeline.windowBoundaryHook = [&](std::uint64_t w) {
            laoram::core::Laoram &shard = live->shard(0);
            WindowMark m;
            m.t = nowNs();
            m.window = w;
            m.io = shard.storageForAudit().ioStats();
            m.cache = shard.hotCache()->stats();
            std::lock_guard<std::mutex> lock(marksMu);
            marks.push_back(m);
        };
    }
    laoram::serve::FrontendConfig fcfg;
    fcfg.queueFullPolicy = laoram::serve::QueueFullPolicy::Reject;

    std::vector<double> setupS;
    std::unique_ptr<laoram::core::ShardedLaoram> engine;
    std::unique_ptr<laoram::serve::ServeFrontend> frontend;
    laoram::mem::TrafficCounters traffic0;
    laoram::storage::IoStats io0;
    std::uint64_t prep0 = 0, linked0 = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (frontend)
            frontend->stop();
        frontend.reset();
        engine.reset();
        const std::int64_t t0 = nowNs();
        engine = std::make_unique<laoram::core::ShardedLaoram>(cfg);
        frontend =
            std::make_unique<laoram::serve::ServeFrontend>(*engine, fcfg);
        live = engine.get();
        traffic0 = engine->totalCounters();
        io0 = engine->shard(0).storageForAudit().ioStats();
        prep0 = engine->shard(0).accessesPreprocessed();
        linked0 = engine->shard(0).futureLinkedMembers();
        frontend->start();
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    const std::uint64_t reconnects0 =
        laoram::obs::MetricsRegistry::instance()
            .counter("node.client_reconnects")
            .get();

    Collector collector(outcomes);
    Generator gen(*frontend, in, outcomes, collector, tracer);
    const std::int64_t runStart = nowNs();

    // Capacity and reference-rate blocks alternate, so both figures
    // sample the whole run rather than one stretch of the host's load.
    gen.openLoop(0, kReferenceRate, warmS);
    PhaseStats cap, refRung;
    refRung.rate = kReferenceRate;
    const std::size_t refPhase =
        2 + static_cast<std::size_t>(std::find(std::begin(kLadder),
                                               std::end(kLadder),
                                               kReferenceRate)
                                     - std::begin(kLadder));
    for (int k = 0; k < kInterleave; ++k) {
        cap.append(gen.closedLoop(
            1, capBlockS,
            static_cast<std::size_t>(capBlockS * kClosedLoopMaxRate
                                     / kBatchOps)));
        refRung.append(gen.openLoop(static_cast<int>(refPhase),
                                    kReferenceRate, refS / kInterleave));
    }
    std::vector<PhaseStats> rungs;
    rungs.reserve(std::size(kLadder)); // `ref` points into it
    const PhaseStats *ref = nullptr;
    for (double rate : kLadder) {
        if (rate == kReferenceRate) {
            rungs.push_back(std::move(refRung));
            ref = &rungs.back();
        } else {
            rungs.push_back(gen.openLoop(
                static_cast<int>(2 + rungs.size()), rate, rungS));
        }
    }
    double maxRate = 0.0; // the highest rung that met the limit
    for (const PhaseStats &st : rungs)
        if (st.meetsLimit())
            maxRate = st.rate;
    const std::int64_t runEnd = nowNs();
    collector.close();
    const laoram::core::ShardedPipelineReport rep = frontend->stop();
    const std::uint64_t reconnects =
        laoram::obs::MetricsRegistry::instance()
            .counter("node.client_reconnects")
            .get()
        - reconnects0;

    // ---- correctness ----
    const std::size_t used = gen.used();
    const std::uint64_t bad = verifySessions(in, outcomes, used);
    std::uint64_t errors = 0;
    for (std::size_t b = 0; b < used; ++b)
        errors += outcomes[b].error ? kBatchOps : 0;
    Result r;
    r.attempted = used * kBatchOps;
    r.failed = bad + errors + ref->rejected * kBatchOps;
    r.correct = bad == 0 && errors == 0;

    // ---- end to end ----
    r.endToEnd["accesses_per_s"] = cap.achievedOpsS;
    r.endToEnd["setup_s"] = median(setupS);

    // ---- per layer (whole serving run unless noted) ----
    laoram::core::Laoram &shard = engine->shard(0);
    const laoram::mem::TrafficCounters d =
        engine->totalCounters().since(traffic0);
    const laoram::storage::IoStats io =
        shard.storageForAudit().ioStats().since(io0);
    const laoram::core::PipelineReport &agg = rep.aggregate;
    const double acc = static_cast<double>(d.logicalAccesses);
    const double ops = static_cast<double>(used * kBatchOps);
    const double ioNs = static_cast<double>(io.totalNs());
    const double prepNs = agg.wallPrepNs;

    auto &L = r.perLayer;
    L["preprocessor.ns_per_access"] = ratio(prepNs, acc);
    L["preprocessor.future_linked_frac"] =
        ratio(static_cast<double>(shard.futureLinkedMembers() - linked0),
              static_cast<double>(shard.accessesPreprocessed() - prep0));
    L["pipeline.serve_wait_frac"] =
        ratio(agg.wallFillNs + agg.wallStallNs, agg.wallTotalNs);
    L["pipeline.prep_hidden_frac"] = agg.measuredPrepHiddenFraction;
    L["engine.serve_ns_per_access"] = ratio(agg.wallServeNs, acc);
    L["engine.client_ns_per_access"] = ratio(agg.wallServeNs - ioNs, acc);
    L["oram.path_reads_per_access"] =
        ratio(static_cast<double>(d.pathReads), acc);
    L["oram.dummy_reads_per_access"] =
        ratio(static_cast<double>(d.dummyReads), acc);
    L["oram.slots_per_access"] =
        ratio(static_cast<double>(d.blocksRead + d.blocksWritten), acc);
    L["oram.bytes_per_access"] =
        ratio(static_cast<double>(d.totalBytes()), acc);
    L["oram.stash_peak"] = static_cast<double>(d.stashPeak);
    L["storage.io_ns_per_access"] = ratio(ioNs, acc);
    L["storage.ops_per_access"] =
        ratio(static_cast<double>(io.readOps + io.writeOps), acc);
    L["storage.io_frac"] = ratio(ioNs, agg.wallServeNs);
    // Every slot moved is opened (read) or sealed (write).
    L["crypto.records_per_op"] =
        ratio(static_cast<double>(io.slotsRead + io.slotsWritten), acc);
    L["net.reconnects"] = static_cast<double>(reconnects);
    L["cache.hit_rate"] = agg.cache.hitRate();
    L["cache.admission_frac"] =
        ratio(static_cast<double>(agg.cache.admissionHits), ops);
    L["cache.evictions_per_op"] =
        ratio(static_cast<double>(agg.cache.evictions), ops);
    L["serve.window_fill_frac"] = ratio(
        acc, static_cast<double>(agg.windows) * kWindowOps);
    L["serve.busy_frac"] = ratio(agg.wallServeNs, agg.wallTotalNs);
    L["serve.max_rate_ops_s"] = maxRate;
    // Reference rung only.
    L["serve.p50_ms"] = ref->p50();
    L["serve.p99_ms"] = ref->p99();
    L["serve.submit_ns_p99"] = quantile(ref->submitNs, 0.99);
    L["serve.generator_late_ms_p99"] = quantile(ref->lateMs, 0.99);

    double submitTotal = 0.0;
    for (std::size_t b = 0; b < used; ++b)
        submitTotal += static_cast<double>(outcomes[b].submitEndNs
                                           - outcomes[b].submitNs);
    r.selfTime = {
        {"serve", submitTotal / 1e6,
         "generator thread: Session::submit spans (flush excluded)"},
        {"preprocessor", prepNs / 1e6, "prep thread busy (library ledger)"},
        {"pipeline", (agg.wallFillNs + agg.wallStallNs) / 1e6,
         "serving thread waiting for a window"},
        {"engine", (agg.wallServeNs - ioNs) / 1e6,
         "serving thread minus IoStats (includes crypto and cache)"},
        {"storage+net", ioNs / 1e6,
         "IoStats of the remote backend: RPC round trips"},
    };

    std::ostringstream note;
    note << used << " batches; capacity " << cap.achievedOpsS
         << " ops/s closed loop;";
    for (const PhaseStats &st : rungs)
        note << " " << st.rate << " ops/s: p50 " << st.p50() << " ms p99 "
             << st.p99() << " ms"
             << (st.rejected ? " (rejects)" : "")
             << (st.meetsLimit() ? "" : " MISS") << ";";
    note << " max rate " << maxRate << " ops/s; reference rung "
         << ref->batches << " batches; " << bad
         << " lookups mismatched";
    r.notes.push_back(note.str());
    if (rungs.back().meetsLimit())
        r.notes.push_back("the top ladder rung met the limit: "
                          "serve.max_rate_ops_s is capped by the ladder");

    if (tracer.enabled()) {
        tracer.record({"run", runStart, runEnd, "", 0, ""});
        for (std::size_t b = 0; b < used; ++b) {
            const Outcome &o = outcomes[b];
            tracer.record({"serve.request", o.dueNs, o.doneNs, "run", b,
                           "\"phase\": " + std::to_string(o.phase)});
            tracer.record({"serve.Session.submit", o.submitNs,
                           o.submitEndNs, "serve.request", b, ""});
        }
        const WindowMark *prev = nullptr;
        for (const WindowMark &m : marks) {
            const laoram::storage::IoStats di =
                prev ? m.io.since(prev->io) : m.io.since(io0);
            const laoram::cache::CacheStats dc =
                prev ? m.cache.deltaFrom(prev->cache) : m.cache;
            std::ostringstream a;
            a << "\"io_ns\": " << di.totalNs()
              << ", \"io_ops\": " << di.readOps + di.writeOps
              << ", \"slots\": " << di.slotsRead + di.slotsWritten
              << ", \"cache_hits\": " << dc.hits
              << ", \"cache_misses\": " << dc.misses
              << ", \"cache_admission_hits\": " << dc.admissionHits;
            tracer.record({"pipeline.window", m.t, m.t, "run", m.window,
                           a.str()});
            prev = &m;
        }
    }

    frontend.reset();
    engine.reset();
    node.stop();
    return r;
}

} // namespace perfbench

/**
 * @file
 * Remote-KV slot storage: the tree served over a network-shaped RPC
 * link instead of local memory.
 *
 * Two halves speak a small length-prefixed binary protocol over a
 * stream socket (an AF_UNIX socketpair when the server is hosted
 * in-process):
 *
 *  - RemoteKvServer — the untrusted storage node. One service thread
 *    per connection pops request frames, executes them against an
 *    *inner* SlotBackend (any existing backend: DRAM for a
 *    memory-tier KV node, mmap for a persistent one — the backends
 *    compose), applies the injectable latency/bandwidth shaper, and
 *    replies. Requests on one connection are processed strictly in
 *    order, which is the ordering contract the client's pipelining
 *    relies on.
 *
 *  - RemoteKvBackend — a *staged* SlotBackend (mappedBase() == null):
 *    ServerStorage moves whole ORAM paths through the vectored
 *    readSlots/writeSlots calls, and each such call becomes exactly
 *    ONE request frame — a path is one RPC, never one RPC per slot.
 *    Writes are asynchronous: the request is sent and a completion
 *    future is parked in a bounded in-flight window
 *    (RemoteKvConfig::windowDepth), so the serving thread keeps
 *    going while the write travels. Reads are pipelined behind any
 *    outstanding writes on the same ordered stream, so a read can
 *    never observe a stale slot. The time the client *does* block —
 *    harvesting write completions when the window is full, waiting
 *    for read payloads — lands in the IoStats ledger, which is how
 *    PipelineReport::wallIoNs comes to include genuine RPC waits.
 *
 * Wire format (all integers little-endian, like every on-disk /
 * on-wire structure in this repo):
 *
 *   frame    := u32 bodyLen, body
 *   body     := u8 opcode, u64 seq, payload...
 *   response := same framing; opcode = request opcode | 0x80, seq
 *               echoed; a response is sent for every request.
 *
 *   Hello      c->s: u64 slots, u64 recordBytes, u64 sessionId
 *                    (0 = self-hosted: no replay dedupe); any other
 *                    length drops the connection
 *              s->c: u64 slots, u64 recordBytes, u64 metaCapacity,
 *                    u8 persistent, u8 openedExisting
 *   ReadSlots  c->s: u64 n, u64 slot[n]
 *              s->c: u8 record[n * recordBytes]
 *   WriteSlots c->s: u64 n, u64 slot[n], u8 record[n * recordBytes]
 *              s->c: (empty ack)
 *   Flush      c->s: (empty)          s->c: (empty ack)
 *   ReadMeta   c->s: u64 len          s->c: u64 got, u8 data[got]
 *   WriteMeta  c->s: u64 len, data    s->c: (empty ack)
 *   Stat       c->s: (empty)          s->c: u64 residentBytes
 *
 * The shaper sleeps latencyNs + wireBytes / bytesPerSec per request
 * before replying, so a slow-remote regime (where the look-ahead
 * pipeline's prep threads earn their keep) reproduces deterministically
 * on any host; the IoStats *counts* are identical for any shaper
 * setting, only the measured nanoseconds change.
 *
 * Failure model: self-hosted / attached-fd clients treat a lost
 * connection (server killed mid-trace, EOF, ECONNRESET) as a clean
 * LAORAM_FATAL — their server shares the process, so a lost
 * socketpair is unrecoverable. A client dialled at an *endpoint*
 * (RemoteKvConfig::endpoint, i.e. a real out-of-process laoram_node)
 * instead reconnects with bounded exponential backoff + jitter and
 * replays its un-acked request window: responses arrive strictly in
 * request order, so the un-acked RPCs are exactly the contiguous
 * tail of the stream, and re-sending them in order preserves
 * read-your-writes. The node discards (but still acks) replayed
 * mutations at-or-below the session's applied high-water mark, so a
 * write that was applied but whose ack was lost is not applied
 * twice. Only when every retry is exhausted does the endpoint client
 * fall back to the same fatal. Construction-time problems (handshake
 * geometry mismatch) throw std::runtime_error like an incompatible
 * mmap reopen.
 */

#ifndef LAORAM_STORAGE_REMOTE_BACKEND_HH
#define LAORAM_STORAGE_REMOTE_BACKEND_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/endpoint.hh"
#include "storage/slot_backend.hh"

namespace laoram::storage {

/** RPC opcodes (request values; responses are op | 0x80). */
enum class RemoteOp : std::uint8_t
{
    Hello = 1,
    ReadSlots = 2,
    WriteSlots = 3,
    Flush = 4,
    ReadMeta = 5,
    WriteMeta = 6,
    Stat = 7,
};

/**
 * In-process remote-KV storage node: serves the wire protocol above
 * over stream sockets, executing against an inner SlotBackend.
 *
 * connectClient() hands out one end of a fresh socketpair and spawns
 * a service thread for the other end, so tests and the self-hosted
 * RemoteKvBackend get a real kernel-buffered byte stream without any
 * port management. Multiple connections share the inner backend under
 * a mutex (requests across connections interleave at frame
 * granularity; within a connection they are strictly ordered).
 */
class RemoteKvServer
{
  public:
    RemoteKvServer(std::unique_ptr<SlotBackend> inner,
                   const RemoteKvConfig &shaping);
    ~RemoteKvServer();

    RemoteKvServer(const RemoteKvServer &) = delete;
    RemoteKvServer &operator=(const RemoteKvServer &) = delete;

    /**
     * Open a new connection: returns the client-side fd (caller owns
     * and closes it) and starts a service thread on the server side.
     */
    int connectClient();

    /**
     * Serve an already-connected stream socket (an accepted TCP/UDS
     * connection): takes ownership of @p fd and spawns its service
     * thread. This is how NodeListener turns accepts into
     * connections; the frame loop is identical to connectClient's.
     */
    void serveSocket(int fd);

    /**
     * Hard-stop the node: shut down every connection socket (which
     * unblocks service threads mid-recv) and join the threads. Models
     * a remote node dying mid-trace; the destructor runs the same
     * path for a clean teardown.
     */
    void shutdown();

    /**
     * Graceful stop (laoram_node's SIGTERM path): shut down only the
     * *read* side of every connection, so a request already being
     * processed still gets its response out, join the service
     * threads, then flush the inner backend so a persistent node's
     * acked writes reach media before the process exits.
     */
    void drain();

    /** The backend this node serves (server-side IoStats live here). */
    const SlotBackend &inner() const { return *store; }

  private:
    void serveConnection(int fd);

    /** Shared teardown: @p how is SHUT_RD (drain) or SHUT_RDWR. */
    void stopConnections(int how);

    /** Shaper: block this request for its modeled network time. */
    void shapeDelay(std::uint64_t wireBytes) const;

    /**
     * Replay idempotence: true when a mutating request (WriteSlots /
     * WriteMeta / Flush) at @p seq from @p sessionId is new and must
     * execute; false when it is a replayed duplicate the node already
     * applied — the caller still acks it, silently. Advances the
     * session's high-water mark when it returns true.
     */
    bool admitMutation(std::uint64_t sessionId, std::uint64_t seq);

    std::unique_ptr<SlotBackend> store;
    RemoteKvConfig shaping;

    std::mutex storeMu; ///< serializes inner-backend access

    /**
     * Per-session applied high-water marks (guarded by sessionMu).
     * Lost on node restart — harmless, because a restarted node sees
     * the client replay a contiguous ordered tail whose re-execution
     * is naturally idempotent (same slots, same bytes).
     */
    std::mutex sessionMu;
    std::unordered_map<std::uint64_t, std::uint64_t> sessionHighWater;

    std::mutex connMu; ///< guards conns (connect vs shutdown)
    struct Connection
    {
        int fd = -1;
        std::thread thread;
    };
    std::vector<Connection> conns;
    bool stopped = false;

    /** Connections whose frame loop is running right now. */
    std::atomic<std::uint64_t> activeConnections{0};
    obs::MetricsSource metrics{[this](obs::PullSink &out) {
        out.level("node.active_connections",
                  "remote-KV node connections currently being served",
                  activeConnections.load(std::memory_order_relaxed));
    }};
};

/**
 * Client-side staged SlotBackend speaking the remote-KV protocol.
 * One vectored readSlots/writeSlots call = one RPC; writes pipeline
 * asynchronously through a bounded in-flight window of completion
 * futures. Single-threaded per instance, like every SlotBackend.
 */
class RemoteKvBackend final : public SlotBackend
{
  public:
    /**
     * Self-hosted convenience used by makeBackend(--storage=remote):
     * builds the inner backend described by @p cfg (mmap when
     * cfg.path is set, DRAM otherwise), hosts an in-process
     * RemoteKvServer over it, connects, and handshakes. When
     * cfg.remote.endpoint is set no server is hosted: the client
     * dials the out-of-process laoram_node there instead (with the
     * same retry/backoff policy as a mid-run reconnect), and
     * @p metaBytes is ignored — the node owns its meta sizing.
     */
    RemoteKvBackend(const StorageConfig &cfg, std::uint64_t slots,
                    std::uint64_t recordBytes, std::uint64_t metaBytes);

    /**
     * Attach to an already-running server over @p fd (takes ownership
     * of the fd). Used by tests that control the server's lifetime —
     * e.g. to kill it mid-trace.
     *
     * @throws std::runtime_error when the handshake reports a
     *         different geometry than (@p slots, @p recordBytes).
     */
    RemoteKvBackend(int fd, std::uint64_t slots,
                    std::uint64_t recordBytes,
                    const RemoteKvConfig &cfg);

    ~RemoteKvBackend() override;

    std::uint64_t residentBytes() const override;
    bool persistent() const override { return serverPersistent; }
    bool openedExisting() const override { return serverReopened; }

    std::uint64_t metaCapacity() const override { return serverMetaCap; }
    void writeMeta(const std::uint8_t *src, std::uint64_t len) override;
    std::uint64_t readMeta(std::uint8_t *dst,
                           std::uint64_t len) const override;

    /** In-flight write RPCs right now (bounded by windowDepth). */
    std::size_t inFlightWrites() const { return pendingWrites.size(); }

    /** The in-process server when self-hosted (null when attached). */
    const RemoteKvServer *selfHostedServer() const { return server.get(); }

  protected:
    void doReadSlots(const std::uint64_t *slots, std::size_t n,
                     std::uint8_t *dst) override;
    void doWriteSlots(const std::uint64_t *slots, std::size_t n,
                      const std::uint8_t *src) override;
    void doFlush() override;

  private:
    using Completion = std::future<std::vector<std::uint8_t>>;

    void handshake();

    /**
     * One raw Hello exchange on @p helloFd, outside the pendingRpcs
     * machinery (seq 0, never used by data RPCs) so a recovery
     * re-handshake cannot disturb the in-flight window. Caches the
     * server facts on success; false on a connection-level failure
     * (caller retries or fatals); throws std::runtime_error on a
     * geometry mismatch.
     */
    bool rawHello(int helloFd);

    /**
     * Start building a request frame in frameScratch (opcode + seq
     * header written); the caller appends the payload bytes directly
     * — no intermediate buffer — and then dispatchRequest() sends.
     */
    std::vector<std::uint8_t> &beginRequest(RemoteOp op);

    /**
     * Send the frame built since beginRequest(); returns the
     * completion future its response will resolve. Never blocks on
     * the server (only on socket-buffer backpressure).
     */
    Completion dispatchRequest();

    /** Convenience for small control RPCs with a prebuilt payload. */
    Completion sendRequest(RemoteOp op,
                           const std::vector<std::uint8_t> &payload);

    /**
     * Receive exactly one response frame; resolve the oldest pending.
     * A dead or hung (responseTimeoutMs exceeded) connection runs the
     * recovery path first, then keeps harvesting the replayed stream.
     */
    void harvestOne();

    /** Drive harvestOne() until @p c is resolved; returns its body. */
    std::vector<std::uint8_t> await(Completion &c);

    /** Drop already-resolved write completions off the window head. */
    void reapCompletedWrites();

    /** Fatal: the connection died mid-run. Never returns. */
    [[noreturn]] void connectionLost(const char *what) const;

    /** True when a lost connection may be redialled (endpoint mode). */
    bool retryEnabled() const { return remoteEp.valid(); }

    /**
     * The connection died (or timed out) during @p what: redial the
     * endpoint with bounded backoff + jitter, re-handshake, and
     * replay every pending request frame in order. Fatal (via
     * connectionLost) when not in endpoint mode or when maxRetries
     * dials all fail.
     */
    void recoverConnection(const char *what);

    /**
     * One backoff-paced dial + raw re-handshake attempt loop; returns
     * the connected, handshaken fd or fatals. Shared by construction
     * and recovery (construction tolerates a node that is still
     * starting up the same way recovery tolerates one restarting).
     */
    int dialWithRetry(const char *what);

    /**
     * Receive one response frame, honouring cfg.responseTimeoutMs;
     * false on EOF, error, or deadline (caller recovers or fatals).
     */
    bool recvResponseFrame(std::vector<std::uint8_t> &frame);

    std::unique_ptr<RemoteKvServer> server; ///< self-hosted only
    RemoteKvConfig cfg;
    net::Endpoint remoteEp; ///< parsed cfg.endpoint (invalid = none)
    int fd = -1;

    std::uint64_t nextSeq = 1;
    std::uint64_t sessionId = 0; ///< replay identity sent in Hello

    /** Jitter source for backoff pacing (timing only, never data). */
    std::mt19937_64 jitterRng;

    /** Responses arrive strictly in request order. */
    struct PendingRpc
    {
        std::uint64_t seq = 0;
        std::uint8_t op = 0;
        std::promise<std::vector<std::uint8_t>> promise;
        /** Tracer timestamp at dispatch (-1 = tracing was off). */
        std::int64_t dispatchNs = -1;
        /**
         * Full request frame, kept for replay (endpoint mode only —
         * a self-hosted client cannot reconnect, so it skips the
         * copy).
         */
        std::vector<std::uint8_t> frame;
    };
    mutable std::deque<PendingRpc> pendingRpcs;

    /** Outstanding async write/flush completions, oldest first. */
    mutable std::deque<Completion> pendingWrites;

    // Handshake-cached server facts.
    bool serverPersistent = false;
    bool serverReopened = false;
    std::uint64_t serverMetaCap = 0;

    mutable std::vector<std::uint8_t> frameScratch;

    /** pendingWrites.size() as of its last change, for the sampler. */
    obs::Tally<std::uint64_t> inflightWrites;
    obs::MetricsSource metrics{[this](obs::PullSink &out) {
        out.level("storage.remote.inflight_writes",
                  "async write/flush RPCs parked in the pipelining window",
                  inflightWrites);
    }};
};

} // namespace laoram::storage

#endif // LAORAM_STORAGE_REMOTE_BACKEND_HH

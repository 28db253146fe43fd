/**
 * @file
 * The LAORAM *server* — the untrusted CPU-DRAM side of the protocol.
 *
 * Stores the tree as a slot array behind a pluggable storage backend
 * (storage::SlotBackend): DRAM by default, or a persistent mmap file
 * (storage::StorageConfig selects). Each slot holds a fixed-size
 * record: [block id (8 B)] [assigned leaf (8 B)] [payload
 * (payloadBytes)]. Records are encrypted at rest with a fresh nonce per
 * write (crypto::Encryptor), so the only information the server-side
 * observer gains is *which slots* are touched — exactly the paper's
 * threat model.
 *
 * Every caller talks to storage through the *vectored* readSlots /
 * writeSlots calls — one per path (union); a single slot is a vector
 * of one — so a backend can coalesce, prefetch or issue one real I/O
 * per path, and the adversary access sink costs one branch per path
 * instead of one per slot when no sink is installed.
 *
 * With encryption on, every vectored call opens or seals its whole
 * record vector in one batched ChaCha20 call (crypto::Encryptor::
 * decryptSlots / encryptSlots), and the CryptoStats ledger counts the
 * records and the nanoseconds each side took.
 *
 * `payloadBytes` is deliberately decoupled from the geometry's logical
 * `blockBytes`: correctness tests run with real payloads, while
 * paper-scale benches set payloadBytes = 0 and account traffic in
 * logical bytes, keeping memory use manageable without changing any
 * access-pattern metric.
 */

#ifndef LAORAM_ORAM_SERVER_STORAGE_HH
#define LAORAM_ORAM_SERVER_STORAGE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/encryptor.hh"
#include "obs/metrics.hh"
#include "oram/tree_geometry.hh"
#include "oram/types.hh"
#include "storage/slot_backend.hh"

namespace laoram::oram {

/**
 * Monotonic crypto ledger of one encrypted storage (value type). The
 * fields are obs::Tally cells, so a sampler thread may read the
 * storage's copy while the serving thread seals and opens records.
 * Each batched call takes one clock pair.
 */
struct CryptoStats
{
    using Count = obs::Tally<std::uint64_t>;
    using Nanos = obs::Tally<std::int64_t>;

    Count recordsSealed = 0;
    Count recordsOpened = 0;
    Nanos sealNs = 0; ///< measured wall time inside encryptSlots
    Nanos openNs = 0; ///< measured wall time inside decryptSlots
};

/** Untrusted tree storage with encryption-at-rest. */
class ServerStorage
{
  public:
    /**
     * DRAM-backed storage (the default everywhere a backend is not
     * explicitly configured).
     *
     * @param geom         tree geometry (not owned; must outlive)
     * @param payloadBytes bytes of payload physically stored per block
     * @param encrypt      encrypt records at rest (ChaCha20)
     * @param keySeed      key-derivation seed when encrypting
     */
    ServerStorage(const TreeGeometry &geom, std::uint64_t payloadBytes,
                  bool encrypt, std::uint64_t keySeed = 0);

    /** Storage with the backend described by @p scfg. */
    ServerStorage(const TreeGeometry &geom, std::uint64_t payloadBytes,
                  bool encrypt, std::uint64_t keySeed,
                  const storage::StorageConfig &scfg);

    /** Storage over a caller-built backend (tests, custom stores). */
    ServerStorage(const TreeGeometry &geom, std::uint64_t payloadBytes,
                  bool encrypt, std::uint64_t keySeed,
                  std::unique_ptr<storage::SlotBackend> backend);

    ~ServerStorage();

    ServerStorage(const ServerStorage &) = delete;
    ServerStorage &operator=(const ServerStorage &) = delete;

    std::uint64_t payloadBytes() const { return payBytes; }
    std::uint64_t recordBytes() const { return recBytes; }
    const TreeGeometry &geometry() const { return geom; }

    /** One slot of a vectored write (id == kInvalidBlock => dummy). */
    struct SlotWriteOp
    {
        std::uint64_t slot = 0;
        BlockId id = kInvalidBlock;
        Leaf leaf = 0;
        const std::uint8_t *payload = nullptr;
        std::size_t len = 0;
    };

    /** Receives the records of a vectored read, in slot order. */
    class RecordSink
    {
      public:
        /**
         * Record @p i of the read (dummies included). @p payload
         * points at payloadBytes() decoded bytes that stay valid only
         * for the duration of the call.
         */
        virtual void record(std::size_t i, BlockId id, Leaf leaf,
                            const std::uint8_t *payload) = 0;

      protected:
        ~RecordSink() = default;
    };

    /**
     * Vectored path read: fetch @p n slots as one backend operation
     * and hand each decoded record to @p into, without copying it.
     * On a mapped backend @p into runs inside the timed decode.
     */
    void readSlots(const std::uint64_t *slots, std::size_t n,
                   RecordSink &into) const;

    /**
     * readSlots into @p out (resized to n; payload capacity reused
     * across calls). Slot i of @p slots lands in out[i].
     */
    void readSlots(const std::uint64_t *slots, std::size_t n,
                   std::vector<StoredBlock> &out) const;

    /** Vectored path write-back: apply @p n ops as one backend op. */
    void writeSlots(const SlotWriteOp *ops, std::size_t n);

    /**
     * Persist: save the encryption epoch table into the backend's
     * meta region (persistent backends) and apply its durability
     * policy. Called automatically on destruction.
     */
    void flush();

    /** Number of physical slots (== geometry().totalSlots()). */
    std::uint64_t slots() const { return nSlots; }

    /**
     * DRAM-resident bytes of this storage, as reported by the
     * backend: the full array for DRAM, the currently-mapped page set
     * for an mmap tree (its file can dwarf its resident footprint).
     */
    std::uint64_t residentBytes() const;

    /** The backend this storage runs on. */
    const storage::SlotBackend &backend() const { return *store; }

    /** Monotonic backend I/O ledger (measured ns, ops, bytes). */
    storage::IoStats ioStats() const { return store->ioStats(); }

    /**
     * Monotonic seal/open ledger; all zero without encryption. Pulled
     * by the metrics registry as crypto.* when encrypting.
     */
    CryptoStats cryptoStats() const { return cstats; }

    /** Drop the backend's clean pages (cold-cache benching). */
    void dropPageCache() { store->dropPageCache(); }

    /**
     * True when construction attached to an existing persistent tree
     * (slots kept as-is, epochs restored) instead of dummy-initing.
     */
    bool reopened() const { return wasReopened; }

    /**
     * Adversary's-eye view for security tests: called with
     * (slot, isWrite) on every physical slot access. The sink sees
     * exactly what a bus probe sees — addresses, never contents.
     */
    using AccessSink = std::function<void(std::uint64_t, bool)>;
    void setAccessSink(AccessSink sink) { this->sink = std::move(sink); }

  private:
    void initialise();

    /** Serialise one write op into @p rec (plaintext). */
    void encodeRecord(const SlotWriteOp &op, std::uint8_t *rec) const;

    /** Decrypt the first @p n records of staging in one batch. */
    void openStaged(const std::uint64_t *slots, std::size_t n) const;

    /** Encrypt the first @p n records of staging in one batch. */
    void sealStaged(const std::uint64_t *slots, std::size_t n);

    const TreeGeometry &geom;
    std::uint64_t payBytes;
    std::uint64_t recBytes;
    std::uint64_t nSlots;
    std::unique_ptr<storage::SlotBackend> store;
    crypto::Encryptor enc;
    AccessSink sink;
    bool wasReopened = false;

    // Whole-path record buffer and slot list, reused across calls to
    // avoid per-path allocation: every record of a staged backend,
    // and every record of an encrypted mapped tree, is opened or
    // sealed here so the at-rest bytes never hold plaintext.
    mutable std::vector<std::uint8_t> staging;
    std::vector<std::uint64_t> slotScratch;

    mutable CryptoStats cstats;
    /** Publishes cstats when encrypting; declared after it. */
    std::optional<obs::MetricsSource> cryptoSource;
};

} // namespace laoram::oram

#endif // LAORAM_ORAM_SERVER_STORAGE_HH

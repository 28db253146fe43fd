#include "cache/hot_cache.hh"

#include <algorithm>
#include <cctype>

#include "util/logging.hh"

namespace laoram::cache {

const char *
policyName(CachePolicy policy)
{
    return policy == CachePolicy::Lfu ? "lfu" : "lru";
}

bool
parsePolicy(const std::string &text, CachePolicy *out)
{
    std::string lower;
    lower.reserve(text.size());
    for (char c : text)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (lower == "lru") {
        *out = CachePolicy::Lru;
        return true;
    }
    if (lower == "lfu") {
        *out = CachePolicy::Lfu;
        return true;
    }
    return false;
}

void
CacheStats::accumulate(const CacheStats &other)
{
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    writebackCoalesced += other.writebackCoalesced;
    admissionHits += other.admissionHits;
    residentRows += other.residentRows;
    residentBytes += other.residentBytes;
    capacityRows += other.capacityRows;
}

CacheStats
CacheStats::deltaFrom(const CacheStats &start) const
{
    CacheStats d = *this;
    d.hits -= start.hits;
    d.misses -= start.misses;
    d.evictions -= start.evictions;
    d.writebackCoalesced -= start.writebackCoalesced;
    d.admissionHits -= start.admissionHits;
    return d;
}

HotEmbeddingCache::HotEmbeddingCache(const CacheConfig &config,
                                     std::uint64_t rowBytes)
    : cfg(config), bytesPerRow(rowBytes),
      maxRows(std::max<std::uint64_t>(
          1, rowBytes > 0 ? config.capacityBytes / rowBytes : 0)),
      source([this](obs::PullSink &out) {
          const CacheStats s = stats();
          out.counter("cache.hits",
                      "scheduled accesses served from the hot cache",
                      s.hits);
          out.counter("cache.misses",
                      "scheduled accesses served from ORAM", s.misses);
          out.counter("cache.evictions", "hot-cache rows evicted",
                      s.evictions);
          out.counter("cache.writeback_coalesced",
                      "deferred updates flushed into scheduled "
                      "accesses",
                      s.writebackCoalesced);
          out.counter("cache.admission_hits",
                      "operations served at admission time",
                      s.admissionHits);
      })
{
    LAORAM_ASSERT(rowBytes > 0,
                  "hot cache requires a non-zero payload width");
}

HotEmbeddingCache::OrderKey
HotEmbeddingCache::keyOf(oram::BlockId id, const Row &row) const
{
    const std::uint64_t primary =
        cfg.policy == CachePolicy::Lfu ? row.freq : row.lastUse;
    return OrderKey{primary, row.lastUse, id};
}

void
HotEmbeddingCache::touchLocked(oram::BlockId id, Row &row)
{
    order.erase(keyOf(id, row));
    ++row.freq;
    row.lastUse = ++useSeq;
    order.insert(keyOf(id, row));
}

AccessOutcome
HotEmbeddingCache::beginScheduledAccess(oram::BlockId id,
                                        std::vector<std::uint8_t> &payload)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = rows.find(id);
    if (it == rows.end()) {
        ++st.misses;
        return AccessOutcome::Miss;
    }
    Row &row = it->second;
    ++st.hits;
    touchLocked(id, row);
    // The row is authoritative on every kind of hit: the stash
    // payload takes the cached value so the bytes written back to the
    // ORAM tree are identical to the cache-off run.
    payload.assign(row.data.begin(), row.data.end());
    if (row.pinned > 0) {
        // One scheduled touch is the write-back for every deferred
        // admission-time op on this row: several ops on one id in a
        // window share a single bin-member touch, so release all
        // pins, not one.
        st.writebackCoalesced += row.pinned;
        row.pinned = 0;
        return AccessOutcome::Flushed;
    }
    return AccessOutcome::HitInPlace;
}

void
HotEmbeddingCache::completeScheduledAccess(
    oram::BlockId id, const std::vector<std::uint8_t> &payload)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = rows.find(id);
    LAORAM_ASSERT(it != rows.end(),
                  "row vanished between begin/completeScheduledAccess");
    Row &row = it->second;
    // A pin acquired since beginScheduledAccess means an assembler
    // thread served a newer op from this row while the access was in
    // flight. The fast path is gated off whenever planned ops on the
    // id are outstanding, so the access can only have been a pure
    // dummy for this row and any pin here always postdates
    // @p payload: keep the newer value and let its own scheduled
    // access flush it (lost-update guard).
    if (row.pinned > 0)
        return;
    row.data.assign(payload.begin(), payload.end());
}

void
HotEmbeddingCache::evictForSpaceLocked()
{
    while (rows.size() >= maxRows) {
        // Oldest/least-frequent first; pinned rows hold deferred
        // write-backs and are not evictable, so skip past them.
        auto victim = order.begin();
        while (victim != order.end()
               && rows.at(std::get<2>(*victim)).pinned > 0)
            ++victim;
        if (victim == order.end())
            return; // everything pinned: caller skips the insert
        rows.erase(std::get<2>(*victim));
        order.erase(victim);
        ++st.evictions;
    }
}

void
HotEmbeddingCache::insertLocked(oram::BlockId id,
                                std::vector<std::uint8_t> data,
                                std::uint64_t freq)
{
    evictForSpaceLocked();
    if (rows.size() >= maxRows)
        return; // all resident rows pinned; drop the fill
    Row row;
    row.data = std::move(data);
    row.freq = freq;
    row.lastUse = ++useSeq;
    order.insert(keyOf(id, row));
    rows.emplace(id, std::move(row));
}

void
HotEmbeddingCache::fill(oram::BlockId id,
                        const std::vector<std::uint8_t> &payload)
{
    LAORAM_ASSERT(payload.size() == bytesPerRow,
                  "hot-cache fill width mismatch");
    std::lock_guard<std::mutex> lock(mu);
    auto it = rows.find(id);
    if (it != rows.end()) {
        it->second.data.assign(payload.begin(), payload.end());
        return;
    }
    insertLocked(id, {payload.begin(), payload.end()}, 1);
}

bool
HotEmbeddingCache::tryServeAtAdmission(
    oram::BlockId id,
    const std::function<void(std::vector<std::uint8_t> &)> &fn)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = rows.find(id);
    if (it == rows.end())
        return false;
    Row &row = it->second;
    fn(row.data);
    ++row.pinned;
    ++st.admissionHits;
    return true;
}

void
HotEmbeddingCache::assertNoPinsLocked(const char *op) const
{
    for (const auto &[id, row] : rows)
        LAORAM_ASSERT(row.pinned == 0, op, " would drop ", row.pinned,
                      " deferred write-back(s) on block ", id,
                      "; quiesce (drain the frontend) first");
}

CacheStats
HotEmbeddingCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    CacheStats out = st;
    out.residentRows = rows.size();
    out.residentBytes = rows.size() * bytesPerRow;
    out.capacityRows = maxRows;
    return out;
}

void
HotEmbeddingCache::save(serde::Serializer &s) const
{
    std::lock_guard<std::mutex> lock(mu);
    assertNoPinsLocked("hot-cache save()");
    s.u8(static_cast<std::uint8_t>(cfg.policy));
    s.u64(bytesPerRow);
    s.u64(cfg.capacityBytes);
    s.u64(st.hits);
    s.u64(st.misses);
    s.u64(st.evictions);
    s.u64(st.writebackCoalesced);
    s.u64(st.admissionHits);
    s.u64(rows.size());
    // Eviction order, coldest first, so restore replays insertions
    // and reproduces the same relative recency/frequency ranking.
    for (const OrderKey &key : order) {
        const oram::BlockId id = std::get<2>(key);
        const Row &row = rows.at(id);
        s.u64(id);
        s.u64(row.freq);
        s.bytes(row.data.data(), row.data.size());
    }
}

void
HotEmbeddingCache::restore(serde::Deserializer &d)
{
    std::lock_guard<std::mutex> lock(mu);
    const std::uint8_t policy = d.u8();
    if (policy != static_cast<std::uint8_t>(cfg.policy))
        throw serde::SnapshotError(
            "hot-cache snapshot policy " + std::to_string(policy) +
            " does not match the configured policy " +
            std::string(policyName(cfg.policy)));
    const std::uint64_t snapRowBytes = d.u64();
    if (snapRowBytes != bytesPerRow)
        throw serde::SnapshotError(
            "hot-cache snapshot row width " +
            std::to_string(snapRowBytes) +
            " does not match the engine payload width " +
            std::to_string(bytesPerRow));
    const std::uint64_t snapCapacity = d.u64();
    if (snapCapacity != cfg.capacityBytes)
        throw serde::SnapshotError(
            "hot-cache snapshot capacity " +
            std::to_string(snapCapacity) +
            " bytes does not match the configured capacity " +
            std::to_string(cfg.capacityBytes) + " bytes");
    CacheStats restored;
    restored.hits = d.u64();
    restored.misses = d.u64();
    restored.evictions = d.u64();
    restored.writebackCoalesced = d.u64();
    restored.admissionHits = d.u64();
    const std::uint64_t nRows = d.u64();
    if (nRows > maxRows)
        throw serde::SnapshotError(
            "hot-cache snapshot holds " + std::to_string(nRows) +
            " rows but the configured capacity is " +
            std::to_string(maxRows) + " rows");
    assertNoPinsLocked("hot-cache restore()");
    rows.clear();
    order.clear();
    useSeq = 0;
    st = restored;
    for (std::uint64_t i = 0; i < nRows; ++i) {
        const oram::BlockId id = d.u64();
        const std::uint64_t freq = d.u64();
        std::vector<std::uint8_t> data(bytesPerRow);
        d.bytes(data.data(), data.size());
        insertLocked(id, std::move(data), freq);
    }
}

void
HotEmbeddingCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    // Same quiesced-boundary contract as save(): a pinned row is the
    // only copy of an acknowledged deferred write-back.
    assertNoPinsLocked("hot-cache clear()");
    rows.clear();
    order.clear();
    useSeq = 0;
}

} // namespace laoram::cache

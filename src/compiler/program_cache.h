/**
 * @file
 * On-disk cache of compiled Programs, so a cold service start skips
 * scheduling/compilation for batch shapes it has served before.
 *
 * A compiled bootstrap-batch Program is fully determined by the TFHE
 * parameter set, the scheduler's batching geometry and the batch size
 * — not by LUT contents (the instruction stream encodes slots, the
 * test polynomial is job data). The cache therefore keys entries by
 * exactly that triple and stores the hardened framed container
 * (Program::serializeFramed). Every load decodes it with
 * tryDeserializeFramed and verifies the result (compiler::verify): a
 * corrupt, truncated, unrunnable or stale file counts as a reject and
 * is treated as a miss, so the caller recompiles it; it is never
 * trusted.
 *
 * Thread safety: none. The service consults the cache under its
 * program-cache mutex; standalone users must serialize externally.
 */

#ifndef MORPHLING_COMPILER_PROGRAM_CACHE_H
#define MORPHLING_COMPILER_PROGRAM_CACHE_H

#include <cstdint>
#include <optional>
#include <string>

#include "compiler/program.h"
#include "compiler/sw_scheduler.h"
#include "tfhe/params.h"

namespace morphling::compiler {

/** Identity of one cached Program: everything its instruction stream
 *  depends on. */
struct ProgramCacheKey
{
    std::string paramsName;  //!< TfheParams::name
    SchedulerConfig sched;   //!< batching geometry
    std::uint64_t batchSize = 0;

    /** Deterministic file name encoding every key component (param
     *  set sanitized to [A-Za-z0-9_]). */
    std::string fileName() const;

    /** The key for one scheduler's bootstrap batch of `count`. */
    static ProgramCacheKey forBatch(const tfhe::TfheParams &params,
                                    const SchedulerConfig &sched,
                                    std::uint64_t count);
};

/**
 * A directory of framed Program containers. Construction creates the
 * directory (recursively); a directory that cannot be created disables
 * the cache (every load misses, every store is dropped) with a warn()
 * instead of failing the service.
 */
class ProgramDiskCache
{
  public:
    explicit ProgramDiskCache(std::string dir);

    /** True when the backing directory is usable. */
    bool enabled() const { return enabled_; }
    const std::string &dir() const { return dir_; }

    /**
     * Load a cached Program for the key's parameter set `params`.
     * Returns nullopt on a missing file, an unreadable file, a
     * container tryDeserializeFramed rejects, a decoded program that
     * does not verify under `params`, or one whose slot count
     * disagrees with the key (a stale entry from an incompatible
     * build); the reason lands in *why when given.
     */
    std::optional<Program> load(const ProgramCacheKey &key,
                                const tfhe::TfheParams &params,
                                std::string *why = nullptr);

    /** Persist a compiled Program under its key (atomic rename so a
     *  concurrent reader never sees a half-written file). Returns
     *  false (with a warn()) when the write fails. */
    bool store(const ProgramCacheKey &key, const Program &program);

    // Counters for tests and telemetry (per-instance, monotonic).
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t rejects() const { return rejects_; }
    std::uint64_t stores() const { return stores_; }

  private:
    std::string dir_;
    bool enabled_ = false;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t rejects_ = 0; //!< present but corrupt/unrunnable/stale
    std::uint64_t stores_ = 0;
};

} // namespace morphling::compiler

#endif // MORPHLING_COMPILER_PROGRAM_CACHE_H

#include "program_cache.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/logging.h"
#include "compiler/verify.h"

namespace morphling::compiler {

namespace fs = std::filesystem;

namespace {

std::string
sanitized(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out.empty() ? std::string("unnamed") : out;
}

} // namespace

std::string
ProgramCacheKey::fileName() const
{
    std::ostringstream oss;
    oss << "prog_" << sanitized(paramsName) << "_g" << sched.groupSize
        << "x" << sched.numGroups << "_k" << sched.kskReuse << "_n"
        << batchSize << ".mprog";
    return oss.str();
}

ProgramCacheKey
ProgramCacheKey::forBatch(const tfhe::TfheParams &params,
                          const SchedulerConfig &sched,
                          std::uint64_t count)
{
    ProgramCacheKey key;
    key.paramsName = params.name;
    key.sched = sched;
    key.batchSize = count;
    return key;
}

ProgramDiskCache::ProgramDiskCache(std::string dir)
    : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_)) {
        warn("program cache directory '", dir_,
             "' is unusable (", ec.message(),
             "); caching disabled for this run");
        return;
    }
    enabled_ = true;
}

std::optional<Program>
ProgramDiskCache::load(const ProgramCacheKey &key,
                       const tfhe::TfheParams &params, std::string *why)
{
    auto miss = [&](const std::string &reason) {
        if (why != nullptr)
            *why = reason;
        return std::nullopt;
    };

    if (!enabled_) {
        ++misses_;
        return miss("cache disabled");
    }
    const fs::path path = fs::path(dir_) / key.fileName();
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is) {
        ++misses_;
        return miss("no cached entry");
    }

    const auto size = static_cast<std::size_t>(is.tellg());
    if (size == 0 || size % sizeof(std::uint64_t) != 0) {
        ++rejects_;
        return miss("cached file has a non-word-aligned size");
    }
    std::vector<std::uint64_t> words(size / sizeof(std::uint64_t));
    is.seekg(0);
    is.read(reinterpret_cast<char *>(words.data()),
            static_cast<std::streamsize>(size));
    if (!is) {
        ++rejects_;
        return miss("cached file is unreadable");
    }

    std::string error;
    auto program =
        Program::tryDeserializeFramed(key.fileName(), words, &error);
    std::optional<ProgramPlan> plan;
    if (program.has_value())
        plan = verify(*program, params, &error);
    if (!plan.has_value()) {
        ++rejects_;
        return miss("rejected cached program: " + error);
    }
    // Stale-entry guard: the decoded program must actually be the
    // batch the key describes (a schema-compatible file from an older
    // scheduler would decode fine but mean something else).
    if (plan->slots != key.batchSize) {
        ++rejects_;
        std::ostringstream oss;
        oss << "stale cached program: " << plan->slots
            << " slots, key expects " << key.batchSize;
        return miss(oss.str());
    }
    ++hits_;
    return program;
}

bool
ProgramDiskCache::store(const ProgramCacheKey &key,
                        const Program &program)
{
    if (!enabled_)
        return false;
    const auto words = program.serializeFramed();
    const fs::path path = fs::path(dir_) / key.fileName();
    // Write-then-rename so a crash or concurrent cold start never
    // leaves a half-written file under the final name. The temp name
    // embeds this cache instance's address: several services (e.g.
    // per-tenant) may share one directory, and two of them storing
    // the same key must not interleave writes into one temp file.
    std::ostringstream tmp_name;
    tmp_name << path.string() << ".tmp."
             << reinterpret_cast<std::uintptr_t>(this);
    const fs::path tmp = tmp_name.str();
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            warn("program cache: cannot write ", tmp.string());
            return false;
        }
        os.write(reinterpret_cast<const char *>(words.data()),
                 static_cast<std::streamsize>(
                     words.size() * sizeof(std::uint64_t)));
        if (!os) {
            warn("program cache: short write to ", tmp.string());
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        warn("program cache: rename to ", path.string(), " failed: ",
             ec.message());
        fs::remove(tmp, ec);
        return false;
    }
    ++stores_;
    return true;
}

} // namespace morphling::compiler

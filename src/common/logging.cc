#include "logging.h"

#include <atomic>

namespace morphling {

namespace {

std::atomic<std::size_t> warn_counter{0};

} // namespace

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  @ " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << "\n  @ " << file << ":" << line
              << std::endl;
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    warn_counter.fetch_add(1, std::memory_order_relaxed);
    std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    // stderr, like warn(): a program's stdout (a JSON report, a result
    // line) must not carry status lines.
    std::cerr << "info: " << msg << std::endl;
}

} // namespace detail

std::size_t
warnCount()
{
    return warn_counter.load(std::memory_order_relaxed);
}

} // namespace morphling

/**
 * @file
 * The deployment split every FHE service uses — now across two real
 * processes. The parent runs the multi-tenant front door
 * (service::MultiTenantService); a forked child runs the execution
 * server (exec::RemoteServer) on a localhost TCP port. Each client
 * keeps its own secret key; the front door enrolls each tenant's
 * evaluation keys (BSK + KSK) behind a content-derived fingerprint,
 * routes ciphertext queries by tenant id, and batches each tenant's
 * queries into Morphling-style 64-LWE superbatches — but every
 * superbatch now ships over the wire (compiled program, ciphertexts
 * and LUT in one framed request; exec::RemoteBackend) and executes in
 * the server process, with tenant keys auto-enrolled over TCP on
 * first use. Per-tenant token buckets bound how hard one tenant can
 * push, and per-tenant stats expose p50/p99 latency the way a
 * production scrape would. Wire formats: this library's versioned
 * binary serialization (tfhe/serialize.h) and the framed remote
 * protocol (exec/remote_protocol.h).
 *
 * Build & run:  ./build/examples/client_server
 */

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "exec/remote_server.h"
#include "service/multi_tenant_service.h"
#include "tfhe/encoding.h"
#include "tfhe/serialize.h"

using namespace morphling;
using namespace morphling::tfhe;
using morphling::service::LutId;
using morphling::service::MultiTenantConfig;
using morphling::service::MultiTenantService;
using morphling::service::TenantId;
using morphling::service::TenantQuota;

namespace {

/** One client's identity: its own keys and its own queries. */
struct Client {
    TenantId name;
    KeySet keys;
    std::vector<std::uint32_t> queries;
};

/**
 * The execution-server process: hosts a functional backend behind the
 * remote protocol, with no key material of its own — tenants'
 * evaluation keys arrive over the wire (auto-enrollment). Reports its
 * ephemeral port through `port_fd`, serves until `quit_fd` reaches
 * EOF, then exits.
 */
int
executionServerProcess(int port_fd, int quit_fd)
{
    exec::RemoteServerConfig config;
    config.inner.kind = exec::BackendKind::kFunctional;
    exec::RemoteServer server(config);
    server.start();

    const std::uint16_t port = server.port();
    if (::write(port_fd, &port, sizeof(port)) != sizeof(port))
        return 2;
    ::close(port_fd);

    // Block until the front-door process says goodbye (closes the
    // pipe); a byte or EOF both mean "stop serving".
    char byte;
    while (::read(quit_fd, &byte, 1) < 0 && errno == EINTR) {
    }
    ::close(quit_fd);

    const auto stats = server.stats();
    std::cout << "server process: " << stats.requests << " requests, "
              << stats.executions << " executions, "
              << stats.enrollments << " keys enrolled over the wire, "
              << stats.bytesIn / 1024 << " KiB in / "
              << stats.bytesOut / 1024 << " KiB out\n";
    server.stop();
    return 0;
}

/**
 * What the untrusted front door runs: no KeySet, no secret bits. One
 * MultiTenantService fronts every tenant; enrollment hands it only
 * serialized evaluation keys, and each query carries its tenant id.
 * Execution happens in the server process at `server_port` — the
 * front door's workers ship every superbatch over TCP.
 */
std::vector<std::vector<std::string>>
frontDoorSide(
    std::uint16_t server_port,
    const std::vector<std::pair<TenantId, std::string>> &enrollments,
    const std::vector<std::pair<TenantId, std::string>> &queries)
{
    MultiTenantConfig config;
    config.service.maxWait = std::chrono::milliseconds(5);
    config.service.backend = exec::BackendKind::kRemote;
    config.service.remote.port = server_port;
    MultiTenantService front(config);

    // Enroll every tenant. The front door fingerprints the keys
    // (content-derived, stable across restarts) and holds one handle
    // that shares the loaded keys' storage; a modest rate quota bounds
    // each tenant's burst. The execution server learns each tenant's
    // keys lazily: the first superbatch under an unknown fingerprint
    // triggers wire enrollment.
    TenantQuota quota;
    quota.ratePerSec = 1000;
    quota.burst = 64;
    for (const auto &[tenant, wire] : enrollments) {
        std::istringstream keys_in(wire);
        const auto fp = front.addTenant(
            tenant, loadEvaluationKeys(keys_in), quota);
        std::cout << "front door: enrolled '" << tenant
                  << "' (key fingerprint " << std::hex << fp << std::dec
                  << ")\n";
    }

    // The service: a private threshold check, f(m) = (m >= 4), plus a
    // noise refresh — one programmable bootstrap per query. Each
    // tenant gets its own LUT table (ids are per-tenant).
    const auto table = makePaddedLut(8, [](std::uint32_t m) {
        return m >= 4 ? 1u : 0u;
    });
    std::vector<LutId> luts;
    for (const auto &[tenant, wire] : enrollments)
        luts.push_back(front.registerLut(tenant, table));

    // Accept every query first (they arrive interleaved across
    // tenants in a real deployment); the front door routes each to
    // its tenant's service and admission bucket.
    std::vector<std::future<LweCiphertext>> answers;
    std::vector<std::size_t> owner;
    for (const auto &[tenant, wire] : queries) {
        std::istringstream query_in(wire);
        std::size_t which = 0;
        while (enrollments[which].first != tenant)
            ++which;
        owner.push_back(which);
        answers.push_back(front.submit(
            tenant, loadCiphertext(query_in), luts[which]));
    }

    std::vector<std::vector<std::string>> out(enrollments.size());
    for (std::size_t i = 0; i < answers.size(); ++i) {
        std::ostringstream wire;
        saveCiphertext(wire, answers[i].get());
        out[owner[i]].push_back(wire.str());
    }

    for (const auto &[tenant, wire] : enrollments) {
        const auto stats = front.stats(tenant);
        std::cout << "front door: '" << tenant << "': "
                  << stats.completed << " bootstraps, p99 "
                  << stats.p99LatencyUs << " us, " << stats.throttled
                  << " throttled\n";
    }
    front.shutdown();
    return out;
}

} // namespace

int
main()
{
    // --- Clients: independent key ceremonies --------------------------
    const TfheParams &params = paramsTest();
    Rng rng(0xC11E47);
    std::cout << "clients: generating keys for " << params.summary()
              << "\n";
    std::vector<Client> clients;
    clients.push_back({"alice", KeySet::generate(params, rng),
                       {2, 6, 3, 7}});
    clients.push_back({"bob", KeySet::generate(params, rng),
                       {5, 1, 4}});

    // Each client serializes only its evaluation keys; the secret key
    // never leaves the client.
    std::vector<std::pair<TenantId, std::string>> enrollments;
    for (const auto &client : clients) {
        std::ostringstream wire;
        saveEvaluationKeys(wire, EvaluationKeys::fromKeySet(client.keys));
        std::cout << "client " << client.name
                  << ": evaluation keys serialized ("
                  << wire.str().size() / 1024 << " KiB)\n";
        enrollments.emplace_back(client.name, wire.str());
    }

    // --- Clients: encrypt interleaved bursts of queries ---------------
    std::vector<std::pair<TenantId, std::string>> query_wires;
    for (std::size_t round = 0;; ++round) {
        bool any = false;
        for (auto &client : clients) {
            if (round >= client.queries.size())
                continue;
            any = true;
            std::ostringstream wire;
            saveCiphertext(wire, encryptPadded(
                client.keys, client.queries[round], 8, rng));
            query_wires.emplace_back(client.name, wire.str());
        }
        if (!any)
            break;
    }

    // --- Fork the execution-server process (before any threads) -------
    std::cout.flush(); // don't let the child re-flush buffered lines
    int port_pipe[2];  // child -> parent: the bound port
    int quit_pipe[2];  // parent -> child: EOF means stop
    if (::pipe(port_pipe) != 0 || ::pipe(quit_pipe) != 0) {
        std::perror("pipe");
        return 1;
    }
    const pid_t child = ::fork();
    if (child < 0) {
        std::perror("fork");
        return 1;
    }
    if (child == 0) {
        ::close(port_pipe[0]);
        ::close(quit_pipe[1]);
        const int rc =
            executionServerProcess(port_pipe[1], quit_pipe[0]);
        std::exit(rc);
    }
    ::close(port_pipe[1]);
    ::close(quit_pipe[0]);

    std::uint16_t server_port = 0;
    if (::read(port_pipe[0], &server_port, sizeof(server_port)) !=
        sizeof(server_port)) {
        std::cerr << "server process failed to report its port\n";
        return 1;
    }
    ::close(port_pipe[0]);
    std::cout << "server process " << child
              << " listening on 127.0.0.1:" << server_port << "\n";

    // --- Front door: blind, batched, multi-tenant, over TCP -----------
    const auto answer_wires =
        frontDoorSide(server_port, enrollments, query_wires);

    // Tell the server process to stop, and collect its exit status.
    ::close(quit_pipe[1]);
    int status = 0;
    ::waitpid(child, &status, 0);
    const bool server_ok =
        WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!server_ok)
        std::cout << "server process exited abnormally\n";

    // --- Clients: decrypt their own responses --------------------------
    bool all_correct = true;
    for (std::size_t c = 0; c < clients.size(); ++c) {
        const Client &client = clients[c];
        for (std::size_t i = 0; i < client.queries.size(); ++i) {
            std::istringstream answer_in(answer_wires[c][i]);
            const LweCiphertext answer = loadCiphertext(answer_in);
            const std::uint32_t verdict =
                decryptPadded(client.keys, answer, 8);
            const bool expect = client.queries[i] >= 4;
            all_correct &= verdict == (expect ? 1u : 0u);
            std::cout << "client " << client.name << ": is "
                      << client.queries[i] << " >= 4?  server says "
                      << (verdict ? "yes" : "no") << " (expect "
                      << (expect ? "yes" : "no") << ")\n";
        }
    }
    if (!all_correct) {
        std::cout << "MISMATCH: at least one verdict was wrong\n";
        return 1;
    }
    return server_ok ? 0 : 1;
}

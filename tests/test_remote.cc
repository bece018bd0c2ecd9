/**
 * @file
 * Tests of the remote execution backend (src/exec/remote_*): loopback
 * bit-identity against the local FunctionalBackend (outputs AND
 * retirement log) for superbatches and circuits at 1 and 4 threads,
 * the server's thread clamp, idempotent retry after a disconnect that
 * lost the result frame, transport failure paths (truncated payload,
 * version mismatch, silent server, refused connect), typed misuse
 * errors, over-the-wire key enrollment, and the service layer running
 * over BackendKind::kRemote (including against a dead server).
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <exception>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "compiler/sw_scheduler.h"
#include "exec/backend.h"
#include "exec/circuit_executor.h"
#include "exec/functional_backend.h"
#include "exec/remote_backend.h"
#include "exec/remote_protocol.h"
#include "exec/remote_server.h"
#include "service/bootstrap_service.h"
#include "tfhe/encoding.h"
#include "tfhe/serialize.h"

namespace morphling::exec {
namespace {

using remote::FrameType;
using remote::RemoteError;
using remote::RemoteErrorKind;

class RemoteFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(0x4E307E);
        keys_ = new tfhe::KeySet(
            tfhe::KeySet::generate(tfhe::paramsTest(), rng));
        evalKeys_ = new tfhe::EvaluationKeys(
            tfhe::EvaluationKeys::fromKeySet(*keys_));
    }
    static void
    TearDownTestSuite()
    {
        delete evalKeys_;
        delete keys_;
        keys_ = nullptr;
        evalKeys_ = nullptr;
    }

    const tfhe::KeySet &keys() { return *keys_; }
    const tfhe::EvaluationKeys &evalKeys() { return *evalKeys_; }

    Rng rng{0x5EED7};

    std::vector<tfhe::LweCiphertext>
    encryptBatch(std::size_t count)
    {
        std::vector<tfhe::LweCiphertext> out;
        out.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            out.push_back(tfhe::encryptPadded(
                keys(), static_cast<std::uint32_t>(i % 4), 4, rng));
        }
        return out;
    }

    std::vector<tfhe::LweCiphertext>
    encryptBits(unsigned value, unsigned bits)
    {
        std::vector<tfhe::LweCiphertext> out;
        for (unsigned i = 0; i < bits; ++i)
            out.push_back(
                tfhe::encryptBit(keys(), (value >> i) & 1, rng));
        return out;
    }

    static circuit::Circuit
    adder(unsigned bits)
    {
        circuit::Circuit c;
        std::vector<circuit::Wire> a, b, sum;
        for (unsigned i = 0; i < bits; ++i)
            a.push_back(c.bitInput());
        for (unsigned i = 0; i < bits; ++i)
            b.push_back(c.bitInput());
        const auto carry = circuit::buildRippleAdder(c, a, b, sum);
        for (auto w : sum)
            c.markOutput(w);
        c.markOutput(carry);
        return c;
    }

    /** Server pre-loaded with the suite's keys. */
    std::unique_ptr<RemoteServer>
    startServer(RemoteServerConfig config = {})
    {
        auto server = std::make_unique<RemoteServer>(std::move(config));
        server->addKeys(evalKeys());
        server->start();
        return server;
    }

    /** Client config with test-friendly timeouts. */
    static RemoteClientConfig
    clientConfig(std::uint16_t port)
    {
        RemoteClientConfig config;
        config.port = port;
        config.requestTimeout = std::chrono::seconds(120);
        config.connectTimeout = std::chrono::milliseconds(500);
        config.backoffBase = std::chrono::milliseconds(20);
        return config;
    }

    /** Send one hand-built kExecute frame (a batch job under the
     *  suite's keys) on a fresh raw connection, bypassing the client's
     *  own checks, and return the server's reply. */
    remote::Frame
    sendRawExecute(std::uint16_t port, std::uint64_t requestId,
                   const std::vector<tfhe::Torus32> &lut,
                   const compiler::Program &program,
                   const std::vector<tfhe::LweCiphertext> &inputs,
                   std::uint32_t threads = 1)
    {
        const auto deadline =
            remote::deadlineAfter(std::chrono::seconds(10));
        remote::Socket raw = remote::connectTcp(
            "127.0.0.1", port, std::chrono::seconds(5));
        remote::sendHello(raw, FrameType::kHello, deadline);
        remote::checkHello(remote::recvFrame(raw, deadline),
                           FrameType::kHelloAck);

        remote::WireWriter w;
        w.u64(requestId);
        w.u64(tfhe::fingerprintEvaluationKeys(evalKeys()));
        w.u8(0);   // signLut
        w.u32(threads);
        w.u8(0);   // checkNoise
        w.f64(4.0); // minSlotSigmas
        remote::writeTorusVector(w, lut);
        remote::writeWordVector(w, program.serializeFramed());
        w.u32(static_cast<std::uint32_t>(inputs.size()));
        for (const auto &ct : inputs)
            remote::writeCiphertext(w, ct);
        remote::sendFrame(raw, FrameType::kExecute, w.take(), deadline);
        return remote::recvFrame(raw, deadline);
    }

    /** A well-formed request from a real client still succeeds. */
    void
    expectStillServes(const RemoteServer &server)
    {
        const auto inputs = encryptBatch(4);
        const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
            return m;
        });
        const auto program =
            compiler::SwScheduler(keys().params).scheduleBootstrapBatch(4);
        RemoteBackend remote(evalKeys(), clientConfig(server.port()));
        const auto result = remote.run(program, Job::batch(inputs, lut));
        ASSERT_TRUE(result.hasOutputs);
        ASSERT_EQ(result.outputs.size(), inputs.size());
        for (std::size_t i = 0; i < inputs.size(); ++i)
            EXPECT_EQ(tfhe::decryptPadded(keys(), result.outputs[i], 4),
                      i % 4);
    }

    /** Full bit-identity of two execution results: outputs and the
     *  complete retirement log (index, instruction, seq, tick). */
    static void
    expectIdentical(const ExecutionResult &got,
                    const ExecutionResult &want)
    {
        ASSERT_EQ(got.hasOutputs, want.hasOutputs);
        ASSERT_EQ(got.outputs.size(), want.outputs.size());
        for (std::size_t i = 0; i < got.outputs.size(); ++i)
            EXPECT_EQ(got.outputs[i].raw(), want.outputs[i].raw())
                << "output " << i << " differs";
        ASSERT_EQ(got.retired.size(), want.retired.size());
        for (std::size_t i = 0; i < got.retired.size(); ++i) {
            EXPECT_EQ(got.retired[i].index, want.retired[i].index)
                << "retirement " << i;
            EXPECT_EQ(got.retired[i].inst, want.retired[i].inst)
                << "retirement " << i;
            EXPECT_EQ(got.retired[i].seq, want.retired[i].seq)
                << "retirement " << i;
            EXPECT_EQ(got.retired[i].tick, want.retired[i].tick)
                << "retirement " << i;
        }
    }

    static tfhe::KeySet *keys_;
    static tfhe::EvaluationKeys *evalKeys_;
};

tfhe::KeySet *RemoteFixture::keys_ = nullptr;
tfhe::EvaluationKeys *RemoteFixture::evalKeys_ = nullptr;

TEST_F(RemoteFixture, SuperbatchBitIdenticalToLocalFunctional)
{
    auto server = startServer();
    const auto inputs = encryptBatch(64);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return (m + 1) % 4;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(64);
    RemoteBackend remote(evalKeys(), clientConfig(server->port()));
    FunctionalBackend local(evalKeys());

    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        tfhe::BatchOptions options;
        options.threads = threads;
        const Job job = Job::batch(inputs, lut, options);
        const auto reference = local.run(program, job);
        const auto result = remote.run(program, job);

        EXPECT_EQ(result.backend, "remote");
        expectIdentical(result, reference);
        EXPECT_EQ(remote.lastServerExecutions(), 1u);
        for (std::size_t i = 0; i < result.outputs.size(); ++i)
            EXPECT_EQ(tfhe::decryptPadded(keys(), result.outputs[i], 4),
                      (i % 4 + 1) % 4);
    }
    EXPECT_EQ(server->stats().executions, 2u);
}

TEST_F(RemoteFixture, WireThreadCountIsClamped)
{
    // A peer asking for 2^32 - 1 threads gets the host's hardware
    // concurrency at most, and the same bytes as a local run.
    auto server = startServer();
    const auto inputs = encryptBatch(16);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return (m + 2) % 4;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(16);
    const auto reference =
        FunctionalBackend(evalKeys()).run(program, Job::batch(inputs, lut));

    const auto reply = sendRawExecute(server->port(), 5, lut, program,
                                      inputs, 0xFFFFFFFFu);
    ASSERT_EQ(reply.type, FrameType::kResult);
    remote::WireReader r(reply.payload);
    EXPECT_EQ(r.u64(), 5u);          // request id
    EXPECT_EQ(r.u64(), 1u);          // executions
    EXPECT_EQ(r.u8(), 1u);           // hasOutputs
    ASSERT_EQ(r.u32(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(remote::readCiphertext(r).raw(),
                  reference.outputs[i].raw())
            << "output " << i;
    ASSERT_EQ(r.u32(), reference.retired.size());
    for (const auto &want : reference.retired) {
        EXPECT_EQ(r.u64(), want.index);
        EXPECT_EQ(r.u64(), want.seq);
        EXPECT_EQ(r.u64(), want.tick);
    }
    EXPECT_TRUE(r.atEnd());
}

TEST_F(RemoteFixture, SignLutJobMatchesLocal)
{
    auto server = startServer();
    const auto inputs = encryptBatch(16);
    const std::vector<tfhe::Torus32> mu = {tfhe::boolMu()};
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(16);
    const Job job = Job::sign(inputs, mu);

    FunctionalBackend local(evalKeys());
    const auto reference = local.run(program, job);
    RemoteBackend remote(evalKeys(), clientConfig(server->port()));
    expectIdentical(remote.run(program, job), reference);
}

TEST_F(RemoteFixture, AdderCircuitBitIdenticalOverTheWire)
{
    // The 8-bit adder rides submitCircuit's machinery: an
    // exec::CircuitExecutor drives the backend level by level. The
    // first level program's result frame is dropped after the server
    // cached it; the retry must replay it and leave the final sums
    // bit-identical to the all-local run.
    RemoteServerConfig sconfig;
    sconfig.dropFirstResult = true;
    auto server = startServer(sconfig);

    const auto c = adder(8);
    const unsigned x = 200, y = 88;
    auto inputs = encryptBits(x, 8);
    for (const auto &ct : encryptBits(y, 8))
        inputs.push_back(ct);

    FunctionalBackend local(evalKeys());
    CircuitExecutor localExec(keys().params, local);
    const auto reference = localExec.run(c, inputs);

    RemoteBackend remote(evalKeys(), clientConfig(server->port()));
    CircuitExecutor remoteExec(keys().params, remote);
    const auto result = remoteExec.run(c, inputs);

    ASSERT_EQ(result.outputs.size(), reference.outputs.size());
    for (std::size_t i = 0; i < result.outputs.size(); ++i)
        EXPECT_EQ(result.outputs[i].raw(), reference.outputs[i].raw())
            << "output " << i;
    const auto stats = server->stats();
    EXPECT_GE(stats.dropped, 1u) << "injected drop not hit";
    // Every level program ran exactly once; the dropped one took a
    // second attempt, answered from the cache.
    std::size_t runs = 0;
    for (const auto &level : result.levels)
        runs += level.steps;
    EXPECT_EQ(stats.executions, runs);
    EXPECT_GE(stats.requests, runs + 1);
    EXPECT_GE(stats.replays, 1u);

    unsigned sum = 0;
    for (std::size_t i = 0; i + 1 < result.outputs.size(); ++i)
        sum |= tfhe::decryptBit(keys(), result.outputs[i]) << i;
    sum |= tfhe::decryptBit(keys(),
                            result.outputs[result.outputs.size() - 1])
           << (result.outputs.size() - 1);
    EXPECT_EQ(sum, x + y);
}

TEST_F(RemoteFixture, MidStreamDisconnectRetriesWithoutReexecution)
{
    RemoteServerConfig sconfig;
    sconfig.dropFirstResult = true;
    auto server = startServer(sconfig);

    const auto inputs = encryptBatch(64);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return 3 - m;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(64);
    const Job job = Job::batch(inputs, lut);

    FunctionalBackend local(evalKeys());
    const auto reference = local.run(program, job);

    RemoteBackend remote(evalKeys(), clientConfig(server->port()));
    const auto result = remote.run(program, job);

    expectIdentical(result, reference);
    EXPECT_GE(remote.lastAttempts(), 2u)
        << "the injected drop should have forced a retry";
    EXPECT_EQ(remote.lastServerExecutions(), 1u)
        << "retry must replay the cached result, not re-execute";
    EXPECT_EQ(server->executionsFor(remote.lastRequestId()), 1u);
    EXPECT_GE(server->stats().replays, 1u);
}

TEST_F(RemoteFixture, TruncatedPayloadRejectedAndServerKeepsServing)
{
    auto server = startServer();
    const auto deadline =
        remote::deadlineAfter(std::chrono::seconds(10));

    // Handshake by hand, then send an execute payload that lies about
    // its ciphertext dimension and stops mid-ciphertext.
    remote::Socket raw = remote::connectTcp(
        "127.0.0.1", server->port(), std::chrono::seconds(5));
    remote::sendHello(raw, FrameType::kHello, deadline);
    remote::checkHello(remote::recvFrame(raw, deadline),
                       FrameType::kHelloAck);

    remote::WireWriter w;
    w.u64(1);                  // request id
    w.u64(0);                  // fingerprint (never reached)
    w.u8(0);                   // signLut
    w.u32(1);                  // threads
    w.u8(0);                   // checkNoise
    w.f64(4.0);                // minSlotSigmas
    w.u32(1);                  // LUT entries
    w.u32(0x12345678);         // the entry
    w.u64(4);                  // program words
    for (int i = 0; i < 4; ++i)
        w.u64(0);
    w.u32(3);                  // claims 3 input ciphertexts...
    w.u32(600);                // ...first claims dim 600...
    w.u32(0xDEAD);             // ...but the frame ends here
    remote::sendFrame(raw, FrameType::kExecute, w.take(), deadline);

    const auto reply = remote::recvFrame(raw, deadline);
    ASSERT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(remote::decodeError(reply).kind(),
              RemoteErrorKind::kMalformedFrame);

    // Same server, same connection stream position: a well-formed
    // request from a real client still succeeds.
    const auto inputs = encryptBatch(8);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(8);
    RemoteBackend remote(evalKeys(), clientConfig(server->port()));
    const auto result = remote.run(program, Job::batch(inputs, lut));
    EXPECT_TRUE(result.hasOutputs);
    EXPECT_GE(server->stats().rejected, 1u);
}

TEST_F(RemoteFixture, BadProgramRejectedTyped)
{
    auto server = startServer();
    const auto fp = tfhe::fingerprintEvaluationKeys(evalKeys());
    const auto deadline =
        remote::deadlineAfter(std::chrono::seconds(10));

    remote::Socket raw = remote::connectTcp(
        "127.0.0.1", server->port(), std::chrono::seconds(5));
    remote::sendHello(raw, FrameType::kHello, deadline);
    remote::checkHello(remote::recvFrame(raw, deadline),
                       FrameType::kHelloAck);

    remote::WireWriter w;
    w.u64(2);
    w.u64(fp);
    w.u8(0);
    w.u32(1);
    w.u8(0);
    w.f64(4.0);
    w.u32(1);
    w.u32(0x12345678);
    w.u64(4); // four garbage words: not a framed program
    for (int i = 0; i < 4; ++i)
        w.u64(0xFFFFFFFFFFFFFFFFull);
    w.u32(0); // no inputs
    remote::sendFrame(raw, FrameType::kExecute, w.take(), deadline);

    const auto reply = remote::recvFrame(raw, deadline);
    ASSERT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(remote::decodeError(reply).kind(),
              RemoteErrorKind::kBadProgram)
        << remote::decodeError(reply).what();
    // The rejection must not poison the idempotency cache.
    EXPECT_EQ(server->executionsFor(2), 0u);
}

TEST_F(RemoteFixture, UnverifiedProgramRejectedTypedAndServerKeepsServing)
{
    // A decodable 4-LWE program without its VPU.MS passes the framed
    // decode and every job check; it used to abort the server inside
    // the interpreter. The verifier rejects it before the idempotency
    // gate.
    auto server = startServer();
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    const auto batch =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(4);
    compiler::Program program(batch.name());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch.at(i).op != compiler::Opcode::VpuModSwitch)
            program.add(batch.at(i));
    }

    const auto reply =
        sendRawExecute(server->port(), 5, lut, program, encryptBatch(4));
    ASSERT_EQ(reply.type, FrameType::kError);
    const auto error = remote::decodeError(reply);
    EXPECT_EQ(error.kind(), RemoteErrorKind::kBadProgram) << error.what();
    EXPECT_NE(std::string(error.what()).find("instruction 1"),
              std::string::npos)
        << error.what();
    EXPECT_EQ(server->executionsFor(5), 0u);
    expectStillServes(*server);
}

TEST_F(RemoteFixture, WrongDimensionInputRejectedTyped)
{
    // An input of dimension n+1 would reach the interpreter's dimension
    // check and abort the server; it must be a typed rejection instead.
    auto server = startServer();
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(2);
    auto inputs = encryptBatch(2);
    inputs[1] = tfhe::LweCiphertext(keys().params.lweDimension + 1);

    const auto reply =
        sendRawExecute(server->port(), 3, lut, program, inputs);
    ASSERT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(remote::decodeError(reply).kind(),
              RemoteErrorKind::kBadProgram)
        << remote::decodeError(reply).what();
    EXPECT_EQ(server->executionsFor(3), 0u);
    expectStillServes(*server);
}

TEST_F(RemoteFixture, OversizedLutRejectedTyped)
{
    // A LUT with 2 * |lut| > N has no test polynomial; building one
    // would abort the server.
    auto server = startServer();
    const std::vector<tfhe::Torus32> lut(keys().params.polyDegree / 2 + 1,
                                         0x12345678);
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(2);

    const auto reply =
        sendRawExecute(server->port(), 4, lut, program, encryptBatch(2));
    ASSERT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(remote::decodeError(reply).kind(),
              RemoteErrorKind::kBadProgram)
        << remote::decodeError(reply).what();
    EXPECT_EQ(server->executionsFor(4), 0u);
    expectStillServes(*server);
}

TEST_F(RemoteFixture, TruncatedKeyEnrollmentRejectedTyped)
{
    // The server parses enrollment payloads in place; a blob cut in
    // half must be a typed rejection, not a read past its end.
    auto server = startServer();
    const auto deadline =
        remote::deadlineAfter(std::chrono::seconds(10));
    remote::Socket raw = remote::connectTcp(
        "127.0.0.1", server->port(), std::chrono::seconds(5));
    remote::sendHello(raw, FrameType::kHello, deadline);
    remote::checkHello(remote::recvFrame(raw, deadline),
                       FrameType::kHelloAck);

    auto blob = remote::encodeEvaluationKeys(evalKeys());
    blob.resize(blob.size() / 2);
    remote::sendFrame(raw, FrameType::kEnrollKeys, blob, deadline);
    const auto reply = remote::recvFrame(raw, deadline);
    ASSERT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(remote::decodeError(reply).kind(),
              RemoteErrorKind::kMalformedFrame);
    EXPECT_EQ(server->stats().enrollments, 0u);
    expectStillServes(*server);
}

TEST_F(RemoteFixture, ExecutionCountsForgetBeyondTheResultCache)
{
    // Execution counts live in the bounded result cache, so a
    // long-lived server keeps no per-request state past the LRU:
    // maxCachedResults + 1 newer requests make the first one forgotten.
    RemoteServerConfig sconfig;
    sconfig.maxCachedResults = 2;
    auto server = startServer(sconfig);
    const auto inputs = encryptBatch(1);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(1);
    const Job job = Job::batch(inputs, lut);

    RemoteBackend remote(evalKeys(), clientConfig(server->port()));
    remote.run(program, job);
    const std::uint64_t first = remote.lastRequestId();
    EXPECT_EQ(server->executionsFor(first), 1u);
    for (std::size_t i = 0; i <= sconfig.maxCachedResults; ++i)
        remote.run(program, job);
    EXPECT_EQ(server->executionsFor(first), 0u);
    EXPECT_EQ(server->executionsFor(remote.lastRequestId()), 1u);
}

TEST_F(RemoteFixture, VersionMismatchRejectedAtHandshake)
{
    auto server = startServer();
    const auto deadline =
        remote::deadlineAfter(std::chrono::seconds(10));

    remote::Socket raw = remote::connectTcp(
        "127.0.0.1", server->port(), std::chrono::seconds(5));
    remote::WireWriter w;
    w.u32(remote::kProtocolMagic);
    w.u32(remote::kProtocolVersion + 7);
    remote::sendFrame(raw, FrameType::kHello, w.take(), deadline);

    const auto reply = remote::recvFrame(raw, deadline);
    ASSERT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(remote::decodeError(reply).kind(),
              RemoteErrorKind::kVersionMismatch);
}

TEST_F(RemoteFixture, SilentServerSurfacesTypedTimeout)
{
    // A hand-rolled listener that accepts, completes the handshake,
    // then never answers: the simplest stalled peer.
    std::promise<std::uint16_t> portPromise;
    auto portFuture = portPromise.get_future();
    std::thread silent([&portPromise] {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ASSERT_EQ(::listen(fd, 1), 0);
        socklen_t len = sizeof(addr);
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
        portPromise.set_value(ntohs(addr.sin_port));
        const int client = ::accept(fd, nullptr, nullptr);
        if (client >= 0) {
            remote::Socket sock(client);
            const auto deadline =
                remote::deadlineAfter(std::chrono::seconds(10));
            try {
                remote::recvFrame(sock, deadline); // their Hello
                remote::sendHello(sock, FrameType::kHelloAck, deadline);
                // Keep reading (and answering nothing) until the
                // client gives up and closes.
                for (;;) {
                    remote::recvFrame(
                        sock,
                        remote::deadlineAfter(std::chrono::seconds(30)));
                }
            } catch (const RemoteError &) {
            }
        }
        ::close(fd);
    });
    RemoteClientConfig config = clientConfig(portFuture.get());
    config.requestTimeout = std::chrono::milliseconds(400);
    config.maxAttempts = 1;

    const auto inputs = encryptBatch(4);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(4);
    RemoteBackend remote(evalKeys(), config);
    try {
        remote.run(program, Job::batch(inputs, lut));
        FAIL() << "silent server should have produced kTimeout";
    } catch (const RemoteError &e) {
        EXPECT_EQ(e.kind(), RemoteErrorKind::kTimeout) << e.what();
    }
    silent.join();
}

TEST_F(RemoteFixture, ReconnectBackoffReachesLateServer)
{
    // Reserve a port, free it, point the client at it, and only start
    // the real server after the client has begun retrying.
    std::uint16_t port = 0;
    {
        auto probe = startServer();
        port = probe->port();
        probe->stop();
    }

    RemoteClientConfig config = clientConfig(port);
    config.maxAttempts = 20;
    config.backoffBase = std::chrono::milliseconds(30);

    const auto inputs = encryptBatch(4);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return (m + 1) % 4;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(4);

    RemoteBackend remote(evalKeys(), config);
    std::future<ExecutionResult> pending =
        std::async(std::launch::async, [&] {
            return remote.run(program, Job::batch(inputs, lut));
        });

    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    RemoteServerConfig sconfig;
    sconfig.port = port;
    auto server = std::make_unique<RemoteServer>(sconfig);
    server->addKeys(evalKeys());
    server->start();

    const auto result = pending.get();
    EXPECT_TRUE(result.hasOutputs);
    EXPECT_GE(remote.lastAttempts(), 2u)
        << "the client should have burned attempts on refused "
           "connects before the server came up";
}

TEST_F(RemoteFixture, AutoEnrollsKeysOverTheWire)
{
    RemoteServerConfig sconfig;
    auto server = std::make_unique<RemoteServer>(sconfig);
    server->start(); // no keys pre-provisioned

    const auto inputs = encryptBatch(8);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(8);

    FunctionalBackend local(evalKeys());
    const Job job = Job::batch(inputs, lut);
    const auto reference = local.run(program, job);

    RemoteBackend remote(evalKeys(), clientConfig(server->port()));
    expectIdentical(remote.run(program, job), reference);
    EXPECT_EQ(server->stats().enrollments, 1u);
    // Second run reuses the enrolled keys: no new enrollment.
    RemoteBackend second(evalKeys(), clientConfig(server->port()));
    second.run(program, job);
    EXPECT_EQ(server->stats().enrollments, 1u);
    server->stop();
}

TEST_F(RemoteFixture, UnknownKeyWithoutAutoEnrollIsTyped)
{
    RemoteServerConfig sconfig;
    auto server = std::make_unique<RemoteServer>(sconfig);
    server->start(); // no keys

    RemoteClientConfig config = clientConfig(server->port());
    config.autoEnroll = false;

    const auto inputs = encryptBatch(4);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(4);
    RemoteBackend remote(evalKeys(), config);
    try {
        remote.run(program, Job::batch(inputs, lut));
        FAIL() << "unenrolled key should be rejected";
    } catch (const RemoteError &e) {
        EXPECT_EQ(e.kind(), RemoteErrorKind::kUnknownKey) << e.what();
    }
    server->stop();
}

TEST_F(RemoteFixture, NonFunctionalInnerRejectedAtStart)
{
    // No other kind can answer an execution request, so a server that
    // accepted one would fail on its first request; start() refuses
    // the config with a typed error instead and never binds.
    for (const BackendKind kind : {BackendKind::kCosim, BackendKind::kTiming,
                                   BackendKind::kRemote}) {
        RemoteServerConfig config;
        config.inner.kind = kind;
        RemoteServer server(config);
        EXPECT_THROW(server.start(), std::invalid_argument)
            << backendKindName(kind);
        EXPECT_FALSE(server.running());
    }
}

TEST_F(RemoteFixture, SecondStartThrowsLogicError)
{
    auto server = startServer();
    EXPECT_THROW(server->start(), std::logic_error);
    EXPECT_TRUE(server->running());
}

TEST_F(RemoteFixture, BackendSpecBuildsRemote)
{
    auto server = startServer();
    BackendSpec spec;
    spec.kind = BackendKind::kRemote;
    spec.remote = clientConfig(server->port());
    auto backend = makeBackend(evalKeys(), spec);
    EXPECT_EQ(backend->name(), "remote");
    EXPECT_STREQ(backendKindName(BackendKind::kRemote), "remote");

    const auto inputs = encryptBatch(8);
    const auto lut = tfhe::makePaddedLut(4, [](std::uint32_t m) {
        return 3 - m;
    });
    const auto program =
        compiler::SwScheduler(keys().params).scheduleBootstrapBatch(8);
    const auto result = backend->run(program, Job::batch(inputs, lut));
    ASSERT_TRUE(result.hasOutputs);
    for (std::size_t i = 0; i < result.outputs.size(); ++i)
        EXPECT_EQ(tfhe::decryptPadded(keys(), result.outputs[i], 4),
                  3 - (i % 4));
}

TEST_F(RemoteFixture, MisconfiguredRemoteThrowsInvalidArgument)
{
    BackendSpec spec;
    spec.kind = BackendKind::kRemote;
    spec.remote = clientConfig(0);
    EXPECT_THROW(makeBackend(evalKeys(), spec), std::invalid_argument);
    RemoteClientConfig no_attempts = clientConfig(1234);
    no_attempts.maxAttempts = 0;
    EXPECT_THROW(RemoteBackend(evalKeys(), no_attempts),
                 std::invalid_argument);
}

TEST_F(RemoteFixture, ServiceOnDeadPortFailsFuturesAndShutsDown)
{
    // A port nothing listens on: every batch's backend throws, which
    // must fail the batch's futures rather than the worker thread.
    std::uint16_t port = 0;
    {
        auto probe = startServer();
        port = probe->port();
        probe->stop();
    }
    service::ServiceConfig config;
    config.backend = BackendKind::kRemote;
    config.remote = clientConfig(port);
    config.remote.maxAttempts = 1;
    config.numWorkers = 2;
    config.maxWait = std::chrono::milliseconds(1);
    // A batch's futures share one exception object, whose reference
    // count lives in the uninstrumented C++ runtime. Holding each one
    // until the workers are joined makes this thread free it, so TSan
    // sees no free on a worker after our reads.
    std::vector<std::exception_ptr> failures;
    service::BootstrapService svc(evalKeys(), config);

    const auto lut =
        svc.registerLut(tfhe::makePaddedLut(4, [](std::uint32_t m) {
            return m;
        }));
    std::vector<std::future<tfhe::LweCiphertext>> futures;
    for (unsigned i = 0; i < 6; ++i)
        futures.push_back(svc.submit(
            tfhe::encryptPadded(keys(), i % 4, 4, rng), lut));
    for (auto &future : futures) {
        try {
            (void)future.get();
            FAIL() << "a dead server cannot have answered";
        } catch (const RemoteError &e) {
            failures.push_back(std::current_exception());
            EXPECT_EQ(e.kind(), RemoteErrorKind::kConnectFailed)
                << e.what();
        }
    }
    EXPECT_EQ(svc.outstanding(), 0u);
    // Every request is counted as failed, none as completed.
    const auto stats = svc.stats();
    EXPECT_EQ(stats.failed, 6u);
    EXPECT_EQ(stats.completed, 0u);
    EXPECT_EQ(stats.circuitsFailed, 0u);
    svc.shutdown();
    EXPECT_TRUE(svc.stopped());
}

TEST_F(RemoteFixture, ServiceRunsOverRemoteBackend)
{
    auto server = startServer();

    service::ServiceConfig config;
    config.backend = BackendKind::kRemote;
    config.remote = clientConfig(server->port());
    config.numWorkers = 2;
    config.maxWait = std::chrono::milliseconds(5);
    service::BootstrapService svc(evalKeys(), config);

    const auto lut = svc.registerLut(
        tfhe::makePaddedLut(4, [](std::uint32_t m) {
            return (m + 1) % 4;
        }));
    std::vector<std::future<tfhe::LweCiphertext>> futures;
    for (unsigned i = 0; i < 16; ++i)
        futures.push_back(svc.submit(
            tfhe::encryptPadded(keys(), i % 4, 4, rng), lut));
    for (unsigned i = 0; i < 16; ++i) {
        const auto ct = futures[i].get();
        EXPECT_EQ(tfhe::decryptPadded(keys(), ct, 4), (i % 4 + 1) % 4);
    }
    svc.shutdown();
    EXPECT_GE(server->stats().executions, 1u);
}

TEST_F(RemoteFixture, ServiceConfigValidatesRemote)
{
    service::ServiceConfig config;
    config.backend = BackendKind::kRemote;
    config.remote.port = 0;
    EXPECT_TRUE(config.validate().has_value());
    config.remote.port = 1234;
    EXPECT_FALSE(config.validate().has_value());
    config.remote.maxAttempts = 0;
    EXPECT_TRUE(config.validate().has_value());
}

} // namespace
} // namespace morphling::exec

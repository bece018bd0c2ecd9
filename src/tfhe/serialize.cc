#include "serialize.h"

#include <cstring>
#include <istream>
#include <ostream>
#include <streambuf>

#include "common/logging.h"
#include "tfhe/bootstrap.h"
#include "tfhe/verify.h"

namespace morphling::tfhe {

namespace {

constexpr char kMagic[4] = {'M', 'R', 'P', 'H'};

/**
 * Internal exception for tryLoadEvaluationKeys: the read-side checks
 * below throw it instead of fatal()ing while a TryParseScope is
 * active, so decoding an untrusted blob (a remote enrollment frame)
 * reports failure instead of terminating the server.
 */
struct ParseError
{
    std::string message;
};

thread_local bool tl_tryParse = false;

struct TryParseScope
{
    TryParseScope() { tl_tryParse = true; }
    ~TryParseScope() { tl_tryParse = false; }
};

/** Read-side validation: fatal() by default (the documented contract
 *  of the load* entry points), ParseError under tryLoad*. */
void
parseCheck(bool ok, const std::string &message)
{
    if (ok)
        return;
    if (tl_tryParse)
        throw ParseError{message};
    fatal(message);
}

void
writeBytes(std::ostream &os, const void *data, std::size_t size)
{
    os.write(static_cast<const char *>(data),
             static_cast<std::streamsize>(size));
    fatal_if(!os, "serialization write failed");
}

void
readBytes(std::istream &is, void *data, std::size_t size)
{
    is.read(static_cast<char *>(data),
            static_cast<std::streamsize>(size));
    parseCheck(is && is.gcount() == static_cast<std::streamsize>(size),
               "truncated or unreadable serialized stream");
}

void
writeU32(std::ostream &os, std::uint32_t v)
{
    writeBytes(os, &v, sizeof(v));
}

std::uint32_t
readU32(std::istream &is)
{
    std::uint32_t v = 0;
    readBytes(is, &v, sizeof(v));
    return v;
}

void
writeDouble(std::ostream &os, double v)
{
    writeBytes(os, &v, sizeof(v));
}

double
readDouble(std::istream &is)
{
    double v = 0;
    readBytes(is, &v, sizeof(v));
    return v;
}

void
writeString(std::ostream &os, const std::string &s)
{
    writeU32(os, static_cast<std::uint32_t>(s.size()));
    writeBytes(os, s.data(), s.size());
}

std::string
readString(std::istream &is)
{
    const std::uint32_t size = readU32(is);
    parseCheck(size <= 4096, "implausible string length in stream");
    std::string s(size, '\0');
    readBytes(is, s.data(), size);
    return s;
}

void
writeHeader(std::ostream &os, std::uint32_t type_tag)
{
    writeBytes(os, kMagic, sizeof(kMagic));
    writeU32(os, kSerializeVersion);
    writeU32(os, type_tag);
}

void
readHeader(std::istream &is, std::uint32_t expected_tag)
{
    char magic[4];
    readBytes(is, magic, sizeof(magic));
    parseCheck(std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
               "bad magic: not a Morphling serialized stream");
    const std::uint32_t version = readU32(is);
    parseCheck(version == kSerializeVersion,
               morphling::detail::concat("unsupported serialization version ",
                              version));
    const std::uint32_t tag = readU32(is);
    parseCheck(tag == expected_tag,
               morphling::detail::concat("serialized object has type tag ", tag,
                              ", expected ", expected_tag));
}

// Type tags.
constexpr std::uint32_t kTagParams = 1;
constexpr std::uint32_t kTagCiphertext = 2;
constexpr std::uint32_t kTagLweKey = 3;
constexpr std::uint32_t kTagEvalKeys = 4;

void
writeFourierPoly(std::ostream &os, const FourierPolynomial &fp)
{
    writeU32(os, fp.ringDegree());
    for (unsigned i = 0; i < fp.size(); ++i) {
        writeDouble(os, fp.re(i));
        writeDouble(os, fp.im(i));
    }
}

FourierPolynomial
readFourierPoly(std::istream &is)
{
    const std::uint32_t degree = readU32(is);
    parseCheck(degree >= 4 && degree <= (1u << 20),
               morphling::detail::concat("implausible ring degree ", degree));
    FourierPolynomial fp(degree);
    for (unsigned i = 0; i < fp.size(); ++i) {
        fp.re(i) = readDouble(is);
        fp.im(i) = readDouble(is);
    }
    return fp;
}

void
writeLwe(std::ostream &os, const LweCiphertext &ct)
{
    writeU32(os, ct.dimension());
    writeBytes(os, ct.raw().data(), ct.raw().size() * sizeof(Torus32));
}

LweCiphertext
readLwe(std::istream &is)
{
    const std::uint32_t dim = readU32(is);
    parseCheck(dim != 0 && dim <= kMaxLweDimension,
               morphling::detail::concat("implausible LWE dimension ", dim));
    LweCiphertext ct(dim);
    readBytes(is, ct.raw().data(), ct.raw().size() * sizeof(Torus32));
    return ct;
}

} // namespace

namespace {

/** FNV-1a 64 offset basis: the hash of zero bytes. */
constexpr std::uint64_t kFnv1aBasis = 0xCBF29CE484222325ull;

/** Fold `size` bytes into an FNV-1a 64 hash: start from kFnv1aBasis,
 *  or pass an earlier result to continue the stream. */
std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t hash)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001B3ull; // FNV-1a 64-bit prime
    }
    return hash;
}

/**
 * A sink streambuf that folds every byte written into an FNV-1a hash
 * (and a byte count) instead of storing it, so fingerprinting never
 * materializes a second copy of multi-megabyte key material.
 */
class HashingStreambuf final : public std::streambuf
{
  public:
    std::uint64_t hash() const { return hash_; }
    std::size_t bytes() const { return bytes_; }

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (ch != traits_type::eof()) {
            const char c = traits_type::to_char_type(ch);
            xsputn(&c, 1);
        }
        return ch;
    }

    std::streamsize
    xsputn(const char *data, std::streamsize n) override
    {
        hash_ = fnv1a(data, static_cast<std::size_t>(n), hash_);
        bytes_ += static_cast<std::size_t>(n);
        return n;
    }

  private:
    std::uint64_t hash_ = kFnv1aBasis;
    std::size_t bytes_ = 0;
};

} // namespace

KeyFingerprint
fingerprintEvaluationKeys(const EvaluationKeys &keys)
{
    HashingStreambuf sink;
    std::ostream os(&sink);
    saveEvaluationKeys(os, keys);
    return sink.hash();
}

std::string
fingerprintHex(KeyFingerprint fp)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[fp & 0xF];
        fp >>= 4;
    }
    return out;
}

std::size_t
evaluationKeysWireBytes(const EvaluationKeys &keys)
{
    HashingStreambuf sink;
    std::ostream os(&sink);
    saveEvaluationKeys(os, keys);
    return sink.bytes();
}

EvaluationKeys
EvaluationKeys::fromKeySet(const KeySet &keys)
{
    EvaluationKeys eval;
    eval.params = keys.params;
    eval.bsk = keys.bsk;
    eval.ksk = keys.ksk;
    return eval;
}

void
saveParams(std::ostream &os, const TfheParams &params)
{
    writeHeader(os, kTagParams);
    writeString(os, params.name);
    writeU32(os, params.polyDegree);
    writeU32(os, params.lweDimension);
    writeU32(os, params.glweDimension);
    writeU32(os, params.bskLevels);
    writeU32(os, params.bskBaseBits);
    writeU32(os, params.kskLevels);
    writeU32(os, params.kskBaseBits);
    writeDouble(os, params.lweNoiseStd);
    writeDouble(os, params.glweNoiseStd);
    writeU32(os, params.securityBits);
}

TfheParams
loadParams(std::istream &is)
{
    readHeader(is, kTagParams);
    TfheParams p;
    p.name = readString(is);
    p.polyDegree = readU32(is);
    p.lweDimension = readU32(is);
    p.glweDimension = readU32(is);
    p.bskLevels = readU32(is);
    p.bskBaseBits = readU32(is);
    p.kskLevels = readU32(is);
    p.kskBaseBits = readU32(is);
    p.lweNoiseStd = readDouble(is);
    p.glweNoiseStd = readDouble(is);
    p.securityBits = readU32(is);
    parseCheck(p.firstProblem() == nullptr,
               p.firstProblem() ? p.firstProblem() : "");
    return p;
}

void
saveCiphertext(std::ostream &os, const LweCiphertext &ct)
{
    writeHeader(os, kTagCiphertext);
    writeLwe(os, ct);
}

LweCiphertext
loadCiphertext(std::istream &is)
{
    readHeader(is, kTagCiphertext);
    return readLwe(is);
}

void
saveLweKey(std::ostream &os, const LweKey &key)
{
    writeHeader(os, kTagLweKey);
    writeU32(os, key.dimension());
    for (auto bit : key.bits())
        writeU32(os, static_cast<std::uint32_t>(bit));
}

LweKey
loadLweKey(std::istream &is, const TfheParams &params)
{
    readHeader(is, kTagLweKey);
    const std::uint32_t dim = readU32(is);
    fatal_if(dim == 0 || dim > kMaxLweDimension,
             "implausible key dimension");
    std::vector<std::int32_t> bits(dim);
    for (auto &bit : bits) {
        bit = static_cast<std::int32_t>(readU32(is));
        fatal_if(bit != 0 && bit != 1, "non-binary key bit in stream");
    }
    return LweKey(params, std::move(bits));
}

void
saveEvaluationKeys(std::ostream &os, const EvaluationKeys &keys)
{
    writeHeader(os, kTagEvalKeys);
    saveParams(os, keys.params);

    // Bootstrapping key: n Fourier GGSWs.
    writeU32(os, keys.bsk.size());
    for (unsigned i = 0; i < keys.bsk.size(); ++i) {
        const auto &ggsw = keys.bsk.entry(i);
        writeU32(os, ggsw.baseBits());
        writeU32(os, ggsw.levels());
        writeU32(os, ggsw.numRows());
        writeU32(os, ggsw.numCols());
        for (unsigned r = 0; r < ggsw.numRows(); ++r) {
            for (unsigned c = 0; c < ggsw.numCols(); ++c)
                writeFourierPoly(os, ggsw.at(r, c));
        }
    }

    // Key-switching key: kN * l_k LWE ciphertexts.
    writeU32(os, keys.ksk.sourceDimension());
    writeU32(os, keys.params.lweDimension);
    writeU32(os, keys.ksk.levels());
    writeU32(os, keys.ksk.baseBits());
    for (unsigned i = 0; i < keys.ksk.sourceDimension(); ++i) {
        for (unsigned j = 0; j < keys.ksk.levels(); ++j)
            writeLwe(os, keys.ksk.at(i, j));
    }
}

EvaluationKeys
loadEvaluationKeys(std::istream &is)
{
    readHeader(is, kTagEvalKeys);
    EvaluationKeys keys;
    keys.params = loadParams(is);

    const std::uint32_t bsk_size = readU32(is);
    parseCheck(bsk_size == keys.params.lweDimension,
               "BSK entry count does not match n");
    std::vector<FourierGgsw> entries;
    entries.reserve(bsk_size);
    for (std::uint32_t i = 0; i < bsk_size; ++i) {
        const std::uint32_t base_bits = readU32(is);
        const std::uint32_t levels = readU32(is);
        const std::uint32_t rows = readU32(is);
        const std::uint32_t cols = readU32(is);
        parseCheck(levels != 0 && levels <= 32 && base_bits != 0 &&
                       base_bits <= 32,
                   "implausible GGSW gadget in stream");
        // 64-bit products: a wrapped one could match an empty GGSW.
        const std::uint64_t k1 =
            std::uint64_t{keys.params.glweDimension} + 1;
        parseCheck(rows == k1 * levels && cols == k1,
                   "GGSW shape mismatch in stream");
        std::vector<std::vector<FourierPolynomial>> data(rows);
        for (auto &row : data) {
            row.reserve(cols);
            for (std::uint32_t c = 0; c < cols; ++c)
                row.push_back(readFourierPoly(is));
        }
        entries.push_back(
            FourierGgsw::fromRows(base_bits, levels, std::move(data)));
    }
    keys.bsk = BootstrapKey::fromEntries(std::move(entries));

    const std::uint32_t source_dim = readU32(is);
    const std::uint32_t target_dim = readU32(is);
    const std::uint32_t levels = readU32(is);
    const std::uint32_t base_bits = readU32(is);
    parseCheck(source_dim == keys.params.extractedLweDimension(),
               "KSK source dimension mismatch");
    parseCheck(target_dim == keys.params.lweDimension,
               "KSK target dimension mismatch");
    parseCheck(levels != 0 && levels <= 32,
               "implausible KSK level count in stream");
    const std::size_t ksk_count = std::size_t{source_dim} * levels;
    std::vector<LweCiphertext> ksk_entries;
    ksk_entries.reserve(ksk_count);
    for (std::size_t i = 0; i < ksk_count; ++i)
        ksk_entries.push_back(readLwe(is));
    keys.ksk = KeySwitchKey::fromEntries(source_dim, target_dim, levels,
                                         base_bits,
                                         std::move(ksk_entries));
    const auto problem = verify(keys);
    parseCheck(!problem, problem.value_or(""));
    return keys;
}

std::optional<EvaluationKeys>
tryLoadEvaluationKeys(std::istream &is, std::string *error)
{
    TryParseScope scope;
    try {
        return loadEvaluationKeys(is);
    } catch (const ParseError &e) {
        if (error)
            *error = e.message;
    } catch (const std::bad_alloc &) {
        // The per-field plausibility caps bound each allocation, but a
        // well-formed header can still promise more material than the
        // host has memory for.
        if (error)
            *error = "serialized keys exceed available memory";
    }
    return std::nullopt;
}

LweCiphertext
serverBootstrap(const EvaluationKeys &keys, const LweCiphertext &ct,
                const std::vector<Torus32> &lut)
{
    auto &ws = BootstrapWorkspace::forThisThread();
    buildTestPolynomialInto(keys.params.polyDegree, lut, ws.testPoly);
    LweCiphertext out;
    bootstrapInto(keys.bsk, keys.ksk, ws.testPoly, ct, out, ws);
    return out;
}

} // namespace morphling::tfhe

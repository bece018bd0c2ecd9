/**
 * @file
 * Binary serialization of parameters, keys and ciphertexts.
 *
 * The deployment story of TFHE splits key material across machines: the
 * client keeps the secret keys, the server receives the evaluation keys
 * (BSK + KSK) and ciphertexts. This module provides a compact, versioned
 * little-endian format for all of them, with strict validation on load
 * (magic, version, and structural invariants; malformed input is a
 * fatal(), never undefined behaviour).
 *
 * Format: every object starts with a 4-byte tag naming its type, and
 * the stream starts with "MRPH" + format version.
 */

#ifndef MORPHLING_TFHE_SERIALIZE_H
#define MORPHLING_TFHE_SERIALIZE_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "tfhe/keyset.h"

namespace morphling::tfhe {

/** Current serialization format version. */
constexpr std::uint32_t kSerializeVersion = 1;

/**
 * The server-side key material: everything needed to evaluate
 * (bootstrap, key-switch) without the ability to decrypt.
 */
struct EvaluationKeys
{
    TfheParams params;
    BootstrapKey bsk;
    KeySwitchKey ksk;

    /** Extract the evaluation half of a full key set. */
    static EvaluationKeys fromKeySet(const KeySet &keys);
};

/** @{ Serialization entry points. Streams must be binary-mode. */
void saveParams(std::ostream &os, const TfheParams &params);
TfheParams loadParams(std::istream &is);

void saveCiphertext(std::ostream &os, const LweCiphertext &ct);
LweCiphertext loadCiphertext(std::istream &is);

void saveLweKey(std::ostream &os, const LweKey &key);
LweKey loadLweKey(std::istream &is, const TfheParams &params);

void saveEvaluationKeys(std::ostream &os, const EvaluationKeys &keys);
EvaluationKeys loadEvaluationKeys(std::istream &is);
/** @} */

/**
 * Decode evaluation keys without trusting the stream: returns nullopt
 * (with a diagnostic in *error when given) on a truncated stream, a
 * bad magic/version/tag, an implausible dimension or gadget, or
 * parameter sets violating their structural invariants — instead of
 * the fatal() the load* entry points reserve for local usage errors.
 * This is the surface a network server decodes key-enrollment frames
 * through (exec::RemoteServer).
 */
std::optional<EvaluationKeys>
tryLoadEvaluationKeys(std::istream &is, std::string *error = nullptr);

/**
 * Content-derived fingerprint of one tenant's evaluation-key material.
 *
 * Computed as FNV-1a over the canonical serialized stream
 * (saveEvaluationKeys), so two processes holding the same keys agree
 * on the fingerprint without exchanging the keys themselves, and any
 * mutation of the BSK/KSK/parameters changes it. This is an identity
 * for cache keying (service::TenantRegistry's LRU), not a
 * cryptographic commitment — do not use it to authenticate keys.
 */
using KeyFingerprint = std::uint64_t;

KeyFingerprint fingerprintEvaluationKeys(const EvaluationKeys &keys);

/** FNV-1a 64 offset basis: the hash of zero bytes. */
inline constexpr std::uint64_t kFnv1aBasis = 0xCBF29CE484222325ull;

/** Fold `size` bytes into an FNV-1a 64 hash: start from kFnv1aBasis,
 *  or pass an earlier result to continue the stream. Over the bytes
 *  saveEvaluationKeys writes, it is fingerprintEvaluationKeys. */
std::uint64_t fnv1a(const void *data, std::size_t size,
                    std::uint64_t hash = kFnv1aBasis);

/** The fingerprint as 16 lowercase hex digits (metric/file names). */
std::string fingerprintHex(KeyFingerprint fp);

/** Serialized size of the evaluation keys in bytes — the per-tenant
 *  memory cost a key registry budgets against (BSK dominates). */
std::size_t evaluationKeysWireBytes(const EvaluationKeys &keys);

/**
 * Programmable bootstrap using only evaluation keys (the server-side
 * operation; mirrors programmableBootstrap(KeySet, ...)).
 */
LweCiphertext serverBootstrap(const EvaluationKeys &keys,
                              const LweCiphertext &ct,
                              const std::vector<Torus32> &lut);

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_SERIALIZE_H

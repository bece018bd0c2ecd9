/**
 * @file
 * The key-set verifier: the one definition of a usable EvaluationKeys.
 *
 * Blind rotation, sample extraction and key switching index the keys
 * by their parameter set's shapes and do not re-check them on the hot
 * path. verify() checks those shapes once, wherever a key set enters:
 *  - the decoder (loadEvaluationKeys, tryLoadEvaluationKeys), so
 *    exec::RemoteServer answers a bad enrollment kMalformedFrame;
 *  - exec::RemoteServer::addKeys, the keyed BootstrapService
 *    constructors and MultiTenantService::addTenant,
 *    which throw std::invalid_argument.
 * The panics that remain in fft.cc and bootstrap.cc are internal
 * invariants: verified keys never reach them.
 *
 * A key set is usable when:
 *  - its params pass TfheParams::firstProblem(): among its rules,
 *    n and kN are at most kMaxLweDimension and each gadget has
 *    levels·baseBits ≤ 32, both computed without wrapping;
 *  - the BSK has n entries, each a GGSW of (k+1)·l_b rows by k+1
 *    columns of degree-N spectra, with gadget (bskLevels, bskBaseBits);
 *  - the KSK maps dimension kN to n with gadget (kskLevels,
 *    kskBaseBits) and holds kN·l_k entries of dimension n.
 * Both key gadgets equal the params' ones, so they fit the 32-bit
 * torus too.
 */

#ifndef MORPHLING_TFHE_VERIFY_H
#define MORPHLING_TFHE_VERIFY_H

#include <optional>
#include <string>

#include "tfhe/serialize.h"

namespace morphling::tfhe {

/**
 * Check `keys` against the rules above. Total: it reads shapes only
 * and never panics, whatever key set it is given. Returns nullopt for
 * a usable key set, else a diagnostic naming the first broken rule.
 */
std::optional<std::string> verify(const EvaluationKeys &keys);

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_VERIFY_H

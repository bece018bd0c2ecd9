#include "verify.h"

#include <cstdint>

#include "common/logging.h"

namespace morphling::tfhe {

std::optional<std::string>
verify(const EvaluationKeys &keys)
{
    using morphling::detail::concat;
    const TfheParams &p = keys.params;
    if (const char *problem = p.firstProblem())
        return concat("params: ", problem);

    // 64-bit products: k and l are untrusted, and a wrapped count
    // could match an empty key.
    const std::uint64_t cols = std::uint64_t{p.glweDimension} + 1;
    const std::uint64_t rows = cols * p.bskLevels;
    if (keys.bsk.size() != p.lweDimension) {
        return concat("BSK has ", keys.bsk.size(), " entries, expected n = ",
                      p.lweDimension);
    }
    for (unsigned i = 0; i < keys.bsk.size(); ++i) {
        const FourierGgsw &ggsw = keys.bsk.entry(i);
        if (ggsw.numRows() != rows || ggsw.numCols() != cols) {
            return concat("BSK entry ", i, " is ", ggsw.numRows(), "x",
                          ggsw.numCols(), ", expected (k+1)*l_b x (k+1) = ",
                          rows, "x", cols);
        }
        if (ggsw.levels() != p.bskLevels ||
            ggsw.baseBits() != p.bskBaseBits) {
            return concat("BSK entry ", i, " has gadget (levels ",
                          ggsw.levels(), ", base bits ", ggsw.baseBits(),
                          "), expected (", p.bskLevels, ", ",
                          p.bskBaseBits, ")");
        }
        for (unsigned r = 0; r < ggsw.numRows(); ++r) {
            for (unsigned c = 0; c < ggsw.numCols(); ++c) {
                const unsigned degree = ggsw.at(r, c).ringDegree();
                if (degree != p.polyDegree) {
                    return concat("BSK entry ", i, " row ", r, " column ",
                                  c, " has ring degree ", degree,
                                  ", expected N = ", p.polyDegree);
                }
            }
        }
    }

    const KeySwitchKey &ksk = keys.ksk;
    if (ksk.sourceDimension() != p.extractedLweDimension() ||
        ksk.targetDimension() != p.lweDimension) {
        return concat("KSK maps dimension ", ksk.sourceDimension(), " to ",
                      ksk.targetDimension(), ", expected kN = ",
                      p.extractedLweDimension(), " to n = ",
                      p.lweDimension);
    }
    if (ksk.levels() != p.kskLevels || ksk.baseBits() != p.kskBaseBits) {
        return concat("KSK has gadget (levels ", ksk.levels(),
                      ", base bits ", ksk.baseBits(), "), expected (",
                      p.kskLevels, ", ", p.kskBaseBits, ")");
    }
    // KeySwitchKey holds sourceDimension() * levels() entries.
    for (unsigned i = 0; i < ksk.sourceDimension(); ++i) {
        for (unsigned j = 0; j < ksk.levels(); ++j) {
            const unsigned dim = ksk.at(i, j).dimension();
            if (dim != p.lweDimension) {
                return concat("KSK entry (", i, ", ", j,
                              ") has dimension ", dim, ", expected n = ",
                              p.lweDimension);
            }
        }
    }
    return std::nullopt;
}

} // namespace morphling::tfhe

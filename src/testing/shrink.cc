#include "testing/shrink.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "matrix/coo.h"
#include "matrix/mm_io.h"
#include "testing/generators.h"
#include "testing/oracle.h"

namespace dtc {
namespace testing {

namespace {

/** Rebuilds @p m keeping only the flagged nonzeros (same shape). */
CsrMatrix
keepSubset(const CsrMatrix& m, const std::vector<char>& keep)
{
    std::vector<int64_t> row_ptr;
    row_ptr.reserve(static_cast<size_t>(m.rows()) + 1);
    std::vector<int32_t> col_idx;
    std::vector<float> values;
    row_ptr.push_back(0);
    for (int64_t r = 0; r < m.rows(); ++r) {
        for (int64_t k = m.rowPtr()[r]; k < m.rowPtr()[r + 1]; ++k) {
            if (!keep[static_cast<size_t>(k)])
                continue;
            col_idx.push_back(m.colIdx()[k]);
            values.push_back(m.values()[k]);
        }
        row_ptr.push_back(static_cast<int64_t>(col_idx.size()));
    }
    return CsrMatrix::fromParts(m.rows(), m.cols(),
                                std::move(row_ptr),
                                std::move(col_idx),
                                std::move(values));
}

/** Keeps rows [lo, hi); the result has hi-lo rows. */
CsrMatrix
restrictRows(const CsrMatrix& m, int64_t lo, int64_t hi)
{
    std::vector<int64_t> row_ptr;
    row_ptr.reserve(static_cast<size_t>(hi - lo) + 1);
    std::vector<int32_t> col_idx;
    std::vector<float> values;
    row_ptr.push_back(0);
    for (int64_t r = lo; r < hi; ++r) {
        for (int64_t k = m.rowPtr()[r]; k < m.rowPtr()[r + 1]; ++k) {
            col_idx.push_back(m.colIdx()[k]);
            values.push_back(m.values()[k]);
        }
        row_ptr.push_back(static_cast<int64_t>(col_idx.size()));
    }
    return CsrMatrix::fromParts(hi - lo, m.cols(),
                                std::move(row_ptr),
                                std::move(col_idx),
                                std::move(values));
}

/** Keeps columns [lo, hi), rebased to start at 0. */
CsrMatrix
restrictCols(const CsrMatrix& m, int64_t lo, int64_t hi)
{
    std::vector<int64_t> row_ptr;
    row_ptr.reserve(static_cast<size_t>(m.rows()) + 1);
    std::vector<int32_t> col_idx;
    std::vector<float> values;
    row_ptr.push_back(0);
    for (int64_t r = 0; r < m.rows(); ++r) {
        for (int64_t k = m.rowPtr()[r]; k < m.rowPtr()[r + 1]; ++k) {
            const int32_t c = m.colIdx()[k];
            if (c < lo || c >= hi)
                continue;
            col_idx.push_back(static_cast<int32_t>(c - lo));
            values.push_back(m.values()[k]);
        }
        row_ptr.push_back(static_cast<int64_t>(col_idx.size()));
    }
    return CsrMatrix::fromParts(m.rows(), hi - lo,
                                std::move(row_ptr),
                                std::move(col_idx),
                                std::move(values));
}

/** Drops trailing all-zero rows and columns past the last nonzero. */
CsrMatrix
trimDims(const CsrMatrix& m)
{
    int64_t last_row = -1;
    int32_t last_col = -1;
    for (int64_t r = 0; r < m.rows(); ++r)
        if (m.rowPtr()[r + 1] > m.rowPtr()[r])
            last_row = r;
    for (int64_t k = 0; k < m.nnz(); ++k)
        last_col = std::max(last_col, m.colIdx()[k]);
    const int64_t rows = last_row + 1;
    const int64_t cols = static_cast<int64_t>(last_col) + 1;
    if (rows == m.rows() && cols == m.cols())
        return m;
    return restrictCols(restrictRows(m, 0, rows), 0, cols);
}

/** All values forced to 1.0f (pattern-only failure?). */
CsrMatrix
unitValues(const CsrMatrix& m)
{
    std::vector<int64_t> row_ptr = m.rowPtr();
    std::vector<int32_t> col_idx = m.colIdx();
    std::vector<float> values(static_cast<size_t>(m.nnz()), 1.0f);
    return CsrMatrix::fromParts(m.rows(), m.cols(),
                                std::move(row_ptr),
                                std::move(col_idx),
                                std::move(values));
}

/** Size order: fewer nonzeros first, then smaller shape. */
bool
smallerThan(const CsrMatrix& x, const CsrMatrix& y)
{
    if (x.nnz() != y.nnz())
        return x.nnz() < y.nnz();
    return x.rows() + x.cols() < y.rows() + y.cols();
}

const char*
precisionFromNameOrThrow(const std::string& name, Precision* out)
{
    static const Precision kAll[] = {Precision::Fp32, Precision::Tf32,
                                     Precision::Bf16, Precision::Fp16};
    for (Precision p : kAll)
        if (name == precisionName(p)) {
            *out = p;
            return precisionName(p);
        }
    DTC_RAISE(ErrorCode::InvalidInput,
              "unknown precision in artifact: " << name);
}

KernelKind
kernelKindFromNameOrThrow(const std::string& name)
{
    for (KernelKind kind : allKernelKinds())
        if (name == kernelKindName(kind))
            return kind;
    DTC_RAISE(ErrorCode::InvalidInput,
              "unknown kernel in artifact: " << name);
}

/** Replaces newlines so the detail fits one sidecar line. */
std::string
oneLine(std::string s)
{
    for (char& c : s)
        if (c == '\n' || c == '\r')
            c = ' ';
    return s;
}

} // namespace

ShrinkResult
shrinkMatrix(const CsrMatrix& failing,
             const FailurePredicate& still_fails,
             int64_t max_evaluations)
{
    DTC_CHECK_MSG(still_fails(failing),
                  "shrinkMatrix: the input does not satisfy the "
                  "failure predicate — nothing to minimize");

    ShrinkResult result;
    result.matrix = failing;
    result.evaluations = 1;

    // Accepts strictly-smaller candidates that still fail.
    auto try_adopt = [&](const CsrMatrix& candidate) -> bool {
        if (result.evaluations >= max_evaluations)
            return false;
        if (!smallerThan(candidate, result.matrix))
            return false;
        ++result.evaluations;
        if (!still_fails(candidate))
            return false;
        result.matrix = candidate;
        ++result.reductions;
        return true;
    };

    bool progress = true;
    while (progress && result.evaluations < max_evaluations) {
        progress = false;

        // 1. ddmin over nonzeros: remove complement-of-chunk at
        //    growing granularity.
        int64_t granularity = 2;
        while (result.matrix.nnz() >= 2 &&
               granularity <= result.matrix.nnz() &&
               result.evaluations < max_evaluations) {
            const int64_t nnz = result.matrix.nnz();
            const int64_t chunk = (nnz + granularity - 1) / granularity;
            bool reduced = false;
            for (int64_t lo = 0; lo < nnz && !reduced; lo += chunk) {
                const int64_t hi = std::min(nnz, lo + chunk);
                std::vector<char> keep(static_cast<size_t>(nnz), 1);
                for (int64_t k = lo; k < hi; ++k)
                    keep[static_cast<size_t>(k)] = 0;
                reduced = try_adopt(keepSubset(result.matrix, keep));
            }
            if (reduced) {
                progress = true;
                granularity = 2;
            } else {
                granularity *= 2;
            }
        }

        // 2. Row bisection: keep either half.
        if (result.matrix.rows() >= 2) {
            const int64_t mid = result.matrix.rows() / 2;
            if (try_adopt(restrictRows(result.matrix, 0, mid)) ||
                try_adopt(restrictRows(result.matrix, mid,
                                       result.matrix.rows())))
                progress = true;
        }

        // 3. Column bisection: keep either half.
        if (result.matrix.cols() >= 2) {
            const int64_t mid = result.matrix.cols() / 2;
            if (try_adopt(restrictCols(result.matrix, 0, mid)) ||
                try_adopt(restrictCols(result.matrix, mid,
                                       result.matrix.cols())))
                progress = true;
        }

        // 4. Trim dimensions to the occupied bounding box.
        if (try_adopt(trimDims(result.matrix)))
            progress = true;

        // 5. Canonicalize values (reported matrices read better).
        if (try_adopt(unitValues(result.matrix)))
            progress = true;
    }
    return result;
}

std::string
writeFailureArtifact(const std::string& dir, const std::string& stem,
                     const CsrMatrix& m, const FailureArtifact& info)
{
    const std::string base = dir + "/" + stem;
    bool has_mtx = false;
    if (m.rows() > 0 && m.cols() > 0) {
        writeMatrixMarketFile(base + ".mtx", m.toCoo());
        has_mtx = true;
    }
    const std::string case_path = base + ".case";
    std::ofstream f(case_path);
    DTC_CHECK_MSG(f.good(), "cannot open " << case_path
                                           << " for writing");
    f << "family " << info.family << "\n"
      << "structSeed " << info.structSeed << "\n"
      << "scale " << info.scale << "\n"
      << "kernel " << kernelKindName(info.kind) << "\n"
      << "precision " << precisionName(info.precision) << "\n"
      << "simdOn " << (info.simdOn ? 1 : 0) << "\n"
      << "threads " << info.threads << "\n"
      << "denseWidth " << info.denseWidth << "\n"
      << "denseSeed " << info.denseSeed << "\n"
      << "rows " << m.rows() << "\n"
      << "cols " << m.cols() << "\n"
      << "hasMtx " << (has_mtx ? 1 : 0) << "\n"
      << "detail " << oneLine(info.detail) << "\n";
    DTC_CHECK_MSG(f.good(), "write to " << case_path << " failed");
    return case_path;
}

LoadedArtifact
loadFailureArtifact(const std::string& case_path)
{
    std::ifstream f(case_path);
    DTC_CHECK_CODE(f.good(), ErrorCode::InvalidInput,
                   "cannot open artifact " << case_path);
    LoadedArtifact out;
    bool has_mtx = false;
    int64_t rows = 0;
    int64_t cols = 0;
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        std::string rest;
        std::getline(ls, rest);
        if (!rest.empty() && rest[0] == ' ')
            rest.erase(0, 1);
        try {
            if (key == "family")
                out.info.family = rest;
            else if (key == "structSeed")
                out.info.structSeed = std::stoull(rest);
            else if (key == "scale")
                out.info.scale = std::stoi(rest);
            else if (key == "kernel")
                out.info.kind = kernelKindFromNameOrThrow(rest);
            else if (key == "precision")
                precisionFromNameOrThrow(rest, &out.info.precision);
            else if (key == "simdOn")
                out.info.simdOn = std::stoi(rest) != 0;
            else if (key == "threads")
                out.info.threads = std::stoi(rest);
            else if (key == "denseWidth")
                out.info.denseWidth = std::stoll(rest);
            else if (key == "denseSeed")
                out.info.denseSeed = std::stoull(rest);
            else if (key == "rows")
                rows = std::stoll(rest);
            else if (key == "cols")
                cols = std::stoll(rest);
            else if (key == "hasMtx")
                has_mtx = std::stoi(rest) != 0;
            else if (key == "detail")
                out.info.detail = rest;
            // Unknown keys are ignored for forward compatibility.
        } catch (const std::logic_error&) {
            DTC_RAISE(ErrorCode::CorruptData,
                      "malformed artifact line in " << case_path
                                                    << ": " << line);
        }
    }

    if (has_mtx) {
        std::string mtx_path = case_path;
        const std::string suffix = ".case";
        DTC_CHECK_CODE(mtx_path.size() > suffix.size() &&
                           mtx_path.compare(mtx_path.size() -
                                                suffix.size(),
                                            suffix.size(),
                                            suffix) == 0,
                       ErrorCode::InvalidInput,
                       "artifact path must end in .case: "
                           << case_path);
        mtx_path.replace(mtx_path.size() - suffix.size(),
                         suffix.size(), ".mtx");
        out.matrix = CsrMatrix::fromCoo(readMatrixMarketFile(mtx_path));
    } else if (!out.info.family.empty()) {
        out.matrix = generateStructure(
            structureFamilyFromName(out.info.family),
            out.info.structSeed, out.info.scale);
    } else {
        // No .mtx and no generator provenance: an explicit all-zero
        // shape (Matrix Market cannot express 0-dimension matrices).
        out.matrix = CsrMatrix(rows, cols);
    }
    return out;
}

bool
replayArtifact(const LoadedArtifact& artifact, std::string* detail)
{
    return comboFails(artifact.info.kind, artifact.info.precision,
                      artifact.info.simdOn, artifact.info.threads,
                      artifact.matrix, artifact.info.denseWidth,
                      artifact.info.denseSeed,
                      /*tolerance_safety=*/8.0, detail);
}

} // namespace testing
} // namespace dtc

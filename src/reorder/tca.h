/**
 * @file
 * TCU-Cache-Aware (TCA) reordering — paper Section 4.3, Algorithm 1.
 *
 * Hierarchy I (TCU-Aware) greedily merges Jaccard-similar rows into
 * clusters capped at BLOCK_HEIGHT (16) rows, the TC-block height, so
 * each row window packs rows sharing columns and SGT condenses into
 * denser TC blocks (higher MeanNnzTC).
 *
 * Hierarchy II (Cache-Aware) repeats the same merge over the
 * clusters themselves — similarity computed on each cluster's
 * deduplicated column set — capped at SM_NUM clusters, so the row
 * windows that run concurrently on the GPU touch overlapping B rows
 * and hit in the shared L2.
 *
 * The LSH64 baseline of the paper (Huang et al., PPoPP'21) is this
 * same machinery with a 64-row cluster limit and no second hierarchy.
 */
#ifndef DTC_REORDER_TCA_H
#define DTC_REORDER_TCA_H

#include <cstdint>
#include <vector>

#include "matrix/csr.h"

namespace dtc {

/** Tuning knobs of TCA reordering. */
struct TcaParams
{
    /** Hierarchy-I cluster size cap (the TC-block height). */
    int blockHeight = 16;

    /** Hierarchy-II cluster-of-clusters cap (SMs on the target). */
    int smNum = 128;

    /** Enables Hierarchy II (off = the TCU-only ablation). */
    bool cacheAware = true;

    /** MinHash signature length and LSH band count. */
    int numHashes = 32;
    int bands = 16;

    /** Jaccard cut-off below which candidate pairs are dropped. */
    double minSimilarity = 0.05;

    /** Cap on Hierarchy-II cluster column-set size (sampling). */
    int64_t maxClusterSetSize = 8192;

    uint64_t seed = 0x7ca0ffeeull;
};

/** Result of a TCA run. */
struct TcaResult
{
    /** Row permutation: new row r holds old row permutation[r]. */
    std::vector<int32_t> permutation;

    /** Row clusters formed by Hierarchy I. */
    int64_t numClusters = 0;

    /** Clusters-of-clusters formed by Hierarchy II. */
    int64_t numSuperClusters = 0;

    /** Candidate pairs examined per hierarchy. */
    int64_t candidatePairsH1 = 0;
    int64_t candidatePairsH2 = 0;
};

/**
 * Candidate pairs per parallelFor chunk when a hierarchy scores its
 * LSH candidates (exact Jaccard of two sorted column sets per pair).
 */
constexpr int64_t kTcaPairGrain = 2048;

/** Runs TCU-Cache-Aware reordering over @p m. */
TcaResult tcaReorder(const CsrMatrix& m, const TcaParams& params = {});

} // namespace dtc

#endif // DTC_REORDER_TCA_H

#include "reorder/tca.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "reorder/minhash.h"

namespace dtc {

namespace {

/** Hierarchy-II clusters per parallelFor chunk of the column sets. */
constexpr int64_t kClusterGrain = 64;

/** Union-find with size tracking and a retired flag per root. */
class ClusterSets
{
  public:
    explicit ClusterSets(int64_t n)
        : parent(static_cast<size_t>(n)), size(static_cast<size_t>(n), 1),
          retired(static_cast<size_t>(n), false)
    {
        std::iota(parent.begin(), parent.end(), 0);
    }

    int32_t
    find(int32_t x)
    {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    }

    /** Merges roots a and b; returns the new root. */
    int32_t
    merge(int32_t a, int32_t b)
    {
        if (size[a] < size[b])
            std::swap(a, b);
        parent[b] = a;
        size[a] += size[b];
        return a;
    }

    int64_t sizeOf(int32_t root) const { return size[root]; }
    bool isRetired(int32_t root) const { return retired[root]; }
    void retire(int32_t root) { retired[root] = true; }

  private:
    std::vector<int32_t> parent;
    std::vector<int64_t> size;
    std::vector<bool> retired;
};

struct ScoredPair
{
    double sim;
    int32_t a;
    int32_t b;

    bool
    operator<(const ScoredPair& o) const
    {
        // max-heap by similarity; deterministic tie-break.
        if (sim != o.sim)
            return sim < o.sim;
        if (a != o.a)
            return a > o.a;
        return b > o.b;
    }
};

/**
 * One hierarchy of Algorithm 1: LSH candidates -> priority queue ->
 * greedy merge with a size cap.  `setOf` maps an element to its
 * sorted column set; `weightOf` is the element's size contribution
 * (1 for rows, cluster count for clusters).
 */
template <typename SetOf>
int64_t
mergeHierarchy(int64_t num_elems, const SetOf& set_of,
               const std::vector<int64_t>& weight, int64_t size_limit,
               const TcaParams& p, uint64_t seed, ClusterSets& sets,
               int64_t* candidate_pairs_out,
               std::vector<uint32_t>* sigs_out = nullptr)
{
    MinHasher hasher(p.numHashes, seed);
    std::vector<uint32_t> sigs(static_cast<size_t>(num_elems) *
                               p.numHashes);
    {
        DTC_TRACE_SCOPE("tca.minhash");
        hasher.signatureBatch(
            num_elems,
            [&](int64_t i) {
                return std::pair<const int32_t*, const int32_t*>(
                    set_of(i));
            },
            sigs.data());
    }

    const size_t max_pairs =
        static_cast<size_t>(std::max<int64_t>(4096, num_elems * 24));
    std::vector<std::pair<int32_t, int32_t>> candidates;
    {
        DTC_TRACE_SCOPE("tca.lsh");
        candidates = lshCandidatePairs(sigs, num_elems, p.numHashes,
                                       p.bands, max_pairs);
    }
    *candidate_pairs_out = static_cast<int64_t>(candidates.size());

    DTC_TRACE_SCOPE("tca.merge");
    // Exact Jaccard per candidate on the pool, each chunk writing its
    // own slots; the kept pairs are then collected serially in
    // candidate order.  The heap orders by the total order (sim, a,
    // b), so its pop sequence is the same however the pairs arrive.
    std::vector<double> sims(candidates.size());
    parallelFor(0, static_cast<int64_t>(candidates.size()), kTcaPairGrain,
                [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            auto [ab, ae] = set_of(candidates[i].first);
            auto [bb, be] = set_of(candidates[i].second);
            sims[i] = jaccardSorted(ab, ae, bb, be);
        }
    });
    std::vector<ScoredPair> kept;
    for (size_t i = 0; i < candidates.size(); ++i)
        if (sims[i] >= p.minSimilarity)
            kept.push_back(
                {sims[i], candidates[i].first, candidates[i].second});
    std::priority_queue<ScoredPair> queue(std::less<ScoredPair>(),
                                          std::move(kept));

    // Override sizes: union-find starts each element with weight 1,
    // but Hierarchy II elements weigh their row-cluster counts.
    // ClusterSets tracks abstract size via `weight` accounting here.
    std::vector<int64_t> root_weight(weight);

    while (!queue.empty()) {
        auto [sim, a, b] = queue.top();
        queue.pop();
        (void)sim;
        int32_t ra = sets.find(a);
        int32_t rb = sets.find(b);
        if (ra == rb || sets.isRetired(ra) || sets.isRetired(rb))
            continue;
        const int64_t combined = root_weight[ra] + root_weight[rb];
        int32_t root = sets.merge(ra, rb);
        root_weight[root] = combined;
        if (combined >= size_limit)
            sets.retire(root);
    }

    // Count resulting clusters.
    int64_t clusters = 0;
    for (int64_t i = 0; i < num_elems; ++i) {
        if (sets.find(static_cast<int32_t>(i)) == i)
            clusters++;
    }
    if (sigs_out)
        *sigs_out = std::move(sigs);
    return clusters;
}

} // namespace

TcaResult
tcaReorder(const CsrMatrix& m, const TcaParams& params)
{
    DTC_CHECK(params.blockHeight > 0 && params.smNum > 0);
    DTC_TRACE_SCOPE("tca.reorder");
    obs::ScopedTimerMs timer("tca.reorder_ms");
    const int64_t rows = m.rows();
    TcaResult res;
    res.permutation.resize(static_cast<size_t>(rows));
    if (rows == 0)
        return res;

    const auto& row_ptr = m.rowPtr();
    const auto& col_idx = m.colIdx();

    // ---- Hierarchy I: rows -> clusters of <= blockHeight rows. ----
    ClusterSets row_sets(rows);
    auto row_set = [&](int64_t r) {
        return std::pair<const int32_t*, const int32_t*>(
            col_idx.data() + row_ptr[r], col_idx.data() + row_ptr[r + 1]);
    };
    std::vector<int64_t> unit_weight(static_cast<size_t>(rows), 1);
    res.numClusters = mergeHierarchy(
        rows, row_set, unit_weight, params.blockHeight, params,
        params.seed, row_sets, &res.candidatePairsH1);

    // Gather clusters: root -> member rows (ascending row id).
    std::vector<int32_t> cluster_id(static_cast<size_t>(rows), -1);
    std::vector<std::vector<int32_t>> clusters;
    for (int64_t r = 0; r < rows; ++r) {
        int32_t root = row_sets.find(static_cast<int32_t>(r));
        if (cluster_id[root] < 0) {
            cluster_id[root] = static_cast<int32_t>(clusters.size());
            clusters.emplace_back();
        }
        clusters[cluster_id[root]].push_back(static_cast<int32_t>(r));
    }
    const int64_t nc = static_cast<int64_t>(clusters.size());

    // Order of clusters if Hierarchy II is disabled: as discovered.
    std::vector<int32_t> cluster_order(static_cast<size_t>(nc));
    std::iota(cluster_order.begin(), cluster_order.end(), 0);

    if (params.cacheAware && nc > 1) {
        // ---- Hierarchy II: clusters -> clusters-of-clusters. ----
        // Deduplicated column set per cluster, subsampled if huge.
        // Each cluster builds its own set, so chunks of clusters run
        // on the pool with disjoint writes.
        std::vector<std::vector<int32_t>> csets(
            static_cast<size_t>(nc));
        parallelFor(0, nc, kClusterGrain, [&](int64_t lo, int64_t hi) {
            std::vector<int32_t> scratch;
            for (int64_t c = lo; c < hi; ++c) {
                scratch.clear();
                for (int32_t r : clusters[c]) {
                    scratch.insert(scratch.end(),
                                   col_idx.data() + row_ptr[r],
                                   col_idx.data() + row_ptr[r + 1]);
                }
                std::sort(scratch.begin(), scratch.end());
                scratch.erase(
                    std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
                std::vector<int32_t>& set = csets[c];
                if (static_cast<int64_t>(scratch.size()) >
                    params.maxClusterSetSize) {
                    // Uniform stride subsample keeps sets comparable.
                    const double stride =
                        static_cast<double>(scratch.size()) /
                        static_cast<double>(params.maxClusterSetSize);
                    for (int64_t i = 0; i < params.maxClusterSetSize;
                         ++i)
                        set.push_back(scratch[static_cast<size_t>(
                            static_cast<double>(i) * stride)]);
                } else {
                    set = scratch;
                }
            }
        });

        ClusterSets cc_sets(nc);
        auto cluster_set = [&](int64_t c) {
            return std::pair<const int32_t*, const int32_t*>(
                csets[c].data(), csets[c].data() + csets[c].size());
        };
        std::vector<int64_t> cweight(static_cast<size_t>(nc), 1);
        std::vector<uint32_t> cluster_sigs;
        res.numSuperClusters = mergeHierarchy(
            nc, cluster_set, cweight, params.smNum, params,
            params.seed ^ 0x5eed5eedull, cc_sets,
            &res.candidatePairsH2, &cluster_sigs);

        // Order clusters grouped by super-cluster.
        std::vector<int32_t> cc_id(static_cast<size_t>(nc), -1);
        std::vector<std::vector<int32_t>> supers;
        for (int64_t c = 0; c < nc; ++c) {
            int32_t root = cc_sets.find(static_cast<int32_t>(c));
            if (cc_id[root] < 0) {
                cc_id[root] = static_cast<int32_t>(supers.size());
                supers.emplace_back();
            }
            supers[cc_id[root]].push_back(static_cast<int32_t>(c));
        }

        // Within a super-cluster, chain clusters by similarity
        // (greedy nearest neighbour) so that the 16-row windows that
        // straddle cluster boundaries still see similar columns.
        // Similarity comes from the Hierarchy-II MinHash signatures
        // (matching-slot fraction estimates Jaccard): O(numHashes)
        // per candidate instead of O(|set|) exact intersection, which
        // made the greedy chain O(k^2 * setsize) per super-cluster.
        const int nh = params.numHashes;
        auto sigSimilarity = [&](int32_t ca, int32_t cb) {
            if (csets[ca].empty() || csets[cb].empty())
                return 0.0; // empty all-ones signatures never match
            const uint32_t* sa = cluster_sigs.data() +
                                 static_cast<size_t>(ca) * nh;
            const uint32_t* sb = cluster_sigs.data() +
                                 static_cast<size_t>(cb) * nh;
            int match = 0;
            for (int i = 0; i < nh; ++i)
                match += (sa[i] == sb[i]) ? 1 : 0;
            return static_cast<double>(match) /
                   static_cast<double>(nh);
        };
        auto chainOrder = [&](std::vector<int32_t>& members) {
            if (members.size() < 3)
                return;
            std::vector<int32_t> chain;
            chain.reserve(members.size());
            std::vector<bool> used(members.size(), false);
            size_t cur = 0;
            used[0] = true;
            chain.push_back(members[0]);
            for (size_t step = 1; step < members.size(); ++step) {
                double best_sim = -1.0;
                size_t best = 0;
                for (size_t j = 0; j < members.size(); ++j) {
                    if (used[j])
                        continue;
                    const double sim =
                        sigSimilarity(members[cur], members[j]);
                    if (sim > best_sim) {
                        best_sim = sim;
                        best = j;
                    }
                }
                used[best] = true;
                chain.push_back(members[best]);
                cur = best;
            }
            members = std::move(chain);
        };

        cluster_order.clear();
        DTC_TRACE_SCOPE("tca.chain");
        for (auto& s : supers) {
            chainOrder(s);
            cluster_order.insert(cluster_order.end(), s.begin(),
                                 s.end());
        }
    } else {
        res.numSuperClusters = nc;
    }

    // Emit the permutation: rows grouped by cluster, clusters by
    // super-cluster.
    size_t pos = 0;
    for (int32_t c : cluster_order)
        for (int32_t r : clusters[c])
            res.permutation[pos++] = r;
    DTC_ASSERT(pos == res.permutation.size());
    static obs::Counter& reorders =
        obs::metrics::counter("tca.reorders");
    static obs::Counter& clusters_out =
        obs::metrics::counter("tca.clusters");
    static obs::Counter& pairs =
        obs::metrics::counter("tca.candidate_pairs");
    reorders.add(1);
    clusters_out.add(static_cast<uint64_t>(res.numClusters));
    pairs.add(static_cast<uint64_t>(res.candidatePairsH1 +
                                    res.candidatePairsH2));
    return res;
}

} // namespace dtc

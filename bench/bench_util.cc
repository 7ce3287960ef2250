#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace dtc {
namespace bench {

BenchArgs
BenchArgs::parse(int argc, char** argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            args.quick = true;
            args.collectionSize = 48;
        } else if (std::strncmp(argv[i], "--collection=", 13) == 0) {
            args.collectionSize = std::atoi(argv[i] + 13);
        }
    }
    return args;
}

void
printRule(const std::vector<int>& widths)
{
    for (int w : widths) {
        std::fputc('+', stdout);
        for (int i = 0; i < w + 2; ++i)
            std::fputc('-', stdout);
    }
    std::fputs("+\n", stdout);
}

void
printRow(const std::vector<int>& widths,
         const std::vector<std::string>& cells)
{
    for (size_t i = 0; i < widths.size(); ++i) {
        const std::string& cell =
            i < cells.size() ? cells[i] : std::string();
        std::printf("| %-*s ", widths[i], cell.c_str());
    }
    std::fputs("|\n", stdout);
}

std::string
fmt(double v, int digits)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(digits);
    os << v;
    return os.str();
}

std::string
fmtX(double v, int digits)
{
    return fmt(v, digits) + "x";
}

double
geomean(const std::vector<double>& values)
{
    double log_sum = 0.0;
    int64_t count = 0;
    for (double v : values) {
        if (v > 0.0) {
            log_sum += std::log(v);
            count++;
        }
    }
    return count > 0 ? std::exp(log_sum / static_cast<double>(count))
                     : 0.0;
}

double
median(std::vector<double> values)
{
    const auto mid = values.begin() + values.size() / 2;
    std::nth_element(values.begin(), mid, values.end());
    return *mid;
}

PreparedKernel::PreparedKernel(KernelKind kind, const CsrMatrix& a)
    : kernelName(kernelKindName(kind)), kernel(makeKernel(kind))
{
    const Refusal r = kernel->prepare(a);
    err = r.reason;
    code = r.code;
}

const LaunchResult&
PreparedKernel::cost(int64_t n, const CostModel& cm)
{
    auto key = std::make_pair(cm.arch().name, n);
    auto it = cache.find(key);
    if (it == cache.end()) {
        it = cache.emplace(key, kernel->cost(n, cm)).first;
    }
    return it->second;
}

const std::vector<std::pair<Table1Entry, CsrMatrix>>&
table1Matrices()
{
    static const auto* matrices = [] {
        auto* v =
            new std::vector<std::pair<Table1Entry, CsrMatrix>>();
        for (const auto& e : table1Entries())
            v->emplace_back(e, e.make());
        return v;
    }();
    return *matrices;
}

} // namespace bench
} // namespace dtc

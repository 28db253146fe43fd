/**
 * @file
 * laoram_perf — the repository benchmark runner.
 *
 *   laoram_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *               [--spans PATH] [--node-bin PATH]
 *
 * Runs one workload against the library's public API, checks its
 * outputs, and prints a human summary followed by one JSON line with
 * every measured metric. perfbench/run.py builds this binary, maps
 * the JSON onto the metric list of BENCHMARK.json and prints the final
 * line.
 * Exit status: 0 when every output checked out, 1 on a correctness
 * failure, 2 on a usage error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include <sys/resource.h>

#include "common.hh"

namespace perfbench {

std::int64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

void
Tracer::record(Span span)
{
    if (!on)
        return;
    std::lock_guard<std::mutex> lock(mu);
    buf.push_back(std::move(span));
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

std::string
jsonMap(const std::map<std::string, double> &m)
{
    std::string out = "{";
    for (const auto &[k, v] : m) {
        if (out.size() > 1)
            out += ", ";
        out += jsonString(k) + ": " + jsonNumber(v);
    }
    return out + "}";
}

} // namespace

void
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    os << "{\"unit\": \"ns\", \"spans\": [\n";
    for (std::size_t i = 0; i < buf.size(); ++i) {
        const Span &s = buf[i];
        os << "{\"name\": " << jsonString(s.name)
           << ", \"start\": " << s.startNs << ", \"end\": " << s.endNs
           << ", \"parent\": " << jsonString(s.parent)
           << ", \"id\": " << s.id;
        if (!s.attrs.empty())
            os << ", " << s.attrs;
        os << (i + 1 < buf.size() ? "},\n" : "}\n");
    }
    os << "]}\n";
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    if (frac == 0.0 || v[hi] == v[lo]) // also keeps infinities exact
        return v[lo];
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace perfbench

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "laoram_perf: " << why
              << "\nusage: laoram_perf --workload <train-kaggle-laoram|"
                 "train-kaggle-pathoram|serve-zipf-node> --seed N "
                 "--seconds S --trace 0|1 [--spans PATH] "
                 "[--node-bin PATH]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                opt.workload = v;
            else if (a == "--seed")
                opt.seed = std::stoull(v);
            else if (a == "--seconds")
                opt.seconds = std::stod(v);
            else if (a == "--trace")
                opt.trace = std::stoi(v) != 0;
            else if (a == "--spans")
                opt.spansPath = v;
            else if (a == "--node-bin")
                opt.nodeBin = v;
            else
                usage("unknown option " + a);
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + a);
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Tracer tracer(opt.trace);

    Result r;
    if (opt.workload == "train-kaggle-laoram")
        r = runTrainLaoram(opt, tracer);
    else if (opt.workload == "train-kaggle-pathoram")
        r = runTrainPathOram(opt, tracer);
    else if (opt.workload == "serve-zipf-node")
        r = runServeZipfNode(opt, tracer);
    else
        usage("unknown workload '" + opt.workload + "'");

    r.endToEnd["peak_rss_mb"] = peakRssMb();

    if (opt.trace && !opt.spansPath.empty()) {
        tracer.write(opt.spansPath);
        std::cout << "spans: " << tracer.spans().size() << " written to "
                  << opt.spansPath << "\n";
    }
    for (const std::string &n : r.notes)
        std::cout << "note: " << n << "\n";

    std::string selfTime = "[";
    for (const SelfTime &s : r.selfTime) {
        if (selfTime.size() > 1)
            selfTime += ", ";
        selfTime += "[" + jsonString(s.layer) + ", " + jsonNumber(s.ms)
                    + ", " + jsonString(s.what) + "]";
    }
    selfTime += "]";

    std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed
              << ", \"end_to_end\": " << jsonMap(r.endToEnd)
              << ", \"per_layer\": " << jsonMap(r.perLayer)
              << ", \"counts\": " << jsonMap(r.counts)
              << ", \"self_time\": " << selfTime << "}" << std::endl;
    return r.correct ? 0 : 1;
}

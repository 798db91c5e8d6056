/**
 * @file
 * ddsc-tracegen: synthetic DDSCTRC v4 corpus generator and
 * bounded-residency sweeper — the tool behind the CI job that proves
 * a corpus larger than RAM sweeps in bounded RSS with bit-identical
 * digests.
 *
 * Usage:
 *   ddsc-tracegen gen --dir DIR --files N --records M
 *                     [--seed S] [--block-size BYTES]
 *   ddsc-tracegen sweep --dir DIR [--budget-mb N] [--max-rss-mb N]
 *                       [--configs A..E] [--width N]
 *
 * gen writes N v4 trace files of M synthetic records each under DIR
 * (synth-0.trc ...), generating in bounded chunks so the generator's
 * own RSS stays flat no matter how large the corpus — the writer
 * streams blocks to disk and never holds more than one chunk of
 * records.  Each file gets a distinct seed, so the corpus is
 * deterministic for a given --seed.
 *
 * sweep maps every *.trc under DIR (MappedTraceSource) and walks each
 * one through a zero-copy cursor under a TraceResidencyManager
 * --budget-mb, verifying two invariants per file:
 *
 *   1. digest identity: the FNV-1a stream digest recomputed from the
 *      cursor's records equals the digest the writer stamped into the
 *      header — i.e. the mapped path reproduces exactly the bytes the
 *      vector path would have digested (the two share digestRecords'
 *      fold); and
 *   2. every block CRC passes (the cursor validates lazily on entry).
 *
 * With --configs it additionally runs a batched one-pass simulation
 * group per file.  At the end it prints the residency counters and
 * the process's peak RSS (getrusage), and exits 1 if --max-rss-mb was
 * given and the peak exceeded it — that exit code is the CI gate that
 * the residency budget actually bounds memory.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "sim/batched.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "support/version.hh"
#include "trace/mapped.hh"
#include "trace/record.hh"
#include "trace/source.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace ddsc;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
        "usage: ddsc-tracegen gen --dir DIR --files N --records M\n"
        "                         [--seed S] [--block-size BYTES]\n"
        "       ddsc-tracegen sweep --dir DIR [--budget-mb N]\n"
        "                           [--max-rss-mb N] [--configs A..E]\n"
        "                           [--width N]\n");
    std::exit(2);
}

/** Peak RSS of this process in MiB (ru_maxrss is KiB on Linux). */
std::uint64_t
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;
}

/** Records generated per chunk: bounds gen's own memory (a chunk of
 *  TraceRecords is ~90 MB at 1 M records; the writer itself buffers
 *  only one block). */
constexpr std::uint64_t kGenChunk = 1u << 20;

int
runGen(const std::string &dir, std::uint64_t files,
       std::uint64_t records, std::uint64_t seed,
       std::uint32_t blockSize)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        ddsc_fatal("cannot create corpus dir '%s': %s", dir.c_str(),
                   ec.message().c_str());
    }
    std::uint64_t totalBytes = 0;
    for (std::uint64_t f = 0; f < files; ++f) {
        const std::string path =
            dir + "/synth-" + std::to_string(f) + ".trc";
        TraceFileWriter writer(path, 4, blockSize);
        std::uint64_t emitted = 0;
        std::uint64_t chunkIndex = 0;
        while (emitted < records) {
            SyntheticTraceConfig config;
            config.instructions = std::min(kGenChunk, records - emitted);
            // Distinct stream per (corpus seed, file, chunk); the
            // generator is deterministic, so the whole corpus is.
            config.seed = seed * 1000003ull + f * 8191ull + chunkIndex;
            const VectorTraceSource chunk = generateSynthetic(config);
            for (const TraceRecord &rec : chunk.records())
                writer.emit(rec);
            emitted += config.instructions;
            ++chunkIndex;
        }
        writer.close();
        const std::uint64_t bytes = std::filesystem::file_size(path);
        totalBytes += bytes;
        std::printf("%s: %" PRIu64 " records, %" PRIu64 " bytes, "
                    "digest %016" PRIx64 "\n",
                    path.c_str(), records, bytes, writer.digest());
    }
    std::printf("corpus: %" PRIu64 " files, %" PRIu64 " bytes "
                "(%.2f GiB), gen peak RSS %" PRIu64 " MiB\n",
                files, totalBytes,
                static_cast<double>(totalBytes) / (1024.0 * 1024.0 *
                                                   1024.0),
                peakRssMb());
    return 0;
}

int
runSweep(const std::string &dir, std::uint64_t budgetMb,
         std::uint64_t maxRssMb, const std::string &configIds,
         unsigned width)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".trc")
            paths.push_back(entry.path().string());
    }
    if (ec)
        ddsc_fatal("cannot list '%s': %s", dir.c_str(),
                   ec.message().c_str());
    if (paths.empty())
        ddsc_fatal("no .trc files under '%s'", dir.c_str());
    std::sort(paths.begin(), paths.end());

    // Map the whole corpus up front: cheap (O(blocks) per file, no
    // record is read) and exactly what the server does with a full
    // --trace-dir.
    std::vector<std::unique_ptr<MappedTraceSource>> traces;
    std::uint64_t corpusBytes = 0;
    for (const std::string &path : paths) {
        traces.push_back(std::make_unique<MappedTraceSource>(path));
        corpusBytes += traces.back()->mappedBytes();
    }

    TraceResidencyManager residency;
    residency.setBudgetBytes(budgetMb * 1024 * 1024);

    std::uint64_t totalRecords = 0;
    for (const auto &trace : traces) {
        residency.touch(*trace);

        // Digest-identity gate: re-fold every record coming out of
        // the zero-copy cursor and compare against the header digest
        // the writer stamped (which equals digestRecords over the
        // vector path).  Walking every record also forces every lazy
        // block CRC.
        RecordDigest digest;
        const std::unique_ptr<TraceSource> cursor = trace->cursor();
        TraceRecord rec;
        std::uint64_t walked = 0;
        while (cursor->next(rec)) {
            digest.add(rec);
            ++walked;
        }
        if (walked != trace->recordCount() ||
            digest.value() != trace->digest()) {
            std::fprintf(stderr,
                         "DIGEST MISMATCH %s: cursor walked %" PRIu64
                         " records folding to %016" PRIx64
                         " but the header promises %" PRIu64
                         " records, digest %016" PRIx64 "\n",
                         trace->path().c_str(), walked, digest.value(),
                         trace->recordCount(), trace->digest());
            return 1;
        }
        totalRecords += walked;

        // One batched group per config letter: configs of different
        // letters need not share a front-end fingerprint, and
        // runBatchedGroup requires groups to agree on it.
        for (const char c : configIds) {
            const std::vector<MachineConfig> configs = {
                MachineConfig::paper(c, width)};
            const std::vector<std::string> keys = {
                trace->path() + "/" + std::string(1, c)};
            const BatchedGroupResult out =
                runBatchedGroup(*trace, configs, keys);
            if (!out.cells[0].ok) {
                std::fprintf(stderr, "SIM FAILED %s: %s\n",
                             keys[0].c_str(),
                             out.cells[0].error.c_str());
                return 1;
            }
        }
    }

    const TraceResidencyManager::Counters counters =
        residency.counters();
    const std::uint64_t rssMb = peakRssMb();
    std::printf("swept %zu files, %" PRIu64 " records, %" PRIu64
                " bytes (%.2f GiB)\n",
                traces.size(), totalRecords, corpusBytes,
                static_cast<double>(corpusBytes) /
                    (1024.0 * 1024.0 * 1024.0));
    std::printf("residency: budget %" PRIu64 " B, mapped %" PRIu64
                " B, resident %" PRIu64 " B, %" PRIu64 " evictions\n",
                counters.budgetBytes, counters.mappedBytes,
                counters.residentBytes, counters.evictions);
    std::printf("peak RSS: %" PRIu64 " MiB\n", rssMb);
    if (maxRssMb != 0 && rssMb > maxRssMb) {
        std::fprintf(stderr,
                     "RSS GATE FAILED: peak %" PRIu64 " MiB > limit %"
                     PRIu64 " MiB (budget %" PRIu64
                     " MiB over a %" PRIu64 "-byte corpus)\n",
                     rssMb, maxRssMb, budgetMb, corpusBytes);
        return 1;
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string mode = argv[1];
    if (mode == "--version") {
        ddsc::support::version::print("ddsc-tracegen");
        return 0;
    }
    if (mode != "gen" && mode != "sweep")
        usage();

    std::string dir;
    std::uint64_t files = 4, records = 1u << 20, seed = 1;
    std::uint32_t blockSize = 0;    // writer default
    std::uint64_t budgetMb = 0, maxRssMb = 0;
    std::string configIds;
    unsigned width = 4;

    ddsc::support::parseCommandLine(
        "ddsc-tracegen", argc - 1, argv + 1, usage, {
        {"--dir", &dir},
        {"--files", &files, 1},
        {"--records", &records, 1},
        {"--seed", &seed},
        {"--block-size", &blockSize},
        {"--budget-mb", &budgetMb},
        {"--max-rss-mb", &maxRssMb},
        {"--configs",
         [&](const std::string &v) {
             configIds = v;
             return std::all_of(v.begin(), v.end(),
                                ddsc::MachineConfig::isKnownConfig);
         }},
        {"--width", &width, 1},
    });
    if (dir.empty() || files == 0 || records == 0)
        usage();

    if (mode == "gen")
        return runGen(dir, files, records, seed, blockSize);
    return runSweep(dir, budgetMb, maxRssMb, configIds, width);
}

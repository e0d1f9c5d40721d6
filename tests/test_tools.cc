/**
 * @file
 * End-to-end tests for the command-line tools, shelling out to the
 * built binaries (paths injected by CMake):
 *
 *  - jordsim --prof-out / --pmu-out produce the advertised files,
 *    byte-identical across same-seed runs, and --prof-hz validates;
 *  - trace_report and jordlint exit non-zero on empty and truncated
 *    trace files;
 *  - jordprof diff exits zero on identical inputs and non-zero on a
 *    synthetic 20% P99 regression;
 *  - artifacts are written with write-then-rename: complete, with no
 *    temporary left beside them, and a failed write keeps the old file;
 *    a symlinked target is followed and a FIFO is written in place;
 *  - jordsim refuses a machine larger than the directory can track.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/atomic_file.hh"
#include "tests/tmp_path.hh"
#include "trace/export.hh"
#include "trace/trace.hh"

namespace {

using jord::test::tmpPath;

std::string
shellQuote(const std::string &s)
{
    return "'" + s + "'";
}

/** Run a command with stdout/stderr captured; return its exit code. */
int
runCmd(const std::string &cmd)
{
    int status = std::system((cmd + " >/dev/null 2>&1").c_str());
    if (status < 0)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(out)) << path;
    out << content;
}

const std::string kJordsim = JORD_JORDSIM_BIN;
const std::string kJordprof = JORD_JORDPROF_BIN;
const std::string kTraceReport = JORD_TRACE_REPORT_BIN;
const std::string kJordlint = JORD_JORDLINT_BIN;

std::string
profRun(const std::string &base, const std::string &extra = "")
{
    return kJordsim +
           " --workload Hotel --mrps 2.0 --requests 3000 --csv " +
           extra + " --prof-out " + shellQuote(base);
}

// --- jordsim profiling flags ------------------------------------------------

TEST(JordsimProf, ProfOutWritesAllArtifactsDeterministically)
{
    std::string a = tmpPath("prof_a"), b = tmpPath("prof_b");
    ASSERT_EQ(runCmd(profRun(a)), 0);
    ASSERT_EQ(runCmd(profRun(b)), 0);
    for (const char *ext :
         {".folded", ".timeseries.csv", ".topdown.csv", ".json"}) {
        std::string fa = slurp(a + ext), fb = slurp(b + ext);
        EXPECT_FALSE(fa.empty()) << ext;
        EXPECT_EQ(fa, fb) << ext;
    }
    // The JSON summary parses and reports samples were taken.
    std::string json = slurp(a + ".json");
    EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
    EXPECT_NE(json.find("\"topdown.retire\""), std::string::npos);
    EXPECT_EQ(runCmd(kJordprof + " report " + shellQuote(a + ".json")),
              0);
}

TEST(JordsimProf, PmuOutWritesCounterCsv)
{
    std::string path = tmpPath("pmu.csv");
    ASSERT_EQ(runCmd(kJordsim +
                     " --workload Hotel --mrps 1.0 --requests 2000 "
                     "--csv --pmu-out " +
                     shellQuote(path)),
              0);
    std::string csv = slurp(path);
    EXPECT_NE(csv.find("core,counter,value"), std::string::npos);
    EXPECT_NE(csv.find("retired_ops"), std::string::npos);
    EXPECT_NE(csv.find("total,"), std::string::npos);
}

TEST(JordsimProf, ProfHzValidatesItsArgument)
{
    std::string base = tmpPath("prof_hz");
    // Negative rates are rejected.
    EXPECT_NE(runCmd(profRun(base, "--prof-hz -5")), 0);
    // Rates above one sample per core cycle exceed the event-queue
    // horizon.
    EXPECT_NE(runCmd(profRun(base, "--prof-hz 1e13")), 0);
    // An explicit zero disables profiling: run succeeds, no files.
    std::string off = tmpPath("prof_off");
    std::remove((off + ".json").c_str());
    EXPECT_EQ(runCmd(profRun(off, "--prof-hz 0")), 0);
    std::ifstream probe(off + ".json");
    EXPECT_FALSE(static_cast<bool>(probe));
}

TEST(JordsimProf, HelpDocumentsProfilingFlags)
{
    std::string out = tmpPath("help.txt");
    ASSERT_EQ(std::system((kJordsim + " --help > " + shellQuote(out) +
                           " 2>&1")
                              .c_str()),
              0);
    std::string help = slurp(out);
    EXPECT_NE(help.find("--prof-out"), std::string::npos);
    EXPECT_NE(help.find("--prof-hz"), std::string::npos);
    EXPECT_NE(help.find("--pmu-out"), std::string::npos);
}

// --- trace_report / jordlint robustness --------------------------------------

class TraceToolsTest : public ::testing::Test
{
  protected:
    static std::string tracePath_;

    static void
    SetUpTestSuite()
    {
        tracePath_ = tmpPath("trace.json");
        ASSERT_EQ(runCmd(kJordsim +
                         " --workload Hotel --mrps 1.0 "
                         "--requests 2000 --csv --trace-out " +
                         shellQuote(tracePath_)),
                  0);
    }
};

std::string TraceToolsTest::tracePath_;

TEST_F(TraceToolsTest, ToolsAcceptACompleteTrace)
{
    EXPECT_EQ(runCmd(kTraceReport + " " + shellQuote(tracePath_)), 0);
    EXPECT_EQ(runCmd(kJordlint + " " + shellQuote(tracePath_)), 0);
}

TEST_F(TraceToolsTest, ToolsRejectEmptyTraces)
{
    std::string empty = tmpPath("empty.json");
    spit(empty, "");
    EXPECT_NE(runCmd(kTraceReport + " " + shellQuote(empty)), 0);
    EXPECT_NE(runCmd(kJordlint + " " + shellQuote(empty)), 0);
}

TEST_F(TraceToolsTest, CompleteButEmptyTracePassesIntegrity)
{
    // A complete file with zero spans (nothing arrived inside the
    // measured window) is valid: trace_report reports the empty run
    // and exits 0; jordlint still objects — but because there is
    // nothing to lint, not because the file looks truncated.
    jord::trace::Tracer empty_tracer;
    std::string path = tmpPath("empty_valid.json");
    spit(path, jord::trace::chromeTraceJson(empty_tracer));
    EXPECT_EQ(runCmd(kTraceReport + " " + shellQuote(path)), 0);
    EXPECT_NE(runCmd(kJordlint + " " + shellQuote(path)), 0);
}

TEST_F(TraceToolsTest, ToolsRejectTruncatedTraces)
{
    std::string full = slurp(tracePath_);
    ASSERT_GT(full.size(), 4000u);
    std::string trunc = tmpPath("trunc.json");
    spit(trunc, full.substr(0, full.size() / 2));
    EXPECT_NE(runCmd(kTraceReport + " " + shellQuote(trunc)), 0);
    EXPECT_NE(runCmd(kJordlint + " " + shellQuote(trunc)), 0);
}

// --- atomic artifacts -------------------------------------------------------

/** Names in @p dir that look like a leftover write-then-rename temp. */
std::vector<std::string>
tempSiblings(const std::string &dir)
{
    std::vector<std::string> out;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::string name = entry.path().filename().string();
        if (name.find(".tmp.") != std::string::npos)
            out.push_back(name);
    }
    return out;
}

TEST(AtomicArtifacts, JordsimReplacesOutputsWhole)
{
    std::string dir = tmpPath("atomic_run");
    std::filesystem::create_directory(dir);
    std::string trace = dir + "/trace.json";
    std::string metrics = dir + "/metrics.csv";
    // Stale files from an earlier run are replaced, not appended to.
    spit(trace, "stale");
    spit(metrics, "stale");
    std::string run = kJordsim + " --workload Hotel --mrps 1.0 --csv";
    std::string outs = " --trace-out " + shellQuote(trace);
    outs += " --metrics-out " + shellQuote(metrics);
    ASSERT_EQ(runCmd(run + " --requests 1000" + outs), 0);

    EXPECT_EQ(runCmd(kTraceReport + " " + shellQuote(trace)), 0);
    std::string csv = slurp(metrics);
    ASSERT_FALSE(csv.empty());
    EXPECT_EQ(csv.rfind("stale", 0), std::string::npos);
    EXPECT_EQ(csv.back(), '\n');
    EXPECT_TRUE(tempSiblings(dir).empty());

    // An unwritable destination fails the run and leaves no temp.
    std::string missing = shellQuote(dir + "/missing/metrics.csv");
    EXPECT_NE(runCmd(run + " --requests 100 --metrics-out " + missing), 0);
    EXPECT_TRUE(tempSiblings(dir).empty());
}

TEST(AtomicArtifacts, FailedWriteKeepsTheOldFile)
{
    std::string dir = tmpPath("atomic_unit");
    std::filesystem::create_directory(dir);
    std::string path = dir + "/out.txt";
    spit(path, "old\n");

    auto torn = [](std::ostream &out) {
        out << "half";
        out.setstate(std::ios::badbit);
    };
    EXPECT_FALSE(jord::sim::writeFileAtomic(path, torn));
    EXPECT_EQ(slurp(path), "old\n");
    EXPECT_TRUE(tempSiblings(dir).empty());

    auto whole = [](std::ostream &out) { out << "new\n"; };
    EXPECT_TRUE(jord::sim::writeFileAtomic(path, whole));
    EXPECT_EQ(slurp(path), "new\n");
    EXPECT_TRUE(tempSiblings(dir).empty());
}

TEST(AtomicArtifacts, SymlinkedTargetIsReplacedBehindTheLink)
{
    std::string dir = tmpPath("atomic_link");
    std::filesystem::create_directories(dir + "/real");
    std::string target = dir + "/real/out.json";
    std::string link = dir + "/out.json";
    spit(target, "old\n");
    std::filesystem::create_symlink("real/out.json", link);

    auto whole = [](std::ostream &out) { out << "new\n"; };
    EXPECT_TRUE(jord::sim::writeFileAtomic(link, whole));
    EXPECT_TRUE(std::filesystem::is_symlink(link));
    EXPECT_EQ(slurp(target), "new\n");
    EXPECT_TRUE(tempSiblings(dir).empty());
    EXPECT_TRUE(tempSiblings(dir + "/real").empty());

    // A dangling link gets its target created.
    std::string dangling = dir + "/dangling.json";
    std::filesystem::create_symlink("real/made.json", dangling);
    EXPECT_TRUE(jord::sim::writeFileAtomic(dangling, whole));
    EXPECT_TRUE(std::filesystem::is_symlink(dangling));
    EXPECT_EQ(slurp(dir + "/real/made.json"), "new\n");
}

TEST(AtomicArtifacts, FifoTargetIsWrittenInPlace)
{
    std::string dir = tmpPath("atomic_fifo");
    std::filesystem::create_directory(dir);
    std::string fifo = dir + "/out.fifo";
    ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
    // Hold a reader open first, so opening the FIFO to write cannot
    // block; the payload fits in the pipe buffer.
    int reader = open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
    ASSERT_GE(reader, 0);

    auto whole = [](std::ostream &out) { out << "new\n"; };
    EXPECT_TRUE(jord::sim::writeFileAtomic(fifo, whole));
    char buf[16] = {};
    EXPECT_EQ(::read(reader, buf, sizeof buf), 4);
    EXPECT_EQ(std::string(buf), "new\n");
    ::close(reader);
    EXPECT_TRUE(std::filesystem::is_fifo(fifo));
    EXPECT_TRUE(tempSiblings(dir).empty());
}

// --- jordprof diff ------------------------------------------------------------

TEST(JordprofDiff, IdenticalInputsPassAndRegressionsFail)
{
    std::string old_path = tmpPath("bench_old.json");
    std::string new_path = tmpPath("bench_new.json");
    spit(old_path, "{\n"
                   "  \"fig9.Hotel.Jord.goodput_mrps\": 4.0,\n"
                   "  \"p50_us\": 3.0,\n"
                   "  \"p99_us\": 5.0\n"
                   "}\n");
    EXPECT_EQ(runCmd(kJordprof + " diff " + shellQuote(old_path) + " " +
                     shellQuote(old_path) + " --threshold 10%"),
              0);

    // A synthetic 20% P99 regression must fail a 10% gate.
    spit(new_path, "{\n"
                   "  \"fig9.Hotel.Jord.goodput_mrps\": 4.0,\n"
                   "  \"p50_us\": 3.0,\n"
                   "  \"p99_us\": 6.0\n"
                   "}\n");
    EXPECT_EQ(runCmd(kJordprof + " diff " + shellQuote(old_path) + " " +
                     shellQuote(new_path) + " --threshold 10%"),
              1);
    // ...and pass a 25% gate (threshold accepted as a fraction too).
    EXPECT_EQ(runCmd(kJordprof + " diff " + shellQuote(old_path) + " " +
                     shellQuote(new_path) + " --threshold 0.25"),
              0);

    // Goodput is higher-is-better: a 20% drop fails.
    spit(new_path, "{\n"
                   "  \"fig9.Hotel.Jord.goodput_mrps\": 3.2,\n"
                   "  \"p50_us\": 3.0,\n"
                   "  \"p99_us\": 5.0\n"
                   "}\n");
    EXPECT_EQ(runCmd(kJordprof + " diff " + shellQuote(old_path) + " " +
                     shellQuote(new_path) + " --threshold 10%"),
              1);
}

TEST(JordprofDiff, RejectsEmptyAndMalformedInputs)
{
    std::string empty = tmpPath("empty_bench.json");
    spit(empty, "");
    EXPECT_NE(runCmd(kJordprof + " report " + shellQuote(empty)), 0);
    std::string garbage = tmpPath("garbage_bench.json");
    spit(garbage, "{\"p99_us\": 5.0");
    EXPECT_NE(runCmd(kJordprof + " diff " + shellQuote(garbage) + " " +
                     shellQuote(garbage)),
              0);
}

} // namespace

// --- jordsim fleet mode -----------------------------------------------------

TEST(JordsimCluster, MetricsOutIsPerServerNamespacedAndDeterministic)
{
    std::string a = tmpPath("cluster_a.csv"), b = tmpPath("cluster_b.csv");
    std::string run = kJordsim +
                      " --cluster 2 --lb jsq --traffic diurnal"
                      " --mrps 1.5 --duration-ms 4 --requests 2000"
                      " --csv --metrics-out ";
    ASSERT_EQ(runCmd(run + shellQuote(a)), 0);
    ASSERT_EQ(runCmd(run + shellQuote(b)), 0);
    std::string csv = slurp(a);
    EXPECT_NE(csv.find("cluster.server0.completed"), std::string::npos);
    EXPECT_NE(csv.find("cluster.server1.completed"), std::string::npos);
    EXPECT_NE(csv.find("cluster.goodput_mrps"), std::string::npos);
    EXPECT_EQ(csv, slurp(b));
    // Fleet mode owns the run: trace capture is a per-worker feature.
    EXPECT_NE(runCmd(kJordsim + " --cluster 2 --trace-out " +
                     shellQuote(tmpPath("cluster.trace"))),
              0);
}

TEST(JordsimCluster, HelpDocumentsFleetFlags)
{
    std::string out = tmpPath("cluster_help.txt");
    ASSERT_EQ(std::system((kJordsim + " --help > " + shellQuote(out) +
                           " 2>&1")
                              .c_str()),
              0);
    std::string help = slurp(out);
    EXPECT_NE(help.find("--cluster"), std::string::npos);
    EXPECT_NE(help.find("--lb"), std::string::npos);
    EXPECT_NE(help.find("--traffic"), std::string::npos);
    EXPECT_NE(help.find("--autoscale"), std::string::npos);
}

// --- jordsim flag/mode compatibility matrix ---------------------------------

/** Run a command and capture its combined stdout+stderr. */
int
runCapture(const std::string &cmd, std::string &out)
{
    static int seq = 0;
    std::string path =
        tmpPath("capture_" + std::to_string(seq++) + ".txt");
    int status = std::system(
        (cmd + " > " + shellQuote(path) + " 2>&1").c_str());
    out = slurp(path);
    if (status < 0)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(JordsimCluster, WorkerOnlyFlagsAreRejectedInClusterMode)
{
    // Each worker-only knob must fail loudly under --cluster with a
    // one-line pointer, not be silently ignored.
    const char *flags[] = {"--timeout-us 300", "--max-retries 2",
                           "--retry-backoff-us 10"};
    for (const char *flag : flags) {
        std::string out;
        EXPECT_NE(runCapture(kJordsim + " --cluster 2 --duration-ms 2 " +
                                 flag,
                             out),
                  0)
            << flag;
        EXPECT_NE(out.find("is a worker-only flag and has no effect "
                           "with --cluster (remove it)"),
                  std::string::npos)
            << out;
    }
}

TEST(JordsimCluster, FleetOnlyFlagsAreRejectedInWorkerMode)
{
    // Output flags name a private path, so a rejection that regressed
    // could not write outside this test's scratch directory.
    const std::string out_path = shellQuote(tmpPath("fleet_only_out"));
    const std::string flags[] = {"--lb jsq",         "--traffic diurnal",
                                 "--duration-ms 4",  "--slo-us 100",
                                 "--autoscale 1..4",  "--hedge-us 20",
                                 "--outlier-eject",  "--retry-budget 0.2",
                                 "--health-check",   "--breaker",
                                 "--obs-interval-ms 1",
                                 "--obs-out " + out_path,
                                 "--obs-trace-out " + out_path,
                                 "--obs-slo-target 0.99",
                                 "--obs-burn-threshold 2"};
    for (const std::string &flag : flags) {
        std::string out;
        EXPECT_NE(runCapture(kJordsim + " --requests 100 " + flag, out),
                  0)
            << flag;
        EXPECT_NE(
            out.find("is a fleet-only flag and requires --cluster N"),
            std::string::npos)
            << out;
    }
}

TEST(Jordsim, MachineLargerThanTheDirectoryTracksIsRejected)
{
    std::string out;
    EXPECT_NE(runCapture(kJordsim + " --workload Hotel --requests 50 "
                                    "--cores 512 --sockets 2",
                         out),
              0);
    EXPECT_NE(out.find("512 cores exceed the 256"), std::string::npos)
        << out;
}

TEST(Jordsim, NumericFlagsRejectMalformedValues)
{
    // Each value used to be read by strtod/strtoul without checking:
    // "abc" became 0 and "4x" became 4, and the run went ahead.
    struct Case {
        const char *flag;
        const char *value;
        const char *why;
    };
    const Case cases[] = {
        {"--requests", "abc", "expects a non-negative integer"},
        {"--cores", "4x", "expects a non-negative integer"},
        {"--requests", "-1", "expects a non-negative integer"},
        {"--requests", "1e6", "expects a non-negative integer"},
        {"--cores", "", "got an empty value"},
        {"--cores", "4294967296", "exceeds 4294967295"},
        {"--seed", "18446744073709551616", "exceeds"},
        {"--mrps", "nan", "expects a finite number"},
        {"--mrps", "inf", "expects a finite number"},
        {"--mrps", "1.5x", "expects a finite number"},
        {"--mrps", "1e400", "expects a finite number"},
        {"--timeout-us", "abc", "expects a finite number"},
    };
    for (const Case &c : cases) {
        std::string out;
        std::string arg = std::string(c.flag) + "=" + c.value;
        if (*c.value == '\0')
            arg = std::string(c.flag) + " ''";
        EXPECT_NE(runCapture(kJordsim + " --workload Hotel " + arg, out),
                  0)
            << arg;
        EXPECT_NE(out.find(c.flag), std::string::npos) << arg << ": " << out;
        EXPECT_NE(out.find(c.why), std::string::npos) << arg << ": " << out;
    }
    // Well-formed values still run.
    std::string out;
    EXPECT_EQ(runCapture(kJordsim + " --workload Hotel --requests 200 "
                                    "--cores 16 --mrps 0.5 --csv",
                         out),
              0)
        << out;
}

TEST(JordsimCluster, FaultPlanScopeIsCheckedAgainstMode)
{
    // Function-scope clauses drive the in-worker injector; the
    // cluster clause drives the fleet injector. Each is rejected in
    // the other mode instead of silently doing nothing.
    std::string out;
    EXPECT_NE(runCapture(kJordsim +
                             " --cluster 2 --duration-ms 2"
                             " --fault-plan crash=0.1",
                         out),
              0);
    EXPECT_NE(out.find("function-scope clauses are worker-only"),
              std::string::npos)
        << out;
    EXPECT_NE(runCapture(kJordsim +
                             " --requests 100"
                             " --fault-plan cluster:crash=0.1",
                         out),
              0);
    EXPECT_NE(out.find("the 'cluster:' clause requires --cluster N"),
              std::string::npos)
        << out;
}

TEST(JordsimCluster, ChaosRunsAreDeterministicAndConserving)
{
    std::string run =
        kJordsim +
        " --cluster 2 --mrps 1.2 --duration-ms 4 --requests 2000"
        " --fault-plan cluster:crash=0.05,gray=0.1,grayx=4"
        " --health-check --hedge-us 20 --retry-budget 0.2"
        " --outlier-eject --breaker --csv";
    std::string csv, again;
    ASSERT_EQ(runCapture(run, csv), 0);
    ASSERT_EQ(runCapture(run, again), 0);
    EXPECT_EQ(csv, again);
    // The chaos columns are present and the run saw real faults.
    EXPECT_NE(csv.find("crashes"), std::string::npos);
    EXPECT_NE(csv.find("ttr_us"), std::string::npos);
}

// --- jordsim fleet observability --------------------------------------------

namespace {

const std::string kJordmon = JORD_JORDMON_BIN;

/** A chaos fleet run with the full obs plane on. */
std::string
obsRun(const std::string &base, int jobs, const std::string &faults)
{
    return kJordsim +
           " --cluster 2 --mrps 1.2 --duration-ms 4 --requests 2000"
           " --health-check --csv --jobs " + std::to_string(jobs) +
           " " + faults + " --obs-interval-ms 0.25 --obs-out " +
           shellQuote(base) + " --obs-trace-out " +
           shellQuote(base + ".trace.json") + " --metrics-out " +
           shellQuote(base + ".metrics.csv");
}

const std::string kGrayPlan =
    "--fault-plan 'cluster:gray_server=1,grayx=20'";

} // namespace

TEST(JordsimObs, ArtifactsAreByteIdenticalAcrossJobs)
{
    std::string a = tmpPath("obs_j1"), b = tmpPath("obs_j4");
    ASSERT_EQ(runCmd(obsRun(a, 1, kGrayPlan)), 0);
    ASSERT_EQ(runCmd(obsRun(b, 4, kGrayPlan)), 0);
    for (const char *ext : {".windows.csv", ".events.csv",
                            ".trace.json", ".metrics.csv"}) {
        std::string fa = slurp(a + ext), fb = slurp(b + ext);
        EXPECT_FALSE(fa.empty()) << ext;
        EXPECT_EQ(fa, fb) << ext;
    }
    // The artifacts carry the advertised content: windowed rows, the
    // gray incident, labeled per-server trace processes, and the
    // obs-namespaced registry counters.
    EXPECT_NE(slurp(a + ".windows.csv").find("window,start_us"),
              std::string::npos);
    EXPECT_NE(slurp(a + ".events.csv").find(",gray,1,,"),
              std::string::npos);
    std::string fleet_trace = slurp(a + ".trace.json");
    EXPECT_NE(fleet_trace.find("\"jord fleet\""), std::string::npos);
    EXPECT_NE(fleet_trace.find("\"server 1\""), std::string::npos);
    EXPECT_NE(slurp(a + ".metrics.csv").find("obs.windows"),
              std::string::npos);
}

TEST(JordsimObs, ObservingDoesNotPerturbTheSimulation)
{
    // The observability plane is read-only: the cluster CSV of an
    // observed run is byte-identical to the same run with the plane
    // off.
    std::string cmd = kJordsim +
                      " --cluster 2 --mrps 1.2 --duration-ms 4"
                      " --requests 2000 --health-check --csv " +
                      kGrayPlan;
    std::string off = tmpPath("obs_off.csv");
    std::string on = tmpPath("obs_on.csv");
    ASSERT_EQ(std::system(
                  (cmd + " 2>/dev/null > " + shellQuote(off)).c_str()),
              0);
    ASSERT_EQ(std::system((cmd + " --obs-interval-ms 0.25 --obs-out " +
                           shellQuote(tmpPath("obs_on_art")) +
                           " 2>/dev/null > " + shellQuote(on))
                              .c_str()),
              0);
    EXPECT_FALSE(slurp(off).empty());
    EXPECT_EQ(slurp(off), slurp(on));
}

TEST(JordsimObs, ObsFlagsValidateAndRequireTheWindow)
{
    std::string out;
    EXPECT_NE(runCapture(kJordsim +
                             " --cluster 2 --duration-ms 2 --obs-out " +
                             shellQuote(tmpPath("obs_x")),
                         out),
              0);
    EXPECT_NE(out.find("--obs-out requires --obs-interval-ms"),
              std::string::npos)
        << out;
    EXPECT_NE(runCapture(kJordsim +
                             " --cluster 2 --duration-ms 2 "
                             "--obs-slo-target 0.9",
                         out),
              0);
    EXPECT_NE(out.find("require --obs-interval-ms"),
              std::string::npos);
    EXPECT_NE(runCapture(kJordsim +
                             " --cluster 2 --duration-ms 2 "
                             "--obs-interval-ms -1",
                         out),
              0);
    EXPECT_NE(runCapture(kJordsim +
                             " --cluster 2 --duration-ms 2 "
                             "--obs-interval-ms 1 --obs-slo-target 2",
                         out),
              0);
    // --help documents the plane.
    ASSERT_EQ(runCapture(kJordsim + " --help", out), 0);
    EXPECT_NE(out.find("--obs-interval-ms"), std::string::npos);
    EXPECT_NE(out.find("--obs-out"), std::string::npos);
    EXPECT_NE(out.find("--obs-trace-out"), std::string::npos);
}

TEST(JordmonTool, ReportJoinsIncidentsAndDiffGatesRegressions)
{
    std::string gray = tmpPath("mon_gray"),
                clean = tmpPath("mon_clean");
    ASSERT_EQ(runCmd(obsRun(gray, 1, kGrayPlan)), 0);
    ASSERT_EQ(runCmd(obsRun(clean, 1, "")), 0);

    std::string gray_json = tmpPath("mon_gray.json");
    std::string clean_json = tmpPath("mon_clean.json");
    std::string heatmap = tmpPath("mon_heat.csv");
    std::string out;
    ASSERT_EQ(runCapture(kJordmon + " report " + shellQuote(gray) +
                             " --json " + shellQuote(gray_json) +
                             " --heatmap " + shellQuote(heatmap),
                         out),
              0);
    EXPECT_NE(out.find("incidents: 1"), std::string::npos) << out;
    EXPECT_NE(out.find("(0 unmatched)"), std::string::npos);
    EXPECT_NE(out.find("gray"), std::string::npos);
    EXPECT_EQ(slurp(heatmap).rfind("server,w0", 0), 0u);
    ASSERT_EQ(runCmd(kJordmon + " report " + shellQuote(clean) +
                     " --json " + shellQuote(clean_json)),
              0);

    // Self-diff passes; clean -> chaos regresses (burn and TTR grow
    // from a zero baseline); chaos -> clean improves.
    EXPECT_EQ(runCmd(kJordmon + " diff " + shellQuote(gray_json) +
                     " " + shellQuote(gray_json)),
              0);
    EXPECT_EQ(runCmd(kJordmon + " diff " + shellQuote(clean_json) +
                     " " + shellQuote(gray_json)),
              1);
    EXPECT_EQ(runCmd(kJordmon + " diff " + shellQuote(gray_json) +
                     " " + shellQuote(clean_json)),
              0);

    // Usage and I/O errors are loud.
    EXPECT_EQ(runCmd(kJordmon), 2);
    EXPECT_NE(runCmd(kJordmon + " report " +
                     shellQuote(tmpPath("mon_nonexistent"))),
              0);
    std::string garbage = tmpPath("mon_garbage.json");
    spit(garbage, "{\"mon.incidents\": 1");
    EXPECT_NE(runCmd(kJordmon + " diff " + shellQuote(garbage) + " " +
                     shellQuote(garbage)),
              0);
}

// --- detlint static analyzer ------------------------------------------------

namespace {

const std::string kDetlint = JORD_DETLINT_BIN;
const std::string kCorpusDir = JORD_LINT_CORPUS_DIR;
const std::string kSourceDir = JORD_SOURCE_DIR;

/**
 * Reduce detlint text output to the golden `RULE LINE SYMBOL` form,
 * dropping the path prefix and the trailing summary line.
 */
std::string
findingsOf(const std::string &out)
{
    std::istringstream in(out);
    std::string line, result;
    while (std::getline(in, line)) {
        if (line.rfind("detlint:", 0) == 0)
            continue; // summary
        std::size_t path_end = line.find(".cc:");
        if (path_end == std::string::npos)
            continue;
        std::size_t num = path_end + 4;
        std::size_t num_end = line.find(':', num);
        std::size_t rule = num_end + 2;
        std::size_t rule_end = line.find(' ', rule);
        std::size_t sym = line.find('[', rule_end);
        std::size_t sym_end = line.find(']', sym);
        if (num_end == std::string::npos ||
            rule_end == std::string::npos ||
            sym == std::string::npos || sym_end == std::string::npos)
            continue;
        result += line.substr(rule, rule_end - rule) + " " +
                  line.substr(num, num_end - num) + " " +
                  line.substr(sym + 1, sym_end - sym - 1) + "\n";
    }
    return result;
}

} // namespace

TEST(Detlint, CorpusGoldensMatchEveryRule)
{
    namespace fs = std::filesystem;
    unsigned corpus_files = 0;
    for (const auto &entry : fs::directory_iterator(kCorpusDir)) {
        if (entry.path().extension() != ".cc")
            continue;
        ++corpus_files;
        std::string cc = entry.path().string();
        std::string expect =
            entry.path().parent_path() /
            (entry.path().stem().string() + ".expect");
        std::string golden = slurp(expect);
        std::string out;
        int rc = runCapture(kDetlint + " --d4-scope lint_corpus " +
                                shellQuote(cc),
                            out);
        EXPECT_EQ(findingsOf(out), golden) << cc;
        // Exit code mirrors the golden: 1 with findings, 0 without.
        EXPECT_EQ(rc, golden.empty() ? 0 : 1) << cc;
    }
    // Every rule has a firing and a non-firing file, plus the two
    // suppression files.
    EXPECT_EQ(corpus_files, 12u);
}

TEST(Detlint, SuppressionWithoutJustificationIsRejected)
{
    std::string out;
    EXPECT_EQ(runCapture(kDetlint + " " +
                             shellQuote(kCorpusDir + "/supp_bad.cc"),
                         out),
              1);
    EXPECT_NE(out.find("missing justification"), std::string::npos)
        << out;
    EXPECT_NE(out.find("empty justification"), std::string::npos);
    EXPECT_NE(out.find("unknown rule 'D9'"), std::string::npos);
    // The findings a bad suppression tried to hide still fire.
    EXPECT_NE(out.find("raw 'getenv'"), std::string::npos);
}

TEST(Detlint, BaselineAdoptsLegacyFindingsAndGatesNewOnes)
{
    std::string base = tmpPath("detlint_baseline.txt");
    std::string d1 = shellQuote(kCorpusDir + "/d1_pos.cc");
    std::string d5 = shellQuote(kCorpusDir + "/d5_pos.cc");
    std::string out;
    ASSERT_EQ(runCapture(kDetlint + " --write-baseline " +
                             shellQuote(base) + " " + d1,
                         out),
              0);
    // Everything in the baseline: clean exit, nothing new.
    EXPECT_EQ(runCapture(kDetlint + " --baseline " + shellQuote(base) +
                             " " + d1,
                         out),
              0);
    EXPECT_NE(out.find("0 new finding(s), 8 baselined"),
              std::string::npos)
        << out;
    // A file outside the baseline still gates.
    EXPECT_EQ(runCapture(kDetlint + " --baseline " + shellQuote(base) +
                             " " + d1 + " " + d5,
                         out),
              1);
    EXPECT_NE(out.find("d5_pos.cc"), std::string::npos) << out;
    EXPECT_NE(out.find("8 baselined"), std::string::npos) << out;
}

TEST(Detlint, JsonAndSarifAreByteIdenticalAcrossRuns)
{
    std::string sarif_a = tmpPath("detlint_a.sarif");
    std::string sarif_b = tmpPath("detlint_b.sarif");
    std::string run = kDetlint + " --json --d4-scope lint_corpus " +
                      shellQuote(kCorpusDir);
    std::string json_a, json_b;
    EXPECT_EQ(runCapture(run + " --sarif " + shellQuote(sarif_a),
                         json_a),
              1);
    EXPECT_EQ(runCapture(run + " --sarif " + shellQuote(sarif_b),
                         json_b),
              1);
    EXPECT_EQ(json_a, json_b);
    EXPECT_FALSE(json_a.empty());
    std::string sa = slurp(sarif_a), sb = slurp(sarif_b);
    EXPECT_EQ(sa, sb);
    EXPECT_NE(sa.find("\"2.1.0\""), std::string::npos);
    EXPECT_NE(sa.find("\"ruleId\""), std::string::npos);
}

TEST(Detlint, RepoIsCleanWithAnEmptyBaseline)
{
    // The whole tree lints clean — the CI gate, enforced locally too.
    std::string out;
    EXPECT_EQ(runCapture(kDetlint + " " +
                             shellQuote(kSourceDir + "/src") + " " +
                             shellQuote(kSourceDir + "/tools") + " " +
                             shellQuote(kSourceDir + "/bench") + " " +
                             shellQuote(kSourceDir + "/tests"),
                         out),
              0)
        << out;
    EXPECT_NE(out.find("0 new finding(s)"), std::string::npos) << out;
}

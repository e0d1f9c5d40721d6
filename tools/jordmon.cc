/**
 * @file
 * jordmon: incident timelines over the fleet observability artifacts.
 *
 * Works on the `BASE.windows.csv` / `BASE.events.csv` pair written by
 * `jordsim --cluster --obs-interval-ms ... --obs-out BASE`:
 *
 *     jordmon report BASE
 *     jordmon report BASE --json mon.json --heatmap heat.csv
 *     jordmon diff old.json new.json --threshold 10%
 *
 * `report` joins the SLO monitor's alerts against the ground-truth
 * chaos incidents (obs/monitor.hh) and prints, per incident: kind,
 * blast radius (servers and tenants), detect latency (first alert -
 * injection), time-to-recover, and the attributable SLO burn.
 * `--heatmap` adds the per-server x window P99 matrix.
 *
 * `diff` compares two `report --json` summaries the way jordprof diff
 * compares profiles, except every gating key here is lower-is-better:
 * detect latency, TTR, burn, and unmatched (false-positive) alerts
 * regress when they grow. Exits 1 on a regression past the threshold.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/monitor.hh"
#include "prof/profile_json.hh"
#include "sim/atomic_file.hh"
#include "sim/logging.hh"

using namespace jord;

namespace {

std::map<std::string, double>
loadFlatJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("cannot open '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    if (text.find_first_not_of(" \t\r\n") == std::string::npos)
        sim::fatal("'%s' is empty, not a jordmon JSON summary",
                   path.c_str());
    std::map<std::string, double> kv;
    if (!prof::parseFlatJson(text, kv))
        sim::fatal("'%s' is not a flat {\"key\": number} JSON object "
                   "(truncated file?)",
                   path.c_str());
    return kv;
}

bool
contains(const std::string &key, const char *needle)
{
    return key.find(needle) != std::string::npos;
}

/** Keys that gate a diff — all lower-is-better here. */
bool
isGatingMetric(const std::string &key)
{
    return contains(key, "ttr") || contains(key, "detect") ||
           contains(key, "burn") || contains(key, "unmatched");
}

double
parseThreshold(const std::string &spec)
{
    char *end = nullptr;
    double value = std::strtod(spec.c_str(), &end);
    if (end == spec.c_str() || value < 0)
        sim::fatal("--threshold expects a fraction ('0.1') or a "
                   "percentage ('10%%'), got '%s'",
                   spec.c_str());
    if (*end == '%')
        value /= 100.0;
    else if (*end != '\0')
        sim::fatal("--threshold expects a fraction ('0.1') or a "
                   "percentage ('10%%'), got '%s'",
                   spec.c_str());
    return value;
}

int
cmdReport(const std::string &base, double slack_us,
          const std::string &json_out, const std::string &heatmap_out)
{
    std::string windows_path = base + ".windows.csv";
    std::string events_path = base + ".events.csv";
    std::ifstream win(windows_path);
    if (!win)
        sim::fatal("cannot open '%s' (jordsim --obs-out %s writes "
                   "it)",
                   windows_path.c_str(), base.c_str());
    std::ifstream evt(events_path);
    if (!evt)
        sim::fatal("cannot open '%s' (jordsim --obs-out %s writes "
                   "it)",
                   events_path.c_str(), base.c_str());
    std::vector<obs::MonWindow> windows =
        obs::parseWindowsCsv(win, windows_path);
    std::vector<obs::MonEvent> events =
        obs::parseEventsCsv(evt, events_path);
    obs::MonReport report =
        obs::buildReport(events, windows, slack_us);

    std::fputs(obs::renderReport(report).c_str(), stdout);

    if (!json_out.empty()) {
        sim::writeArtifact(json_out, [&](std::ostream &out) {
            prof::writeFlatJson(out, obs::flatReport(report));
        });
        std::fprintf(stderr, "wrote jordmon summary to %s\n",
                     json_out.c_str());
    }
    if (!heatmap_out.empty()) {
        sim::writeArtifact(heatmap_out, [&](std::ostream &out) {
            obs::writeHeatmapCsv(windows, out);
        });
        std::fprintf(stderr, "wrote p99 heatmap to %s\n",
                     heatmap_out.c_str());
    }
    return 0;
}

int
cmdDiff(const std::string &old_path, const std::string &new_path,
        double threshold)
{
    auto old_kv = loadFlatJson(old_path);
    auto new_kv = loadFlatJson(new_path);

    unsigned regressions = 0, improvements = 0, compared = 0;
    for (const auto &[key, old_value] : old_kv) {
        auto it = new_kv.find(key);
        if (it == new_kv.end()) {
            std::printf("  %-24s only in %s\n", key.c_str(),
                        old_path.c_str());
            continue;
        }
        double new_value = it->second;
        if (!isGatingMetric(key))
            continue;
        ++compared;
        double delta;
        if (contains(key, "detect") &&
            (old_value < 0 || new_value < 0)) {
            // detect_us = -1 means "never detected": losing detection
            // is the regression, gaining it the improvement.
            delta = old_value < 0 && new_value >= 0
                        ? -std::numeric_limits<double>::infinity()
                    : old_value >= 0 && new_value < 0
                        ? std::numeric_limits<double>::infinity()
                        : 0;
        } else if (old_value != 0) {
            delta = (new_value - old_value) / std::fabs(old_value);
        } else {
            // A zero baseline (clean run, zero burn) regresses on any
            // nonzero new value.
            delta = new_value != 0
                        ? std::numeric_limits<double>::infinity()
                        : 0;
        }
        const char *mark = " ";
        if (delta > threshold) {
            mark = "!";
            ++regressions;
        } else if (delta < -threshold) {
            mark = "+";
            ++improvements;
        }
        std::printf("%s %-24s %12.6g -> %-12.6g\n", mark, key.c_str(),
                    old_value, new_value);
    }
    for (const auto &[key, value] : new_kv)
        if (!old_kv.count(key))
            std::printf("  %-24s only in %s\n", key.c_str(),
                        new_path.c_str());

    std::printf("%u metrics compared, %u regressed, %u improved "
                "(threshold %.1f%%)\n",
                compared, regressions, improvements,
                100.0 * threshold);
    return regressions ? 1 : 0;
}

void
printUsage()
{
    std::printf(
        "usage: jordmon report BASE [--slack-us X] [--json FILE]\n"
        "                           [--heatmap FILE]\n"
        "       jordmon diff OLD.json NEW.json [--threshold 10%%]\n"
        "\n"
        "report  join the SLO monitor's alerts in BASE.events.csv\n"
        "        against the ground-truth chaos incidents and print\n"
        "        the incident timeline: detect latency, TTR, blast\n"
        "        radius, attributable burn. --slack-us extends each\n"
        "        incident's attribution horizon (default 5000).\n"
        "        --json writes a flat summary for jordmon diff;\n"
        "        --heatmap writes the server x window P99 CSV\n"
        "diff    compare two report --json summaries and exit 1 when\n"
        "        any detect/ttr/burn/unmatched metric regresses past\n"
        "        the threshold (default 10%%); all gating keys here\n"
        "        are lower-is-better\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printUsage();
        return 2;
    }
    std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        printUsage();
        return 0;
    }
    if (cmd == "report") {
        std::string base, json_out, heatmap_out;
        double slack_us = 5000.0;
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            auto optValue = [&](const char *flag) -> std::string {
                if (std::size_t eq = arg.find('=');
                    eq != std::string::npos)
                    return arg.substr(eq + 1);
                if (i + 1 < argc)
                    return argv[++i];
                sim::fatal("%s requires a value", flag);
            };
            if (arg.rfind("--slack-us", 0) == 0)
                slack_us =
                    std::strtod(optValue("--slack-us").c_str(),
                                nullptr);
            else if (arg.rfind("--json", 0) == 0)
                json_out = optValue("--json");
            else if (arg.rfind("--heatmap", 0) == 0)
                heatmap_out = optValue("--heatmap");
            else if (base.empty())
                base = arg;
            else
                sim::fatal("unexpected argument '%s'", arg.c_str());
        }
        if (base.empty())
            sim::fatal("report expects the BASE of an --obs-out "
                       "artifact pair");
        if (slack_us < 0)
            sim::fatal("--slack-us expects a horizon >= 0, got %g",
                       slack_us);
        return cmdReport(base, slack_us, json_out, heatmap_out);
    }
    if (cmd == "diff") {
        std::vector<std::string> files;
        double threshold = 0.10;
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--threshold", 0) == 0) {
                std::string spec;
                if (std::size_t eq = arg.find('=');
                    eq != std::string::npos)
                    spec = arg.substr(eq + 1);
                else if (i + 1 < argc)
                    spec = argv[++i];
                else
                    sim::fatal("--threshold requires a value");
                threshold = parseThreshold(spec);
            } else {
                files.push_back(arg);
            }
        }
        if (files.size() != 2)
            sim::fatal("diff expects OLD.json NEW.json");
        return cmdDiff(files[0], files[1], threshold);
    }
    sim::fatal("unknown subcommand '%s' (report|diff)", cmd.c_str());
}

/**
 * @file
 * detlint: static determinism & contract analyzer for the simulator.
 *
 * Scans C++ sources (no compiler, no libclang: a tokenizer plus a
 * lightweight scope/type layer — see analyzer.hh) and enforces the
 * repo's determinism contracts as named rules D1-D5. Output is
 * deterministic: files are scanned in sorted order and findings are
 * sorted, so two runs over the same tree are byte-identical.
 *
 * Usage:
 *     detlint [FLAGS] PATH...         # files or directories
 *
 * Flags:
 *   --json                 machine-readable findings on stdout
 *   --sarif FILE           also write SARIF 2.1.0 (new findings)
 *   --baseline FILE        adopt legacy findings; exit non-zero only
 *                          on findings not in FILE
 *   --write-baseline FILE  write current findings as a baseline
 *   --allowlist FILE       D4 allowlist (`path:symbol` per line)
 *   --d4-scope PREFIX      restrict D4 to paths under PREFIX
 *                          (default `src/`; empty = everywhere)
 *   --list-rules           print the rule catalog and exit
 *
 * Directories are walked recursively for .cc/.hh (+ .cpp/.hpp/.h/.cxx)
 * sources; `build*`, hidden, and `lint_corpus` directories are skipped
 * (the corpus is deliberately full of positives — pass a corpus file
 * explicitly to lint it).
 *
 * Exit codes: 0 clean, 1 new findings, 2 usage/configuration error.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.hh"
#include "lexer.hh"
#include "sim/atomic_file.hh"

namespace fs = std::filesystem;
using jord::detlint::Analyzer;
using jord::detlint::Finding;
using jord::detlint::LexedFile;
using jord::detlint::RuleInfo;

namespace {

[[noreturn]] void
usageError(const char *fmt, const std::string &arg = "")
{
    std::fprintf(stderr, "detlint: ");
    std::fprintf(stderr, fmt, arg.c_str());
    std::fprintf(stderr, " (--help for usage)\n");
    std::exit(2);
}

void
printHelp()
{
    std::printf(
        "usage: detlint [FLAGS] PATH...\n"
        "\n"
        "Static determinism & contract analyzer (rules D1-D5).\n"
        "\n"
        "  --json                 JSON findings on stdout\n"
        "  --sarif FILE           write SARIF 2.1.0 for new findings\n"
        "  --baseline FILE        adopt legacy findings from FILE\n"
        "  --write-baseline FILE  write current findings as baseline\n"
        "  --allowlist FILE       D4 allowlist (path:symbol lines)\n"
        "  --d4-scope PREFIX      restrict D4 to PREFIX (default "
        "src/)\n"
        "  --list-rules           print the rule catalog\n"
        "\n"
        "Suppress a finding with a justified annotation on or above "
        "the line:\n"
        "    // detlint: allow(D2, \"aggregation is commutative over "
        "ints\")\n");
}

bool
hasSourceExtension(const fs::path &p)
{
    std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp" || ext == ".h" || ext == ".cxx";
}

bool
skippedDir(const std::string &name)
{
    return name == "lint_corpus" || name.rfind("build", 0) == 0 ||
           (!name.empty() && name[0] == '.');
}

std::string
normalized(const fs::path &p)
{
    std::string s = p.lexically_normal().generic_string();
    if (s.rfind("./", 0) == 0)
        s = s.substr(2);
    return s;
}

std::vector<std::string>
collectFiles(const std::vector<std::string> &paths)
{
    std::set<std::string> files;
    for (const std::string &arg : paths) {
        fs::path p(arg);
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            fs::recursive_directory_iterator it(p, ec), end;
            if (ec)
                usageError("cannot walk directory '%s'", arg);
            for (; it != end; ++it) {
                if (it->is_directory() &&
                    skippedDir(it->path().filename().string())) {
                    it.disable_recursion_pending();
                    continue;
                }
                if (it->is_regular_file() &&
                    hasSourceExtension(it->path()))
                    files.insert(normalized(it->path()));
            }
        } else if (fs::is_regular_file(p, ec)) {
            files.insert(normalized(p));
        } else {
            usageError("no such file or directory: '%s'", arg);
        }
    }
    return {files.begin(), files.end()};
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        usageError("cannot read '%s'", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<std::string>
readListFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        usageError("cannot read '%s'", path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        std::size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos || line[start] == '#')
            continue;
        std::size_t end = line.find_last_not_of(" \t\r");
        lines.push_back(line.substr(start, end - start + 1));
    }
    return lines;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

void
writeSarif(std::ostream &out, const std::vector<Finding> &fresh)
{
    out << "{\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"$schema\": "
           "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"runs\": [\n    {\n      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"detlint\",\n"
        << "          \"rules\": [\n";
    const auto &rules = jord::detlint::ruleCatalog();
    for (std::size_t i = 0; i < rules.size(); ++i) {
        out << "            {\"id\": \"" << rules[i].id
            << "\", \"name\": \"" << rules[i].name
            << "\", \"shortDescription\": {\"text\": \""
            << jsonEscape(rules[i].desc) << "\"}}"
            << (i + 1 < rules.size() ? "," : "") << "\n";
    }
    out << "          ]\n        }\n      },\n"
        << "      \"results\": [\n";
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        const Finding &f = fresh[i];
        out << "        {\"ruleId\": \"" << f.rule
            << "\", \"level\": \"error\", \"message\": {\"text\": \""
            << jsonEscape(f.message)
            << "\"}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \""
            << jsonEscape(f.file)
            << "\"}, \"region\": {\"startLine\": " << f.line
            << "}}}]}" << (i + 1 < fresh.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }\n  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> paths;
    std::string sarifPath, baselinePath, writeBaselinePath;
    std::string allowlistPath;
    std::string d4Scope = "src/";
    bool json = false;

    auto nextArg = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            usageError("%s requires an argument", flag);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--json") {
            json = true;
        } else if (a == "--sarif") {
            sarifPath = nextArg(i, "--sarif");
        } else if (a == "--baseline") {
            baselinePath = nextArg(i, "--baseline");
        } else if (a == "--write-baseline") {
            writeBaselinePath = nextArg(i, "--write-baseline");
        } else if (a == "--allowlist") {
            allowlistPath = nextArg(i, "--allowlist");
        } else if (a == "--d4-scope") {
            d4Scope = nextArg(i, "--d4-scope");
        } else if (a == "--list-rules") {
            for (const RuleInfo &r : jord::detlint::ruleCatalog())
                std::printf("%-5s %-28s %s\n", r.id, r.name, r.desc);
            return 0;
        } else if (a == "--help" || a == "-h") {
            printHelp();
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            usageError("unknown flag '%s'", a);
        } else {
            paths.push_back(a);
        }
    }
    if (paths.empty())
        usageError("no input paths given");

    std::vector<std::string> files = collectFiles(paths);
    std::vector<LexedFile> lexed;
    lexed.reserve(files.size());
    for (const std::string &f : files)
        lexed.push_back(jord::detlint::lex(f, slurp(f)));

    Analyzer analyzer;
    analyzer.d4Scope = d4Scope;
    if (!allowlistPath.empty())
        analyzer.allowlist = readListFile(allowlistPath);
    for (const LexedFile &f : lexed)
        analyzer.collectAliases(f);
    for (const LexedFile &f : lexed)
        analyzer.collectVars(f);

    std::vector<Finding> findings;
    for (const LexedFile &f : lexed)
        analyzer.analyze(f, findings);
    std::sort(findings.begin(), findings.end(),
              jord::detlint::findingLess);

    if (!writeBaselinePath.empty()) {
        auto emit = [&](std::ostream &out) {
            out << "# detlint baseline: adopted legacy findings, one "
                   "fingerprint per line.\n"
                << "# Regenerate with `detlint --write-baseline FILE "
                   "PATH...`.\n";
            for (const Finding &f : findings)
                out << jord::detlint::fingerprint(f) << "\n";
        };
        if (!jord::sim::writeFileAtomic(writeBaselinePath, emit))
            usageError("cannot write '%s'", writeBaselinePath);
        std::fprintf(stderr, "detlint: wrote %zu fingerprint(s) to %s\n",
                     findings.size(), writeBaselinePath.c_str());
        return 0;
    }

    std::set<std::string> baseline;
    if (!baselinePath.empty())
        for (const std::string &line : readListFile(baselinePath))
            baseline.insert(line);

    std::vector<Finding> fresh;
    std::size_t baselined = 0;
    for (Finding &f : findings) {
        if (baseline.count(jord::detlint::fingerprint(f)) != 0) {
            f.baselined = true;
            ++baselined;
        } else {
            fresh.push_back(f);
        }
    }

    if (json) {
        std::printf("{\n  \"findings\": [\n");
        for (std::size_t i = 0; i < findings.size(); ++i) {
            const Finding &f = findings[i];
            std::printf("    {\"rule\": \"%s\", \"file\": \"%s\", "
                        "\"line\": %u, \"symbol\": \"%s\", "
                        "\"baselined\": %s, \"message\": \"%s\"}%s\n",
                        f.rule.c_str(), jsonEscape(f.file).c_str(),
                        f.line, jsonEscape(f.symbol).c_str(),
                        f.baselined ? "true" : "false",
                        jsonEscape(f.message).c_str(),
                        i + 1 < findings.size() ? "," : "");
        }
        std::printf("  ],\n  \"files\": %zu,\n  \"new\": %zu,\n"
                    "  \"baselined\": %zu\n}\n",
                    files.size(), fresh.size(), baselined);
    } else {
        for (const Finding &f : fresh)
            std::printf("%s:%u: %s [%s]: %s\n", f.file.c_str(),
                        f.line, f.rule.c_str(), f.symbol.c_str(),
                        f.message.c_str());
        std::printf("detlint: %zu file(s), %zu new finding(s), "
                    "%zu baselined\n",
                    files.size(), fresh.size(), baselined);
    }
    auto sarif = [&](std::ostream &out) { writeSarif(out, fresh); };
    if (!sarifPath.empty() && !jord::sim::writeFileAtomic(sarifPath, sarif))
        usageError("cannot write '%s'", sarifPath);

    return fresh.empty() ? 0 : 1;
}

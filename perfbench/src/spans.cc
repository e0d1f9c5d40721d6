#include <cstdio>
#include <ostream>

#include "perfbench.hh"

namespace perfbench {

SpanLog::SpanLog() : epoch_(Clock::now()) {}

void
SpanLog::setRecording(bool on, unsigned run)
{
    recording_ = on;
    run_ = run;
}

int
SpanLog::open(const char *name, Clock::time_point at)
{
    Span span;
    span.name = name;
    span.start = seconds(epoch_, at);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.run = run_;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
SpanLog::close(int idx, Clock::time_point at)
{
    spans_[static_cast<std::size_t>(idx)].end = seconds(epoch_, at);
    stack_.pop_back();
}

std::map<std::string, double>
SpanLog::selfSeconds(unsigned run) const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &span : spans_)
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -=
                span.end - span.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].run == run)
            out[spans_[i].name] += self[i];
    return out;
}

void
SpanLog::writeJson(std::ostream &out) const
{
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        char line[256];
        std::snprintf(line, sizeof(line),
                      "  {\"name\": \"%s\", \"start\": %.9f, "
                      "\"end\": %.9f, \"parent\": %d, \"run\": %u}%s\n",
                      span.name.c_str(), span.start, span.end,
                      span.parent, span.run,
                      i + 1 < spans_.size() ? "," : "");
        out << line;
    }
    out << "]\n";
}

} // namespace perfbench

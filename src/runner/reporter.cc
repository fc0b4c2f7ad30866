#include "runner/reporter.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "runner/record.hh"
#include "runner/scenario.hh"
#include "runner/stats.hh"
#include "sim/logging.hh"

namespace gals::runner
{

namespace
{

/** Round-trip-exact rendering of a finite double (%.17g). */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
}

/** JSON number token: `null` for NaN/infinity, which %.17g would
 *  render as the invalid bare tokens `nan` / `inf`. */
std::string
jsonNum(double v)
{
    return std::isfinite(v) ? num(v) : "null";
}

/** CSV number field: empty for NaN/infinity (the conventional
 *  missing-value encoding). */
std::string
csvNum(double v)
{
    return std::isfinite(v) ? num(v) : std::string();
}

/** Append the JSON string literal for @p s (see jsonQuote()). */
void
appendJsonQuoted(std::string &out, std::string_view s)
{
    // Copy the run that needs no escape in one append: record keys
    // and most values are plain.
    std::size_t plain = 0;
    while (plain < s.size() && s[plain] != '"' && s[plain] != '\\' &&
           static_cast<unsigned char>(s[plain]) >= 0x20)
        ++plain;
    out += '"';
    out += s.substr(0, plain);
    for (char c : s.substr(plain)) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/**
 * The text views of a record (runner/record.hh): a JSON line, a CSV
 * header or a CSV row. The summary of grid point @p grid of
 * @p summary, when given, shows the replica count for the seeds and a
 * mean plus `_ci95` per metric.
 */
class TextView
{
  public:
    enum class Form { json, csvHeader, csvRow };

    TextView(std::ostream &os, Form form,
             const ReplicaSummary *summary = nullptr, std::size_t grid = 0)
        : os_(os), form_(form), json_(form == Form::json),
          summary_(summary), grid_(grid)
    {
    }

    void
    record(const std::string &scenario, std::size_t index,
           const RunConfig &c, const RunResults &r)
    {
        line_.clear();
        first_ = true;
        if (json_)
            open("", "{");
        walkRecord(*this, scenario, index, c, r);
        line_ += json_ ? "}\n" : "\n";
        os_ << line_;
    }

    /** Only a per-run JSON line shows the gated blocks. */
    unsigned
    blocks(unsigned present) const
    {
        return json_ && !summary_ ? present : 0;
    }

    void
    flag(const char *name, unsigned, bool b)
    {
        put(name, json_ ? (b ? "true" : "false") : (b ? "1" : "0"));
    }

    template <std::integral T>
    void
    field(std::string_view name, T v)
    {
        put(name, num(std::uint64_t(v)));
    }

    void field(std::string_view name, double v)
    {
        put(name, json_ ? jsonNum(v) : csvNum(v));
    }
    void field(std::string_view name, const std::string &s)
    {
        put(name, json_ ? jsonQuote(s) : csvField(s));
    }
    void field(std::string_view name, TopologyKind k)
    {
        field(name, std::string(topologyKindName(k)));
    }
    void field(std::string_view name, std::uint64_t, std::uint64_t shown)
    {
        field(name, shown);
    }

    bool
    replicas(const char *name)
    {
        if (summary_)
            field(name, summary_->replicas);
        return summary_ != nullptr;
    }

    void columns(const char *, std::size_t) {}

    /** Integral columns print their exact uint64 value, so counters
     *  above 2^53 are not rounded through double. */
    void
    metric(const MetricAccessor &acc, std::size_t m, const RunResults &r)
    {
        if (summary_) {
            const MetricSummary &s = summary_->metrics[grid_][m];
            field(acc.name, s.mean);
            field(std::string(acc.name) + "_ci95", s.ci95);
        } else if (acc.integral) {
            field(acc.name, acc.getU(r));
        } else {
            field(acc.name, acc.get(r));
        }
    }

    /** A JSON object keyed by unit, or energy_nj.<unit> CSV
     *  columns. */
    void
    energies(const char *name, const std::map<std::string, double> &nj)
    {
        if (json_)
            open(name, "{");
        for (const auto &[unit, v] : nj)
            field(json_ ? unit : name + ("." + unit), v);
        if (json_)
            close("}");
    }

    void
    energies(const char *name, const PerDomain<double> &nj)
    {
        open(name, "{");
        for (unsigned d = 0; d < numDomains; ++d)
            field(domainName(static_cast<DomainId>(d)), nj[d]);
        close("}");
    }

    template <class E>
    void
    list(const char *name, const std::vector<E> &entries)
    {
        open(name, "[");
        for (const E &e : entries) {
            open("", "{");
            walkEntry(*this, e);
            close("}");
        }
        close("]");
    }

  private:
    /** The next field: a separator, then its column name in a CSV
     *  header, else its value, keyed in JSON unless it is an array
     *  entry (no @p name). */
    void
    put(std::string_view name, std::string_view value)
    {
        if (!first_)
            line_ += ',';
        first_ = false;
        if (form_ == Form::csvHeader) {
            line_ += csvField(name);
            return;
        }
        if (json_ && !name.empty()) {
            appendJsonQuoted(line_, name);
            line_ += ':';
        }
        line_ += value;
    }

    /** A nested JSON object or array: no separator before its first
     *  field. */
    void
    open(std::string_view name, const char *bracket)
    {
        put(name, bracket);
        first_ = true;
    }

    void
    close(const char *bracket)
    {
        line_ += bracket;
        first_ = false;
    }

    std::ostream &os_;
    const Form form_;
    const bool json_;
    const ReplicaSummary *const summary_;
    const std::size_t grid_;
    std::string line_;
    bool first_ = true;
};

/** One record per run in @p form. @p indices, when given, are the
 *  runs' canonical indices (see writeJsonLines()). */
void
writeRecords(std::ostream &os, TextView::Form form,
             const std::string &scenario, const std::vector<RunConfig> &cfgs,
             const std::vector<RunResults> &results,
             const std::vector<std::size_t> *indices)
{
    gals_assert(cfgs.size() == results.size(), "reporter: ", cfgs.size(),
                " configs vs ", results.size(), " results");
    gals_assert(!indices || indices->size() == results.size(),
                "reporter: ", indices->size(), " indices vs ",
                results.size(), " results");
    TextView view(os, form);
    for (std::size_t i = 0; i < results.size(); ++i)
        view.record(scenario, indices ? (*indices)[i] : i, cfgs[i],
                    results[i]);
}

/** One summary record per grid point in @p form. */
void
writeSummary(std::ostream &os, TextView::Form form,
             const std::string &scenario,
             const std::vector<RunConfig> &gridCfgs,
             const ReplicaSummary &summary)
{
    gals_assert(gridCfgs.size() == summary.gridSize,
                "summary reporter: ", gridCfgs.size(),
                " grid configs vs grid size ", summary.gridSize);
    for (std::size_t g = 0; g < summary.gridSize; ++g)
        TextView(os, form, &summary, g)
            .record(scenario, g, gridCfgs[g], summary.mean[g]);
}

} // namespace

std::string
jsonQuote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    appendJsonQuoted(out, s);
    return out;
}

std::string
csvField(std::string_view s)
{
    if (s.find_first_of(",\"\n\r") == std::string_view::npos)
        return std::string(s);
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
writeJsonLines(std::ostream &os, const std::string &scenario,
               const std::vector<RunConfig> &cfgs,
               const std::vector<RunResults> &results,
               const std::vector<std::size_t> *indices)
{
    writeRecords(os, TextView::Form::json, scenario, cfgs, results, indices);
}

void
writeCsvHeader(std::ostream &os, const RunResults &sample)
{
    TextView(os, TextView::Form::csvHeader)
        .record(std::string(), 0, RunConfig(), sample);
}

void
writeCsvRows(std::ostream &os, const std::string &scenario,
             const std::vector<RunConfig> &cfgs,
             const std::vector<RunResults> &results,
             const std::vector<std::size_t> *indices)
{
    writeRecords(os, TextView::Form::csvRow, scenario, cfgs, results,
                 indices);
}

void
writeCsv(std::ostream &os, const std::string &scenario,
         const std::vector<RunConfig> &cfgs,
         const std::vector<RunResults> &results)
{
    // Unit-energy columns from the first record; every run reports
    // the same unit set (the Unit enum).
    writeCsvHeader(os, results.empty() ? RunResults() : results.front());
    writeCsvRows(os, scenario, cfgs, results);
}

void
writeJsonLinesSummary(std::ostream &os, const std::string &scenario,
                      const std::vector<RunConfig> &gridCfgs,
                      const ReplicaSummary &summary)
{
    writeSummary(os, TextView::Form::json, scenario, gridCfgs, summary);
}

void
writeCsvSummary(std::ostream &os, const std::string &scenario,
                const std::vector<RunConfig> &gridCfgs,
                const ReplicaSummary &summary)
{
    // Column names from the first grid point, whose unit set is every
    // point's (summarizeReplicas() refuses an empty grid).
    gals_assert(summary.gridSize > 0, "summary reporter: empty grid");
    TextView(os, TextView::Form::csvHeader, &summary)
        .record(std::string(), 0, RunConfig(), summary.mean.front());
    writeSummary(os, TextView::Form::csvRow, scenario, gridCfgs, summary);
}

void
writeScenarioCatalogMarkdown(std::ostream &os,
                             const ScenarioRegistry &registry,
                             const SweepOptions &opts)
{
    os << "# Scenario catalog\n"
       << "\n"
       << "<!-- Generated by `galsbench --list --format md`. Do not "
          "edit by hand:\n"
          "     CI regenerates this file and fails on drift. -->\n"
       << "\n"
       << "Every paper figure, ablation and sweep is a registered "
          "scenario of the\n"
          "`galsbench` CLI. Run one with `galsbench --scenario "
          "<name>`; the *runs*\n"
          "column is the grid size at default sweep options ("
       << num(opts.instructions) << " instructions\nper run).\n"
       << "\n"
       << "| name | reference | description | runs | insts/run |\n"
       << "|---|---|---|---:|---:|\n";
    for (const Scenario &s : registry.all()) {
        const std::size_t runs =
            s.makeRuns ? s.makeRuns(opts).size() : 0;
        os << "| `" << s.name << "` | " << s.figure << " | "
           << s.description << " | " << runs << " | "
           << (runs == 0 ? std::string("-") : num(opts.instructions))
           << " |\n";
    }
}

} // namespace gals::runner

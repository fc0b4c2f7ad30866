/**
 * @file
 * The galsbench command line as one declarative flag table.
 *
 * Each flag is one CliFlag: name, arity, usage text, the modes that
 * accept it and how its value lands in a CliOptions. parseCli() reads
 * every mode through the table and cliUsage() is generated from it,
 * so each flag is spelled in one place.
 */

#ifndef RUNNER_CLI_HH
#define RUNNER_CLI_HH

#include <optional>
#include <string>
#include <vector>

#include "runner/reporter.hh"
#include "runner/scenario.hh"

namespace gals::runner
{

/** The galsbench modes; a CliFlag accepts a mask of them. */
enum CliMode : unsigned
{
    cliRun = 1u << 0,    ///< --scenario / --all
    cliMerge = 1u << 1,  ///< --merge SHARD_MANIFESTS
    cliVerify = 1u << 2, ///< --verify MANIFEST
    cliList = 1u << 3,   ///< --list
    cliParse = 1u << 4,  ///< `galsbench parse INPUT.gtrj ...`
};

/** One invocation. parseCli() applies GALSSIM_INSTS / GALSSIM_BENCH
 *  and the flags on top of the defaults. */
struct CliOptions
{
    CliMode mode = cliRun;
    bool help = false;
    bool list = false;
    bool runAll = false;
    /** Resolved scenario names, in execution order. */
    std::vector<std::string> scenarios;
    SweepOptions sweep;
    unsigned jobs = 1;
    std::optional<OutputFormat> format; ///< unset: the mode's default
    /** --bench picks; any given replace the environment default. */
    std::vector<std::string> benchmarks;
    std::string outputPath;
    std::string manifestPath;
    /** Keep the valid record prefix of a .gtrj --output and run only
     *  the rest. */
    bool resume = false;
    std::vector<std::string> mergeFiles; ///< the shard manifests
    std::string verifyPath;
    std::string inputPath; ///< `parse` mode's INPUT.gtrj
};

enum class CliArity
{
    none,  ///< a switch
    value, ///< exactly one value
    files, ///< every following argument up to the next --flag
};

/** One flag value being applied; the name is for error messages. */
struct CliArg
{
    const char *flag;
    const std::string &text;
};

struct CliFlag
{
    const char *name;
    CliArity arity;
    const char *metavar; ///< value placeholder in the usage text
    unsigned modes;      ///< CliMode mask of the modes that accept it
    const char *help;
    /** Store the value (once per file for CliArity::files); throws
     *  on a malformed value. */
    void (*apply)(CliOptions &, const CliArg &);
};

/** The flag table, in usage order. */
const std::vector<CliFlag> &cliFlags();

/**
 * Parse galsbench's arguments (argv without the program name) into
 * @p opts: the mode (`parse` first, else from the mode flags), every
 * flag through the table, GALSSIM_INSTS and GALSSIM_BENCH through the
 * --insts and --bench entries where the command line leaves those
 * flags out, then the per-mode checks — flags the mode does not
 * accept, missing or malformed outputs (a --shard or --resume output
 * is .gtrj, --merge takes manifests, parse writes text), an --output
 * or --manifest directory that does not exist, --output and
 * --manifest naming one file, and --warmup-insts against --insts.
 * Resolves --all and checks every scenario name; the grids themselves
 * are checked by planSweep(). Stops at --help / -h with opts.help
 * set.
 * @return false with @p err set on a usage error (exit 2).
 */
bool parseCli(const std::vector<std::string> &args,
              const ScenarioRegistry &registry, CliOptions &opts,
              std::string &err);

/** The usage text, generated from the flag table. */
std::string cliUsage();

} // namespace gals::runner

#endif // RUNNER_CLI_HH

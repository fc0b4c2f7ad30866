/**
 * @file
 * The galsbench command line as one declarative flag table.
 *
 * Each flag is one CliFlag: name, arity, usage text, the modes that
 * accept it, how its value lands in a CliOptions and, for the flags a
 * dispatch worker receives, how that value is written back as argv.
 * parseCli() reads every mode through the table, cliUsage() is
 * generated from it and cliArgv() renders worker argv from it, so
 * each flag is spelled in one place.
 */

#ifndef RUNNER_CLI_HH
#define RUNNER_CLI_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runner/fault.hh"
#include "runner/orchestrator.hh"
#include "runner/reporter.hh"

namespace gals::runner
{

/** The galsbench modes; a CliFlag accepts a mask of them. */
enum CliMode : unsigned
{
    cliRun = 1u << 0,      ///< --scenario / --all
    cliDispatch = 1u << 1, ///< `galsbench dispatch ...`
    cliMerge = 1u << 2,    ///< --merge / --merge-manifest
    cliVerify = 1u << 3,   ///< --verify MANIFEST
    cliList = 1u << 4,     ///< --list
    cliParse = 1u << 5,    ///< `galsbench parse INPUT.gtrj ...`
};

/** One invocation: the dispatch options (sweep, scenarios, paths,
 *  orchestration knobs) plus the fields the other modes read. The
 *  caller pre-fills the defaults (environment sweep knobs, worker
 *  binary); parseCli() applies the flags on top. */
struct CliOptions : DispatchOptions
{
    CliMode mode = cliRun;
    bool help = false;
    bool list = false;
    bool runAll = false;
    unsigned jobs = 1;
    std::optional<OutputFormat> format; ///< unset: the mode's default
    /** --bench picks; any given replace the environment default. */
    std::vector<std::string> benchmarks;
    std::vector<std::string> mergeFiles;
    std::vector<std::string> mergeManifestFiles;
    std::string verifyPath;
    std::string inputPath;      ///< `parse` mode's INPUT.gtrj
    std::uint64_t resumeSkip = 0; ///< records a relaunch appends after
    FaultPlan fault;            ///< test-only --fault-*-after
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
    /** For the flags a dispatch worker receives: append the values
     *  that reproduce the setting (one argv pair each, none while
     *  unset). */
    void (*emit)(const CliOptions &, std::vector<std::string> &) = nullptr;
    /** Left out of the usage text: worker and test-only plumbing. */
    bool hidden = false;
};

/** The flag table, in usage order. */
const std::vector<CliFlag> &cliFlags();

/**
 * Parse galsbench's arguments (argv without the program name) into
 * @p opts: the mode (`dispatch`/`parse` first, else from the mode
 * flags), every flag through the table, then the per-mode checks —
 * flags the mode does not accept, missing or malformed outputs,
 * --warmup-insts against --insts and the scenarios, --traffic against
 * --cores. Resolves --all and checks every scenario name. Stops at
 * --help / -h with opts.help set.
 * @return false with @p err set on a usage error (exit 2).
 */
bool parseCli(const std::vector<std::string> &args,
              const ScenarioRegistry &registry, CliOptions &opts,
              std::string &err);

/** The arguments (program name excluded) that reproduce @p opts'
 *  forwarded flags, in table order. */
std::vector<std::string> cliArgv(const CliOptions &opts);

/** The options a dispatch worker for shard @p shard of @p opts runs
 *  with; the caller adds the slice's paths, resume point and fault. */
CliOptions workerOptions(const DispatchOptions &opts, ShardSpec shard);

/** The usage text, generated from the flag table. */
std::string cliUsage();

} // namespace gals::runner

#endif // RUNNER_CLI_HH

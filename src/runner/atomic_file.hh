/**
 * @file
 * Whole-file I/O: crash-safe writes (temp file + atomic rename) and
 * whole-file reads.
 *
 * A manifest or status file written with a plain ofstream can be
 * left half-written by a crash (or a full disk) and then misparse in
 * a later `--verify` or resume. atomicWriteFile() writes the new
 * contents to `<path>.tmp` in full — fsync'd — and only then
 * rename(2)s it over @p path, so any reader at any instant sees
 * either the complete old file or the complete new file, never a
 * torn one. A failure leaves the previous file untouched.
 *
 * The temp name is deliberately deterministic (`<path>.tmp`): all of
 * our writers are single-process per destination, and a fixed name
 * both lets a crashed leftover be overwritten by the next attempt
 * and lets tests provoke the failure path.
 */

#ifndef RUNNER_ATOMIC_FILE_HH
#define RUNNER_ATOMIC_FILE_HH

#include <string>

namespace gals::runner
{

/** The temp path atomicWriteFile() stages through: `<path>.tmp`. */
std::string atomicTempPath(const std::string &path);

/**
 * Replace @p path with @p contents atomically (write `<path>.tmp`,
 * fsync, rename). On failure the temp file is removed and the
 * previous @p path — if any — is left exactly as it was.
 * @param err on failure: a one-line human-readable reason.
 * @return true iff @p path now holds @p contents.
 */
bool atomicWriteFile(const std::string &path,
                     const std::string &contents, std::string &err);

/** Read all of @p path into @p out.
 *  @return false with @p err set if it cannot be opened or read. */
bool readFile(const std::string &path, std::string &out,
              std::string &err);

} // namespace gals::runner

#endif // RUNNER_ATOMIC_FILE_HH

/**
 * @file
 * Plain-text serialization of homogeneous NFAs. The format is a small,
 * line-oriented stand-in for ANML so generated benchmark machines can
 * be saved, inspected, and reloaded:
 *
 *     papsim-nfa 1
 *     name <string>
 *     states <count>
 *     s <id> <label-64-hex-chars> <start 0|1|2> <reporting 0|1> <code>
 *     e <from> <to>
 *     end
 */

#ifndef PAP_NFA_NFA_IO_H
#define PAP_NFA_NFA_IO_H

#include <iosfwd>
#include <string>

#include "common/error.h"
#include "nfa/nfa.h"

namespace pap {

/** Write @p nfa to a stream. */
void saveNfa(const Nfa &nfa, std::ostream &os);

/** Write @p nfa to a file; fatal on I/O failure. */
void saveNfaFile(const Nfa &nfa, const std::string &path);

/**
 * Read an NFA from a stream.
 * @throws std::runtime_error on malformed input.
 */
Nfa loadNfa(std::istream &is);

/**
 * Read an automaton file: ANML when @p path ends in ".anml", else the
 * papsim text format. A file that cannot be opened or parsed is
 * InvalidInput.
 */
Result<Nfa> loadAutomatonFile(const std::string &path);

} // namespace pap

#endif // PAP_NFA_NFA_IO_H

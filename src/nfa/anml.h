/**
 * @file
 * ANML import/export. ANML (Automata Network Markup Language) is the
 * Micron AP's native description format (Section 2.1: automata are
 * compiled from "the compact ANML NFA representation"); ANMLZoo ships
 * its benchmarks as ANML. This module reads and writes the
 * state-transition-element subset:
 *
 *   <anml-network id="...">
 *     <state-transition-element id="q0" symbol-set="[a-c]"
 *                               start="all-input">
 *       <report-on-match reportcode="7"/>
 *       <activate-on-match element="q1"/>
 *     </state-transition-element>
 *     ...
 *   </anml-network>
 *
 * Counter and boolean elements are rejected with a clear error (see
 * DESIGN.md on why enumeration requires pure NFA semantics).
 */

#ifndef PAP_NFA_ANML_H
#define PAP_NFA_ANML_H

#include <iosfwd>
#include <string>

#include "nfa/nfa.h"

namespace pap {

/** Write @p nfa as an ANML network. */
void saveAnml(const Nfa &nfa, std::ostream &os);

/** Write to a file; fatal on I/O failure. */
void saveAnmlFile(const Nfa &nfa, const std::string &path);

/**
 * Parse an ANML network.
 * @throws std::runtime_error on malformed input or unsupported
 *         element kinds.
 */
Nfa loadAnml(std::istream &is);

} // namespace pap

#endif // PAP_NFA_ANML_H

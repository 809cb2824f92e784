/**
 * @file
 * Unix-domain-socket transport for serve mode, plus the matching
 * client helpers used by `papsim stream` and `papsim ctl`.
 *
 * Wire protocol (newline-terminated ASCII control lines; DATA carries
 * a binary payload of the announced length immediately after its
 * newline):
 *
 *   client -> daemon                daemon -> client
 *   ----------------                ----------------
 *   OPEN <tenant> [key [interval]]  OK <session-id>
 *   RESUME <tenant> <key>           OK <session-id> <offset>
 *   DATA <nbytes>\n<raw bytes>      (nothing; errors arrive typed on
 *                                    the next response boundary)
 *   FIN                             REPORT matches=<n> symbols=<s>
 *                                     chunks=<c> retried=<r>
 *                                     recovered=<v> generation=<g>
 *                                     resumed=<o>
 *                                   M <offset> <state> <code>  (xn)
 *                                   END
 *   ABORT [reason]                  OK
 *   SWAP <automaton-path>           OK <generation>
 *   WEIGHT <tenant> <w>             OK
 *   STATS                           STATS <k>=<v> ...
 *   DRAIN                           OK (after the drain completes)
 *   PING                            PONG
 *   (any failure)                   ERR <CodeName> <message>
 *
 * One connection carries at most one stream session. Backpressure is
 * physical: when a session's chunk window is full the daemon stops
 * reading that connection's socket (the payload stays in the kernel
 * buffer and the client's write eventually blocks), so a slow or
 * flooding client throttles itself without affecting siblings. A
 * connection dropping with a live session aborts that session only.
 *
 * SIGTERM/SIGINT wake the poll loop through a self-pipe; the daemon
 * stops admitting, drains (checkpointing keyed streams), answers
 * nothing further, and run() returns so main can exit 0.
 */

#ifndef PAP_SERVE_TRANSPORT_H
#define PAP_SERVE_TRANSPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "serve/server.h"

namespace pap {
namespace serve {

/**
 * Run the daemon's accept/poll loop on @p socket_path until a
 * termination signal drains it (returns Ok) or the listener cannot be
 * set up (returns the error; the path being in use is the common
 * case). Installs SIGTERM/SIGINT handlers for the duration.
 */
Status runSocketServer(Server &server, const std::string &socket_path);

/** What `papsim stream` prints after a successful FIN. */
struct StreamResult
{
    std::vector<ReportEvent> reports;
    std::uint64_t symbols = 0;
    std::uint64_t chunks = 0;
    std::uint32_t chunksRetried = 0;
    std::uint32_t chunksRecovered = 0;
    std::uint64_t generation = 0;
    /** Symbols skipped because a checkpoint already covered them. */
    std::uint64_t resumedSymbols = 0;
};

/**
 * Stream the input read from file descriptor @p input_fd (a trace
 * file or stdin) to the daemon at @p socket_path as @p tenant and
 * return the final report. Each piece is forwarded as it arrives, in
 * frames of up to 64 KiB, so a slow producer exercises the daemon's
 * backpressure in real time; EOF closes the stream. With @p resume,
 * continue the stream named @p key from its checkpoint: the daemon
 * returns the composed offset and this client skips that prefix of
 * the input. An input shorter than that offset is InvalidInput.
 */
Result<StreamResult> streamFdToDaemon(const std::string &socket_path,
                                      const std::string &tenant,
                                      const std::string &key,
                                      int input_fd, bool resume,
                                      std::int64_t checkpointInterval = -1);

/**
 * Send one control line (PING/STATS/DRAIN/SWAP/WEIGHT) and return the
 * daemon's response line.
 */
Result<std::string> ctlCommand(const std::string &socket_path,
                               const std::string &line);

} // namespace serve
} // namespace pap

#endif // PAP_SERVE_TRANSPORT_H

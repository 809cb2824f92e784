#include "serve/transport.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "nfa/nfa_io.h"

namespace pap {
namespace serve {

namespace {

/** Largest DATA frame the daemon will buffer for one session. */
constexpr std::size_t kMaxFrame = 16u << 20;
/** Longest accepted control line. */
constexpr std::size_t kMaxLine = 4096;
/** Poll tick: retry window-full feeds and pending finishes. */
constexpr int kTickMs = 10;

int g_signal_pipe_w = -1;

void
onTermSignal(int)
{
    const char byte = 1;
    // Best effort: a full pipe already means a wakeup is pending.
    (void)!::write(g_signal_pipe_w, &byte, 1);
}

Status
sysError(const char *what)
{
    return Status::error(ErrorCode::InvalidInput, what, ": ",
                         std::strerror(errno));
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

ErrorCode
errorCodeFromName(const std::string &name)
{
    for (int c = 1; c <= static_cast<int>(ErrorCode::StreamQuarantined);
         ++c) {
        const auto code = static_cast<ErrorCode>(c);
        if (name == errorCodeName(code))
            return code;
    }
    return ErrorCode::InvalidInput;
}

std::string
oneLine(const std::string &message)
{
    std::string out = message;
    std::replace(out.begin(), out.end(), '\n', ' ');
    return out;
}

/** One client connection; carries at most one stream session. */
struct Conn
{
    int fd = -1;
    std::string inbuf;
    std::string outbuf;
    SessionId session = 0;
    bool hasSession = false;
    /** Bytes of a DATA frame still expected on the wire. */
    std::size_t payloadNeed = 0;
    /** Consume the current frame without feeding it (dead session:
        the typed error already went out; stay in protocol sync). */
    bool payloadDiscard = false;
    /** Symbols received but not yet accepted by the session window.
        While non-empty the connection's POLLIN is off: backpressure
        propagates to the client through the kernel socket buffer. */
    std::vector<Symbol> pending;
    bool finishing = false;
    bool closed = false;
};

void
say(Conn &c, const std::string &line)
{
    c.outbuf += line;
    c.outbuf += '\n';
}

void
sayError(Conn &c, const Status &status)
{
    say(c, std::string("ERR ") + errorCodeName(status.code()) + " " +
               oneLine(status.message()));
}

void
sayReport(Conn &c, const SessionReport &report)
{
    std::ostringstream os;
    os << "REPORT matches=" << report.reports.size()
       << " symbols=" << report.symbols << " chunks=" << report.chunks
       << " retried=" << report.chunksRetried
       << " recovered=" << report.chunksRecovered
       << " generation=" << report.generation
       << " resumed=" << report.resumedSymbols;
    say(c, os.str());
    for (const ReportEvent &event : report.reports) {
        std::ostringstream line;
        line << "M " << event.offset << " " << event.state << " "
             << event.code;
        say(c, line.str());
    }
    say(c, "END");
}

/** Push as much buffered-but-unaccepted payload as the window takes. */
void
flushPending(Server &server, Conn &c)
{
    if (c.pending.empty())
        return;
    if (!c.hasSession) {
        c.pending.clear(); // dead session: drop, keep reading
        return;
    }
    const Result<bool> fed =
        server.tryFeed(c.session, c.pending.data(), c.pending.size());
    if (!fed.ok()) {
        sayError(c, fed.status());
        c.hasSession = false; // session is terminal; typed error sent
        c.pending.clear();
        return;
    }
    if (fed.value())
        c.pending.clear();
}

/** Drive a FIN that could not complete immediately. */
void
pollFinish(Server &server, Conn &c)
{
    if (!c.finishing || !c.hasSession || !c.pending.empty())
        return;
    SessionReport report;
    const Result<bool> done = server.tryFinish(c.session, &report);
    if (!done.ok()) {
        sayError(c, done.status());
        c.hasSession = false;
        c.finishing = false;
        return;
    }
    if (!done.value())
        return;
    sayReport(c, report);
    c.hasSession = false;
    c.finishing = false;
}

void
handleLine(Server &server, Conn &c, const std::string &line)
{
    std::istringstream is(line);
    std::string verb;
    is >> verb;
    if (verb == "PING") {
        say(c, "PONG");
    } else if (verb == "OPEN") {
        std::string tenant, key;
        is >> tenant >> key;
        std::int64_t interval = -1;
        if (!(is >> interval))
            interval = -1; // absent token: use the server default
        if (tenant.empty()) {
            sayError(c, Status::error(ErrorCode::InvalidInput,
                                      "OPEN needs a tenant"));
            return;
        }
        if (c.hasSession) {
            sayError(c, Status::error(
                            ErrorCode::InvalidInput,
                            "connection already carries a session"));
            return;
        }
        const Result<SessionId> opened =
            server.open(tenant, key, interval);
        if (!opened.ok()) {
            sayError(c, opened.status());
            return;
        }
        c.session = opened.value();
        c.hasSession = true;
        c.finishing = false;
        say(c, "OK " + std::to_string(c.session));
    } else if (verb == "RESUME") {
        std::string tenant, key;
        is >> tenant >> key;
        if (tenant.empty() || key.empty()) {
            sayError(c, Status::error(ErrorCode::InvalidInput,
                                      "RESUME needs a tenant and a "
                                      "stream key"));
            return;
        }
        if (c.hasSession) {
            sayError(c, Status::error(
                            ErrorCode::InvalidInput,
                            "connection already carries a session"));
            return;
        }
        const Result<ResumeInfo> resumed = server.resume(tenant, key);
        if (!resumed.ok()) {
            sayError(c, resumed.status());
            return;
        }
        c.session = resumed.value().id;
        c.hasSession = true;
        c.finishing = false;
        say(c, "OK " + std::to_string(c.session) + " " +
                   std::to_string(resumed.value().offset));
    } else if (verb == "DATA") {
        std::size_t bytes = 0;
        if (!(is >> bytes) || bytes == 0 || bytes > kMaxFrame) {
            sayError(c, Status::error(ErrorCode::InvalidInput,
                                      "DATA needs a frame length in "
                                      "(0, 16MiB]"));
            return;
        }
        c.payloadNeed = bytes;
        c.payloadDiscard = !c.hasSession || c.finishing;
        if (c.payloadDiscard)
            sayError(c, Status::error(ErrorCode::InvalidInput,
                                      "DATA without an open stream"));
    } else if (verb == "FIN") {
        if (!c.hasSession) {
            sayError(c, Status::error(ErrorCode::InvalidInput,
                                      "FIN without an open stream"));
            return;
        }
        c.finishing = true;
        pollFinish(server, c);
    } else if (verb == "ABORT") {
        std::string reason;
        std::getline(is, reason);
        if (c.hasSession) {
            (void)server.abort(c.session, reason.empty()
                                              ? "client abort"
                                              : reason);
            c.hasSession = false;
            c.finishing = false;
            c.pending.clear();
        }
        say(c, "OK");
    } else if (verb == "SWAP") {
        std::string path;
        is >> path;
        const Result<Nfa> loaded = loadAutomatonFile(path);
        if (!loaded.ok()) {
            sayError(c, loaded.status());
            return;
        }
        const Result<std::uint64_t> swapped = server.swap(loaded.value());
        if (!swapped.ok()) {
            sayError(c, swapped.status());
            return;
        }
        say(c, "OK " + std::to_string(swapped.value()));
    } else if (verb == "WEIGHT") {
        std::string tenant;
        double weight = 0.0;
        if (!(is >> tenant >> weight) || weight <= 0.0) {
            sayError(c, Status::error(ErrorCode::InvalidInput,
                                      "WEIGHT needs a tenant and a "
                                      "positive weight"));
            return;
        }
        server.setTenantWeight(tenant, weight);
        say(c, "OK");
    } else if (verb == "STATS") {
        const ServerStats s = server.stats();
        std::ostringstream os;
        os << "STATS open=" << s.openSessions
           << " admitted=" << s.admitted << " shed=" << s.shed
           << " quarantined=" << s.quarantined
           << " completed=" << s.completed << " aborted=" << s.aborted
           << " resumed=" << s.resumed
           << " checkpointed=" << s.checkpointed
           << " chunks=" << s.chunksExecuted
           << " recovered=" << s.chunksRecovered
           << " periodic_ckpts=" << s.periodicCheckpoints
           << " stale_tmp_cleaned=" << s.staleTmpCleaned
           << " stale_ckpts_removed=" << s.staleCheckpointsRemoved
           << " journal_records=" << s.journalRecords
           << " journal_torn=" << s.journalTorn
           << " resumable=" << s.sessionsResumable
           << " recovered_sessions=" << s.sessionsRecovered
           << " queue=" << s.queueDepth
           << " generation=" << s.generation
           << " live=" << s.liveGenerations
           << " draining=" << (server.draining() ? 1 : 0);
        say(c, os.str());
    } else if (verb == "DRAIN") {
        const Status drained = server.drain();
        if (drained.ok())
            say(c, "OK");
        else
            sayError(c, drained);
    } else {
        sayError(c, Status::error(ErrorCode::InvalidInput,
                                  "unknown verb '", verb, "'"));
    }
}

/**
 * Consume buffered input: payload bytes feed the session, control
 * lines dispatch. Stops (leaving the rest buffered) as soon as the
 * session window pushes back, which preserves stream ordering.
 */
void
processInput(Server &server, Conn &c)
{
    for (;;) {
        if (!c.pending.empty()) {
            flushPending(server, c);
            if (!c.pending.empty())
                return; // window full: leave inbuf for the next tick
        }
        if (c.payloadNeed > 0) {
            const std::size_t take =
                std::min(c.payloadNeed, c.inbuf.size());
            if (take == 0)
                return;
            if (!c.payloadDiscard) {
                const auto *raw =
                    reinterpret_cast<const Symbol *>(c.inbuf.data());
                c.pending.insert(c.pending.end(), raw, raw + take);
            }
            c.inbuf.erase(0, take);
            c.payloadNeed -= take;
            continue;
        }
        const std::size_t eol = c.inbuf.find('\n');
        if (eol == std::string::npos) {
            if (c.inbuf.size() > kMaxLine) {
                sayError(c, Status::error(ErrorCode::InvalidInput,
                                          "control line too long"));
                c.closed = true;
            }
            return;
        }
        std::string line = c.inbuf.substr(0, eol);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        c.inbuf.erase(0, eol + 1);
        if (!line.empty())
            handleLine(server, c, line);
        if (c.closed)
            return;
    }
}

void
dropConnection(Server &server, Conn &c)
{
    if (c.hasSession)
        (void)server.abort(c.session, "client disconnected");
    if (c.fd >= 0)
        ::close(c.fd);
    c.fd = -1;
}

} // namespace

Status
runSocketServer(Server &server, const std::string &socket_path)
{
    if (!server.status().ok())
        return server.status();
    sockaddr_un addr{};
    if (socket_path.size() >= sizeof(addr.sun_path))
        return Status::error(ErrorCode::InvalidInput, "socket path '",
                             socket_path, "' is too long");
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);

    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0)
        return sysError("socket");
    // A stale socket file from a crashed daemon blocks bind; a live
    // daemon answers a probe connect, in which case we must not steal
    // its address.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
        if (::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            ::close(probe);
            ::close(listener);
            return Status::error(ErrorCode::ResourceExhausted,
                                 "another daemon is serving '",
                                 socket_path, "'");
        }
        ::close(probe);
    }
    ::unlink(socket_path.c_str());
    if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listener, 64) != 0 || !setNonBlocking(listener)) {
        const Status st = sysError("bind/listen");
        ::close(listener);
        return st;
    }

    int sigpipe[2] = {-1, -1};
    if (::pipe(sigpipe) != 0 || !setNonBlocking(sigpipe[0]) ||
        !setNonBlocking(sigpipe[1])) {
        ::close(listener);
        return sysError("pipe");
    }
    g_signal_pipe_w = sigpipe[1];
    struct sigaction sa{}, old_term{}, old_int{}, old_pipe{};
    sa.sa_handler = onTermSignal;
    ::sigaction(SIGTERM, &sa, &old_term);
    ::sigaction(SIGINT, &sa, &old_int);
    struct sigaction ign{};
    ign.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ign, &old_pipe);

    std::unordered_map<int, Conn> conns;
    bool terminating = false;
    while (!terminating) {
        std::vector<pollfd> fds;
        fds.push_back({listener, POLLIN, 0});
        fds.push_back({sigpipe[0], POLLIN, 0});
        for (auto &entry : conns) {
            short events = 0;
            // Backpressure: while a session's window rejects pending
            // payload, stop reading that client entirely.
            if (entry.second.pending.empty())
                events |= POLLIN;
            if (!entry.second.outbuf.empty())
                events |= POLLOUT;
            fds.push_back({entry.first, events, 0});
        }
        const int rc =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   kTickMs);
        if (rc < 0 && errno != EINTR)
            break;

        if (fds[1].revents & POLLIN)
            terminating = true;

        if (fds[0].revents & POLLIN) {
            for (;;) {
                const int fd = ::accept(listener, nullptr, nullptr);
                if (fd < 0)
                    break;
                if (!setNonBlocking(fd)) {
                    ::close(fd);
                    continue;
                }
                Conn c;
                c.fd = fd;
                conns.emplace(fd, std::move(c));
            }
        }

        for (std::size_t i = 2; i < fds.size(); ++i) {
            const auto it = conns.find(fds[i].fd);
            if (it == conns.end())
                continue;
            Conn &c = it->second;
            if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
                c.closed = true;
                continue;
            }
            if (fds[i].revents & POLLIN) {
                char buf[65536];
                for (;;) {
                    const ssize_t n = ::read(c.fd, buf, sizeof(buf));
                    if (n > 0) {
                        c.inbuf.append(buf,
                                       static_cast<std::size_t>(n));
                        if (n < static_cast<ssize_t>(sizeof(buf)))
                            break;
                        continue;
                    }
                    if (n == 0)
                        c.closed = true;
                    break;
                }
            }
            if (fds[i].revents & POLLOUT) {
                const ssize_t n = ::write(c.fd, c.outbuf.data(),
                                          c.outbuf.size());
                if (n > 0)
                    c.outbuf.erase(0, static_cast<std::size_t>(n));
                else if (n < 0 && errno != EAGAIN &&
                         errno != EWOULDBLOCK)
                    c.closed = true;
            }
        }

        // Tick every connection: parse new input, retry window-full
        // payload, drive pending finishes, opportunistic writes.
        for (auto it = conns.begin(); it != conns.end();) {
            Conn &c = it->second;
            if (!c.closed) {
                processInput(server, c);
                flushPending(server, c);
                pollFinish(server, c);
            }
            if (!c.outbuf.empty() && !c.closed) {
                const ssize_t n = ::write(c.fd, c.outbuf.data(),
                                          c.outbuf.size());
                if (n > 0)
                    c.outbuf.erase(0, static_cast<std::size_t>(n));
                else if (n < 0 && errno != EAGAIN &&
                         errno != EWOULDBLOCK)
                    c.closed = true;
            }
            if (c.closed && c.outbuf.empty()) {
                dropConnection(server, c);
                it = conns.erase(it);
            } else {
                ++it;
            }
        }
    }

    // Graceful shutdown: close the door, finish or checkpoint what is
    // in flight, then tear the transport down.
    const Status drained = server.drain();
    for (auto &entry : conns)
        dropConnection(server, entry.second);
    ::close(listener);
    ::unlink(socket_path.c_str());
    ::sigaction(SIGTERM, &old_term, nullptr);
    ::sigaction(SIGINT, &old_int, nullptr);
    ::sigaction(SIGPIPE, &old_pipe, nullptr);
    g_signal_pipe_w = -1;
    ::close(sigpipe[0]);
    ::close(sigpipe[1]);
    return drained;
}

namespace {

/** Minimal blocking line reader for the client side. */
struct LineReader
{
    int fd;
    std::string buf;

    bool
    readLine(std::string *out)
    {
        for (;;) {
            const std::size_t eol = buf.find('\n');
            if (eol != std::string::npos) {
                *out = buf.substr(0, eol);
                buf.erase(0, eol + 1);
                if (!out->empty() && out->back() == '\r')
                    out->pop_back();
                return true;
            }
            char chunk[4096];
            const ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n <= 0)
                return false;
            buf.append(chunk, static_cast<std::size_t>(n));
        }
    }
};

Result<int>
connectDaemon(const std::string &socket_path)
{
    sockaddr_un addr{};
    if (socket_path.size() >= sizeof(addr.sun_path))
        return Status::error(ErrorCode::InvalidInput, "socket path '",
                             socket_path, "' is too long");
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return sysError("socket");
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const Status st = Status::error(
            ErrorCode::InvalidInput, "cannot connect to daemon at '",
            socket_path, "': ", std::strerror(errno));
        ::close(fd);
        return st;
    }
    return fd;
}

Status
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return sysError("write");
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return Status();
}

/** Turn an "ERR <Code> <message>" line into the typed Status. */
Status
statusFromErrLine(const std::string &line)
{
    std::istringstream is(line);
    std::string verb, code;
    is >> verb >> code;
    std::string message;
    std::getline(is, message);
    if (!message.empty() && message.front() == ' ')
        message.erase(0, 1);
    return Status::error(errorCodeFromName(code), message);
}

/** A client-side stream: connected socket plus its line buffer. */
struct ClientStream
{
    int fd = -1;
    LineReader reader{-1, {}};
    /** Symbols the daemon already composed (resume offset). */
    std::uint64_t skip = 0;
};

Result<ClientStream>
helloDaemon(const std::string &socket_path, const std::string &tenant,
            const std::string &key, bool resume,
            std::int64_t checkpointInterval)
{
    const Result<int> connected = connectDaemon(socket_path);
    if (!connected.ok())
        return connected.status();
    ClientStream stream;
    stream.fd = connected.value();
    stream.reader.fd = stream.fd;
    std::string hello = resume ? "RESUME " + tenant + " " + key
                               : "OPEN " + tenant +
                                     (key.empty() ? "" : " " + key);
    if (!resume && !key.empty() && checkpointInterval >= 0) {
        hello += ' ';
        hello += std::to_string(checkpointInterval);
    }
    hello += '\n';
    Status st = writeAll(stream.fd, hello.data(), hello.size());
    std::string line;
    if (st.ok() && !stream.reader.readLine(&line))
        st = Status::error(ErrorCode::InvalidInput,
                           "daemon closed the connection");
    if (st.ok() && line.rfind("ERR", 0) == 0)
        st = statusFromErrLine(line);
    if (st.ok()) {
        std::istringstream is(line);
        std::string ok;
        std::uint64_t id = 0;
        is >> ok >> id;
        if (ok != "OK")
            st = Status::error(ErrorCode::InvalidInput,
                               "unexpected response '", line, "'");
        else if (resume)
            is >> stream.skip;
    }
    if (!st.ok()) {
        ::close(stream.fd);
        return st;
    }
    return stream;
}

Status
sendFrame(int fd, const char *data, std::size_t len)
{
    const std::string head = "DATA " + std::to_string(len) + "\n";
    Status st = writeAll(fd, head.data(), head.size());
    if (st.ok())
        st = writeAll(fd, data, len);
    return st;
}

/** Send FIN, collect the report block, close the socket. */
Result<StreamResult>
finishStream(ClientStream &stream)
{
    StreamResult result;
    result.resumedSymbols = stream.skip;
    const auto fail = [&](Status st) -> Result<StreamResult> {
        ::close(stream.fd);
        return st;
    };
    Status st = writeAll(stream.fd, "FIN\n", 4);
    if (!st.ok())
        return fail(st);
    std::string line;
    if (!stream.reader.readLine(&line))
        return fail(Status::error(ErrorCode::InvalidInput,
                                  "daemon closed mid-report"));
    if (line.rfind("ERR", 0) == 0)
        return fail(statusFromErrLine(line));
    if (line.rfind("REPORT", 0) != 0)
        return fail(Status::error(ErrorCode::InvalidInput,
                                  "unexpected response '", line, "'"));
    {
        std::istringstream is(line);
        std::string token;
        while (is >> token) {
            const std::size_t eq = token.find('=');
            if (eq == std::string::npos)
                continue;
            const std::string k = token.substr(0, eq);
            const std::uint64_t v =
                std::strtoull(token.c_str() + eq + 1, nullptr, 10);
            if (k == "symbols")
                result.symbols = v;
            else if (k == "chunks")
                result.chunks = v;
            else if (k == "retried")
                result.chunksRetried = static_cast<std::uint32_t>(v);
            else if (k == "recovered")
                result.chunksRecovered =
                    static_cast<std::uint32_t>(v);
            else if (k == "generation")
                result.generation = v;
            else if (k == "resumed")
                result.resumedSymbols = v;
        }
    }
    while (stream.reader.readLine(&line)) {
        if (line == "END") {
            ::close(stream.fd);
            return result;
        }
        std::istringstream is(line);
        std::string m;
        ReportEvent event{};
        if (!(is >> m >> event.offset >> event.state >> event.code) ||
            m != "M")
            return fail(Status::error(ErrorCode::InvalidInput,
                                      "bad report line '", line, "'"));
        result.reports.push_back(event);
    }
    return fail(Status::error(ErrorCode::InvalidInput,
                              "daemon closed mid-report"));
}

} // namespace

Result<StreamResult>
streamFdToDaemon(const std::string &socket_path,
                 const std::string &tenant, const std::string &key,
                 int input_fd, bool resume,
                 std::int64_t checkpointInterval)
{
    Result<ClientStream> hello =
        helloDaemon(socket_path, tenant, key, resume,
                    checkpointInterval);
    if (!hello.ok())
        return hello.status();
    ClientStream &stream = hello.value();
    std::uint64_t to_skip = stream.skip;
    char buf[65536];
    for (;;) {
        const ssize_t n = ::read(input_fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const Status st = sysError("read input");
            ::close(stream.fd);
            return st;
        }
        if (n == 0)
            break;
        const char *p = buf;
        std::size_t len = static_cast<std::size_t>(n);
        if (to_skip > 0) {
            const std::uint64_t drop =
                std::min<std::uint64_t>(to_skip, len);
            p += drop;
            len -= static_cast<std::size_t>(drop);
            to_skip -= drop;
        }
        if (len == 0)
            continue;
        const Status st = sendFrame(stream.fd, p, len);
        if (!st.ok()) {
            ::close(stream.fd);
            return st;
        }
    }
    if (to_skip > 0) {
        // Hanging up without FIN aborts the resumed session.
        ::close(stream.fd);
        return Status::error(ErrorCode::InvalidInput, "checkpoint covers ",
                             stream.skip, " symbols but the input has only ",
                             stream.skip - to_skip);
    }
    return finishStream(stream);
}

Result<std::string>
ctlCommand(const std::string &socket_path, const std::string &line)
{
    const Result<int> connected = connectDaemon(socket_path);
    if (!connected.ok())
        return connected.status();
    const int fd = connected.value();
    const std::string out = line + "\n";
    const Status st = writeAll(fd, out.data(), out.size());
    if (!st.ok()) {
        ::close(fd);
        return st;
    }
    LineReader reader{fd, {}};
    std::string response;
    if (!reader.readLine(&response)) {
        ::close(fd);
        return Status::error(ErrorCode::InvalidInput,
                             "daemon closed the connection");
    }
    ::close(fd);
    if (response.rfind("ERR", 0) == 0)
        return statusFromErrLine(response);
    return response;
}

} // namespace serve
} // namespace pap

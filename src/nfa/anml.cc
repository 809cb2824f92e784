#include "nfa/anml.h"

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/logging.h"
#include "nfa/regex.h"

namespace pap {

namespace {

/** Canonical ANML symbol-set string: always a bracket expression. */
std::string
symbolSetString(const CharClass &cls)
{
    std::ostringstream os;
    os << '[';
    int run_start = -1;
    int prev = -2;
    auto emit = [&](int s) {
        if (std::isalnum(s)) {
            os << static_cast<char>(s);
        } else {
            static constexpr char kHex[] = "0123456789abcdef";
            os << "\\x" << kHex[(s >> 4) & 0xf] << kHex[s & 0xf];
        }
    };
    auto flush = [&](int last) {
        if (run_start < 0)
            return;
        emit(run_start);
        if (last > run_start) {
            if (last > run_start + 1)
                os << '-';
            emit(last);
        }
    };
    for (int s = 0; s < kAlphabetSize; ++s) {
        if (!cls.test(static_cast<Symbol>(s)))
            continue;
        if (s != prev + 1) {
            flush(prev);
            run_start = s;
        }
        prev = s;
    }
    flush(prev);
    os << ']';
    return os.str();
}

/** XML attribute escaping for the few characters that need it. */
std::string
xmlEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
xmlUnescape(const std::string &text)
{
    std::string out;
    for (std::size_t i = 0; i < text.size();) {
        if (text[i] != '&') {
            out += text[i++];
            continue;
        }
        const std::size_t end = text.find(';', i);
        if (end == std::string::npos)
            throw std::runtime_error("ANML: bad entity");
        const std::string entity = text.substr(i, end - i + 1);
        if (entity == "&amp;")
            out += '&';
        else if (entity == "&lt;")
            out += '<';
        else if (entity == "&gt;")
            out += '>';
        else if (entity == "&quot;")
            out += '"';
        else if (entity == "&apos;")
            out += '\'';
        else
            throw std::runtime_error("ANML: unknown entity " + entity);
        i = end + 1;
    }
    return out;
}

/** A parsed XML tag: name plus attribute map. */
struct XmlTag
{
    std::string name;
    std::map<std::string, std::string> attrs;
    bool closing = false;     // </name>
    bool selfClosing = false; // <name ... />
};

/**
 * Minimal forward-only XML tag scanner: yields tags, skips text,
 * comments, processing instructions, and doctypes.
 */
class XmlScanner
{
  public:
    explicit XmlScanner(std::istream &is)
    {
        std::ostringstream buffer;
        buffer << is.rdbuf();
        text = buffer.str();
    }

    /** Next tag, or false at end of input. */
    bool
    next(XmlTag &tag)
    {
        for (;;) {
            const std::size_t open = text.find('<', pos);
            if (open == std::string::npos)
                return false;
            if (text.compare(open, 4, "<!--") == 0) {
                const std::size_t end = text.find("-->", open);
                if (end == std::string::npos)
                    throw std::runtime_error(
                        "ANML: unterminated comment");
                pos = end + 3;
                continue;
            }
            if (text.compare(open, 2, "<?") == 0 ||
                text.compare(open, 2, "<!") == 0) {
                const std::size_t end = text.find('>', open);
                if (end == std::string::npos)
                    throw std::runtime_error(
                        "ANML: unterminated declaration");
                pos = end + 1;
                continue;
            }
            const std::size_t close = text.find('>', open);
            if (close == std::string::npos)
                throw std::runtime_error("ANML: unterminated tag");
            parseTag(text.substr(open + 1, close - open - 1), tag);
            pos = close + 1;
            return true;
        }
    }

  private:
    std::string text;
    std::size_t pos = 0;

    static void
    parseTag(std::string body, XmlTag &tag)
    {
        tag = XmlTag{};
        if (!body.empty() && body.front() == '/') {
            tag.closing = true;
            body.erase(body.begin());
        }
        if (!body.empty() && body.back() == '/') {
            tag.selfClosing = true;
            body.pop_back();
        }
        std::size_t i = 0;
        auto skip_space = [&] {
            while (i < body.size() &&
                   std::isspace(static_cast<unsigned char>(body[i])))
                ++i;
        };
        skip_space();
        const std::size_t name_start = i;
        while (i < body.size() &&
               !std::isspace(static_cast<unsigned char>(body[i])))
            ++i;
        tag.name = body.substr(name_start, i - name_start);
        if (tag.name.empty())
            throw std::runtime_error("ANML: empty tag name");
        while (true) {
            skip_space();
            if (i >= body.size())
                break;
            const std::size_t eq = body.find('=', i);
            if (eq == std::string::npos)
                throw std::runtime_error(
                    "ANML: attribute without value in <" + tag.name +
                    ">");
            const std::string key = body.substr(i, eq - i);
            i = eq + 1;
            if (i >= body.size() ||
                (body[i] != '"' && body[i] != '\''))
                throw std::runtime_error(
                    "ANML: unquoted attribute value");
            const char quote = body[i++];
            const std::size_t end = body.find(quote, i);
            if (end == std::string::npos)
                throw std::runtime_error(
                    "ANML: unterminated attribute value");
            tag.attrs[key] = xmlUnescape(body.substr(i, end - i));
            i = end + 1;
        }
    }
};

CharClass
parseSymbolSet(const std::string &spec)
{
    if (spec == "*")
        return CharClass::all();
    if (spec == "[]")
        return CharClass(); // degenerate never-matching STE
    RegexPtr node = parseRegex(spec);
    if (node->op != RegexOp::Literal)
        throw std::runtime_error("ANML: symbol-set '" + spec +
                                 "' is not a single character class");
    return node->cls;
}

} // namespace

void
saveAnml(const Nfa &nfa, std::ostream &os)
{
    PAP_ASSERT(nfa.finalized(), "saveAnml on unfinalized NFA");
    os << "<anml-network id=\"" << xmlEscape(nfa.name()) << "\">\n";
    for (StateId q = 0; q < nfa.size(); ++q) {
        const NfaState &s = nfa[q];
        os << "  <state-transition-element id=\"q" << q
           << "\" symbol-set=\""
           << xmlEscape(symbolSetString(s.label)) << "\"";
        if (s.start == StartType::AllInput)
            os << " start=\"all-input\"";
        else if (s.start == StartType::StartOfData)
            os << " start=\"start-of-data\"";
        if (s.succ.empty() && !s.reporting) {
            os << "/>\n";
            continue;
        }
        os << ">\n";
        if (s.reporting)
            os << "    <report-on-match reportcode=\"" << s.reportCode
               << "\"/>\n";
        for (const StateId t : s.succ)
            os << "    <activate-on-match element=\"q" << t
               << "\"/>\n";
        os << "  </state-transition-element>\n";
    }
    os << "</anml-network>\n";
}

void
saveAnmlFile(const Nfa &nfa, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        PAP_FATAL("cannot open '", path, "' for writing");
    saveAnml(nfa, os);
    if (!os)
        PAP_FATAL("write failure on '", path, "'");
}

Nfa
loadAnml(std::istream &is)
{
    XmlScanner scanner(is);
    XmlTag tag;
    if (!scanner.next(tag) || tag.name != "anml-network")
        throw std::runtime_error("ANML: expected <anml-network>");
    Nfa nfa(tag.attrs.contains("id") ? tag.attrs.at("id") : "anml");

    // First pass builds states and records edges by element id.
    std::map<std::string, StateId> id_of;
    std::vector<std::pair<StateId, std::string>> edges;

    StateId current = kInvalidState;
    bool in_ste = false;
    while (scanner.next(tag)) {
        if (tag.name == "anml-network" && tag.closing)
            break;
        if (tag.name == "state-transition-element") {
            if (tag.closing) {
                in_ste = false;
                continue;
            }
            if (!tag.attrs.contains("id") ||
                !tag.attrs.contains("symbol-set"))
                throw std::runtime_error(
                    "ANML: STE needs id and symbol-set");
            StartType start = StartType::None;
            if (tag.attrs.contains("start")) {
                const std::string &v = tag.attrs.at("start");
                if (v == "all-input")
                    start = StartType::AllInput;
                else if (v == "start-of-data")
                    start = StartType::StartOfData;
                else if (v != "none")
                    throw std::runtime_error(
                        "ANML: unknown start kind '" + v + "'");
            }
            // Legacy attribute form.
            if (tag.attrs.contains("start-of-data") &&
                tag.attrs.at("start-of-data") == "true")
                start = StartType::StartOfData;
            current = nfa.addState(
                parseSymbolSet(tag.attrs.at("symbol-set")), start);
            if (!id_of.emplace(tag.attrs.at("id"), current).second)
                throw std::runtime_error("ANML: duplicate STE id '" +
                                         tag.attrs.at("id") + "'");
            in_ste = !tag.selfClosing;
            continue;
        }
        if (tag.name == "report-on-match") {
            if (!in_ste)
                throw std::runtime_error(
                    "ANML: report-on-match outside an STE");
            auto &state = nfa.mutableState(current);
            state.reporting = true;
            if (tag.attrs.contains("reportcode"))
                state.reportCode = static_cast<ReportCode>(
                    std::stoul(tag.attrs.at("reportcode")));
            continue;
        }
        if (tag.name == "activate-on-match") {
            if (!in_ste)
                throw std::runtime_error(
                    "ANML: activate-on-match outside an STE");
            if (!tag.attrs.contains("element"))
                throw std::runtime_error(
                    "ANML: activate-on-match needs element");
            edges.emplace_back(current, tag.attrs.at("element"));
            continue;
        }
        if (tag.name == "counter" || tag.name == "or" ||
            tag.name == "and" || tag.name == "inverter")
            throw std::runtime_error(
                "ANML: element <" + tag.name +
                "> is not supported (pure NFA semantics required, "
                "see DESIGN.md)");
        if (tag.closing)
            continue;
        throw std::runtime_error("ANML: unexpected element <" +
                                 tag.name + ">");
    }

    for (const auto &[from, target] : edges) {
        const auto it = id_of.find(target);
        if (it == id_of.end())
            throw std::runtime_error(
                "ANML: activate-on-match references unknown element '" +
                target + "'");
        nfa.addEdge(from, it->second);
    }
    nfa.finalize();
    nfa.validate();
    return nfa;
}

} // namespace pap

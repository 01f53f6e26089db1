#include "serve/protocol.hh"

#include <algorithm>

#include "engines/engines.hh"
#include "util/logging.hh"

namespace mlc {
namespace serve {

const char *
opName(Op op)
{
    switch (op) {
    case Op::Query: return "query";
    case Op::Sweep: return "sweep";
    case Op::Stats: return "stats";
    case Op::Metrics: return "metrics";
    case Op::Warm: return "warm";
    case Op::Ping: return "ping";
    case Op::Shutdown: return "shutdown";
    }
    mlc_panic("opName: corrupt op");
}

namespace {

ParsedRequest
reject(const std::string &code, const std::string &message,
       const std::string &id = "")
{
    ParsedRequest p;
    p.ok = false;
    p.errorCode = code;
    p.errorMessage = message;
    p.request.id = id;
    return p;
}

bool
fetchU64(const Json &obj, const char *key, std::uint64_t &out,
         std::string &err)
{
    const Json *v = obj.find(key);
    if (!v)
        return true; // absent: keep default
    if (!v->isNumber() || v->asNumber() < 0 ||
        v->asNumber() !=
            static_cast<double>(static_cast<std::uint64_t>(
                v->asNumber()))) {
        err = std::string(key) + " must be a non-negative integer";
        return false;
    }
    out = static_cast<std::uint64_t>(v->asNumber());
    return true;
}

} // namespace

ParsedRequest
parseRequest(const std::string &line)
{
    Json doc;
    std::string parse_error;
    if (!Json::parse(line, doc, parse_error))
        return reject("bad_json", parse_error);
    if (!doc.isObject())
        return reject("bad_request", "request must be an object");

    // The id is extracted first so even a malformed request's
    // error response can be correlated.
    std::string id;
    if (const Json *v = doc.find("id")) {
        if (v->isString())
            id = v->asString();
        else if (v->isNumber())
            id = jsonNumber(v->asNumber());
        else
            return reject("bad_request",
                          "id must be a string or number");
    }

    const Json *opv = doc.find("op");
    if (!opv || !opv->isString())
        return reject("bad_request", "missing op", id);
    const std::string &op = opv->asString();

    ParsedRequest p;
    p.ok = true;
    p.request.id = id;
    Request &req = p.request;

    if (op == "query")
        req.op = Op::Query;
    else if (op == "sweep")
        req.op = Op::Sweep;
    else if (op == "stats")
        req.op = Op::Stats;
    else if (op == "metrics")
        req.op = Op::Metrics;
    else if (op == "warm")
        req.op = Op::Warm;
    else if (op == "ping")
        req.op = Op::Ping;
    else if (op == "shutdown")
        req.op = Op::Shutdown;
    else
        return reject("bad_request", "unknown op '" + op + "'", id);

    if (const Json *v = doc.find("engine")) {
        if (!v->isString())
            return reject("bad_request", "engine must be a string",
                          id);
        req.engine = v->asString();
        engines::Engine engine = engines::Engine::Timing;
        if (!engines::engineNamed(req.engine, engine))
            return reject("bad_request",
                          "unknown engine '" + req.engine + "'",
                          id);
        // Serving mrc needs resident sampled profiles, a
        // ProfileCache kind of their own.
        if (engine == engines::Engine::Mrc)
            return reject("bad_request",
                          "engine 'mrc' is not served", id);
    }
    if (const Json *v = doc.find("workload")) {
        if (!v->isString() || v->asString().empty())
            return reject("bad_request",
                          "workload must be a non-empty string",
                          id);
        req.workload = v->asString();
    }

    std::string err;
    std::uint64_t cycles64 = 0, assoc64 = 0;
    std::uint64_t l3_cycles64 = 0, l3_assoc64 = 0;
    if (!fetchU64(doc, "l2_size", req.l2Size, err) ||
        !fetchU64(doc, "l2_cycles", cycles64, err) ||
        !fetchU64(doc, "l2_assoc", assoc64, err) ||
        !fetchU64(doc, "l1_total", req.l1Total, err) ||
        !fetchU64(doc, "seed", req.seed, err) ||
        !fetchU64(doc, "l3_size", req.l3Size, err) ||
        !fetchU64(doc, "l3_cycles", l3_cycles64, err) ||
        !fetchU64(doc, "l3_assoc", l3_assoc64, err))
        return reject("bad_request", err, id);
    req.l2Cycles = static_cast<std::uint32_t>(cycles64);
    req.l2Assoc = static_cast<std::uint32_t>(assoc64);
    req.l3Cycles = static_cast<std::uint32_t>(l3_cycles64);
    req.l3Assoc = static_cast<std::uint32_t>(l3_assoc64);
    if (req.l3Size != 0 && req.l3Cycles == 0)
        return reject("bad_request",
                      "l3_size needs l3_cycles >= 1", id);
    if (req.l3Size == 0 && (req.l3Cycles != 0 || req.l3Assoc != 0))
        return reject("bad_request",
                      "l3_cycles/l3_assoc need l3_size", id);

    const auto fetchArray =
        [&](const char *key, auto &out) -> bool {
        const Json *v = doc.find(key);
        if (!v)
            return true;
        if (!v->isArray()) {
            err = std::string(key) + " must be an array";
            return false;
        }
        for (const Json &e : v->asArray()) {
            if (!e.isNumber() || e.asNumber() <= 0) {
                err = std::string(key) +
                      " entries must be positive numbers";
                return false;
            }
            out.push_back(
                static_cast<typename std::decay_t<
                    decltype(out)>::value_type>(e.asU64()));
        }
        return true;
    };
    if (!fetchArray("sizes", req.sizes) ||
        !fetchArray("cycles", req.cycles))
        return reject("bad_request", err, id);

    // Verb-specific validation.
    if (req.op == Op::Query) {
        if (req.l2Size == 0 || req.l2Cycles == 0)
            return reject(
                "bad_request",
                "query needs l2_size and l2_cycles >= 1", id);
    } else if (req.op == Op::Sweep) {
        if (req.sizes.empty() || req.cycles.empty())
            return reject(
                "bad_request",
                "sweep needs non-empty sizes and cycles", id);
        // Grid axes must be ascending and unique
        // (DesignSpaceGrid's contract).
        if (!std::is_sorted(req.sizes.begin(), req.sizes.end()) ||
            std::adjacent_find(req.sizes.begin(),
                               req.sizes.end()) !=
                req.sizes.end() ||
            !std::is_sorted(req.cycles.begin(),
                            req.cycles.end()) ||
            std::adjacent_find(req.cycles.begin(),
                               req.cycles.end()) !=
                req.cycles.end())
            return reject("bad_request",
                          "sizes and cycles must be strictly "
                          "ascending",
                          id);
    }
    return p;
}

std::string
Request::batchKey() const
{
    std::string k = "assoc=" + std::to_string(l2Assoc) +
                    ";l1=" + std::to_string(l1Total);
    if (engine == "sampled")
        k += ";seed=" + std::to_string(seed);
    // Depth-3 requests never batch (or share profiles) with
    // depth-2 ones, and the l3 cycle time prices cells, so it must
    // split groups too.
    if (l3Size != 0)
        k += ";l3=" + std::to_string(l3Size) + "," +
             std::to_string(l3Cycles) + "," +
             std::to_string(l3Assoc);
    return k;
}

std::string
Request::detailKey() const
{
    std::string k(opName(op));
    k += ":";
    k += batchKey();
    switch (op) {
    case Op::Query:
        k += ";size=" + std::to_string(l2Size) +
             ";cyc=" + std::to_string(l2Cycles);
        break;
    case Op::Sweep: {
        k += ";sizes=";
        for (const auto s : sizes)
            k += std::to_string(s) + ",";
        k += ";cycles=";
        for (const auto c : cycles)
            k += std::to_string(c) + ",";
        break;
    }
    default: break;
    }
    return k;
}

std::string
errorResponse(const std::string &id, const std::string &code,
              const std::string &message)
{
    std::string out = "{";
    if (!id.empty())
        out += "\"id\":" + jsonQuote(id) + ",";
    out += "\"ok\":false,\"error\":{\"code\":" + jsonQuote(code) +
           ",\"message\":" + jsonQuote(message) + "}}";
    return out;
}

std::string
okResponse(const std::string &id, const std::string &payload,
           bool cached, std::uint64_t compute_us)
{
    std::string out = "{";
    if (!id.empty())
        out += "\"id\":" + jsonQuote(id) + ",";
    out += "\"ok\":true";
    if (!payload.empty()) {
        out += ",";
        out += payload;
    }
    out += ",\"cached\":";
    out += cached ? "true" : "false";
    out += ",\"compute_us\":" + std::to_string(compute_us) + "}";
    return out;
}

} // namespace serve
} // namespace mlc
